//===- serve/telemetry.cpp - Serving telemetry plane ----------------------===//

#include "serve/telemetry.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <unordered_set>

#include "codegen/profile.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace fs = std::filesystem;

namespace ft::serve::telemetry {

namespace detail {
std::atomic<bool> Enabled{false};
} // namespace detail

void setEnabled(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

namespace {

long envLong(const char *Name, long Default, long Min) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Default;
  char *End = nullptr;
  long V = std::strtol(E, &End, 10);
  if (End == E)
    return Default;
  return V < Min ? Min : V;
}

//===----------------------------------------------------------------------===//
// Hook state
//===----------------------------------------------------------------------===//

/// Histogram references resolved once; record() is then pure relaxed
/// atomics. Grouped in a leaked singleton so the first hook call pays the
/// registry lookups, not every call.
struct Hists {
  metrics::Histogram &QueueWait = metrics::histogram("serve/queue_wait_ns");
  metrics::Histogram &RunJit = metrics::histogram("serve/run_ns_jit");
  metrics::Histogram &RunInterp = metrics::histogram("serve/run_ns_interp");
  metrics::Histogram &BatchSize = metrics::histogram("serve/batch_size");
  metrics::Histogram &CompileNs = metrics::histogram("serve/compile_ns");
  /// Time-to-deadline headroom of met requests / overage of missed ones.
  metrics::Histogram &SloSlack = metrics::histogram("serve/slo_slack_ns");
  metrics::Histogram &SloOverrun = metrics::histogram("serve/slo_overrun_ns");
  metrics::Counter &DeadlineMet = metrics::counter("serve/deadline_met");
  metrics::Counter &DeadlineMissed =
      metrics::counter("serve/deadline_missed");
};

Hists &hists() {
  static Hists *H = new Hists;
  return *H;
}

/// Per-fingerprint aggregates behind hotKernels(). One short mutex hold
/// per completed request — only paid when telemetry is on.
struct Agg {
  uint64_t Requests = 0;
  uint64_t TotalNs = 0;
  uint64_t Jit = 0;
  uint64_t Interp = 0;
  uint64_t Errors = 0;
};

std::mutex AggMu;
std::map<uint64_t, Agg> &aggs() {
  static std::map<uint64_t, Agg> *M = new std::map<uint64_t, Agg>;
  return *M;
}

/// One (fingerprint, shape) cell of the workload table.
struct ShapeAgg {
  uint64_t Requests = 0;
  uint64_t TotalNs = 0;
  metrics::HistogramSnapshot Lat; ///< submit→completion ns.
};

/// One fingerprint's shape rows, bounded by shapeTableCap(): once the cap
/// is reached, new distinct shapes fold into Other (with a distinct-shape
/// count so the overflow is visible, not silent).
struct FpShapes {
  std::map<std::string, ShapeAgg> Shapes;
  ShapeAgg Other;
  /// Hashes of shapes folded into Other, for a distinct count. Bounded
  /// (the whole point of the cap is bounded memory): past 4096 distinct
  /// overflow shapes the count saturates and stops admitting hashes.
  std::unordered_set<uint64_t> OtherSeen;
  uint64_t OtherDistinct = 0; ///< Distinct shapes folded into Other.

  static constexpr size_t kMaxOtherSeen = 4096;

  void noteOverflow(const std::string &ShapeKey) {
    if (OtherSeen.size() >= kMaxOtherSeen)
      return;
    if (OtherSeen.insert(std::hash<std::string>{}(ShapeKey)).second)
      ++OtherDistinct;
  }
};

std::map<uint64_t, FpShapes> &shapeAggs() {
  static std::map<uint64_t, FpShapes> *M = new std::map<uint64_t, FpShapes>;
  return *M;
}

/// Per-tenant SLO aggregate (TenantSlo minus the name).
struct TenantAgg {
  uint64_t Requests = 0;
  uint64_t Met = 0;
  uint64_t Missed = 0;
  uint64_t TotalNs = 0;
  metrics::HistogramSnapshot Slack;
};

std::map<std::string, TenantAgg> &tenantAggs() {
  static std::map<std::string, TenantAgg> *M =
      new std::map<std::string, TenantAgg>;
  return *M;
}

/// Shape-table cap: the setter overrides FT_SHAPE_TABLE_CAP (tests); the
/// env is read once.
std::atomic<long> ShapeCapOverride{-1};

std::atomic<uint64_t> NextBatchId{0};
std::atomic<uint64_t> SnapSeq{0};
std::atomic<uint64_t> SnapsWritten{0};

double nowWallMs() {
  return double(std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count());
}

std::string hexFp(uint64_t Fp) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Fp));
  return Buf;
}

} // namespace

Config Config::fromEnv() {
  Config C;
  if (const char *E = std::getenv("FT_TELEMETRY_DIR"))
    C.Dir = E;
  C.IntervalMs =
      static_cast<int>(envLong("FT_TELEMETRY_INTERVAL_MS", C.IntervalMs, 10));
  C.Keep = static_cast<int>(envLong("FT_TELEMETRY_KEEP", C.Keep, 1));
  return C;
}

//===----------------------------------------------------------------------===//
// Hooks
//===----------------------------------------------------------------------===//

void onRequestComplete(const RequestSample &S) {
  if (!enabled())
    return;
  Hists &H = hists();
  H.QueueWait.record(S.QueueNs);
  if (S.Out == Outcome::Ok)
    (S.ServedBy == Tier::Jit ? H.RunJit : H.RunInterp).record(S.RunNs);

  const bool HasDeadline = S.DeadlineNs > 0;
  const bool Missed = HasDeadline && S.TotalNs > S.DeadlineNs;
  if (HasDeadline) {
    if (Missed) {
      H.DeadlineMissed.fetch_add(1);
      H.SloOverrun.record(S.TotalNs - S.DeadlineNs);
    } else {
      H.DeadlineMet.fetch_add(1);
      H.SloSlack.record(S.DeadlineNs - S.TotalNs);
    }
  }

  FlightEvent E;
  E.TsUs = trace::nowMicros();
  E.Fingerprint = S.Fingerprint;
  E.ReqId = S.ReqId;
  E.Tenant = S.Tenant;
  E.Tier = nameOf(S.ServedBy);
  E.Out = S.Out;
  E.QueueNs = S.QueueNs;
  E.RunNs = S.RunNs;
  E.TotalNs = S.TotalNs;
  E.BatchSize = S.BatchSize;
  E.BatchId = S.BatchId;
  E.DeadlineNs = S.DeadlineNs;
  E.DeadlineMissed = Missed;
  E.Error = S.Error;
  flightRecorder().record(std::move(E));

  std::lock_guard<std::mutex> L(AggMu);
  Agg &A = aggs()[S.Fingerprint];
  ++A.Requests;
  A.TotalNs += S.TotalNs;
  if (S.ServedBy == Tier::Jit)
    ++A.Jit;
  else
    ++A.Interp;
  if (S.Out != Outcome::Ok)
    ++A.Errors;

  if (!S.ShapeKey.empty()) {
    FpShapes &FS = shapeAggs()[S.Fingerprint];
    ShapeAgg *SA;
    auto It = FS.Shapes.find(S.ShapeKey);
    if (It != FS.Shapes.end()) {
      SA = &It->second;
    } else if (FS.Shapes.size() < shapeTableCap()) {
      SA = &FS.Shapes[S.ShapeKey];
    } else {
      FS.noteOverflow(S.ShapeKey);
      SA = &FS.Other;
    }
    ++SA->Requests;
    SA->TotalNs += S.TotalNs;
    SA->Lat.add(S.TotalNs);
  }

  TenantAgg &T = tenantAggs()[S.Tenant];
  ++T.Requests;
  T.TotalNs += S.TotalNs;
  if (HasDeadline) {
    if (Missed)
      ++T.Missed;
    else {
      ++T.Met;
      T.Slack.add(S.DeadlineNs - S.TotalNs);
    }
  }
}

void onReject(uint64_t Fingerprint, Outcome Out, uint64_t ReqId,
              const std::string &Tenant) {
  if (!enabled())
    return;
  FlightEvent E;
  E.TsUs = trace::nowMicros();
  E.Fingerprint = Fingerprint;
  E.ReqId = ReqId;
  E.Tenant = Tenant;
  E.Out = Out;
  flightRecorder().record(std::move(E));
}

uint64_t onBatch(uint32_t Size) {
  if (!enabled())
    return 0;
  hists().BatchSize.record(Size);
  return NextBatchId.fetch_add(1, std::memory_order_relaxed) + 1;
}

void onCompile(uint64_t Ns, bool Ok) {
  if (!enabled())
    return;
  (void)Ok;
  hists().CompileNs.record(Ns);
}

//===----------------------------------------------------------------------===//
// Hot-kernel ranking
//===----------------------------------------------------------------------===//

std::vector<HotKernel> hotKernels(size_t TopK) {
  std::vector<HotKernel> Out;
  {
    std::lock_guard<std::mutex> L(AggMu);
    Out.reserve(aggs().size());
    for (const auto &[Fp, A] : aggs()) {
      HotKernel K;
      K.Fingerprint = Fp;
      K.Requests = A.Requests;
      K.TotalNs = A.TotalNs;
      K.MeanNs = A.Requests ? double(A.TotalNs) / double(A.Requests) : 0;
      K.Jit = A.Jit;
      K.Interp = A.Interp;
      K.Errors = A.Errors;
      Out.push_back(K);
    }
  }
  std::sort(Out.begin(), Out.end(), [](const HotKernel &A, const HotKernel &B) {
    if (A.TotalNs != B.TotalNs)
      return A.TotalNs > B.TotalNs;
    return A.Fingerprint < B.Fingerprint; // deterministic tie-break
  });
  if (TopK != 0 && Out.size() > TopK)
    Out.resize(TopK);
  return Out;
}

//===----------------------------------------------------------------------===//
// Shape table & tenant SLO
//===----------------------------------------------------------------------===//

size_t shapeTableCap() {
  long O = ShapeCapOverride.load(std::memory_order_relaxed);
  if (O >= 0)
    return static_cast<size_t>(O);
  static const size_t EnvCap =
      static_cast<size_t>(envLong("FT_SHAPE_TABLE_CAP", 32, 1));
  return EnvCap;
}

void setShapeTableCap(size_t Cap) {
  ShapeCapOverride.store(Cap < 1 ? 1 : static_cast<long>(Cap),
                         std::memory_order_relaxed);
}

namespace {

ShapeStat toStat(uint64_t Fp, std::string Key, const ShapeAgg &A) {
  ShapeStat S;
  S.Fingerprint = Fp;
  S.ShapeKey = std::move(Key);
  S.Requests = A.Requests;
  S.TotalNs = A.TotalNs;
  S.MeanNs = A.Requests ? double(A.TotalNs) / double(A.Requests) : 0;
  S.Lat = A.Lat;
  return S;
}

} // namespace

std::vector<ShapeStat> hotShapes(size_t TopK) {
  std::vector<ShapeStat> Out;
  {
    std::lock_guard<std::mutex> L(AggMu);
    for (const auto &[Fp, FS] : shapeAggs())
      for (const auto &[Key, A] : FS.Shapes)
        Out.push_back(toStat(Fp, Key, A));
  }
  std::sort(Out.begin(), Out.end(), [](const ShapeStat &A, const ShapeStat &B) {
    if (A.TotalNs != B.TotalNs)
      return A.TotalNs > B.TotalNs;
    if (A.Fingerprint != B.Fingerprint)
      return A.Fingerprint < B.Fingerprint; // deterministic tie-break
    return A.ShapeKey < B.ShapeKey;
  });
  if (TopK != 0 && Out.size() > TopK)
    Out.resize(TopK);
  return Out;
}

std::vector<ShapeStat> shapeTable() {
  std::vector<ShapeStat> Out;
  std::lock_guard<std::mutex> L(AggMu);
  for (const auto &[Fp, FS] : shapeAggs()) {
    for (const auto &[Key, A] : FS.Shapes)
      Out.push_back(toStat(Fp, Key, A));
    if (FS.Other.Requests > 0)
      Out.push_back(toStat(Fp, "other", FS.Other));
  }
  return Out;
}

std::vector<TenantSlo> tenantSlo() {
  std::vector<TenantSlo> Out;
  std::lock_guard<std::mutex> L(AggMu);
  Out.reserve(tenantAggs().size());
  for (const auto &[Name, A] : tenantAggs()) {
    TenantSlo T;
    T.Tenant = Name;
    T.Requests = A.Requests;
    T.Met = A.Met;
    T.Missed = A.Missed;
    T.TotalNs = A.TotalNs;
    T.Slack = A.Slack;
    Out.push_back(std::move(T));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Snapshot serialization
//===----------------------------------------------------------------------===//

std::string writeSnapshotString() {
  uint64_t Seq = SnapSeq.fetch_add(1, std::memory_order_relaxed) + 1;

  std::string J;
  J.reserve(8192);
  json::Writer W(J);
  W.beginObject().key("schema").value("freetensor-telemetry/v2");
  W.key("seq").value(Seq).key("wall_unix_ms").value(nowWallMs());

  // Every registered counter, sorted by name.
  W.key("counters").beginObject();
  for (const auto &[Name, Val] : metrics::snapshot())
    W.key(Name).value(Val);
  W.endObject();

  // Non-empty histograms with estimated percentiles and sparse buckets.
  W.key("histograms").beginArray();
  for (const metrics::HistogramSnapshot &H : metrics::snapshotHistograms()) {
    if (H.Count == 0)
      continue;
    W.beginObject().key("name").value(H.Name).key("count").value(H.Count);
    W.key("sum").value(H.Sum).key("min").value(H.Min).key("max").value(H.Max);
    W.key("mean").value(H.mean()).key("p50").value(H.quantile(0.50));
    W.key("p95").value(H.quantile(0.95)).key("p99").value(H.quantile(0.99));
    W.key("buckets").beginArray();
    for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
      if (H.Buckets[I] != 0)
        W.beginArray().value(I).value(H.Buckets[I]).endArray();
    W.endArray().endObject();
  }
  W.endArray();

  // Hot kernels, heaviest first. Fingerprints travel as hex strings: the
  // JSON number type (double) cannot hold a full u64.
  W.key("kernels").beginArray();
  for (const HotKernel &K : hotKernels()) {
    W.beginObject().key("fingerprint").value(hexFp(K.Fingerprint));
    W.key("requests").value(K.Requests).key("total_ns").value(K.TotalNs);
    W.key("mean_ns").value(K.MeanNs).key("jit").value(K.Jit);
    W.key("interp").value(K.Interp).key("errors").value(K.Errors);
    W.endObject();
  }
  W.endArray();

  // The latency-distribution keys a shape row or a tenant's slack carries.
  auto Latency = [&W](const metrics::HistogramSnapshot &H) {
    W.key("count").value(H.Count).key("min_ns").value(H.Min);
    W.key("max_ns").value(H.Max).key("mean_ns").value(H.mean());
    W.key("p50_ns").value(H.quantile(0.50));
    W.key("p95_ns").value(H.quantile(0.95));
    W.key("p99_ns").value(H.quantile(0.99));
  };

  // Workload characterization: the per-fingerprint shape table, each row
  // with its own latency distribution. The "other" bucket aggregates the
  // shapes past the table cap so counts always sum to requests served.
  {
    std::lock_guard<std::mutex> L(AggMu);
    W.key("shapes").beginArray();
    for (const auto &[Fp, FS] : shapeAggs()) {
      W.beginObject().key("fingerprint").value(hexFp(Fp));
      W.key("table_cap").value(shapeTableCap()).key("rows").beginArray();
      for (const auto &[Key, A] : FS.Shapes) {
        W.beginObject().key("shape").value(Key);
        W.key("requests").value(A.Requests).key("total_ns").value(A.TotalNs);
        Latency(A.Lat);
        W.endObject();
      }
      W.endArray().key("other").beginObject();
      W.key("requests").value(FS.Other.Requests);
      W.key("total_ns").value(FS.Other.TotalNs);
      W.key("distinct_shapes").value(FS.OtherDistinct);
      W.endObject().endObject();
    }
    W.endArray();

    // SLO monitoring: per-tenant deadline accounting. "slack" is the
    // time-to-deadline headroom distribution of met requests.
    W.key("tenants").beginArray();
    for (const auto &[Name, A] : tenantAggs()) {
      W.beginObject().key("tenant").value(Name);
      W.key("requests").value(A.Requests).key("met").value(A.Met);
      W.key("missed").value(A.Missed).key("total_ns").value(A.TotalNs);
      W.key("slack").beginObject();
      Latency(A.Slack);
      W.endObject().endObject();
    }
    W.endArray();
  }

  // Flight recorder: cumulative summary + the newest buffered events
  // (peeked, not drained — snapshots must not consume the black box).
  FlightSummary FS = flightRecorder().summary();
  W.key("flight").beginObject();
  W.key("recorded").value(FS.Recorded).key("ok").value(FS.Ok);
  W.key("invalid_args").value(FS.InvalidArgs);
  W.key("run_errors").value(FS.RunErrors);
  W.key("rejected_full").value(FS.RejectedFull);
  W.key("rejected_shutdown").value(FS.RejectedShutdown);
  W.key("recent").beginArray();
  for (const FlightEvent &E : flightRecorder().peek(64)) {
    W.beginObject().key("seq").value(E.Seq).key("ts_us").value(E.TsUs);
    W.key("fingerprint").value(hexFp(E.Fingerprint));
    W.key("req_id").value(E.ReqId).key("tenant").value(E.Tenant);
    W.key("tier").value(E.Tier).key("outcome").value(nameOf(E.Out));
    W.key("queue_ns").value(E.QueueNs).key("run_ns").value(E.RunNs);
    W.key("total_ns").value(E.TotalNs);
    W.key("batch_size").value(E.BatchSize).key("batch_id").value(E.BatchId);
    W.key("deadline_ns").value(E.DeadlineNs);
    W.key("deadline_missed").value(E.DeadlineMissed);
    if (!E.Error.empty())
      W.key("error").value(E.Error);
    W.endObject();
  }
  W.endArray().endObject();

  // Kernel profiler join: per-loop tables when FT_PROFILE collected any.
  W.key("profiles").beginArray();
  for (const profile::KernelProfile &P : profile::snapshotProfiles())
    profile::writeJson(W, P);
  W.endArray().endObject();
  return J;
}

//===----------------------------------------------------------------------===//
// Exporter
//===----------------------------------------------------------------------===//

namespace {

/// One exporter lifetime (start → stop). Each startExporter() creates a
/// fresh run with its own stop flag: the flag of a run that is being
/// stopped can never be cleared by a concurrent restart, which is what
/// made the previous single-struct design able to wedge — a restart racing
/// a stop could reset StopReq before the old thread observed it, leaving
/// the stopper joining a thread that would never exit. C is written once
/// before the run is published and never mutated, so readers need no lock
/// for it.
struct ExporterRun {
  std::mutex Mu;
  std::condition_variable Cv;
  bool StopReq = false;
  std::thread Th;
  Config C;
};

/// Guards the current-run pointer only. stopExporter swaps the pointer out
/// under this lock and joins outside it, so concurrent stops are safe:
/// exactly one caller obtains the run, the rest see null.
struct Exporter {
  std::mutex Mu;
  std::shared_ptr<ExporterRun> Cur;
};

Exporter &exporter() {
  static Exporter *E = new Exporter;
  return *E;
}

std::atomic<uint64_t> TmpCounter{0};

/// Atomic publish: write to a sibling tmp file, then rename(2) into place
/// (same pattern as the kernel cache's writeAtomic).
Status writeFileAtomic(const std::string &Dest, const std::string &Bytes) {
  std::string Tmp = Dest + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Status::error("telemetry: cannot open " + Tmp);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out)
      return Status::error("telemetry: short write to " + Tmp);
  }
  std::error_code Ec;
  fs::rename(Tmp, Dest, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return Status::error("telemetry: rename to " + Dest + " failed");
  }
  return Status::success();
}

/// Prunes Dir to the newest \p Keep snap-*.json files. Filenames embed a
/// zero-padded epoch-ms + seq, so lexicographic order is age order even
/// across process restarts.
void applyRetention(const std::string &Dir, int Keep) {
  std::error_code Ec;
  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec)) {
    std::string N = E.path().filename().string();
    if (N.rfind("snap-", 0) == 0 && N.size() > 5 &&
        N.rfind(".json") == N.size() - 5)
      Names.push_back(N);
  }
  if (Names.size() <= size_t(Keep))
    return;
  std::sort(Names.begin(), Names.end());
  for (size_t I = 0; I + size_t(Keep) < Names.size(); ++I)
    fs::remove(fs::path(Dir) / Names[I], Ec);
}

Status writeSnapshotTo(const Config &C) {
  std::string Body = writeSnapshotString();
  uint64_t Seq = SnapSeq.load(std::memory_order_relaxed);
  char Name[64];
  std::snprintf(Name, sizeof(Name), "snap-%013llu-%06llu.json",
                static_cast<unsigned long long>(nowWallMs()),
                static_cast<unsigned long long>(Seq));
  Status S = writeFileAtomic((fs::path(C.Dir) / Name).string(), Body);
  if (S.ok()) {
    SnapsWritten.fetch_add(1, std::memory_order_relaxed);
    applyRetention(C.Dir, C.Keep);
  }
  return S;
}

void exporterLoop(std::shared_ptr<ExporterRun> R) {
  for (;;) {
    {
      std::unique_lock<std::mutex> L(R->Mu);
      R->Cv.wait_for(L, std::chrono::milliseconds(R->C.IntervalMs),
                     [&R] { return R->StopReq; });
      if (R->StopReq) {
        // Final snapshot: the exit dump of the flight recorder.
        (void)writeSnapshotTo(R->C);
        return;
      }
    }
    (void)writeSnapshotTo(R->C);
  }
}

} // namespace

Status writeSnapshotNow() {
  Config C;
  {
    Exporter &E = exporter();
    std::lock_guard<std::mutex> L(E.Mu);
    C = E.Cur ? E.Cur->C : Config::fromEnv();
  }
  if (C.Dir.empty())
    return Status::error("telemetry: no snapshot directory (FT_TELEMETRY_DIR)");
  std::error_code Ec;
  fs::create_directories(C.Dir, Ec);
  return writeSnapshotTo(C);
}

Status startExporter(const Config &C) {
  if (C.Dir.empty())
    return Status::error("telemetry: Config.Dir is empty");
  std::error_code Ec;
  fs::create_directories(C.Dir, Ec);
  if (Ec && !fs::is_directory(C.Dir))
    return Status::error("telemetry: cannot create " + C.Dir);
  stopExporter();
  setEnabled(true);
  auto R = std::make_shared<ExporterRun>();
  R->C = C; // Published before the thread starts and before Cur is set.
  R->Th = std::thread(exporterLoop, R);
  Exporter &E = exporter();
  std::shared_ptr<ExporterRun> Displaced;
  {
    std::lock_guard<std::mutex> L(E.Mu);
    Displaced = std::move(E.Cur);
    E.Cur = std::move(R);
  }
  // A concurrent startExporter may have installed its run between our
  // stopExporter() above and the swap; stop the displaced run rather than
  // leak its thread. (Sequential callers never hit this: Displaced is
  // null after stopExporter.)
  if (Displaced) {
    {
      std::lock_guard<std::mutex> L(Displaced->Mu);
      Displaced->StopReq = true;
    }
    Displaced->Cv.notify_all();
    if (Displaced->Th.joinable())
      Displaced->Th.join();
  }
  return Status::success();
}

void stopExporter() {
  std::shared_ptr<ExporterRun> R;
  {
    Exporter &E = exporter();
    std::lock_guard<std::mutex> L(E.Mu);
    R = std::move(E.Cur);
  }
  if (!R)
    return; // Already stopped (or never started) — idempotent.
  {
    std::lock_guard<std::mutex> L(R->Mu);
    R->StopReq = true;
  }
  R->Cv.notify_all();
  if (R->Th.joinable())
    R->Th.join();
}

void autoStartFromEnv() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    Config C = Config::fromEnv();
    if (C.Dir.empty())
      return;
    if (startExporter(C).ok())
      std::atexit([] { stopExporter(); });
  });
}

uint64_t snapshotsWritten() {
  return SnapsWritten.load(std::memory_order_relaxed);
}

void reset() {
  {
    std::lock_guard<std::mutex> L(AggMu);
    aggs().clear();
    shapeAggs().clear();
    tenantAggs().clear();
  }
  flightRecorder().reset();
  SnapSeq.store(0, std::memory_order_relaxed);
}

} // namespace ft::serve::telemetry
