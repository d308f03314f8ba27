//===- support/trace.cpp --------------------------------------------------===//

#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "support/json.h"
#include "support/metrics.h"

namespace ft::trace {

std::atomic<bool> detail::Enabled{false};
std::atomic<bool> detail::AuditOn{false};

namespace {

/// Recorded spans are capped so a long tracing session cannot exhaust
/// memory; drops are counted in the "trace/dropped_spans" metric.
constexpr size_t MaxSpans = size_t(1) << 20;

struct State {
  std::mutex M;
  std::vector<SpanEvent> Spans;
  std::vector<FlowEvent> Flows;
  std::vector<ScheduleDecision> Audit;
  std::map<std::thread::id, int> Tids;
  uint64_t NextSeq = 0;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::string TracePath;    ///< FT_TRACE destination ("" = none).
  bool MetricsAtExit = false; ///< FT_METRICS=1.
};

/// Leaked on purpose so the atexit sinks can never observe a destroyed
/// buffer regardless of static-destruction order across TUs.
State &state() {
  static State *S = new State;
  return *S;
}

thread_local int CurDepth = 0;

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - state().Epoch)
      .count();
}

int tidOfCurrentThread(State &S) {
  auto Id = std::this_thread::get_id();
  auto It = S.Tids.find(Id);
  if (It == S.Tids.end())
    It = S.Tids.emplace(Id, static_cast<int>(S.Tids.size())).first;
  return It->second;
}

void atExitSinks() {
  State &S = state();
  std::string Path;
  bool Metrics;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    Path = S.TracePath;
    Metrics = S.MetricsAtExit;
  }
  if (!Path.empty()) {
    Status St = writeChromeTrace(Path);
    if (!St.ok())
      std::fprintf(stderr, "FT_TRACE: %s\n", St.message().c_str());
    else
      std::fprintf(stderr,
                   "FT_TRACE: wrote %s (open in chrome://tracing or "
                   "https://ui.perfetto.dev)\n",
                   Path.c_str());
  }
  if (Metrics)
    writeMetricsSummary();
}

/// Arms the sinks from the environment at static-initialization time.
/// Spans created before this TU initializes see Enabled == false (the
/// zero-initialized default) and are simply not recorded.
struct EnvInit {
  EnvInit() {
    State &S = state();
    bool Arm = false;
    if (const char *Path = std::getenv("FT_TRACE");
        Path != nullptr && Path[0] != '\0') {
      S.TracePath = Path;
      Arm = true;
    }
    if (const char *V = std::getenv("FT_METRICS");
        V != nullptr && V[0] == '1') {
      S.MetricsAtExit = true;
      Arm = true;
    }
    if (Arm) {
      detail::Enabled.store(true, std::memory_order_relaxed);
      std::atexit(atExitSinks);
    }
  }
} TheEnvInit;

/// The layer prefix of a span name ("pass/simplify" -> "pass").
std::string layerOf(const std::string &Name) {
  size_t Slash = Name.find('/');
  return Slash == std::string::npos ? std::string("misc")
                                    : Name.substr(0, Slash);
}

/// "[3, 7]" — statement-id lists in annotations and the JSON sink.
std::string fmtIdList(const std::vector<int64_t> &Ids) {
  std::string Out = "[";
  for (size_t I = 0; I < Ids.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(Ids[I]);
  return Out + "]";
}

} // namespace

//===----------------------------------------------------------------------===//
// Switches
//===----------------------------------------------------------------------===//

void setEnabled(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

void setAuditEnabled(bool On) {
  detail::AuditOn.store(On, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

void Span::open(const char *N) {
  Active = true;
  Name = N;
  Depth = CurDepth++;
  StartUs = nowUs();
}

void Span::close() {
  double EndUs = nowUs();
  --CurDepth;
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Spans.size() >= MaxSpans) {
    metrics::counter("trace/dropped_spans").fetch_add(1);
    return;
  }
  SpanEvent E;
  E.Name = std::move(Name);
  E.Args = std::move(Args);
  E.StartUs = StartUs;
  E.DurUs = EndUs - StartUs;
  E.Tid = tidOfCurrentThread(S);
  E.Depth = Depth;
  E.Seq = S.NextSeq++;
  S.Spans.push_back(std::move(E));
}

void emitFlow(const char *Name, uint64_t Id, char Phase) {
  if (!enabled())
    return;
  FlowEvent E;
  E.Name = Name;
  E.Id = Id;
  E.Phase = Phase;
  E.TsUs = nowUs();
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  // Flows share the span cap: a point without its surrounding spans is
  // useless, so both stop together.
  if (S.Spans.size() + S.Flows.size() >= MaxSpans) {
    metrics::counter("trace/dropped_spans").fetch_add(1);
    return;
  }
  E.Tid = tidOfCurrentThread(S);
  E.Seq = S.NextSeq++;
  S.Flows.push_back(std::move(E));
}

void Span::annotate(const std::string &Key, double Value) {
  if (!Active)
    return;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Args.emplace_back(Key, Buf);
}

//===----------------------------------------------------------------------===//
// Audit log
//===----------------------------------------------------------------------===//

void recordDecision(ScheduleDecision D) {
  if (!auditEnabled())
    return;
  D.TsUs = nowUs();
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Audit.push_back(std::move(D));
}

size_t auditSize() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Audit.size();
}

std::vector<ScheduleDecision> auditLogSince(size_t From) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  if (From >= S.Audit.size())
    return {};
  return std::vector<ScheduleDecision>(S.Audit.begin() +
                                           static_cast<ptrdiff_t>(From),
                                       S.Audit.end());
}

std::vector<ScheduleDecision> auditLog() { return auditLogSince(0); }

ScheduleAudit::ScheduleAudit(const char *Primitive, std::string Target)
    : Sp(enabled() ? ("schedule/" + std::string(Primitive)).c_str() : ""),
      Primitive(Primitive), Target(std::move(Target)) {
  Armed = auditEnabled();
  if (!Armed)
    return;
  StartUs = nowUs();
  static metrics::Counter &DepQ = metrics::counter("deps/dep_queries");
  static metrics::Counter &EmptyQ = metrics::counter("deps/emptiness_queries");
  DepQ0 = DepQ.load();
  EmptyQ0 = EmptyQ.load();
}

ScheduleAudit::~ScheduleAudit() {
  // A primitive that returned without passing through finish() (early
  // internal exit) is still closed as a span; no decision is recorded
  // because the outcome is unknown.
}

void ScheduleAudit::finishImpl(const Status &S) {
  if (!Armed || Finished)
    return;
  Finished = true;
  static metrics::Counter &DepQ = metrics::counter("deps/dep_queries");
  static metrics::Counter &EmptyQ = metrics::counter("deps/emptiness_queries");
  ScheduleDecision D;
  D.Primitive = Primitive;
  D.Target = Target;
  D.Applied = S.ok();
  D.Reason = S.message();
  D.DepQueries = DepQ.load() - DepQ0;
  D.EmptinessQueries = EmptyQ.load() - EmptyQ0;
  D.DurUs = nowUs() - StartUs;
  D.StmtIds = std::move(StmtIds);
  if (Sp.active()) {
    Sp.annotate("target", Target);
    Sp.annotate("applied", std::string(D.Applied ? "true" : "false"));
    if (!D.Applied)
      Sp.annotate("reason", D.Reason);
    Sp.annotate("dep_queries", D.DepQueries);
    Sp.annotate("emptiness_queries", D.EmptinessQueries);
    if (!D.StmtIds.empty())
      Sp.annotate("stmt_ids", fmtIdList(D.StmtIds));
  }
  recordDecision(std::move(D));
}

//===----------------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------------===//

Snapshot snapshot() {
  State &S = state();
  Snapshot Out;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    Out.Spans = S.Spans;
    Out.Flows = S.Flows;
    Out.Audit = S.Audit;
  }
  Out.Counters = metrics::snapshot();
  return Out;
}

double nowMicros() { return nowUs(); }

void emitSpan(SpanEvent E) {
  if (!enabled())
    return;
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Spans.size() >= MaxSpans) {
    metrics::counter("trace/dropped_spans").fetch_add(1);
    return;
  }
  E.Tid = tidOfCurrentThread(S);
  E.Seq = S.NextSeq++;
  S.Spans.push_back(std::move(E));
}

void clear() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Spans.clear();
  S.Flows.clear();
  S.Audit.clear();
  S.NextSeq = 0;
}

Status writeChromeTrace(const std::string &Path) {
  Snapshot Snap = snapshot();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Status::error("could not open trace file " + Path);
  std::string Buf;
  json::Writer W(Buf);
  // Written out in pieces so a long trace is never held twice in memory.
  auto Drain = [&](size_t Over) {
    if (Buf.size() < Over)
      return;
    std::fwrite(Buf.data(), 1, Buf.size(), F);
    Buf.clear();
  };
  constexpr size_t Chunk = size_t(1) << 16;
  // Timestamps are microseconds; digits past the nanosecond are noise.
  auto Us = [](double V) { return std::round(V * 1e3) / 1e3; };
  W.beginObject().key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();
  for (const SpanEvent &E : Snap.Spans) {
    W.beginObject().key("name").value(E.Name);
    W.key("cat").value(layerOf(E.Name)).key("ph").value("X");
    W.key("ts").value(Us(E.StartUs)).key("dur").value(Us(E.DurUs));
    W.key("pid").value(1).key("tid").value(E.Tid);
    W.key("args").beginObject();
    for (const auto &[K, V] : E.Args)
      W.key(K).value(V);
    W.key("depth").value(std::to_string(E.Depth)).endObject().endObject();
    Drain(Chunk);
  }
  for (const FlowEvent &E : Snap.Flows) {
    W.beginObject().key("name").value(E.Name).key("cat").value("flow");
    W.key("ph").value(std::string_view(&E.Phase, 1)).key("id").value(E.Id);
    W.key("ts").value(Us(E.TsUs)).key("pid").value(1).key("tid").value(E.Tid);
    if (E.Phase == 'f')
      W.key("bp").value("e");
    W.endObject();
    Drain(Chunk);
  }
  for (const ScheduleDecision &D : Snap.Audit) {
    W.beginObject().key("name").value("audit/" + D.Primitive);
    W.key("cat").value("audit").key("ph").value("i");
    W.key("ts").value(Us(D.TsUs)).key("s").value("p");
    W.key("pid").value(1).key("tid").value(0);
    W.key("args").beginObject().key("primitive").value(D.Primitive);
    W.key("target").value(D.Target);
    W.key("applied").value(D.Applied ? "true" : "false");
    W.key("reason").value(D.Reason);
    W.key("dep_queries").value(std::to_string(D.DepQueries));
    W.key("emptiness_queries").value(std::to_string(D.EmptinessQueries));
    if (!D.StmtIds.empty())
      W.key("stmt_ids").value(fmtIdList(D.StmtIds));
    W.endObject().endObject();
    Drain(Chunk);
  }
  W.endArray().endObject();
  Buf += '\n';
  Drain(0);
  if (std::fclose(F) != 0)
    return Status::error("could not write trace file " + Path);
  return Status::success();
}

void writeMetricsSummary(std::FILE *Out) {
  if (!Out)
    Out = stderr;
  Snapshot Snap = snapshot();

  struct Agg {
    uint64_t Count = 0;
    double TotalUs = 0;
  };
  std::map<std::string, Agg> ByName;
  std::map<std::string, Agg> ByLayer;
  for (const SpanEvent &E : Snap.Spans) {
    Agg &N = ByName[E.Name];
    ++N.Count;
    N.TotalUs += E.DurUs;
    // Layer rollups count only top-of-layer time: nested spans of the same
    // layer (e.g. simplify -> const_fold) would double-count.
    Agg &L = ByLayer[layerOf(E.Name)];
    ++L.Count;
    L.TotalUs += E.DurUs;
  }

  std::fprintf(Out, "=== FT_METRICS: span summary (%zu spans) ===\n",
               Snap.Spans.size());
  std::string CurLayer;
  for (const auto &[Name, A] : ByName) {
    std::string Layer = layerOf(Name);
    if (Layer != CurLayer) {
      const Agg &L = ByLayer[Layer];
      std::fprintf(Out, "[%s]  %llu spans, %.3f ms\n", Layer.c_str(),
                   static_cast<unsigned long long>(L.Count),
                   L.TotalUs / 1e3);
      CurLayer = Layer;
    }
    std::fprintf(Out, "  %-38s %8llu x %12.3f ms\n", Name.c_str(),
                 static_cast<unsigned long long>(A.Count), A.TotalUs / 1e3);
  }

  if (!Snap.Audit.empty()) {
    struct Tally {
      uint64_t Applied = 0;
      uint64_t Rejected = 0;
    };
    std::map<std::string, Tally> Tallies;
    for (const ScheduleDecision &D : Snap.Audit) {
      Tally &T = Tallies[D.Primitive];
      ++(D.Applied ? T.Applied : T.Rejected);
    }
    std::fprintf(Out, "=== FT_METRICS: schedule decisions (%zu) ===\n",
                 Snap.Audit.size());
    for (const auto &[Prim, T] : Tallies)
      std::fprintf(Out, "  %-20s applied %6llu, rejected %6llu\n",
                   Prim.c_str(), static_cast<unsigned long long>(T.Applied),
                   static_cast<unsigned long long>(T.Rejected));
  }

  std::fprintf(Out, "=== FT_METRICS: counters ===\n");
  for (const auto &[Name, Val] : Snap.Counters)
    std::fprintf(Out, "  %-38s %llu\n", Name.c_str(),
                 static_cast<unsigned long long>(Val));
  std::fflush(Out);
}

} // namespace ft::trace
