//===- bench/serve_bench.cpp - Serving-runtime latency benchmark ----------===//
//
// The kernel-serving runtime (serve/serve.h) against its three acceptance
// criteria, on a fresh private kernel-cache directory:
//
//  (a) cold first-request latency (interpreter tier) is far below the
//      synchronous JIT compile time it hides;
//  (b) after warm-up, >= 95% of a closed-loop request stream is served by
//      the JIT tier;
//  (c) under a 10x open-loop overload burst against a small queue, the
//      bounded queue rejects (reject policy) instead of growing without
//      bound, and every accepted request still completes.
//
// Latencies are recorded per tier and reported as p50/p95/p99 in
// BENCH_serve.json. The warm closed loop's JIT p50 is also reported over a
// direct Kernel::run of the same kernels (`warm.jit_over_direct`): the
// per-request cost of serving, against the kernel alone.
//
// The bench also runs with the telemetry hooks enabled and acts as the
// differential test for the histogram estimator: the p50/p95/p99 read from
// the in-process "serve/..." histograms must agree with the raw-timestamp
// computation (same rank convention) to within one log2 bucket — the
// estimator's resolution bound. Queue-wait percentiles from the histogram
// are reported alongside the per-tier latencies.
//
//===----------------------------------------------------------------------===//

#include "frontend/builder.h"
#include "harness.h"
#include "serve/serve.h"
#include "serve/telemetry.h"
#include "support/metrics.h"

using namespace ftb;
using namespace ft::serve;

namespace {

constexpr int64_t kN = 4096;

/// Distinct \p Scale values give distinct fingerprints — one serving
/// "model" per scale.
Func makeWorkload(double Scale) {
  FunctionBuilder B("servek");
  View X = B.input("x", {makeIntConst(kN)});
  View Y = B.output("y", {makeIntConst(kN)});
  B.loop("i", 0, kN, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(Scale) + makeFloatConst(1.0));
  });
  return B.build();
}

struct Slot {
  Buffer X{DataType::Float32, {kN}};
  Buffer Y{DataType::Float32, {kN}};
  std::future<Response> Fut;

  std::map<std::string, Buffer *> args(const Func &F) {
    return {{F.Params[0], &X}, {F.Params[1], &Y}};
  }
};

struct Percentiles {
  double P50Us = 0, P95Us = 0, P99Us = 0;
  size_t Count = 0;
};

Percentiles percentiles(std::vector<double> LatSec) {
  Percentiles P;
  P.Count = LatSec.size();
  if (LatSec.empty())
    return P;
  std::sort(LatSec.begin(), LatSec.end());
  auto At = [&](double Q) {
    size_t I = static_cast<size_t>(Q * double(LatSec.size() - 1));
    return LatSec[I] * 1e6;
  };
  P.P50Us = At(0.50);
  P.P95Us = At(0.95);
  P.P99Us = At(0.99);
  return P;
}

void writeTier(json::Writer &W, const char *Name, const Percentiles &P) {
  W.key(Name).beginObject()
      .key("count").value(P.Count)
      .key("p50_us").value(P.P50Us)
      .key("p95_us").value(P.P95Us)
      .key("p99_us").value(P.P99Us)
      .endObject();
}

//===------------------------------------------------------------------===//
// Histogram-vs-raw differential
//===------------------------------------------------------------------===//

/// Raw nanosecond samples, reconstructed from each Response with the same
/// time points the telemetry hooks recorded. The histogram estimates must
/// land in the same (or an adjacent) log2 bucket as these.
std::vector<uint64_t> RawQueueNs, RawRunJitNs, RawRunInterpNs;

void noteRaw(const Response &R) {
  RawQueueNs.push_back(uint64_t(R.QueueSec * 1e9));
  double RunSec = R.LatencySec - R.QueueSec;
  if (RunSec < 0)
    RunSec = 0;
  if (R.ServedBy == Tier::Jit)
    RawRunJitNs.push_back(uint64_t(RunSec * 1e9));
  else
    RawRunInterpNs.push_back(uint64_t(RunSec * 1e9));
}

uint64_t rawQuantile(std::vector<uint64_t> V, double Q) {
  std::sort(V.begin(), V.end());
  return V[size_t(Q * double(V.size() - 1))];
}

/// Compares the histogram's pXX estimates against the raw computation;
/// agreement = within one bucket index. Returns the max bucket delta seen.
int checkAgreement(const char *Name, const metrics::HistogramSnapshot &H,
                   const std::vector<uint64_t> &Raw, bool &Ok) {
  using HS = metrics::HistogramSnapshot;
  if (Raw.empty())
    return 0;
  if (H.Count != Raw.size()) {
    std::printf("%s: histogram count %llu != raw count %zu\n", Name,
                (unsigned long long)H.Count, Raw.size());
    Ok = false;
  }
  int MaxDelta = 0;
  for (double Q : {0.50, 0.95, 0.99}) {
    int HB = HS::bucketOf(uint64_t(H.quantile(Q)));
    int RB = HS::bucketOf(rawQuantile(Raw, Q));
    int D = HB > RB ? HB - RB : RB - HB;
    MaxDelta = std::max(MaxDelta, D);
    if (D > 1) {
      std::printf("%s p%.0f: hist bucket %d vs raw bucket %d (delta %d)\n",
                  Name, Q * 100, HB, RB, D);
      Ok = false;
    }
  }
  return MaxDelta;
}

} // namespace

int main() {
  CacheScope Cache;

  // Telemetry on (hooks only, no exporter): the serve/ histograms fill in
  // parallel with the raw Response samples this bench already collects.
  telemetry::setEnabled(true);
  telemetry::reset();
  metrics::resetPrefix("serve/");

  bool Ok = true;

  //===------------------------------------------------------------------===//
  // Reference: what a request would wait on without the interpreter tier.
  // A structurally identical program with a fingerprint the serving phases
  // never use, so the cache directory stays cold for them.
  //===------------------------------------------------------------------===//
  Config Cfg; // defaults; OptFlags matches what the executor compiles with
  double T0 = seconds();
  auto Ref = Kernel::compile(makeWorkload(99.0), CodegenOptions{}, Cfg.OptFlags);
  double CompileRefSec = seconds() - T0;
  ftAssert(Ref.ok(), Ref.message());

  std::vector<double> InterpLat, JitLat;

  //===------------------------------------------------------------------===//
  // (a) Cold start: the first request is served now, not post-compile.
  //===------------------------------------------------------------------===//
  const int kModels = 4;
  std::vector<Func> Models;
  for (int M = 0; M < kModels; ++M)
    Models.push_back(makeWorkload(1.0 + M));

  double ColdFirstSec = 0;
  uint64_t WarmJit = 0, WarmTotal = 0;
  std::vector<double> WarmJitLat;
  double DirectRunSec = 0;
  {
    Config C;
    C.Threads = 2;
    Executor Ex(C);

    Slot First;
    auto R = Ex.submit(Models[0], First.args(Models[0]));
    ftAssert(R.ok(), R.message());
    Response Resp = R->get();
    ftAssert(Resp.S.ok(), Resp.S.message());
    ColdFirstSec = Resp.LatencySec;
    noteRaw(Resp);
    if (Resp.ServedBy == Tier::Interp)
      InterpLat.push_back(Resp.LatencySec);
    Ok = Ok && Resp.ServedBy == Tier::Interp && ColdFirstSec < CompileRefSec;

    // Warm-up: touch every model once, then wait for the compiles.
    for (int M = 1; M < kModels; ++M) {
      Slot S;
      auto R2 = Ex.submit(Models[M], S.args(Models[M]));
      ftAssert(R2.ok(), R2.message());
      Response Resp2 = R2->get();
      ftAssert(Resp2.S.ok(), Resp2.S.message());
      noteRaw(Resp2);
      if (Resp2.ServedBy == Tier::Interp)
        InterpLat.push_back(Resp2.LatencySec);
      else
        JitLat.push_back(Resp2.LatencySec);
    }
    Ex.drain();

    //===----------------------------------------------------------------===//
    // (b) Closed loop over warm models: >= 95% JIT tier.
    //===----------------------------------------------------------------===//
    ServeStats Before = Ex.stats();
    const int kWarmReqs = 400;
    for (int I = 0; I < kWarmReqs; ++I) {
      const Func &F = Models[I % kModels];
      Slot S;
      auto R2 = Ex.submit(F, S.args(F));
      ftAssert(R2.ok(), R2.message());
      Response Resp2 = R2->get();
      ftAssert(Resp2.S.ok(), Resp2.S.message());
      noteRaw(Resp2);
      if (Resp2.ServedBy == Tier::Jit) {
        JitLat.push_back(Resp2.LatencySec);
        WarmJitLat.push_back(Resp2.LatencySec);
      } else {
        InterpLat.push_back(Resp2.LatencySec);
      }
    }
    ServeStats After = Ex.stats();
    WarmJit = After.JitServed - Before.JitServed;
    WarmTotal = kWarmReqs;
    Ok = Ok && WarmJit * 100 >= WarmTotal * 95;

    // The same kernels run directly, in the loop's model order: the
    // executor compiled them, so these acquisitions hit the memory tier.
    std::vector<Kernel> Ks;
    for (const Func &F : Models) {
      auto K = Kernel::compile(F, CodegenOptions{}, C.OptFlags);
      ftAssert(K.ok(), K.message());
      Ks.push_back(*K);
    }
    Slot S;
    std::vector<std::map<std::string, Buffer *>> Args;
    for (const Func &F : Models)
      Args.push_back(S.args(F));
    Contender Direct{[&](int64_t N) {
      for (int64_t I = 0; I < N; ++I) {
        Status St = Ks[I % kModels].run(Args[I % kModels]);
        ftAssert(St.ok(), St.message());
      }
    }};
    DirectRunSec = timeInterleaved({Direct}, {/*Warmup=*/kModels, /*Rounds=*/10,
                                              /*Samples=*/1, /*Ops=*/kWarmReqs})
                       .front()
                       .Median;
    Ex.shutdown();
  }

  //===------------------------------------------------------------------===//
  // (c) Open-loop 10x overload against a small queue: bounded, not broken.
  //===------------------------------------------------------------------===//
  uint64_t Offered = 0, Accepted = 0, RejectedCnt = 0;
  size_t OverloadQueueCap = 0;
  {
    Config C;
    C.Threads = 2;
    C.QueueCap = 16;
    C.BlockOnFull = false; // reject policy is the point of this phase
    // Pin the background compile to fail so every request of this phase
    // is interpreter-tier: a compile that lands mid-burst would otherwise
    // serve the queued tail from the JIT tier, and its queue wait behind
    // interpreter requests would land in the JIT tier's percentiles.
    C.OptFlags = "-O1 -fthis-flag-does-not-exist";
    OverloadQueueCap = C.QueueCap;
    Executor Ex(C);
    // A fresh fingerprint: requests are interpreter-tier, i.e. slow
    // relative to the burst — a genuine overload.
    Func F = makeWorkload(77.0);

    Offered = 10 * C.QueueCap;
    std::vector<Slot> Slots(Offered);
    for (Slot &S : Slots) {
      auto R = Ex.submit(F, S.args(F));
      if (R.ok()) {
        S.Fut = std::move(*R);
        ++Accepted;
      } else {
        ++RejectedCnt;
      }
    }
    for (Slot &S : Slots)
      if (S.Fut.valid()) {
        Response Resp = S.Fut.get();
        ftAssert(Resp.S.ok(), Resp.S.message());
        noteRaw(Resp);
        if (Resp.ServedBy == Tier::Jit)
          JitLat.push_back(Resp.LatencySec);
        else
          InterpLat.push_back(Resp.LatencySec);
      }
    ServeStats St = Ex.stats();
    Ok = Ok && RejectedCnt > 0 && St.Rejected == RejectedCnt &&
         St.Submitted == Accepted;
    Ex.shutdown();
  }

  Percentiles PI = percentiles(InterpLat);
  Percentiles PJ = percentiles(JitLat);
  const double WarmJitP50Us = percentiles(WarmJitLat).P50Us;
  const double DirectRunUs = DirectRunSec * 1e6;

  //===------------------------------------------------------------------===//
  // Histogram vs raw: the telemetry estimates must agree with the
  // raw-timestamp percentiles within one log2 bucket.
  //===------------------------------------------------------------------===//
  metrics::HistogramSnapshot QH =
      metrics::histogram("serve/queue_wait_ns").snapshot();
  metrics::HistogramSnapshot RJH =
      metrics::histogram("serve/run_ns_jit").snapshot();
  metrics::HistogramSnapshot RIH =
      metrics::histogram("serve/run_ns_interp").snapshot();
  int MaxDelta = 0;
  MaxDelta = std::max(MaxDelta, checkAgreement("queue_wait", QH, RawQueueNs, Ok));
  MaxDelta = std::max(MaxDelta, checkAgreement("run_jit", RJH, RawRunJitNs, Ok));
  MaxDelta =
      std::max(MaxDelta, checkAgreement("run_interp", RIH, RawRunInterpNs, Ok));

  std::printf("compile ref %.3f s | cold first request %.6f s (%s, %.0fx "
              "faster)\n",
              CompileRefSec, ColdFirstSec,
              ColdFirstSec < CompileRefSec ? "hidden" : "NOT HIDDEN",
              CompileRefSec / ColdFirstSec);
  std::printf("warm closed loop: %llu/%llu jit-tier (%.1f%%), jit p50 "
              "%.1fus = %.1fx a direct run (%.2fus)\n",
              (unsigned long long)WarmJit, (unsigned long long)WarmTotal,
              100.0 * double(WarmJit) / double(WarmTotal), WarmJitP50Us,
              WarmJitP50Us / DirectRunUs, DirectRunUs);
  std::printf("overload 10x: offered %llu accepted %llu rejected %llu\n",
              (unsigned long long)Offered, (unsigned long long)Accepted,
              (unsigned long long)RejectedCnt);
  std::printf("interp tier: n=%zu p50 %.1fus p95 %.1fus p99 %.1fus\n",
              PI.Count, PI.P50Us, PI.P95Us, PI.P99Us);
  std::printf("jit tier:    n=%zu p50 %.1fus p95 %.1fus p99 %.1fus\n",
              PJ.Count, PJ.P50Us, PJ.P95Us, PJ.P99Us);
  std::printf("queue wait (hist): n=%llu p50 %.1fus p95 %.1fus p99 %.1fus | "
              "hist-vs-raw max bucket delta %d\n",
              (unsigned long long)QH.Count, QH.quantile(0.50) / 1e3,
              QH.quantile(0.95) / 1e3, QH.quantile(0.99) / 1e3, MaxDelta);

  writeReport("serve", [&](json::Writer &W) {
    W.key("benchmark").value("serve");
    W.key("cold").beginObject()
        .key("compile_ref_sec").value(CompileRefSec)
        .key("first_request_sec").value(ColdFirstSec)
        .key("hidden").value(ColdFirstSec < CompileRefSec)
        .endObject();
    W.key("warm").beginObject()
        .key("requests").value(WarmTotal)
        .key("jit_served").value(WarmJit)
        .key("jit_fraction").value(double(WarmJit) / double(WarmTotal))
        .key("target_fraction").value(0.95)
        .key("jit_p50_us").value(WarmJitP50Us)
        .key("direct_run_us").value(DirectRunUs)
        .key("jit_over_direct").value(WarmJitP50Us / DirectRunUs)
        .endObject();
    W.key("overload").beginObject()
        .key("queue_cap").value(OverloadQueueCap)
        .key("offered").value(Offered)
        .key("accepted").value(Accepted)
        .key("rejected").value(RejectedCnt)
        .endObject();
    W.key("tiers").beginObject();
    writeTier(W, "interp", PI);
    writeTier(W, "jit", PJ);
    W.endObject();
    W.key("queue_wait").beginObject()
        .key("count").value(QH.Count)
        .key("p50_us").value(QH.quantile(0.50) / 1e3)
        .key("p95_us").value(QH.quantile(0.95) / 1e3)
        .key("p99_us").value(QH.quantile(0.99) / 1e3)
        .endObject();
    W.key("hist_agreement").beginObject()
        .key("max_bucket_delta").value(MaxDelta)
        .key("tolerance").value(1)
        .endObject();
    W.key("pass").value(Ok);
  });

  std::printf("%s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
