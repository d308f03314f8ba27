//===- bench/telemetry_overhead_bench.cpp - Telemetry cost budget ---------===//
//
// The telemetry plane's two cost contracts (DESIGN.md §14):
//
//  (a) Disabled: a hook call is a function call + one relaxed load + a
//      branch — no clock read, no lock, no allocation. Measured by a tight
//      cross-TU loop over telemetry::onCompile with telemetry off; the
//      budget is <= 5 ns per skipped call. A second probe covers the
//      request-context additions of DESIGN.md §15: a request-id allocation
//      (one relaxed fetch_add) plus a disabled onRequestComplete carrying
//      the full context (id, tenant, deadline) — same <= 5 ns budget.
//
//  (b) Enabled: serving throughput with the hooks recording (and the
//      snapshot exporter running) stays within 2% of telemetry-off
//      throughput. Measured by interleaved best-of trials of a warm
//      closed-loop request stream, alternating off/on so drift hits both
//      modes equally. Requests carry a deadline so the enabled path pays
//      for shape recording and SLO accounting too.
//
// Results land in BENCH_telemetry_overhead.json.
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

constexpr int64_t kN = 8192;

Func makeWorkload() {
  FunctionBuilder B("telemk");
  View X = B.input("x", {makeIntConst(kN)});
  View Y = B.output("y", {makeIntConst(kN)});
  B.loop("i", 0, kN, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0) + makeFloatConst(1.0));
  });
  return B.build();
}

/// A closed loop of requests against a warm executor, one operation per
/// request. A generous deadline every request carries: comfortably met,
/// but the enabled path still pays shape recording + SLO accounting for it.
Contender requests(Executor &Ex, const Func &F,
                   std::map<std::string, Buffer *> &Args) {
  return {[&Ex, &F, &Args](int64_t N) {
    SubmitOptions Opts;
    Opts.DeadlineNs = 500'000'000;
    for (int64_t I = 0; I < N; ++I) {
      auto R = Ex.submit(F, Args, Opts);
      ftAssert(R.ok(), R.message());
      Response Resp = R->get();
      ftAssert(Resp.S.ok(), Resp.S.message());
    }
  }};
}

} // namespace

int main() {
  CacheScope Cache;
  ::unsetenv("FT_TELEMETRY_DIR"); // exporter is started explicitly below

  bool Ok = true;

  //===------------------------------------------------------------------===//
  // (a) Disabled record path, best of 3 batches of 50M calls per probe.
  //===------------------------------------------------------------------===//
  telemetry::setEnabled(false);
  std::vector<Timing> Probes = timeInterleaved(
      {{[](int64_t N) {
         for (int64_t I = 0; I < N; ++I)
           telemetry::onCompile(I, true);
       }},
       {[](int64_t N) {
         // Request-context propagation: id allocation (one relaxed
         // fetch_add) plus a disabled onRequestComplete carrying the full
         // context. The sample is prebuilt — the executor only builds
         // shape keys when telemetry is enabled, so the disabled submit
         // path adds exactly this.
         telemetry::RequestSample CtxS;
         CtxS.Fingerprint = 0x1234;
         CtxS.Tenant = "default";
         CtxS.DeadlineNs = 1'000'000;
         CtxS.ShapeKey = "x:f32[8192] y:f32[8192]";
         for (int64_t I = 0; I < N; ++I) {
           CtxS.ReqId = nextRequestId();
           telemetry::onRequestComplete(CtxS);
         }
       }}},
      {/*Warmup=*/0, /*Rounds=*/3, /*Samples=*/1, /*Ops=*/50'000'000});
  double BestNs = Probes[0].Best * 1e9, BestCtxNs = Probes[1].Best * 1e9;
  ftAssert(metrics::histogram("serve/compile_ns").count() == 0,
           "disabled hook recorded");
  ftAssert(metrics::histogram("serve/queue_wait_ns").count() == 0,
           "disabled context hook recorded");
  Ok = Ok && BestNs <= 5.0 && BestCtxNs <= 5.0;
  std::printf("disabled record path: %.2f ns/call (budget 5 ns)\n", BestNs);
  std::printf("disabled context path: %.2f ns/request (budget 5 ns)\n",
              BestCtxNs);

  //===------------------------------------------------------------------===//
  // (b) Enabled serving overhead, interleaved best-of.
  //===------------------------------------------------------------------===//
  Func F = makeWorkload();
  Config C;
  C.Threads = 2;
  Executor Ex(C);
  Buffer X(DataType::Float32, {kN}), Y(DataType::Float32, {kN});
  std::map<std::string, Buffer *> Args = {{F.Params[0], &X},
                                          {F.Params[1], &Y}};

  // Warm up until the JIT tier answers, so trials measure steady state.
  for (int I = 0; I < 50; ++I) {
    auto R = Ex.submit(F, Args);
    ftAssert(R.ok(), R.message());
    (void)R->get();
  }
  Ex.drain();

  telemetry::Config TC;
  TC.Dir = Cache.dir() + "/telemetry";
  TC.IntervalMs = 100;
  TC.Keep = 8;

  // Best-of over enough interleaved trials of 600 requests that both modes
  // reach their steady-state ceiling. A request takes ~20-30 us on a
  // 4-vCPU host, so a trial lasts ~15 ms and one scheduler hiccup skews it
  // by several percent: with telemetry off in both modes, 8 rounds read
  // more than 2% "overhead" in half of the runs, 80 rounds in one of ten.
  // The executor records a request's sample (~0.7 us of hooks) after
  // delivering its response.
  Contender Off = requests(Ex, F, Args), On = requests(Ex, F, Args);
  Off.Enter = [] { telemetry::setEnabled(false); };
  On.Enter = [&TC] {
    Status S = telemetry::startExporter(TC);
    ftAssert(S.ok(), S.message());
  };
  On.Exit = [] { telemetry::stopExporter(); };
  std::vector<Timing> Trials = timeInterleaved(
      {Off, On},
      {/*Warmup=*/0, /*Rounds=*/80, /*Samples=*/1, /*Ops=*/600});
  telemetry::setEnabled(false);
  double OffRps = 1.0 / Trials[0].Best, OnRps = 1.0 / Trials[1].Best;

  double OverheadFrac = OffRps > 0 ? 1.0 - OnRps / OffRps : 0;
  if (OverheadFrac < 0)
    OverheadFrac = 0;
  uint64_t Snaps = telemetry::snapshotsWritten();
  Ok = Ok && OverheadFrac <= 0.02 && Snaps >= 1;
  std::printf("serving: off %.0f req/s | on %.0f req/s | overhead %.2f%% "
              "(budget 2%%) | %llu snapshots written\n",
              OffRps, OnRps, OverheadFrac * 100,
              (unsigned long long)Snaps);

  writeReport("telemetry_overhead", [&](json::Writer &W) {
    W.key("benchmark").value("telemetry_overhead")
        .key("disabled_record_ns").value(BestNs)
        .key("disabled_context_ns").value(BestCtxNs)
        .key("disabled_budget_ns").value(5.0)
        .key("off_rps").value(OffRps)
        .key("on_rps").value(OnRps)
        .key("overhead_frac").value(OverheadFrac)
        .key("overhead_budget_frac").value(0.02)
        .key("snapshots_written").value(Snaps)
        .key("pass").value(Ok);
  });

  Ex.shutdown();
  std::printf("%s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
