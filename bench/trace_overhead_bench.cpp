//===- bench/trace_overhead_bench.cpp - Observability overhead --------------===//
//
// Cost of the tracing layer on the fig16a SubdivNet forward workload,
// compile + run, with tracing disabled vs enabled. Writes
// BENCH_trace_overhead.json.
//
// Methodology: there is no uninstrumented build to diff against, so the
// disabled-mode overhead is measured directly — a microbenchmark of the
// disabled span (one relaxed atomic load + branch) times the number of
// spans on the kernel-run path, expressed as a fraction of the kernel run
// time. The enabled-mode overhead is a straight A/B of the same run loop
// with recording on vs off, alternated in batches so frequency scaling and
// cache state hit both modes equally.
//
// Targets: < 2% disabled, < 10% enabled. Each target gets its own verdict;
// the exit status is 0 only when both are met.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "support/trace.h"

using namespace ftb;

int main() {
  CacheScope Cache;
  Case K = subdivnetCase();

  // Compile once per mode so the JSON also shows the compile-side cost of
  // enabled tracing (span bookkeeping during passes/scheduling/codegen —
  // the host-compiler invocation dominates both).
  ft::trace::setEnabled(false);
  double Tc0 = seconds();
  Kernel Kn = compileAuto(K.F);
  double CompileSecDisabled = seconds() - Tc0;

  double CompileSecEnabled;
  {
    ft::trace::EnabledGuard G;
    Tc0 = seconds();
    Kernel K2 = compileAuto(K.F);
    CompileSecEnabled = seconds() - Tc0;
  }
  ft::trace::clear();

  // Alternate disabled/enabled batches; keep the best (least-noisy) batch
  // of each mode. The span buffer is cleared after every enabled batch.
  constexpr int Batches = 7;
  constexpr int RunsPerBatch = 200;
  auto Args = K.args();
  Contender Enabled = kernelRuns(Kn, Args);
  Enabled.Enter = [] { ft::trace::setEnabled(true); };
  Enabled.Exit = [] {
    ft::trace::setEnabled(false);
    ft::trace::clear();
  };
  std::vector<Timing> T =
      timeInterleaved({kernelRuns(Kn, Args), Enabled},
                      {/*Warmup=*/50, /*Rounds=*/Batches, /*Samples=*/1,
                       /*Ops=*/RunsPerBatch});
  double BestDisabled = T[0].Best, BestEnabled = T[1].Best;

  // Nanoseconds for one *disabled* span construct + destroy — the cost
  // every instrumentation site pays in production mode.
  ftAssert(!ft::trace::enabled(), "microbenchmark requires tracing off");
  double SpanNs = timeInterleaved({{[](int64_t N) {
                                    for (int64_t I = 0; I < N; ++I) {
                                      FT_SPAN("bench/disabled_probe");
                                    }
                                  }}},
                                  {/*Warmup=*/0, /*Rounds=*/1, /*Samples=*/1,
                                   /*Ops=*/10'000'000})[0]
                      .Best *
                  1e9;
  // Spans on the Kernel::run path in disabled mode: the rt/kernel span.
  constexpr double SpansPerRun = 1.0;
  double DisabledPct = SpanNs * SpansPerRun / (BestDisabled * 1e9) * 100.0;
  double EnabledPct = (BestEnabled - BestDisabled) / BestDisabled * 100.0;

  std::printf("fig16a SubdivNet forward, %d runs/batch x %d batches\n",
              RunsPerBatch, Batches);
  std::printf("run (tracing off):  %.3f ms\n", BestDisabled * 1e3);
  std::printf("run (tracing on):   %.3f ms   (+%.2f%%)\n", BestEnabled * 1e3,
              EnabledPct);
  std::printf("disabled span cost: %.2f ns -> %.4f%% of a run\n", SpanNs,
              DisabledPct);
  std::printf("compile: %.2f s off / %.2f s on\n", CompileSecDisabled,
              CompileSecEnabled);

  writeReport("trace_overhead", [&](json::Writer &W) {
    W.key("benchmark").value("trace_overhead_fig16a_forward")
        .key("runs_per_batch").value(RunsPerBatch)
        .key("batches").value(Batches)
        .key("run_ms_disabled").value(BestDisabled * 1e3)
        .key("run_ms_enabled").value(BestEnabled * 1e3)
        .key("disabled_span_ns").value(SpanNs)
        .key("run_overhead_disabled_pct").value(DisabledPct)
        .key("run_overhead_enabled_pct").value(EnabledPct)
        .key("compile_sec_disabled").value(CompileSecDisabled)
        .key("compile_sec_enabled").value(CompileSecEnabled)
        .key("target_disabled_pct").value(2.0)
        .key("target_enabled_pct").value(10.0);
  });

  bool DisabledOk = DisabledPct < 2.0, EnabledOk = EnabledPct < 10.0;
  std::printf("%s: disabled overhead %.4f%% (target < 2%%)\n",
              DisabledOk ? "PASS" : "FAIL", DisabledPct);
  std::printf("%s: enabled overhead %.2f%% (target < 10%%)\n",
              EnabledOk ? "PASS" : "FAIL", EnabledPct);
  return DisabledOk && EnabledOk ? 0 : 1;
}
