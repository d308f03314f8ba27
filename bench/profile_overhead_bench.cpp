//===- bench/profile_overhead_bench.cpp - Profiler overhead ----------------===//
//
// Cost of statement-level profile instrumentation (ISSUE 3) on the four
// §6.1 forward workloads: each is auto-scheduled once, then JIT-compiled
// twice from the same scheduled Func — profile off and profile on — and
// the two kernels are timed in alternated batches so frequency scaling and
// cache state hit both modes equally. Writes BENCH_profile_overhead.json.
//
// Also asserts the zero-cost-when-off contract: the profile-off emission
// must be byte-identical to a default generateCpp() of the same Func
// (empty diff), so shipping the profiler cannot perturb production code.
//
// Targets (ISSUE 3): instrumented overhead < 10% per workload.
//
//===----------------------------------------------------------------------===//

#include "codegen/codegen.h"
#include "harness.h"

using namespace ftb;

namespace {

struct WorkloadResult {
  std::string Name;
  double OffMs = 0;
  double OnMs = 0;
  double OverheadPct = 0;
  bool EmissionIdentical = false;
};

/// Schedules \p C's program once, checks the profile-off emission is
/// byte-identical to the default emission, compiles both modes, and A/Bs
/// them.
WorkloadResult measure(Case &C, int RunsPerBatch) {
  WorkloadResult R;
  R.Name = C.Name;

  Func Opt = autoScheduleFunc(C.F);

  // Zero-cost-when-off: CodegenOptions{} must not change the emission.
  std::string Default = generateCpp(Opt);
  std::string Off = generateCpp(Opt, CodegenOptions{});
  R.EmissionIdentical = (Default == Off);

  auto KOff = Kernel::compile(Opt, CodegenOptions{});
  ftAssert(KOff.ok(), KOff.message());
  CodegenOptions ProfOpts;
  ProfOpts.Profile = true;
  auto KOn = Kernel::compile(Opt, ProfOpts);
  ftAssert(KOn.ok(), KOn.message());

  // Warm up the thread pool and caches in both kernels, then keep each
  // mode's best batch.
  auto Args = C.args();
  std::vector<Timing> T =
      timeInterleaved({kernelRuns(*KOff, Args), kernelRuns(*KOn, Args)},
                      {/*Warmup=*/20, /*Rounds=*/13, /*Samples=*/1,
                       /*Ops=*/RunsPerBatch});
  double BestOff = T[0].Best, BestOn = T[1].Best;

  R.OffMs = BestOff * 1e3;
  R.OnMs = BestOn * 1e3;
  R.OverheadPct = (BestOn - BestOff) / BestOff * 100.0;
  return R;
}

} // namespace

int main() {
  CacheScope Cache;
  std::vector<WorkloadResult> Results;
  // A SoftRas run takes ~20x a SubdivNet one, so its batches are shorter.
  for (Case &C : paperCases())
    Results.push_back(measure(C, C.Name == "softras" ? 20 : 100));

  bool Ok = true;
  double WorstPct = -1e30;
  for (const WorkloadResult &R : Results) {
    std::printf("%-10s off %8.3f ms  on %8.3f ms  overhead %+6.2f%%  "
                "emission-identical %s\n",
                R.Name.c_str(), R.OffMs, R.OnMs, R.OverheadPct,
                R.EmissionIdentical ? "yes" : "NO");
    Ok = Ok && R.EmissionIdentical && R.OverheadPct < 10.0;
    WorstPct = std::max(WorstPct, R.OverheadPct);
  }

  writeReport("profile_overhead", [&](json::Writer &W) {
    W.key("benchmark").value("profile_overhead_fig16a_forward");
    W.key("target_pct").value(10.0).key("workloads").beginArray();
    for (const WorkloadResult &R : Results)
      W.beginObject()
          .key("name").value(R.Name)
          .key("run_ms_off").value(R.OffMs)
          .key("run_ms_on").value(R.OnMs)
          .key("overhead_pct").value(R.OverheadPct)
          .key("emission_identical").value(R.EmissionIdentical)
          .endObject();
    W.endArray();
    W.key("worst_overhead_pct").value(WorstPct);
  });

  std::printf("%s: worst instrumented overhead %.2f%% (target < 10%%)\n",
              Ok ? "PASS" : "FAIL", WorstPct);
  return Ok ? 0 : 1;
}
