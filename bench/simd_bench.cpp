//===- bench/simd_bench.cpp - SIMD lowering before/after -------------------===//
//
// Proves the explicit-width SIMD lowering end to end: every §6.1 workload is
// auto-scheduled twice —
//   baseline : AutoScheduleOptions::VectorWidth = 0, the legacy
//              `#pragma GCC ivdep` hint-only lowering
//   simd     : VectorWidth = 16, the proven `#pragma omp simd` lowering with
//              reduction/aligned clauses, __restrict__ parameters and scalar
//              remainder loops
// — JIT-compiled, timed best-of-N, and the simd outputs differentially
// checked against the reference interpreter on the unscheduled program.
//
// Writes BENCH_simd.json. Exit status: 0 iff every workload matches the
// interpreter and at least two of the four reach the 1.3x target.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstring>

#include "harness.h"
#include "interp/interp.h"

using namespace ftb;

namespace {

struct SimdResult {
  std::string Name;
  double BaseMs = 0;
  double SimdMs = 0;
  double MaxAbsDiff = 0;
  bool SimdEmitted = false; ///< Generated source contains `omp simd`.
  bool DiffOk = false;
  double speedup() const { return SimdMs > 0 ? BaseMs / SimdMs : 0; }
};

/// Times baseline vs simd schedules of \p C's program and diffs the simd
/// output against the interpreter.
SimdResult measure(Case &C) {
  SimdResult R;
  R.Name = C.Name;

  AutoScheduleOptions BaseOpts;
  BaseOpts.VectorWidth = 0; // Legacy hint-only path.
  AutoScheduleOptions SimdOpts; // Default: explicit width 16.

  Func BaseF = autoScheduleFunc(C.F, BaseOpts);
  Func SimdF = autoScheduleFunc(C.F, SimdOpts);
  auto BK = Kernel::compile(BaseF);
  ftAssert(BK.ok(), BK.message());
  auto SK = Kernel::compile(SimdF);
  ftAssert(SK.ok(), SK.message());
  R.SimdEmitted = SK->source().find("omp simd") != std::string::npos;

  auto Args = C.args();
  std::vector<Timing> T =
      timeInterleaved({kernelRuns(*BK, Args), kernelRuns(*SK, Args)},
                      {/*Warmup=*/2, /*Rounds=*/6, /*Samples=*/5});
  R.BaseMs = T[0].Best * 1e3;
  R.SimdMs = T[1].Best * 1e3;

  // The last run above was the simd kernel: snapshot its output, then
  // recompute the reference with the interpreter on the unscheduled program.
  Buffer *Out = Args.at(C.Out);
  std::vector<float> Got(Out->as<float>(), Out->as<float>() + Out->numel());
  std::memset(Out->raw(), 0, Out->sizeBytes());
  interpret(C.F, Args);
  R.DiffOk = true;
  for (int64_t I = 0; I < Out->numel(); ++I) {
    double Ref = Out->as<float>()[I];
    double D = std::abs(Got[I] - Ref);
    R.MaxAbsDiff = std::max(R.MaxAbsDiff, D);
    // omp simd reductions re-associate float sums; allow a mixed
    // absolute/relative tolerance.
    if (D > 1e-3 + 1e-3 * std::abs(Ref))
      R.DiffOk = false;
  }
  return R;
}

} // namespace

int main() {
  CacheScope Cache;
  // Bench at a realistic GAT hidden size (published configs use 64+
  // features per head); the default 32 under-weights the vectorizable
  // dot products against the fixed per-neighbor sigmoid.
  GATConfig Gat = gatCfg();
  Gat.Feats = 64;
  std::vector<Case> Cases;
  Cases.push_back(subdivnetCase());
  Cases.push_back(longformerCase());
  Cases.push_back(softrasCase());
  Cases.push_back(gatCase(Gat));

  std::vector<SimdResult> Results;
  int NumFast = 0;
  bool AllMatch = true;
  for (Case &C : Cases) {
    const SimdResult &R = Results.emplace_back(measure(C));
    std::printf("%-10s base %8.3f ms  simd %8.3f ms  (%5.2fx)  "
                "max_abs_diff %.2e  omp-simd %s  match %s\n",
                R.Name.c_str(), R.BaseMs, R.SimdMs, R.speedup(), R.MaxAbsDiff,
                R.SimdEmitted ? "yes" : "NO", R.DiffOk ? "yes" : "NO");
    NumFast += R.speedup() >= 1.3;
    AllMatch = AllMatch && R.DiffOk;
  }

  writeReport("simd", [&](json::Writer &W) {
    W.key("benchmark").value("simd_lowering");
    W.key("target_speedup").value(1.3).key("vector_width").value(16);
    W.key("workloads").beginArray();
    for (const SimdResult &R : Results)
      W.beginObject()
          .key("name").value(R.Name)
          .key("base_ms").value(R.BaseMs)
          .key("simd_ms").value(R.SimdMs)
          .key("speedup").value(R.speedup())
          .key("max_abs_diff").value(R.MaxAbsDiff)
          .key("omp_simd_emitted").value(R.SimdEmitted)
          .key("matches_interpreter").value(R.DiffOk)
          .endObject();
    W.endArray();
    W.key("workloads_at_target").value(NumFast);
    W.key("all_match_interpreter").value(AllMatch);
  });

  bool Ok = AllMatch && NumFast >= 2;
  std::printf("%s: %d/4 workloads at >= 1.3x, interpreter match %s\n",
              Ok ? "PASS" : "FAIL", NumFast, AllMatch ? "yes" : "no");
  return Ok ? 0 : 1;
}
