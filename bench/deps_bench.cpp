//===- bench/deps_bench.cpp - Dependence-query engine benchmark -------------===//
//
// Before/after measurement of the dependence-query engine accelerations
// (constraint canonicalization + interval/GCD pre-filter + memoized
// emptiness + per-point domain caching + analyzer reuse): each benchmark
// runs twice, once with the engine as shipped and once under
// ft::BypassGuard, which reproduces the pre-acceleration behaviour.
// Counters report queries/sec and the emptiness-cache hit rate.
//
// Writes BENCH_deps.json (google-benchmark JSON reporter) unless the
// caller passes an explicit --benchmark_out.
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "math/affine_set.h"
#include "support/metrics.h"

using namespace ftb;

namespace {

std::vector<int64_t> allLoops(const Stmt &S) {
  std::vector<int64_t> Out;
  std::function<void(const Stmt &)> Walk = [&](const Stmt &St) {
    if (auto L = dyn_cast<ForNode>(St)) {
      Out.push_back(L->Id);
      return Walk(L->Body);
    }
    if (auto Seq = dyn_cast<StmtSeqNode>(St)) {
      for (const Stmt &Sub : Seq->Stmts)
        Walk(Sub);
      return;
    }
    if (auto D = dyn_cast<VarDefNode>(St))
      return Walk(D->Body);
    if (auto I = dyn_cast<IfNode>(St)) {
      Walk(I->Then);
      if (I->Else)
        Walk(I->Else);
    }
  };
  Walk(S);
  return Out;
}

double deps(const char *Name) {
  return double(ft::metrics::counter(std::string("deps/") + Name).load());
}

/// Attaches the per-iteration engine counters to the benchmark report.
/// Each benchmark resets the deps/ counters at the top of every iteration,
/// so at destruction time they hold the delta of exactly one iteration — a
/// meaningful per-iteration cost, not a cumulative total that scales with
/// however many iterations the harness chose to run.
struct StatsScope {
  explicit StatsScope(benchmark::State &State) : State(State) {
    ft::metrics::resetPrefix("deps/");
    ft::clearEmptinessCache();
  }
  ~StatsScope() {
    State.counters["dep_queries"] = deps("dep_queries");
    double Hits = deps("emptiness_cache_hits");
    double Misses = deps("emptiness_cache_misses");
    State.counters["memo_hit_rate"] =
        Hits + Misses ? Hits / (Hits + Misses) : 0.0;
    State.counters["fm_eliminations"] = deps("fm_eliminations");
    State.counters["analyzer_builds"] = deps("analyzer_builds");
  }
  benchmark::State &State;
};

/// The legality-check core: the carriedBy sweeps a schedule session issues
/// against one AST version — parallelize and vectorize probe every loop,
/// and sink_var re-sweeps once per sinking round — served by one analyzer
/// generation. The process-wide emptiness memo additionally persists
/// across generations (iterations), as it does across sessions.
void DepsCarriedBySweep(benchmark::State &State) {
  ft::BypassGuard G(State.range(0) == 0);
  Func F = buildLongformer({128, 32, 16});
  constexpr int SweepsPerVersion = 8;
  StatsScope Scope(State);
  for (auto _ : State) {
    ft::metrics::resetPrefix("deps/");
    DepAnalyzer DA(F.Body);
    int64_t Found = 0;
    for (int Round = 0; Round < SweepsPerVersion; ++Round)
      for (int64_t L : allLoops(F.Body))
        Found += static_cast<int64_t>(DA.carriedBy(L).size());
    benchmark::DoNotOptimize(Found);
  }
}
BENCHMARK(DepsCarriedBySweep)
    ->Arg(1)
    ->ArgName("accel")
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// The full analysis-driven auto-transform of a workload (paper §4.3):
/// dominated by legality checks, so it measures the engine end-to-end —
/// analyzer reuse across probed primitives included.
void DepsAutoTransform(benchmark::State &State) {
  ft::BypassGuard G(State.range(0) == 0);
  Func F = buildSubdivNet({1024, 32});
  StatsScope Scope(State);
  for (auto _ : State) {
    ft::metrics::resetPrefix("deps/");
    Func Opt = autoScheduleFunc(F);
    benchmark::DoNotOptimize(Opt);
  }
}
BENCHMARK(DepsAutoTransform)
    ->Arg(1)
    ->ArgName("accel")
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// Repeated legality probing of one AST version — the auto-fuse /
/// auto-parallelize retry pattern: many primitives interrogate the same
/// program snapshot through one Schedule.
void DepsScheduleProbing(benchmark::State &State) {
  ft::BypassGuard G(State.range(0) == 0);
  Func F = buildLongformer({128, 32, 16});
  StatsScope Scope(State);
  for (auto _ : State) {
    ft::metrics::resetPrefix("deps/");
    Schedule S(F);
    std::vector<int64_t> Loops = allLoops(S.ast());
    int64_t Accepted = 0;
    // Probe vectorize on every loop (read-only legality checks), then
    // commit one parallelization.
    for (int64_t L : Loops)
      Accepted += S.vectorize(L).ok();
    if (!Loops.empty())
      Accepted += S.parallelize(Loops.front()).ok();
    benchmark::DoNotOptimize(Accepted);
  }
}
BENCHMARK(DepsScheduleProbing)
    ->Arg(1)
    ->ArgName("accel")
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::vector<char *> Args(argv, argv + argc);
  bool HasOut = false;
  for (int I = 1; I < argc; ++I)
    HasOut |= std::string(argv[I]).rfind("--benchmark_out", 0) == 0;
  static std::string OutArg = "--benchmark_out=BENCH_deps.json";
  static std::string FmtArg = "--benchmark_out_format=json";
  if (!HasOut) {
    Args.push_back(OutArg.data());
    Args.push_back(FmtArg.data());
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
