//===- bench/deps_bench.cpp - Dependence-query engine benchmark -------------===//
//
// Before/after measurement of the dependence-query engine accelerations
// (constraint canonicalization + interval/GCD pre-filter + memoized
// emptiness + per-point domain caching + analyzer reuse): each case runs
// with the engine as shipped, interleaved with the same case under
// ft::BypassGuard, which reproduces the pre-acceleration behaviour. After
// timing, one more operation per mode reports the engine counters of a
// single operation (the memo warm, as it is across a session's probes).
//
// Writes BENCH_deps.json.
//
//===----------------------------------------------------------------------===//

#include "analysis/deps.h"
#include "harness.h"
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

struct Mode {
  Timing T;
  double DepQueries = 0, MemoHitRate = 0, FmEliminations = 0,
         AnalyzerBuilds = 0;
};

struct Row {
  std::string Name;
  Mode Accel, Bypass;
};

/// Times \p Op with the engine accelerated and bypassed, then counts one
/// more operation of each.
Row measure(std::string Name, const std::function<void()> &Op) {
  auto Under = [&Op](bool Bypass) {
    return Contender{[&Op, Bypass](int64_t N) {
      ft::BypassGuard G(Bypass);
      for (int64_t I = 0; I < N; ++I)
        Op();
    }};
  };
  ft::clearEmptinessCache();
  std::vector<Timing> T = timeInterleaved({Under(false), Under(true)});
  Row R{std::move(Name), {T[0]}, {T[1]}};
  for (Mode *M : {&R.Accel, &R.Bypass}) {
    ft::metrics::resetPrefix("deps/");
    Under(M == &R.Bypass).Run(1);
    M->DepQueries = deps("dep_queries");
    double Hits = deps("emptiness_cache_hits");
    double Misses = deps("emptiness_cache_misses");
    M->MemoHitRate = Hits + Misses ? Hits / (Hits + Misses) : 0.0;
    M->FmEliminations = deps("fm_eliminations");
    M->AnalyzerBuilds = deps("analyzer_builds");
  }
  std::printf("%-20s accel median %8.3f ms | bypass median %8.3f ms | "
              "%.2fx | %g dep queries, memo hit rate %.2f\n",
              R.Name.c_str(), R.Accel.T.Median * 1e3,
              R.Bypass.T.Median * 1e3, R.Bypass.T.Median / R.Accel.T.Median,
              R.Accel.DepQueries, R.Accel.MemoHitRate);
  return R;
}

void writeMode(json::Writer &W, const char *Key, const Mode &M) {
  W.key(Key).beginObject()
      .key("dep_queries").value(M.DepQueries)
      .key("memo_hit_rate").value(M.MemoHitRate)
      .key("fm_eliminations").value(M.FmEliminations)
      .key("analyzer_builds").value(M.AnalyzerBuilds)
      .key("time");
  writeMs(W, M.T);
  W.endObject();
}

} // namespace

int main() {
  CacheScope Cache;
  std::vector<Row> Rows;

  // The legality-check core: the carriedBy sweeps a schedule session issues
  // against one AST version — parallelize and vectorize probe every loop,
  // and sink_var re-sweeps once per sinking round — served by one analyzer
  // generation. The process-wide emptiness memo additionally persists
  // across generations (operations), as it does across sessions.
  Func Lf = buildLongformer({128, 32, 16});
  Rows.push_back(measure("carried_by_sweep", [&Lf] {
    constexpr int SweepsPerVersion = 8;
    DepAnalyzer DA(Lf.Body);
    for (int Round = 0; Round < SweepsPerVersion; ++Round)
      for (int64_t L : allLoops(Lf.Body))
        (void)DA.carriedBy(L);
  }));

  // The full analysis-driven auto-transform of a workload (paper §4.3):
  // dominated by legality checks, so it measures the engine end-to-end —
  // analyzer reuse across probed primitives included.
  Func Sn = buildSubdivNet({1024, 32});
  Rows.push_back(
      measure("auto_transform", [&Sn] { (void)autoScheduleFunc(Sn); }));

  // Repeated legality probing of one AST version — the auto-fuse /
  // auto-parallelize retry pattern: many primitives interrogate the same
  // program snapshot through one Schedule. Probe vectorize on every loop
  // (read-only legality checks), then commit one parallelization.
  Rows.push_back(measure("schedule_probing", [&Lf] {
    Schedule S(Lf);
    std::vector<int64_t> Loops = allLoops(S.ast());
    for (int64_t L : Loops)
      (void)S.vectorize(L);
    if (!Loops.empty())
      (void)S.parallelize(Loops.front());
  }));

  writeReport("deps", [&](json::Writer &W) {
    W.key("benchmark").value("deps").key("cases").beginArray();
    for (const Row &R : Rows) {
      W.beginObject().key("name").value(R.Name);
      writeMode(W, "accel", R.Accel);
      writeMode(W, "bypass", R.Bypass);
      W.key("speedup").value(R.Bypass.T.Median / R.Accel.T.Median);
      W.endObject();
    }
    W.endArray();
  });
  return 0;
}
