//===- bench/sparse_bench.cpp - Sparse workloads vs eager baselines -------===//
//
// The fig16-style comparison for the ragged subsystem (DESIGN.md §17):
// for each sparse workload — SpMM, SDDMM, segment-softmax — time the
// EagerTensor operator chain (gather / compute / scatter, every step
// materialized at nnz granularity) against the compiled FreeTensor
// program that iterates CSR segments in place with data-dependent loop
// bounds. The DSL side is served exactly as the executor's hot tier
// would serve it: autoscheduled (row loops proven parallel from the
// indptr monotonicity facts) and compiled at -O3.
//
// Outputs are cross-checked against each other before timing; the eager
// segment-softmax is unstabilized, so its tolerance is looser than float
// round-off. Acceptance: >= 1.3x on at least two of the three workloads
// (reported as "second_best_speedup"). Results land in BENCH_sparse.json
// and are guarded by bench_guard.py.
//
//===----------------------------------------------------------------------===//

#include <cmath>

#include "harness.h"
#include "pass/simplify.h"
#include "serve/telemetry.h"
#include "workloads/sparse_workloads.h"

using namespace ftb;

namespace {

struct Row {
  std::string Name;
  int64_t Nnz = 0;
  double EagerMs = 0, FtMs = 0, Speedup = 0, MaxDiff = 0;
  bool DiffOk = false;
};

/// Compiles \p F the way the serving plane's hot tier does (simplify,
/// autoschedule: segment loops keep their data-dependent bounds, row loops
/// are parallelized when legal; -O3), cross-checks its output \p Out
/// against the eager chain's, then times the two interleaved (medians).
Row compare(std::string Name, int64_t Nnz,
            const std::function<eager::Tensor()> &Eager, const Func &F,
            const std::map<std::string, Buffer *> &Args, const Buffer &Out) {
  Row R{std::move(Name), Nnz};
  auto K = Kernel::compile(autoScheduleFunc(simplify(F)), CodegenOptions{},
                           "-O3");
  ftAssert(K.ok(), K.message());
  eager::clearTape();
  eager::Tensor Want = Eager();
  ftAssert(K->run(Args).ok(), R.Name + " run failed");
  for (int64_t I = 0; I < Out.numel(); ++I)
    R.MaxDiff = std::max(
        R.MaxDiff, double(std::fabs(Out.as<float>()[I] - Want.data()[I])));
  R.DiffOk = R.MaxDiff <= 1e-3;
  // Each eager run replaces the result it keeps, so the allocator always
  // holds the previous output while the chain builds the next one.
  std::vector<Timing> T = timeInterleaved({each([&] {
                                             eager::clearTape();
                                             Want = Eager();
                                           }),
                                           kernelRuns(*K, Args)},
                                          {/*Warmup=*/2, /*Rounds=*/8,
                                           /*Samples=*/5});
  R.EagerMs = T[0].Median * 1e3;
  R.FtMs = T[1].Median * 1e3;
  R.Speedup = R.EagerMs / R.FtMs;
  return R;
}

Row runSpMM() {
  SpMMConfig C;
  SpMMData D = makeSpMMData(C);
  // Eager chain: gather X rows at nnz, scale, scatter-add into Y.
  eager::IndexTensor RowIds = csrRowIds(D.A), Cols = csrCols(D.A);
  eager::Tensor Val = csrVals(D.A), X = toEager(D.X);
  Buffer Y(DataType::Float32, {C.Rows, C.Feats});
  return compare(
      "spmm", D.A.Nnz,
      [&] { return spmmEager(Val, RowIds, Cols, X, C.Rows); },
      buildSpMM(C, D.A.Nnz),
      {{"indptr", &D.A.Indptr},
       {"indices", &D.A.Indices},
       {"val", &D.A.Val},
       {"x", &D.X},
       {"y", &Y}},
      Y);
}

Row runSDDMM() {
  SDDMMConfig C;
  SDDMMData D = makeSDDMMData(C);
  eager::IndexTensor RowIds = csrRowIds(D.A), Cols = csrCols(D.A);
  eager::Tensor Val = csrVals(D.A), Da = toEager(D.Da), Db = toEager(D.Db);
  Buffer Out(DataType::Float32, {D.A.Nnz});
  return compare(
      "sddmm", D.A.Nnz, [&] { return sddmmEager(Da, Db, Val, RowIds, Cols); },
      buildSDDMM(C, D.A.Nnz),
      {{"indptr", &D.A.Indptr},
       {"indices", &D.A.Indices},
       {"val", &D.A.Val},
       {"a", &D.Da},
       {"b", &D.Db},
       {"out_val", &Out}},
      Out);
}

Row runSegSoftmax() {
  SegSoftmaxConfig C;
  SegSoftmaxData D = makeSegSoftmaxData(C);
  eager::IndexTensor RowIds = csrRowIds(D.G), Src = csrCols(D.G);
  eager::Tensor Logit = csrVals(D.G), H = toEager(D.H);
  Buffer Y(DataType::Float32, {C.Nodes, C.Feats});
  // The eager chain skips max-stabilization, so allow looser agreement.
  return compare(
      "segsoftmax", D.G.Nnz,
      [&] { return segSoftmaxEager(Logit, RowIds, Src, H, C.Nodes); },
      buildSegSoftmax(C, D.G.Nnz),
      {{"indptr", &D.G.Indptr},
       {"indices", &D.G.Indices},
       {"e", &D.G.Val},
       {"h", &D.H},
       {"y", &Y}},
      Y);
}

} // namespace

int main() {
  CacheScope Cache;
  serve::telemetry::setEnabled(false);
  serve::telemetry::reset();

  std::vector<Row> Rows = {runSpMM(), runSDDMM(), runSegSoftmax()};

  bool DiffsOk = true;
  for (const Row &R : Rows) {
    DiffsOk = DiffsOk && R.DiffOk;
    std::printf("%-10s nnz %7lld | eager %8.3f ms | freetensor %8.3f ms | "
                "speedup %.2fx | maxdiff %.2e%s\n",
                R.Name.c_str(), (long long)R.Nnz, R.EagerMs, R.FtMs,
                R.Speedup, R.MaxDiff, R.DiffOk ? "" : " (MISMATCH)");
  }

  std::vector<double> Speedups;
  for (const Row &R : Rows)
    Speedups.push_back(R.Speedup);
  std::sort(Speedups.rbegin(), Speedups.rend());
  double SecondBest = Speedups.size() >= 2 ? Speedups[1] : 0;
  bool Ok = DiffsOk && SecondBest >= 1.3;
  std::printf("second-best speedup %.2fx (acceptance: >= 1.30x on two of "
              "three)\n",
              SecondBest);

  writeReport("sparse", [&](json::Writer &W) {
    W.key("benchmark").value("sparse").key("workloads").beginArray();
    for (const Row &R : Rows)
      W.beginObject()
          .key("name").value(R.Name)
          .key("nnz").value(R.Nnz)
          .key("eager_ms").value(R.EagerMs)
          .key("ft_ms").value(R.FtMs)
          .key("speedup").value(R.Speedup)
          .key("max_diff").value(R.MaxDiff)
          .endObject();
    W.endArray();
    W.key("second_best_speedup").value(SecondBest);
    W.key("pass").value(Ok);
  });
  std::printf("%s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
