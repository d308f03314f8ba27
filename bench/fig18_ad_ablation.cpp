//===- bench/fig18_ad_ablation.cpp - Paper Figure 18 ------------------------===//
//
// Ablation of Selective Intermediate Tensor Materialization (paper §6.4):
// FT(−) materializes every intermediate needed by the backward pass;
// FT(+) recomputes the cheap ones (§5.2). Forward and backward passes are
// timed separately, as in the paper's stacked bars, the two strategies
// interleaved.
//
// Expected shape (paper): FT(+) is 1.21x–6.83x faster overall, with the
// larger win in the forward pass (no tape writes for recomputed tensors).
//
// Writes BENCH_fig18.json: per workload and strategy the tapes, their bytes
// and the peak live kernel-local bytes, and the fastest interleaved sample
// and the median of each pass.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

using namespace ftb;

namespace {

struct Strategy {
  GradCase Pair;
  int64_t TapeBytes = 0;     ///< Allocated tape buffer bytes.
  uint64_t PeakFwdBytes = 0; ///< Peak live kernel-local heap, forward.
  uint64_t PeakBwdBytes = 0; ///< Same for the backward pass.
  Timing Fwd, Bwd;
};

Strategy measureMemory(GradCase Pair) {
  Strategy S{std::move(Pair), 0, 0, 0, {}, {}};
  for (const std::string &T : S.Pair.Grad.Tapes)
    S.TapeBytes += static_cast<int64_t>(S.Pair.Store.at(T).sizeBytes());
  // Memory accounting runs on separate profile-instrumented compiles of
  // the same scheduled functions, so the timed kernels stay pristine.
  // Peak live bytes covers kernel-allocated (heap) intermediates only;
  // tapes are caller-owned parameters and accounted separately above.
  CodegenOptions ProfOpts;
  ProfOpts.Profile = true;
  auto PF = Kernel::compile(autoScheduleFunc(S.Pair.Grad.Forward), ProfOpts);
  auto PB = Kernel::compile(autoScheduleFunc(S.Pair.Grad.Backward), ProfOpts);
  ftAssert(PF.ok() && PB.ok(), "profile compile failed");
  Status S1 = PF->run(S.Pair.FwdArgs);
  ftAssert(S1.ok(), S1.message());
  S.PeakFwdBytes = PF->rtStats().PeakBytes;
  Status S2 = PB->run(S.Pair.BwdArgs);
  ftAssert(S2.ok(), S2.message());
  S.PeakBwdBytes = PB->rtStats().PeakBytes;
  return S;
}

struct Workload {
  std::string Name;
  Strategy Plus, Minus; ///< FT(+) Selective, FT(−) All.
};

Workload measure(const std::function<Case()> &Make) {
  Case C = Make();
  std::string Name = C.Name;
  Workload W{Name,
             measureMemory(gradCase(std::move(C), TapeStrategy::Selective)),
             measureMemory(gradCase(Make(), TapeStrategy::All))};
  // The forward runs refill the tapes the backward runs read.
  std::vector<Timing> T = timeInterleaved(
      {kernelRuns(W.Plus.Pair.Fwd, W.Plus.Pair.FwdArgs),
       kernelRuns(W.Minus.Pair.Fwd, W.Minus.Pair.FwdArgs),
       kernelRuns(W.Plus.Pair.Bwd, W.Plus.Pair.BwdArgs),
       kernelRuns(W.Minus.Pair.Bwd, W.Minus.Pair.BwdArgs)});
  W.Plus.Fwd = T[0];
  W.Minus.Fwd = T[1];
  W.Plus.Bwd = T[2];
  W.Minus.Bwd = T[3];
  for (const Strategy *S : {&W.Plus, &W.Minus})
    std::printf("%-11s FT(%c): %zu tapes, %lld tape bytes (%llu analytic), "
                "peak live fwd %llu B / bwd %llu B | fwd best %.3f median "
                "%.3f ms | bwd best %.3f median %.3f ms\n",
                W.Name.c_str(), S == &W.Plus ? '+' : '-', S->Pair.Grad.Tapes.size(),
                static_cast<long long>(S->TapeBytes),
                static_cast<unsigned long long>(S->Pair.Grad.totalTapeBytes()),
                static_cast<unsigned long long>(S->PeakFwdBytes),
                static_cast<unsigned long long>(S->PeakBwdBytes),
                S->Fwd.Best * 1e3, S->Fwd.Median * 1e3, S->Bwd.Best * 1e3,
                S->Bwd.Median * 1e3);
  return W;
}

void writeStrategy(json::Writer &W, const char *Key, const Strategy &S) {
  W.key(Key).beginObject()
      .key("tapes").value(S.Pair.Grad.Tapes.size())
      .key("tape_bytes").value(S.TapeBytes)
      .key("tape_bytes_analytic").value(S.Pair.Grad.totalTapeBytes())
      .key("peak_live_fwd_bytes").value(S.PeakFwdBytes)
      .key("peak_live_bwd_bytes").value(S.PeakBwdBytes);
  W.key("forward");
  writeMs(W, S.Fwd);
  W.key("backward");
  writeMs(W, S.Bwd);
  W.endObject();
}

} // namespace

int main() {
  CacheScope Cache;
  std::vector<Workload> Rows;
  Rows.push_back(measure([] { return subdivnetCase(); }));
  Rows.push_back(measure([] { return longformerCase(); }));
  Rows.push_back(measure([] { return softrasCase(); }));
  writeReport("fig18", [&](json::Writer &W) {
    W.key("benchmark").value("fig18").key("workloads").beginArray();
    for (const Workload &R : Rows) {
      W.beginObject().key("name").value(R.Name);
      writeStrategy(W, "plus", R.Plus);
      writeStrategy(W, "minus", R.Minus);
      W.endObject();
    }
    W.endArray();
  });
  return 0;
}
