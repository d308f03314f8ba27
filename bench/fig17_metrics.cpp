//===- bench/fig17_metrics.cpp - Paper Figure 17 ----------------------------===//
//
// Analysis of the speedup (paper §6.3): for SubdivNet forward, count
//   - kernel invocations,
//   - DRAM-traffic proxy (bytes moved to/from tensor storage),
//   - cache-traffic proxy (bytes of distinct elements touched),
//   - floating-point operations,
// for the operator-based baseline and for FreeTensor. The paper measures
// these with nvprof on a V100; here the instrumented interpreter and the
// instrumented EagerTensor framework count the same events analytically.
//
// Expected shape (paper): FreeTensor needs 1 kernel vs >= 6; ~3% of the
// baseline's DRAM traffic; <= 100% of the FLOPs.
//
// Writes BENCH_fig17.json: both sides' counts and the auto-scheduler's
// per-rule tally.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "interp/interp.h"

using namespace ftb;

namespace {

struct Metrics {
  int64_t Kernels = 0;
  int64_t DramBytes = 0;
  int64_t UniqueBytes = 0;
  int64_t Flops = 0;
};

Metrics measureFreeTensor() {
  Case K = subdivnetCase();
  // Measure the program as compiled: after auto-scheduling, the temporaries
  // live in registers / scratch-pad (auto_mem_type), so their traffic does
  // not reach DRAM — exactly the effect the paper credits ("intermediate
  // results can now be kept in registers, shared memory or cache").
  Func F = autoScheduleFunc(K.F);
  InterpOptions Opts;
  Opts.SimulateCache = true; // LRU model in front of main memory.
  InterpStats S = interpret(F, K.args(), Opts);
  Metrics M;
  M.Kernels = 1; // The whole layer is one fused kernel.
  M.DramBytes = S.SimDramBytes;
  // Distinct data the kernel must pull: inputs + outputs, once each.
  for (const auto &[Name, B] : K.Store)
    M.UniqueBytes += static_cast<int64_t>(B.sizeBytes());
  M.Flops = S.Flops;
  return M;
}

Metrics measureEager() {
  // The baseline launches one kernel per operator; between kernels the
  // multi-MB intermediates do not survive the modeled 1 MiB cache, so its
  // per-kernel streaming traffic IS its DRAM traffic.
  SubdivNetConfig C = subdivnetCfg();
  SubdivNetData D = makeSubdivNetData(C);
  eager::resetStats();
  eager::clearTape();
  eager::Tensor E = toEager(D.E);
  eager::IndexTensor Adj = toEagerIdx(D.Adj);
  (void)subdivnetEager(E, Adj, C);
  Metrics M;
  M.Kernels = eager::stats().KernelLaunches;
  M.DramBytes = eager::stats().bytesMoved();
  // Every materialized intermediate is traffic the caches cannot absorb
  // across kernel boundaries: allocated bytes approximate the distinct
  // footprint.
  M.UniqueBytes = eager::stats().BytesAllocated;
  M.Flops = eager::stats().Flops;
  return M;
}

void writeMetrics(json::Writer &W, const char *Key, const Metrics &M) {
  W.key(Key).beginObject()
      .key("kernels").value(M.Kernels)
      .key("dram_bytes").value(M.DramBytes)
      .key("unique_bytes").value(M.UniqueBytes)
      .key("flops").value(M.Flops)
      .endObject();
}

} // namespace

int main() {
  CacheScope Cache;
  Metrics FT = measureFreeTensor(), EG = measureEager();
  std::printf("=== Figure 17: analysis of the SubdivNet speedup ===\n");
  std::printf("%-28s %16s %16s %10s\n", "metric", "baseline(Eager)",
              "FreeTensor", "FT/base");
  auto Row = [](const char *Name, int64_t Base, int64_t Ft) {
    std::printf("%-28s %16lld %16lld %9.2f%%\n", Name,
                static_cast<long long>(Base), static_cast<long long>(Ft),
                100.0 * double(Ft) / double(Base));
  };
  Row("kernel invocations", EG.Kernels, FT.Kernels);
  Row("DRAM bytes (1MiB LRU model)", EG.DramBytes, FT.DramBytes);
  Row("unique footprint bytes", EG.UniqueBytes, FT.UniqueBytes);
  Row("FLOPs", EG.Flops, FT.Flops);
  std::printf("paper (V100): 1 vs >=6 kernels; DRAM 3.31%%; L2 18.38%%; "
              "FLOP 79.72%%\n\n");

  // What the auto-scheduler did to get there: the per-rule tried / applied
  // / rejected tally sourced from the schedule decision audit log.
  AutoScheduleReport Rep;
  (void)autoScheduleFunc(buildSubdivNet(subdivnetCfg()), {}, &Rep);
  std::printf("=== auto-schedule rule tally (SubdivNet) ===\n");
  std::printf("%-20s %8s %8s %8s\n", "rule", "tried", "applied", "rejected");
  for (const auto &[Rule, T] : Rep.Rules)
    std::printf("%-20s %8d %8d %8d\n", Rule.c_str(), T.Tried, T.Applied,
                T.Rejected);

  writeReport("fig17", [&](json::Writer &W) {
    W.key("benchmark").value("fig17").key("workload").value("subdivnet");
    writeMetrics(W, "eager", EG);
    writeMetrics(W, "freetensor", FT);
    W.key("rules").beginArray();
    for (const auto &[Rule, T] : Rep.Rules)
      W.beginObject()
          .key("rule").value(Rule)
          .key("tried").value(T.Tried)
          .key("applied").value(T.Applied)
          .key("rejected").value(T.Rejected)
          .endObject();
    W.endArray();
  });
  return 0;
}
