//===- bench/fig16.cpp - Paper Figure 16(a) and 16(b) ---------------------===//
//
// End-to-end time of every workload (paper §6.2), without differentiation
// (Fig. 16(a)) and with it (Fig. 16(b): forward + backward; GAT's gradient
// is omitted, as in the paper), in these implementations:
//   FreeTensor : DSL program, auto-scheduled, JIT-compiled to native code;
//                with gradients, grad() (selective materialization) and
//                both passes auto-scheduled and compiled
//   Eager      : the operator-based baseline (PyTorch/JAX stand-in); with
//                gradients, its tape autograd, which materializes every
//                intermediate (the cause of the paper's up-to-127x gap and
//                of the Longformer OOM on GPU)
//   Naive      : plain single-thread loops (the fine-grained Julia
//                stand-in), forward only
//
// Expected shape (paper: FreeTensor 2.08x geomean over the best baseline):
// FreeTensor beats Eager on every workload by avoiding operator-boundary
// materialization, and the gap widens with gradients.
//
// Writes BENCH_fig16.json: the fastest interleaved sample, the median and
// the quartiles of every implementation on every workload.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

using namespace ftb;

namespace {

struct Row {
  std::string Name;
  std::vector<std::string> Impls; ///< FreeTensor first.
  std::vector<Timing> Times;
};

/// Times the implementations of one workload against each other and prints
/// FreeTensor's median speedup over the best baseline.
Row timeRow(std::string Name, std::vector<std::string> Impls,
            const std::vector<Contender> &Cs) {
  Row R{std::move(Name), std::move(Impls), timeInterleaved(Cs)};
  double BestBase = 1e300;
  for (size_t I = 0; I < R.Impls.size(); ++I) {
    const Timing &T = R.Times[I];
    std::printf("%-11s %-10s best %9.3f ms  median %9.3f ms  [%.3f, %.3f]\n",
                R.Name.c_str(), R.Impls[I].c_str(), T.Best * 1e3,
                T.Median * 1e3, T.Q1 * 1e3, T.Q3 * 1e3);
    if (I > 0)
      BestBase = std::min(BestBase, T.Median);
  }
  std::printf("%-11s FreeTensor vs best baseline: %.2fx (medians)\n",
              R.Name.c_str(), BestBase / R.Times[0].Median);
  return R;
}

void writeRows(json::Writer &W, const char *Key, const std::vector<Row> &Rows) {
  W.key(Key).beginArray();
  for (const Row &R : Rows) {
    W.beginObject().key("name").value(R.Name);
    for (size_t I = 0; I < R.Impls.size(); ++I) {
      W.key(R.Impls[I]);
      writeMs(W, R.Times[I]);
    }
    W.endObject();
  }
  W.endArray();
}

std::vector<Row> forwardRows() {
  std::vector<Row> Rows;
  const std::vector<std::string> Impls = {"freetensor", "eager", "naive"};
  {
    SubdivNetConfig C = subdivnetCfg();
    Case K = subdivnetCase(C);
    Kernel FT = compileAuto(K.F);
    auto Args = K.args();
    eager::Tensor E = toEager(K.Store.at("e"));
    eager::IndexTensor Adj = toEagerIdx(K.Store.at("adj"));
    std::vector<float> Y(C.NFaces * C.Feats);
    Rows.push_back(timeRow(
        K.Name, Impls,
        {kernelRuns(FT, Args), each([&] {
           eager::clearTape();
           (void)subdivnetEager(E, Adj, C);
         }),
         each([&] {
           subdivnetNaive(C, K.Store.at("e").as<float>(),
                          K.Store.at("adj").as<int64_t>(), Y.data());
         })}));
  }
  {
    LongformerConfig C = longformerCfg();
    Case K = longformerCase(C);
    Kernel FT = compileAuto(K.F);
    auto Args = K.args();
    eager::Tensor Q = toEager(K.Store.at("Q")), Kt = toEager(K.Store.at("K")),
                  V = toEager(K.Store.at("V"));
    std::vector<float> Y(C.SeqLen * C.Feats);
    Rows.push_back(timeRow(
        K.Name, Impls,
        {kernelRuns(FT, Args), each([&] {
           eager::clearTape();
           (void)longformerEager(Q, Kt, V, C);
         }),
         each([&] {
           longformerNaive(C, K.Store.at("Q").as<float>(),
                           K.Store.at("K").as<float>(),
                           K.Store.at("V").as<float>(), Y.data());
         })}));
  }
  {
    SoftRasConfig C = softrasCfg();
    Case K = softrasCase(C);
    Kernel FT = compileAuto(K.F);
    auto Args = K.args();
    SoftRasEagerInputs In = makeSoftRasEagerInputs(makeSoftRasData(C), false);
    std::vector<float> Img(C.numPixels());
    Rows.push_back(timeRow(
        K.Name, Impls,
        {kernelRuns(FT, Args), each([&] {
           eager::clearTape();
           (void)softrasEager(In, C);
         }),
         each([&] {
           softrasNaive(C, K.Store.at("verts").as<float>(),
                        K.Store.at("px").as<float>(),
                        K.Store.at("py").as<float>(), Img.data());
         })}));
  }
  {
    GATConfig C = gatCfg();
    Case K = gatCase(C);
    Kernel FT = compileAuto(K.F);
    auto Args = K.args();
    const Buffer &Adj = K.Store.at("adj");
    eager::Tensor H = toEager(K.Store.at("h")), A1 = toEager(K.Store.at("a1")),
                  A2 = toEager(K.Store.at("a2"));
    eager::IndexTensor AdjFlat = eager::IndexTensor::fromVec(
        {Adj.numel()}, std::vector<int64_t>(Adj.as<int64_t>(),
                                            Adj.as<int64_t>() + Adj.numel()));
    std::vector<int64_t> Self(C.NNodes * C.Degree);
    for (int64_t I = 0; I < C.NNodes; ++I)
      for (int64_t M = 0; M < C.Degree; ++M)
        Self[I * C.Degree + M] = I;
    eager::IndexTensor SelfFlat =
        eager::IndexTensor::fromVec({C.NNodes * C.Degree}, Self);
    std::vector<float> Y(C.NNodes * C.Feats);
    Rows.push_back(timeRow(
        K.Name, Impls,
        {kernelRuns(FT, Args), each([&] {
           eager::clearTape();
           (void)gatEager(H, AdjFlat, SelfFlat, A1, A2, C);
         }),
         each([&] {
           gatNaive(C, K.Store.at("h").as<float>(), Adj.as<int64_t>(),
                    K.Store.at("a1").as<float>(),
                    K.Store.at("a2").as<float>(), Y.data());
         })}));
  }
  return Rows;
}

/// FreeTensor's forward + backward pair as one operation.
Contender gradRuns(const GradCase &G) {
  return each([&G] {
    Status S1 = G.Fwd.run(G.FwdArgs);
    ftAssert(S1.ok(), S1.message());
    Status S2 = G.Bwd.run(G.BwdArgs);
    ftAssert(S2.ok(), S2.message());
  });
}

std::vector<Row> gradRows() {
  std::vector<Row> Rows;
  const std::vector<std::string> Impls = {"freetensor", "eager"};
  {
    SubdivNetConfig C = subdivnetCfg();
    GradCase G = gradCase(subdivnetCase(C), TapeStrategy::Selective);
    eager::Tensor E = toEager(G.Store.at("e"), /*RequiresGrad=*/true);
    eager::IndexTensor Adj = toEagerIdx(G.Store.at("adj"));
    Rows.push_back(timeRow("subdivnet", Impls,
                           {gradRuns(G), each([&] {
                              eager::clearTape();
                              eager::backward(subdivnetEager(E, Adj, C));
                            })}));
  }
  {
    LongformerConfig C = longformerCfg();
    GradCase G = gradCase(longformerCase(C), TapeStrategy::Selective);
    eager::Tensor Q = toEager(G.Store.at("Q"), true),
                  K = toEager(G.Store.at("K"), true),
                  V = toEager(G.Store.at("V"), true);
    Rows.push_back(timeRow("longformer", Impls,
                           {gradRuns(G), each([&] {
                              eager::clearTape();
                              eager::backward(longformerEager(Q, K, V, C));
                            })}));
  }
  {
    SoftRasConfig C = softrasCfg();
    SoftRasEagerInputs In = makeSoftRasEagerInputs(makeSoftRasData(C), true);
    GradCase G = gradCase(softrasCase(C), TapeStrategy::Selective);
    Rows.push_back(timeRow("softras", Impls,
                           {gradRuns(G), each([&] {
                              eager::clearTape();
                              eager::backward(softrasEager(In, C));
                            })}));
  }
  return Rows;
}

} // namespace

int main() {
  CacheScope Cache;
  std::printf("=== Figure 16(a): forward ===\n");
  std::vector<Row> Forward = forwardRows();
  std::printf("\n=== Figure 16(b): forward + backward ===\n");
  std::vector<Row> Grad = gradRows();
  writeReport("fig16", [&](json::Writer &W) {
    W.key("benchmark").value("fig16");
    writeRows(W, "forward", Forward);
    writeRows(W, "grad", Grad);
  });
  return 0;
}
