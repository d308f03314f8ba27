//===- tests/workloads_grad_test.cpp - AD on the real workloads ------------===//
//
// Differentiates the actual workload builders (as the Figure 16(b)/18
// benchmarks do) and validates against finite differences.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <gtest/gtest.h>

#include "autodiff/grad.h"
#include "interp/interp.h"
#include "workloads/workloads.h"

using namespace ft;
using namespace ft::workloads;

namespace {

/// Runs fwd+bwd of \p G with the given bound input data (non-float params
/// included), seeds = ones, and finite-difference checks d(sum of outputs)
/// w.r.t. a few probe elements of \p WrtName.
void checkWorkloadGrad(const Func &Original, const GradResult &G,
                       std::map<std::string, Buffer> &Data,
                       const std::vector<std::string> &OutputNames,
                       const std::string &WrtName,
                       const std::vector<int64_t> &Probes, double Tol) {
  // Allocate tapes.
  for (const std::string &T : G.Tapes) {
    auto D = findVarDef(G.Forward.Body, T);
    ASSERT_NE(D, nullptr);
    std::vector<int64_t> Shape;
    for (const Expr &E : D->Info.Shape) {
      auto IC = dyn_cast<IntConstNode>(E);
      ASSERT_NE(IC, nullptr);
      Shape.push_back(IC->Val);
    }
    Data.emplace(T, Buffer(DataType::Float32, Shape));
  }
  std::map<std::string, Buffer *> FwdArgs;
  for (const std::string &P : G.Forward.Params)
    FwdArgs[P] = &Data.at(P);
  interpret(G.Forward, FwdArgs);

  for (const auto &[Y, SeedName] : G.SeedNames) {
    Data.emplace(SeedName,
                 Buffer(DataType::Float32, Data.at(Y).shape()));
    for (int64_t I = 0; I < Data.at(SeedName).numel(); ++I)
      Data.at(SeedName).setF(I, 1.0);
  }
  for (const auto &[X, GradName] : G.GradNames)
    Data.emplace(GradName, Buffer(DataType::Float32, Data.at(X).shape()));

  std::map<std::string, Buffer *> BwdArgs;
  for (const std::string &P : G.Backward.Params)
    BwdArgs[P] = &Data.at(P);
  interpret(G.Backward, BwdArgs);

  const Buffer &GradBuf = Data.at(G.GradNames.at(WrtName));
  const double Eps = 1e-3;
  for (int64_t Probe : Probes) {
    auto Loss = [&](double Delta) {
      std::map<std::string, Buffer> FD;
      for (const std::string &P : Original.Params)
        FD.emplace(P, Data.at(P));
      FD.at(WrtName).setF(Probe, FD.at(WrtName).getF(Probe) + Delta);
      std::map<std::string, Buffer *> Args;
      for (auto &[N, B] : FD)
        Args[N] = &B;
      interpret(Original, Args);
      double L = 0;
      for (const std::string &O : OutputNames)
        for (int64_t I = 0; I < FD.at(O).numel(); ++I)
          L += FD.at(O).getF(I);
      return L;
    };
    double Numeric = (Loss(Eps) - Loss(-Eps)) / (2 * Eps);
    EXPECT_NEAR(GradBuf.getF(Probe), Numeric, Tol)
        << WrtName << "[" << Probe << "]";
  }
}

TEST(WorkloadGradTest, SubdivNetGrad) {
  SubdivNetConfig C{24, 4};
  Func F = buildSubdivNet(C);
  for (TapeStrategy S : {TapeStrategy::Selective, TapeStrategy::All}) {
    auto G = grad(F, {"e"}, S);
    ASSERT_TRUE(G.ok()) << G.message();
    SubdivNetData D = makeSubdivNetData(C);
    std::map<std::string, Buffer> Data;
    Data.emplace("e", D.E);
    Data.emplace("adj", D.Adj);
    Data.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
    checkWorkloadGrad(F, *G, Data, {"y"}, "e", {0, 5, 37, 95}, 5e-2);
  }
}

TEST(WorkloadGradTest, LongformerGradBothStrategies) {
  LongformerConfig C{10, 3, 2};
  Func F = buildLongformer(C);
  for (TapeStrategy S : {TapeStrategy::Selective, TapeStrategy::All}) {
    auto G = grad(F, {"Q", "K", "V"}, S);
    ASSERT_TRUE(G.ok()) << G.message();
    LongformerData D = makeLongformerData(C);
    std::map<std::string, Buffer> Data;
    Data.emplace("Q", D.Q);
    Data.emplace("K", D.K);
    Data.emplace("V", D.V);
    Data.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
    checkWorkloadGrad(F, *G, Data, {"y"}, "Q", {0, 7, 15}, 3e-2);
    checkWorkloadGrad(F, *G, Data, {"y"}, "V", {0, 11, 29}, 3e-2);
  }
}

TEST(WorkloadGradTest, LongformerSelectiveTapesFewerTensors) {
  LongformerConfig C{10, 3, 2};
  Func F = buildLongformer(C);
  auto GSel = grad(F, {"Q", "K", "V"}, TapeStrategy::Selective);
  auto GAll = grad(F, {"Q", "K", "V"}, TapeStrategy::All);
  ASSERT_TRUE(GSel.ok() && GAll.ok());
  // The selective policy recomputes attn / the exp values instead of
  // taping them (paper §5.2) — strictly fewer tapes than materialize-all.
  EXPECT_LT(GSel->Tapes.size(), GAll->Tapes.size());
}

TEST(WorkloadGradTest, SoftRasGrad) {
  SoftRasConfig C{6, 5, 5, 0.08f};
  Func F = buildSoftRas(C);
  for (TapeStrategy S : {TapeStrategy::Selective, TapeStrategy::All}) {
    auto G = grad(F, {"verts"}, S);
    ASSERT_TRUE(G.ok()) << G.message();
    SoftRasData D = makeSoftRasData(C);
    std::map<std::string, Buffer> Data;
    Data.emplace("verts", D.Verts);
    Data.emplace("px", D.Px);
    Data.emplace("py", D.Py);
    Data.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
    checkWorkloadGrad(F, *G, Data, {"img"}, "verts", {0, 3, 10, 25}, 5e-2);
  }
}


//===--------------------------------------------------------------------===//
// Tape-or-recompute decisions at perfbench's sizes (build and grad only).
//===--------------------------------------------------------------------===//

/// The tapes Selective keeps, and whether it recomputes \p Value.
struct Plan {
  std::vector<std::string> Tapes;
  bool Recomputed = false;
};

Plan planOf(const Func &F, const std::vector<std::string> &Wrt,
            const std::string &Value) {
  auto G = grad(F, Wrt, TapeStrategy::Selective);
  EXPECT_TRUE(G.ok()) << G.message();
  if (!G.ok())
    return {};
  Plan P{G->Tapes, false};
  bool Priced = false;
  for (const RecomputeDecision &D : G->Decisions)
    if (D.Tensor == Value) {
      Priced = true;
      P.Recomputed = D.Recomputed;
      EXPECT_EQ(D.Recomputed, D.RecomputeCost < D.MaterializeCost) << Value;
    }
  EXPECT_TRUE(Priced) << Value << " was not a recompute candidate";
  return P;
}

TEST(WorkloadGradTest, SubdivNetPerfbenchSizeRecomputesD) {
  // d would be a 3 MB tape read once per element.
  Plan P = planOf(buildSubdivNet({4096, 64}), {"e"}, "d");
  EXPECT_TRUE(P.Tapes.empty());
  EXPECT_TRUE(P.Recomputed);
}

TEST(WorkloadGradTest, LongformerPerfbenchSizeTapesAttn) {
  // The V.grad update reads attn on each of the 64 feature iterations.
  Plan P = planOf(buildLongformer({512, 64, 32}), {"Q", "K", "V"}, "attn");
  EXPECT_EQ(P.Tapes, (std::vector<std::string>{"attn.tape", "smax.den.tape",
                                               "smax.exp.tape"}));
  EXPECT_FALSE(P.Recomputed);
}

TEST(WorkloadGradTest, SoftRasPerfbenchSizeKeepsTapes) {
  // d's edge functions cost 47 ops and loads per evaluation.
  Plan P = planOf(buildSoftRas({128, 32, 32, 0.05f}), {"verts"}, "d");
  EXPECT_EQ(P.Tapes, (std::vector<std::string>{"acc.tape", "d.tape"}));
  EXPECT_FALSE(P.Recomputed);
}

} // namespace
