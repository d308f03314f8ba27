//===- tests/workloads_grad_test.cpp - AD on the real workloads ------------===//
//
// Differentiates the actual workload builders (as the Figure 16(b)/18
// benchmarks do) and validates against finite differences.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <gtest/gtest.h>

#include "autodiff/grad.h"
#include "autoschedule/autoschedule.h"
#include "codegen/jit.h"
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

//===--------------------------------------------------------------------===//
// SoftRas compiled at sizes where its image varies. At perfbench's sizes
// (sigma 0.05) every pixel is covered and img is 1 to within 3e-4, so a
// kernel that returns about 1 and a gradient of about 0 passes any check
// there. At sigma 0.005 most pixels are partly covered; 16 or more faces
// also make auto_layout copy verts (and verts.grad) into a struct-of-arrays
// layout, and the kernels call the vector expf and logf.
//===--------------------------------------------------------------------===//

/// Share of pixels whose coverage lies strictly inside (0.05, 0.95).
double unsaturatedShare(const std::vector<float> &Img) {
  int64_t N = 0;
  for (float V : Img)
    N += V > 0.05f && V < 0.95f;
  return double(N) / double(Img.size());
}

/// Sum of SoftRas's image over all pixels, in double precision.
double softrasLoss(const SoftRasConfig &C, const std::vector<double> &V,
                   const float *Px, const float *Py) {
  double L = 0;
  for (int64_t P = 0; P < C.numPixels(); ++P) {
    double S = 0;
    for (int64_t F = 0; F < C.NFaces; ++F) {
      double D = 1e300;
      for (int64_t J = 0; J < 3; ++J) {
        int64_t J1 = (J + 1) % 3;
        double VX = V[(F * 3 + J) * 2], VY = V[(F * 3 + J) * 2 + 1];
        double EX = V[(F * 3 + J1) * 2] - VX, EY = V[(F * 3 + J1) * 2 + 1] - VY;
        D = std::min(D, (Px[P] - VX) * EY - (Py[P] - VY) * EX);
      }
      S += std::log(1 - 0.999 / (1 + std::exp(-D / C.Sigma)));
    }
    L += 1 - std::exp(S);
  }
  return L;
}

/// JIT-compiles \p F and runs it on \p Args.
Status compileAndRun(const Func &F,
                     const std::map<std::string, Buffer *> &Args) {
  auto K = Kernel::compile(F);
  if (!K.ok())
    return Status::error(K.message());
  return K->run(Args);
}

/// Checks SoftRas's JIT forward against softrasNaive and the interpreter,
/// and its JIT gradient against central differences of softrasLoss, under
/// both tape strategies and the serial and the 4-thread schedule. The
/// tolerances sit about 40x (forward, absolute) and 250x (gradient,
/// relative to its largest element) above the errors measured on x86-64
/// with glibc's vector expf and logf.
/// \p Copied is how many layout copies auto_layout must make in each of
/// the forward, grad-forward and backward programs of the serial schedule.
void checkSoftRasJit(const SoftRasConfig &C, double MinUnsaturated,
                     const int (&Copied)[3]) {
  SoftRasData D = makeSoftRasData(C);
  const int64_t NP = C.numPixels();
  std::vector<float> Naive(NP);
  softrasNaive(C, D.Verts.as<float>(), D.Px.as<float>(), D.Py.as<float>(),
               Naive.data());
  ASSERT_GE(unsaturatedShare(Naive), MinUnsaturated);

  Func F = buildSoftRas(C);
  Buffer ImgI(DataType::Float32, {NP});
  interpret(F, {{"verts", &D.Verts}, {"px", &D.Px}, {"py", &D.Py},
                {"img", &ImgI}});

  std::vector<double> V(D.Verts.as<float>(),
                        D.Verts.as<float>() + D.Verts.numel());
  std::vector<double> Fd(V.size());
  double FdMax = 0;
  for (size_t I = 0; I < V.size(); ++I) {
    const double Eps = 1e-6;
    std::vector<double> Up = V, Dn = V;
    Up[I] += Eps;
    Dn[I] -= Eps;
    Fd[I] = (softrasLoss(C, Up, D.Px.as<float>(), D.Py.as<float>()) -
             softrasLoss(C, Dn, D.Px.as<float>(), D.Py.as<float>())) /
            (2 * Eps);
    FdMax = std::max(FdMax, std::fabs(Fd[I]));
  }
  ASSERT_GT(FdMax, 1.0);

  for (int Threads : {1, 4}) {
    AutoScheduleOptions Opts;
    Opts.NumThreads = Threads;
    AutoScheduleReport R;
    Func Fwd = autoScheduleFunc(F, Opts, &R);
    if (Threads == 1) {
      EXPECT_EQ(R.Copied, Copied[0]) << "forward";
    }
    Buffer Img(DataType::Float32, {NP});
    Status St = compileAndRun(Fwd, {{"verts", &D.Verts},
                                    {"px", &D.Px},
                                    {"py", &D.Py},
                                    {"img", &Img}});
    ASSERT_TRUE(St.ok()) << St.message();
    for (int64_t P = 0; P < NP; ++P) {
      ASSERT_NEAR(Img.as<float>()[P], Naive[P], 1e-5)
          << "naive, " << Threads << " thread(s), pixel " << P;
      ASSERT_NEAR(Img.as<float>()[P], ImgI.as<float>()[P], 1e-5)
          << "interpreter, " << Threads << " thread(s), pixel " << P;
    }

    for (TapeStrategy St : {TapeStrategy::Selective, TapeStrategy::All}) {
      auto G = grad(F, {"verts"}, St);
      ASSERT_TRUE(G.ok()) << G.message();
      AutoScheduleReport RF, RB;
      Func GF = autoScheduleFunc(G->Forward, Opts, &RF);
      Func GB = autoScheduleFunc(G->Backward, Opts, &RB);
      if (Threads == 1) {
        EXPECT_EQ(RF.Copied, Copied[1]) << "grad forward";
        EXPECT_EQ(RB.Copied, Copied[2]) << "backward";
      }
      std::map<std::string, Buffer> Data;
      Data.emplace("verts", D.Verts);
      Data.emplace("px", D.Px);
      Data.emplace("py", D.Py);
      Data.emplace("img", Buffer(DataType::Float32, {NP}));
      for (const std::string &T : G->Tapes) {
        std::vector<int64_t> Shape;
        for (const Expr &E : findVarDef(G->Forward.Body, T)->Info.Shape)
          Shape.push_back(cast<IntConstNode>(E)->Val);
        Data.emplace(T, Buffer(DataType::Float32, Shape));
      }
      Buffer Seed(DataType::Float32, {NP});
      for (int64_t P = 0; P < NP; ++P)
        Seed.setF(P, 1.0);
      Data.emplace(G->SeedNames.at("img"), std::move(Seed));
      Data.emplace(G->GradNames.at("verts"),
                   Buffer(DataType::Float32, D.Verts.shape()));
      std::map<std::string, Buffer *> FwdArgs, BwdArgs;
      for (const std::string &P : GF.Params)
        FwdArgs[P] = &Data.at(P);
      for (const std::string &P : GB.Params)
        BwdArgs[P] = &Data.at(P);
      Status FwdSt = compileAndRun(GF, FwdArgs);
      ASSERT_TRUE(FwdSt.ok()) << FwdSt.message();
      Status BwdSt = compileAndRun(GB, BwdArgs);
      ASSERT_TRUE(BwdSt.ok()) << BwdSt.message();
      const Buffer &Grad = Data.at(G->GradNames.at("verts"));
      for (size_t I = 0; I < Fd.size(); ++I)
        ASSERT_NEAR(Grad.getF(I), Fd[I], 1e-4 * FdMax)
            << "verts.grad[" << I << "], " << Threads << " thread(s), "
            << (St == TapeStrategy::All ? "All" : "Selective");
    }
  }
}

TEST(WorkloadGradTest, SoftRasJit64FacesVaryingImage) {
  checkSoftRasJit({64, 16, 16, 0.005f}, 0.75, {1, 1, 2});
}

TEST(WorkloadGradTest, SoftRasJit32FacesVaryingImage) {
  checkSoftRasJit({32, 16, 16, 0.005f}, 0.75, {1, 1, 2});
}

TEST(WorkloadGradTest, SoftRasJit8FacesKeepsItsSchedule) {
  // 8 faces is below the SIMD width: auto_layout makes no copy.
  checkSoftRasJit({8, 16, 16, 0.005f}, 0.4, {0, 0, 0});
}

} // namespace
