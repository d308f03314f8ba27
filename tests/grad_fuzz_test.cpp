//===- tests/grad_fuzz_test.cpp - Randomized AD property tests --------------===//
//
// Property: for any generated program in AD's supported class, grad() under
// EITHER tape strategy produces gradients that match central finite
// differences of the primal — and the two strategies match each other.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <gtest/gtest.h>

#include "autodiff/grad.h"
#include "frontend/libop.h"
#include "interp/interp.h"
#include "ir/printer.h"

using namespace ft;

namespace {

struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435761u + 17) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % uint64_t(Hi - Lo));
  }
  bool coin() { return next() & 1; }
};

struct GenProgram {
  Func F;
  std::map<std::string, std::vector<int64_t>> Shapes;
};

/// Generates a differentiable program: a per-row temporary built from a
/// random smooth expression, accumulated through a guarded reduction, and
/// consumed through random smooth post-ops.
GenProgram makeProgram(uint64_t Seed) {
  Rng R(Seed);
  const int64_t N = R.range(3, 7);
  const int64_t M = R.range(2, 5);
  FunctionBuilder B("gfuzz" + std::to_string(Seed));
  View A = B.input("a", {makeIntConst(N), makeIntConst(M)});
  View Bv = B.input("b", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N)});

  auto Smooth = [&](Expr V) {
    switch (R.range(0, 5)) {
    case 0:
      return ft::exp(V * makeFloatConst(0.3));
    case 1:
      return ft::sigmoid(V);
    case 2:
      return ft::tanh(V);
    case 3:
      return V * V + makeFloatConst(0.5);
    default:
      return ft::sqrt(V * V + makeFloatConst(1.0));
    }
  };

  B.loop("i", 0, N, [&](Expr I) {
    View Acc = B.local("acc", {});
    Acc.assign(0.0);
    B.loop("j", 0, M, [&](Expr J) {
      View T = B.local("t", {});
      Expr V = A[I][J].load() + (R.coin() ? Bv[I].load()
                                          : makeFloatConst(0.25));
      T.assign(Smooth(V));
      if (R.coin()) {
        Acc += T.load();
      } else {
        B.ifThen(J >= 1, [&] { Acc += T.load() * makeFloatConst(0.5); });
        B.ifThen(J < 1, [&] { Acc += T.load(); });
      }
    });
    Y[I].assign(Smooth(Acc.load()));
  });

  GenProgram P;
  P.F = B.build();
  P.Shapes = {{"a", {N, M}}, {"b", {N}}, {"y", {N}}};
  return P;
}

/// Generates the Longformer shape: a per-(row, column) temporary that the
/// backward pass reads inside a deeper inner loop, once per inner trip.
/// Trip counts and the temporary's cost vary so that Selective tapes it
/// for some seeds and recomputes it for others.
GenProgram makeInnerUseProgram(uint64_t Seed) {
  Rng R(Seed);
  const int64_t N = R.range(2, 5);
  const int64_t M = R.range(2, 5);
  const int64_t Inner = R.range(1, 8);
  FunctionBuilder B("gfuzz_inner" + std::to_string(Seed));
  View A = B.input("a", {makeIntConst(N), makeIntConst(M)});
  View Bv = B.input("b", {makeIntConst(N)});
  View C = B.input("c", {makeIntConst(M), makeIntConst(Inner)});
  View Y = B.output("y", {makeIntConst(N), makeIntConst(Inner)});

  B.loop("i", 0, N, [&](Expr I) {
    B.loop("p", 0, Inner, [&](Expr Pp) { Y[I][Pp].assign(0.0); });
    B.loop("j", 0, M, [&](Expr J) {
      View T = B.local("t", {});
      switch (R.range(0, 3)) {
      case 0:
        T.assign(A[I][J].load() * makeFloatConst(0.5));
        break;
      case 1:
        T.assign(A[I][J].load() * Bv[I].load());
        break;
      default:
        T.assign(A[I][J].load() * Bv[I].load() + makeFloatConst(0.25));
        break;
      }
      B.loop("p", 0, Inner, [&](Expr Pp) {
        Y[I][Pp] += T.load() * C[J][Pp].load();
      });
    });
  });

  GenProgram P;
  P.F = B.build();
  P.Shapes = {
      {"a", {N, M}}, {"b", {N}}, {"c", {M, Inner}}, {"y", {N, Inner}}};
  return P;
}

void fillBuf(Buffer &B, uint64_t Seed) {
  Rng R(Seed);
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, 0.3 * std::sin(0.77 * double(I) + double(R.range(0, 6))));
}

double primalLoss(const GenProgram &P, std::map<std::string, Buffer> FD) {
  std::map<std::string, Buffer *> Args;
  for (auto &[N, B] : FD)
    Args[N] = &B;
  interpret(P.F, Args);
  double L = 0;
  for (int64_t I = 0; I < FD.at("y").numel(); ++I)
    L += FD.at("y").getF(I);
  return L;
}

/// Checks grad() of \p P w.r.t. every input (each shape but "y") under
/// both strategies against finite differences and against each other.
void checkBothStrategies(const GenProgram &P, uint64_t Seed) {
  std::vector<std::string> Wrt;
  std::map<std::string, Buffer> Primal;
  uint64_t FillSeed = Seed;
  for (const auto &[Name, Shape] : P.Shapes) {
    Primal.emplace(Name, Buffer(DataType::Float32, Shape));
    if (Name == "y")
      continue;
    Wrt.push_back(Name);
    fillBuf(Primal.at(Name), ++FillSeed);
  }

  std::map<std::string, std::vector<float>> GradsByStrategy;
  for (TapeStrategy Strategy :
       {TapeStrategy::Selective, TapeStrategy::All}) {
    auto G = grad(P.F, Wrt, Strategy);
    ASSERT_TRUE(G.ok()) << "seed " << Seed << ": " << G.message();

    std::map<std::string, Buffer> Store = Primal;
    for (const std::string &T : G->Tapes) {
      auto D = findVarDef(G->Forward.Body, T);
      std::vector<int64_t> Shape;
      for (const Expr &E : D->Info.Shape)
        Shape.push_back(cast<IntConstNode>(E)->Val);
      Store.emplace(T, Buffer(DataType::Float32, Shape));
    }
    Buffer SeedBuf(DataType::Float32, P.Shapes.at("y"));
    for (int64_t I = 0; I < SeedBuf.numel(); ++I)
      SeedBuf.setF(I, 1.0);
    Store.emplace(G->SeedNames.at("y"), std::move(SeedBuf));
    for (const std::string &W : Wrt)
      Store.emplace(G->GradNames.at(W),
                    Buffer(DataType::Float32, P.Shapes.at(W)));

    std::map<std::string, Buffer *> FwdArgs, BwdArgs;
    for (const std::string &Pp : G->Forward.Params)
      FwdArgs[Pp] = &Store.at(Pp);
    for (const std::string &Pp : G->Backward.Params)
      BwdArgs[Pp] = &Store.at(Pp);
    interpret(G->Forward, FwdArgs);
    interpret(G->Backward, BwdArgs);

    for (const std::string &W : Wrt) {
      const Buffer &GB = Store.at(G->GradNames.at(W));
      std::vector<float> &Vec =
          GradsByStrategy[W + (Strategy == TapeStrategy::All ? "/all"
                                                             : "/sel")];
      Vec.assign(GB.as<float>(), GB.as<float>() + GB.numel());

      // Finite differences at three probes.
      const double Eps = 1e-3;
      for (int64_t Probe :
           {int64_t(0), GB.numel() / 2, GB.numel() - 1}) {
        auto Shift = [&](double D) {
          std::map<std::string, Buffer> FD = Primal;
          FD.at(W).setF(Probe, FD.at(W).getF(Probe) + D);
          return primalLoss(P, std::move(FD));
        };
        double Numeric = (Shift(Eps) - Shift(-Eps)) / (2 * Eps);
        EXPECT_NEAR(GB.getF(Probe), Numeric, 3e-2)
            << "seed " << Seed << " wrt " << W << "[" << Probe << "]";
      }
    }
  }

  // The two strategies must agree exactly (same math, different storage).
  for (const std::string &W : Wrt) {
    const auto &Sel = GradsByStrategy.at(W + "/sel");
    const auto &All = GradsByStrategy.at(W + "/all");
    ASSERT_EQ(Sel.size(), All.size());
    for (size_t I = 0; I < Sel.size(); ++I)
      EXPECT_NEAR(Sel[I], All[I], 1e-4)
          << "seed " << Seed << " strategies diverge at " << W << "[" << I
          << "]";
  }
}

class GradFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GradFuzz, GradMatchesFiniteDifferencesBothStrategies) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  checkBothStrategies(makeProgram(Seed), Seed);
}

TEST_P(GradFuzz, InnerUseGradMatchesFiniteDifferencesBothStrategies) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  checkBothStrategies(makeInnerUseProgram(Seed), Seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GradFuzz, ::testing::Range(1, 21));

TEST(GradFuzzInnerUse, SweepTapesSomeTemporariesAndRecomputesOthers) {
  int Taped = 0, Recomputed = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    auto G = grad(makeInnerUseProgram(Seed).F, {"a", "b", "c"});
    ASSERT_TRUE(G.ok()) << "seed " << Seed << ": " << G.message();
    ++(G->Tapes.empty() ? Recomputed : Taped);
  }
  EXPECT_GE(Taped, 3);
  EXPECT_GE(Recomputed, 3);
}

} // namespace
