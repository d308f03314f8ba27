//===- tests/autodiff_test.cpp - Reverse-mode AD ---------------------------===//
//
// Every gradient is validated against central finite differences computed
// with the reference interpreter. The Fig. 15 example checks the
// materialize-vs-recompute decision directly.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <gtest/gtest.h>

#include "autodiff/grad.h"
#include "frontend/libop.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "support/trace.h"

using namespace ft;

namespace {

struct GradCheck {
  Func F;
  std::map<std::string, std::vector<int64_t>> Shapes;
  std::vector<std::string> Inputs;  ///< Differentiated inputs.
  std::vector<std::string> Outputs; ///< Output params (summed as the loss).
};

void seed(Buffer &B, double Phase) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, 0.5 * std::sin(0.7 * double(I) + Phase) + 0.1);
}

double lossOf(const GradCheck &GC,
              std::map<std::string, Buffer> &Store) {
  std::map<std::string, Buffer *> Args;
  for (auto &[N, B] : Store)
    Args[N] = &B;
  interpret(GC.F, Args);
  double L = 0;
  for (const std::string &O : GC.Outputs)
    for (int64_t I = 0; I < Store.at(O).numel(); ++I)
      L += Store.at(O).getF(I);
  return L;
}

/// Checks grad() against central differences, for both strategies.
void runGradCheck(const GradCheck &GC, TapeStrategy Strategy,
                  double Tol = 2e-2) {
  auto G = grad(GC.F, GC.Inputs, Strategy);
  ASSERT_TRUE(G.ok()) << G.message();

  // Forward+backward with the AD pair.
  std::map<std::string, Buffer> Store;
  double Phase = 0;
  for (const std::string &P : GC.F.Params) {
    Store.emplace(P, Buffer(DataType::Float32, GC.Shapes.at(P)));
    seed(Store.at(P), Phase += 1.0);
  }
  for (const std::string &T : G->Tapes) {
    auto D = findVarDef(G->Forward.Body, T);
    ASSERT_NE(D, nullptr);
    // Evaluate the tape shape with a scratch interpreter trick: shapes are
    // constants or scalar params; here tests use constant shapes.
    std::vector<int64_t> Shape;
    for (const Expr &E : D->Info.Shape) {
      auto IC = dyn_cast<IntConstNode>(E);
      ASSERT_NE(IC, nullptr) << "test tapes must be constant-shaped";
      Shape.push_back(IC->Val);
    }
    Store.emplace(T, Buffer(DataType::Float32, Shape));
  }
  std::map<std::string, Buffer *> FwdArgs;
  for (auto &[N, B] : Store)
    FwdArgs[N] = &B;
  interpret(G->Forward, FwdArgs);

  // Seeds: d(loss)/d(output) == 1.
  for (const auto &[Y, SeedName] : G->SeedNames) {
    Store.emplace(SeedName,
                  Buffer(DataType::Float32, GC.Shapes.at(Y)));
    for (int64_t I = 0; I < Store.at(SeedName).numel(); ++I)
      Store.at(SeedName).setF(I, 1.0);
  }
  for (const auto &[X, GradName] : G->GradNames)
    Store.emplace(GradName, Buffer(DataType::Float32, GC.Shapes.at(X)));

  std::map<std::string, Buffer *> BwdArgs;
  for (const std::string &P : G->Backward.Params)
    BwdArgs[P] = &Store.at(P);
  interpret(G->Backward, BwdArgs);

  // Central differences on a fresh copy.
  const double Eps = 1e-3;
  for (const std::string &X : GC.Inputs) {
    Buffer &GradBuf = Store.at(G->GradNames.at(X));
    for (int64_t I = 0; I < GradBuf.numel(); ++I) {
      std::map<std::string, Buffer> FD;
      double Phase2 = 0;
      for (const std::string &P : GC.F.Params) {
        FD.emplace(P, Buffer(DataType::Float32, GC.Shapes.at(P)));
        seed(FD.at(P), Phase2 += 1.0);
      }
      double Orig = FD.at(X).getF(I);
      FD.at(X).setF(I, Orig + Eps);
      double LPlus = lossOf(GC, FD);
      FD.at(X).setF(I, Orig - Eps);
      double LMinus = lossOf(GC, FD);
      double Numeric = (LPlus - LMinus) / (2 * Eps);
      EXPECT_NEAR(GradBuf.getF(I), Numeric, Tol)
          << "d(loss)/d(" << X << "[" << I << "])";
    }
  }
}

//===--------------------------------------------------------------------===//
// Fig. 15: t = a[i]*b[i]; y[i] = t*c[i]; z[i] = t*d[i].
//===--------------------------------------------------------------------===//

GradCheck buildFig15(int64_t N) {
  FunctionBuilder B("fig15");
  View A = B.input("a", {makeIntConst(N)});
  View Bv = B.input("b", {makeIntConst(N)});
  View C = B.input("c", {makeIntConst(N)});
  View D = B.input("d", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N)});
  View Z = B.output("z", {makeIntConst(N)});
  B.loop("i", 0, N, [&](Expr I) {
    View T = B.local("t", {});
    T.assign(A[I].load() * Bv[I].load());
    Y[I].assign(T.load() * C[I].load());
    Z[I].assign(T.load() * D[I].load());
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"a", {N}}, {"b", {N}}, {"c", {N}}, {"d", {N}},
               {"y", {N}}, {"z", {N}}};
  GC.Inputs = {"a", "b", "c", "d"};
  GC.Outputs = {"y", "z"};
  return GC;
}

TEST(AutodiffTest, Fig15GradientsCorrectBothStrategies) {
  runGradCheck(buildFig15(5), TapeStrategy::Selective);
  runGradCheck(buildFig15(5), TapeStrategy::All);
}

TEST(AutodiffTest, Fig15SelectiveRecomputesCheapScalar) {
  GradCheck GC = buildFig15(5);
  auto GSel = grad(GC.F, GC.Inputs, TapeStrategy::Selective);
  ASSERT_TRUE(GSel.ok()) << GSel.message();
  // t = a[i] * b[i] is cheap: no tape (Fig. 15(c)).
  EXPECT_TRUE(GSel->Tapes.empty());
  // The recomputation appears in the backward pass.
  EXPECT_NE(toString(GSel->Backward.Body).find("a["), std::string::npos);

  auto GAll = grad(GC.F, GC.Inputs, TapeStrategy::All);
  ASSERT_TRUE(GAll.ok());
  // Materialize-all tapes t into a length-N version vector (Fig. 15(b)).
  ASSERT_EQ(GAll->Tapes.size(), 1u);
  EXPECT_EQ(GAll->Tapes[0], "t.tape");
  auto TapeDef = findVarDef(GAll->Forward.Body, "t.tape");
  ASSERT_NE(TapeDef, nullptr);
  ASSERT_EQ(TapeDef->Info.Shape.size(), 1u);
  EXPECT_EQ(toString(TapeDef->Info.Shape[0]), "5");
}

//===--------------------------------------------------------------------===//
// Unary / binary rules through a deep expression.
//===--------------------------------------------------------------------===//

TEST(AutodiffTest, ScalarMathRules) {
  FunctionBuilder B("rules");
  View X = B.input("x", {makeIntConst(6)});
  View Y = B.output("y", {makeIntConst(6)});
  B.loop("i", 0, 6, [&](Expr I) {
    Expr V = X[I].load();
    Y[I].assign(ft::exp(V) * makeFloatConst(0.25) +
                ft::sigmoid(V) * ft::tanh(V) -
                ft::sqrt(ft::abs(V) + makeFloatConst(1.0)) +
                V / (V * V + makeFloatConst(2.0)));
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"x", {6}}, {"y", {6}}};
  GC.Inputs = {"x"};
  GC.Outputs = {"y"};
  runGradCheck(GC, TapeStrategy::Selective);
}

TEST(AutodiffTest, MinMaxSelectGradients) {
  FunctionBuilder B("mm");
  View X = B.input("x", {makeIntConst(5)});
  View W = B.input("w", {makeIntConst(5)});
  View Y = B.output("y", {makeIntConst(5)});
  B.loop("i", 0, 5, [&](Expr I) {
    Y[I].assign(ft::max(X[I].load(), W[I].load()) +
                ft::min(X[I].load() * makeFloatConst(2.0), W[I].load()));
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"x", {5}}, {"w", {5}}, {"y", {5}}};
  GC.Inputs = {"x", "w"};
  GC.Outputs = {"y"};
  runGradCheck(GC, TapeStrategy::Selective);
}

//===--------------------------------------------------------------------===//
// Reductions & softmax.
//===--------------------------------------------------------------------===//

TEST(AutodiffTest, SumReductionGradient) {
  FunctionBuilder B("sum");
  View X = B.input("x", {makeIntConst(4), makeIntConst(3)});
  View Y = B.output("y", {makeIntConst(4)});
  B.loop("i", 0, 4, [&](Expr I) {
    Y[I].assign(0.0);
    B.loop("j", 0, 3, [&](Expr J) {
      Y[I] += X[I][J].load() * X[I][J].load();
    });
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"x", {4, 3}}, {"y", {4}}};
  GC.Inputs = {"x"};
  GC.Outputs = {"y"};
  runGradCheck(GC, TapeStrategy::Selective);
  runGradCheck(GC, TapeStrategy::All);
}

TEST(AutodiffTest, SoftmaxGradient) {
  FunctionBuilder B("sm");
  View X = B.input("x", {makeIntConst(6)});
  View Y = B.output("y", {makeIntConst(6)});
  libop::softmax(B, X, Y);
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"x", {6}}, {"y", {6}}};
  GC.Inputs = {"x"};
  GC.Outputs = {"y"};
  runGradCheck(GC, TapeStrategy::Selective);
  runGradCheck(GC, TapeStrategy::All);
}

TEST(AutodiffTest, LongformerRowGradient) {
  // One full Longformer row: dot products + softmax, with the boundary
  // guard and indirect window access.
  const int64_t N = 5, D = 2, W = 1;
  FunctionBuilder B("lf");
  View Q = B.input("Q", {makeIntConst(N), makeIntConst(D)});
  View K = B.input("K", {makeIntConst(N), makeIntConst(D)});
  View Attn = B.output("attn", {makeIntConst(N), makeIntConst(2 * W + 1)});
  B.loop("j", 0, N, [&](Expr J) {
    View Dot = B.local("dot", {makeIntConst(2 * W + 1)});
    libop::zeros(B, Dot);
    B.loop("k", -W, W + 1, [&](Expr Kk) {
      B.ifThen(J + Kk >= 0 && J + Kk < N, [&] {
        B.loop("p", 0, D, [&](Expr P) {
          Dot[Kk + W] += Q[J][P].load() * K[J + Kk][P].load();
        });
      });
    });
    libop::softmax(B, Dot, Attn[J]);
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"Q", {N, D}}, {"K", {N, D}}, {"attn", {N, 2 * W + 1}}};
  GC.Inputs = {"Q", "K"};
  GC.Outputs = {"attn"};
  runGradCheck(GC, TapeStrategy::Selective, 3e-2);
  runGradCheck(GC, TapeStrategy::All, 3e-2);
}

TEST(AutodiffTest, GemmCallGradient) {
  FunctionBuilder B("mm");
  View A = B.input("A", {makeIntConst(3), makeIntConst(4)});
  View Bv = B.input("B", {makeIntConst(4), makeIntConst(2)});
  View C = B.output("C", {makeIntConst(3), makeIntConst(2)});
  libop::zeros(B, C);
  Func F = B.build();
  // Append a GemmCall by hand (as as_lib would produce).
  auto Wrap = [&](Stmt Body) {
    std::function<Stmt(const Stmt &)> Rec = [&](const Stmt &S) -> Stmt {
      if (auto Def = dyn_cast<VarDefNode>(S)) {
        Stmt NB = Rec(Def->Body);
        Stmt N = makeVarDef(Def->Name, Def->Info, Def->ATy, Def->MTy, NB,
                            Def->Id);
        return N;
      }
      return makeStmtSeq(
          {S, makeGemmCall("A", "B", "C", makeIntConst(3), makeIntConst(2),
                           makeIntConst(4), false, false,
                           DataType::Float32)});
    };
    return Rec(Body);
  };
  F.Body = Wrap(F.Body);
  GradCheck GC;
  GC.F = F;
  GC.Shapes = {{"A", {3, 4}}, {"B", {4, 2}}, {"C", {3, 2}}};
  GC.Inputs = {"A", "B"};
  GC.Outputs = {"C"};
  runGradCheck(GC, TapeStrategy::Selective);
}

//===--------------------------------------------------------------------===//
// Tape or recompute, priced by trip counts.
//===--------------------------------------------------------------------===//

/// y[i] = t_K with t_0 = x[i] and t_k = t_{k-1} * t_{k-1} - Shift, each
/// link a scalar local of the i loop.
GradCheck buildSquareChain(int Links, double Shift) {
  const int64_t N = 4;
  FunctionBuilder B("chain" + std::to_string(Links));
  View X = B.input("x", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N)});
  B.loop("i", 0, N, [&](Expr I) {
    Expr Prev = X[I].load();
    for (int K = 1; K <= Links; ++K) {
      View T = B.local("t" + std::to_string(K), {});
      T.assign(Prev * Prev - makeFloatConst(Shift));
      Prev = T.load();
    }
    Y[I].assign(Prev);
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"x", {N}}, {"y", {N}}};
  GC.Inputs = {"x"};
  GC.Outputs = {"y"};
  return GC;
}

TEST(AutodiffTest, SixLinkChainBothStrategies) {
  runGradCheck(buildSquareChain(6, 0.5), TapeStrategy::Selective, 1e-3);
  runGradCheck(buildSquareChain(6, 0.5), TapeStrategy::All, 1e-3);
}

TEST(AutodiffTest, TwentyLinkChainBothStrategies) {
  runGradCheck(buildSquareChain(20, 0.5), TapeStrategy::Selective, 1e-3);
  runGradCheck(buildSquareChain(20, 0.5), TapeStrategy::All, 1e-3);
}

TEST(AutodiffTest, ChainRecomputeDoesNotGrowExponentially) {
  // Inlining link k copies link k-1 twice: recomputing all of them would
  // emit 2^8 copies of x. Pricing the chain recursively tapes links before
  // the backward pass outgrows materialize-all's.
  GradCheck GC = buildSquareChain(8, 0.0);
  auto GSel = grad(GC.F, GC.Inputs, TapeStrategy::Selective);
  auto GAll = grad(GC.F, GC.Inputs, TapeStrategy::All);
  ASSERT_TRUE(GSel.ok() && GAll.ok()) << GSel.message() << GAll.message();
  EXPECT_LE(toString(GSel->Backward.Body).size(),
            toString(GAll->Backward.Body).size());
  EXPECT_FALSE(GSel->Tapes.empty());
}

/// for i: t = a[i] * b[i]; for p in 0:P: y[i, p] = t * c[p] — the
/// backward pass reads t once per p.
GradCheck buildInnerUse(int64_t P) {
  const int64_t N = 3;
  FunctionBuilder B("inner_use");
  View A = B.input("a", {makeIntConst(N)});
  View Bv = B.input("b", {makeIntConst(N)});
  View C = B.input("c", {makeIntConst(P)});
  View Y = B.output("y", {makeIntConst(N), makeIntConst(P)});
  B.loop("i", 0, N, [&](Expr I) {
    View T = B.local("t", {});
    T.assign(A[I].load() * Bv[I].load());
    B.loop("p", 0, P,
           [&](Expr Pp) { Y[I][Pp].assign(T.load() * C[Pp].load()); });
  });
  GradCheck GC;
  GC.F = B.build();
  GC.Shapes = {{"a", {N}}, {"b", {N}}, {"c", {P}}, {"y", {N, P}}};
  GC.Inputs = {"a", "b", "c"};
  GC.Outputs = {"y"};
  return GC;
}

TEST(AutodiffTest, InnerLoopTripsDecideAndAuditTapeOrRecompute) {
  // At 3 trips, recompute costs 3 x 3 evaluations x (1 op + 2 loads) = 27
  // against a 12-byte tape: 3 elements x (store + load) x 4 + 9 loads =
  // 33. At 8 trips it is 72 against 48, so t is taped.
  trace::AuditGuard Audit;
  for (int64_t P : {3, 8}) {
    GradCheck GC = buildInnerUse(P);
    runGradCheck(GC, TapeStrategy::Selective);
    const size_t Mark = trace::auditSize();
    auto G = grad(GC.F, GC.Inputs);
    ASSERT_TRUE(G.ok()) << G.message();
    EXPECT_EQ(G->Tapes, P == 3 ? std::vector<std::string>{}
                               : std::vector<std::string>{"t.tape"});
    auto Log = trace::auditLogSince(Mark);
    ASSERT_EQ(G->Decisions.size(), 1u);
    ASSERT_EQ(Log.size(), 1u);

    const RecomputeDecision &D = G->Decisions[0];
    EXPECT_EQ(D.Tensor, "t");
    EXPECT_EQ(D.Recomputed, P == 3);
    EXPECT_EQ(D.RecomputeCost, P == 3 ? 27 : 72);
    EXPECT_EQ(D.MaterializeCost, P == 3 ? 33 : 48);
    EXPECT_EQ(D.TapeBytes, 12u);
    Stmt Def = findStmt(GC.F.Body, D.StoreId);
    ASSERT_NE(Def, nullptr);
    ASSERT_TRUE(isa<StoreNode>(Def));
    EXPECT_EQ(cast<StoreNode>(Def)->Var, "t");

    const trace::ScheduleDecision &A = Log[0];
    EXPECT_EQ(A.Primitive, "grad/recompute");
    EXPECT_EQ(A.Target, "t");
    EXPECT_EQ(A.Applied, D.Recomputed);
    EXPECT_EQ(A.Reason, P == 3 ? "recompute 27 vs materialize 33"
                               : "recompute 72 vs materialize 48");
    EXPECT_EQ(A.StmtIds, std::vector<int64_t>{D.StoreId});
  }
  // Materialize-all decides nothing.
  const size_t Mark = trace::auditSize();
  auto GAll = grad(buildInnerUse(3).F, {"a", "b", "c"}, TapeStrategy::All);
  ASSERT_TRUE(GAll.ok());
  EXPECT_TRUE(GAll->Decisions.empty());
  EXPECT_EQ(trace::auditSize(), Mark);
}

//===--------------------------------------------------------------------===//
// Diagnostics.
//===--------------------------------------------------------------------===//

TEST(AutodiffTest, MaxReductionWithoutNoGradRejected) {
  FunctionBuilder B("bad");
  View X = B.input("x", {makeIntConst(4)});
  View Y = B.output("y", {});
  Y.assign(makeFloatConst(-1e30));
  B.loop("i", 0, 4, [&](Expr I) { Y.reduceMax(X[I].load()); });
  auto G = grad(B.build(), {"x"});
  ASSERT_FALSE(G.ok());
  EXPECT_NE(G.message().find("no_grad"), std::string::npos);
}

TEST(AutodiffTest, MultipleStoresRejected) {
  FunctionBuilder B("bad2");
  View X = B.input("x", {makeIntConst(4)});
  View Y = B.output("y", {makeIntConst(4)});
  View T = B.local("t", {});
  B.loop("i", 0, 4, [&](Expr I) {
    T.assign(X[I].load());
    T.assign(T.load() * makeFloatConst(2.0)); // Second store (reads too).
    Y[I].assign(T.load());
  });
  auto G = grad(B.build(), {"x"});
  EXPECT_FALSE(G.ok());
}

TEST(AutodiffTest, UnknownWrtRejected) {
  GradCheck GC = buildFig15(3);
  auto G = grad(GC.F, {"nonexistent"});
  ASSERT_FALSE(G.ok());
  auto G2 = grad(GC.F, {"y"}); // An output, not an input.
  EXPECT_FALSE(G2.ok());
}

} // namespace
