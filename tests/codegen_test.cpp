//===- tests/codegen_test.cpp - C++ emission & JIT execution --------------===//
//
// The generated native code is validated against the reference interpreter
// on the same inputs, including scheduled variants (parallel, atomic,
// vectorized, cached, gemm).
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "frontend/libop.h"
#include "interp/interp.h"
#include "schedule/schedule.h"

using namespace ft;

namespace {

void seed(Buffer &B, double Phase) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, std::sin(0.41 * double(I) + Phase));
}

/// Runs F via interpreter and via JIT and compares the named outputs.
void expectJitMatchesInterp(
    const Func &F, const std::map<std::string, std::vector<int64_t>> &Shapes,
    const std::vector<std::string> &Outputs, double Tol = 1e-5) {
  std::map<std::string, Buffer> SI, SJ;
  std::map<std::string, Buffer *> AI, AJ;
  double Phase = 0;
  for (const std::string &P : F.Params) {
    Phase += 1.0;
    SI.emplace(P, Buffer(DataType::Float32, Shapes.at(P)));
    seed(SI.at(P), Phase);
    SJ.emplace(P, Buffer(DataType::Float32, Shapes.at(P)));
    seed(SJ.at(P), Phase);
    AI[P] = &SI.at(P);
    AJ[P] = &SJ.at(P);
  }
  interpret(F, AI);
  auto K = Kernel::compile(F, "-O2");
  ASSERT_TRUE(K.ok()) << K.message();
  Status RunSt = K->run(AJ);
  ASSERT_TRUE(RunSt.ok()) << RunSt.message();
  for (const std::string &O : Outputs) {
    const Buffer &BI = SI.at(O), &BJ = SJ.at(O);
    for (int64_t I = 0; I < BI.numel(); ++I)
      EXPECT_NEAR(BI.as<float>()[I], BJ.as<float>()[I], Tol)
          << O << "[" << I << "]";
  }
}

TEST(CodegenTest, SourceShape) {
  FunctionBuilder B("axpy");
  View X = B.input("x", {makeIntConst(8)});
  View Y = B.inout("y", {makeIntConst(8)});
  B.loop("i", 0, 8, [&](Expr I) {
    Y[I].assign(Y[I].load() + X[I].load() * makeFloatConst(3.0));
  });
  Func F = B.build();
  std::string Src = generateCpp(F);
  EXPECT_NE(Src.find("extern \"C\" void v_fn_axpy"), std::string::npos);
  EXPECT_NE(Src.find("params[0]"), std::string::npos);
  EXPECT_NE(Src.find("for (int64_t v_i"), std::string::npos);
  EXPECT_EQ(kernelSymbol(F), "v_fn_axpy");
}

TEST(CodegenTest, ElementwiseMatches) {
  FunctionBuilder B("ew");
  View X = B.input("x", {makeIntConst(64)});
  View Y = B.output("y", {makeIntConst(64)});
  B.loop("i", 0, 64, [&](Expr I) {
    Y[I].assign(ft::exp(X[I].load()) * makeFloatConst(0.5) +
                ft::abs(X[I].load()));
  });
  expectJitMatchesInterp(B.build(), {{"x", {64}}, {"y", {64}}}, {"y"});
}

TEST(CodegenTest, ScalarLocalsAndReduction) {
  FunctionBuilder B("red");
  View X = B.input("x", {makeIntConst(33)});
  View Y = B.output("y", {});
  View T = B.local("acc", {});
  T.assign(0.0);
  B.loop("i", 0, 33, [&](Expr I) { T += X[I].load() * X[I].load(); });
  Y.assign(ft::sqrt(T.load()));
  expectJitMatchesInterp(B.build(), {{"x", {33}}, {"y", {}}}, {"y"});
}

TEST(CodegenTest, ParallelAtomicReduction) {
  FunctionBuilder B("par");
  View X = B.input("x", {makeIntConst(1000)});
  View Y = B.output("y", {});
  Y.assign(0.0);
  int64_t L = B.loop("i", 0, 1000, [&](Expr I) { Y += X[I].load(); });
  Func F = B.build();
  Schedule S(F);
  ASSERT_TRUE(S.parallelize(L).ok());
  expectJitMatchesInterp(S.func(), {{"x", {1000}}, {"y", {}}}, {"y"}, 1e-3);
}

TEST(CodegenTest, ScheduledLongformerKernel) {
  // The Fig. 5 kernel: scheduled with parallelize + cache, then compiled.
  const int64_t N = 32, D = 8, W = 3;
  FunctionBuilder B("lf");
  View Q = B.input("Q", {makeIntConst(N), makeIntConst(D)});
  View K = B.input("K", {makeIntConst(N), makeIntConst(D)});
  View Attn = B.output("attn", {makeIntConst(N), makeIntConst(2 * W + 1)});
  int64_t Lj = B.loop("j", 0, N, [&](Expr J) {
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
  Func F = B.build();
  Schedule S(F);
  ASSERT_TRUE(S.parallelize(Lj).ok());
  ASSERT_TRUE(S.setMemType("dot", MemType::CPULocal).ok());
  expectJitMatchesInterp(S.func(),
                         {{"Q", {N, D}}, {"K", {N, D}},
                          {"attn", {N, 2 * W + 1}}},
                         {"attn"});
}

TEST(CodegenTest, GemmCallLowersToRuntime) {
  FunctionBuilder B("mm");
  View A = B.input("A", {makeIntConst(9), makeIntConst(7)});
  View Bv = B.input("B", {makeIntConst(7), makeIntConst(5)});
  View C = B.output("C", {makeIntConst(9), makeIntConst(5)});
  int64_t Li = B.loop("i", 0, 9, [&](Expr I) {
    B.loop("j", 0, 5, [&](Expr J) {
      C[I][J].assign(0.0);
      B.loop("k", 0, 7,
             [&](Expr K) { C[I][J] += A[I][K].load() * Bv[K][J].load(); });
    });
  });
  Func F = B.build();
  Schedule S(F);
  ASSERT_TRUE(S.asLib(Li).ok());
  EXPECT_NE(generateCpp(S.func()).find("ft::rt::gemm"), std::string::npos);
  expectJitMatchesInterp(S.func(),
                         {{"A", {9, 7}}, {"B", {7, 5}}, {"C", {9, 5}}},
                         {"C"}, 1e-4);
}

TEST(CodegenTest, VectorizeAndUnrollPragmasCompile) {
  FunctionBuilder B("vec");
  View X = B.input("x", {makeIntConst(64)});
  View Y = B.output("y", {makeIntConst(64)});
  int64_t L = B.loop("i", 0, 64, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0));
  });
  Func F = B.build();
  Schedule S(F);
  ASSERT_TRUE(S.vectorize(L).ok());
  expectJitMatchesInterp(S.func(), {{"x", {64}}, {"y", {64}}}, {"y"});
}

TEST(CodegenTest, FloatLiteralsFollowTheirFloat32Partner) {
  // y[i] = sigmoid(x[i] * 20.0) * 0.999: beside f32 the literals are
  // emitted as floats, beside f64 they stay double. Either way the kernel
  // matches the interpreter, which evaluates in double.
  for (DataType DT : {DataType::Float32, DataType::Float64}) {
    const bool F32 = DT == DataType::Float32;
    FunctionBuilder B("weak");
    View X = B.input("x", {makeIntConst(16)}, DT);
    View Y = B.output("y", {makeIntConst(16)}, DT);
    B.loop("i", 0, 16, [&](Expr I) {
      Y[I].assign(ft::sigmoid(X[I].load() * makeFloatConst(20.0)) *
                  makeFloatConst(0.999));
    });
    Func F = B.build();
    std::string Src = generateCpp(F);
    EXPECT_EQ(Src.find(" * 20.0f)") != std::string::npos, F32) << Src;
    EXPECT_EQ(Src.find(" * 0.999f)") != std::string::npos, F32) << Src;
    EXPECT_EQ(Src.find(" * 20)") != std::string::npos, !F32) << Src;
    EXPECT_EQ(Src.find(" * 0.999)") != std::string::npos, !F32) << Src;

    Buffer XB(DT, {16}), YI(DT, {16}), YJ(DT, {16});
    for (int64_t I = 0; I < 16; ++I)
      XB.setF(I, 0.05 * std::sin(0.7 * double(I)));
    interpret(F, {{"x", &XB}, {"y", &YI}});
    auto K = Kernel::compile(F, "-O2");
    ASSERT_TRUE(K.ok()) << K.message();
    ASSERT_TRUE(K->run({{"x", &XB}, {"y", &YJ}}).ok());
    for (int64_t I = 0; I < 16; ++I)
      EXPECT_NEAR(YJ.getF(I), YI.getF(I), 1e-6 * std::fabs(YI.getF(I)))
          << nameOf(DT) << " y[" << I << "]";
  }
}

TEST(CodegenTest, MissingArgumentRejected) {
  FunctionBuilder B("m");
  View Y = B.output("y", {makeIntConst(4)});
  B.loop("i", 0, 4, [&](Expr I) { Y[I].assign(1.0); });
  auto K = Kernel::compile(B.build(), "-O0");
  ASSERT_TRUE(K.ok()) << K.message();
  Status St = K->run({});
  EXPECT_FALSE(St.ok());
  Buffer Wrong(DataType::Int64, {4});
  EXPECT_FALSE(K->run({{"y", &Wrong}}).ok());
}

} // namespace
