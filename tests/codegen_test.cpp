//===- tests/codegen_test.cpp - C++ emission & JIT execution --------------===//
//
// The generated native code is validated against the reference interpreter
// on the same inputs, including scheduled variants (parallel, atomic,
// vectorized, cached, gemm).
//
//===----------------------------------------------------------------------===//

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <unistd.h>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
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

TEST(CodegenTest, LogicalOperatorsShortCircuitInBothPaths) {
  // y[i] = (i > 0 && x[i-1] > 0) ? 1 : 2 and its twin with
  // (i == 0 || x[i-1] > 0): at i = 0 the left operand decides, and the
  // out-of-bounds x[-1] must not be read by the interpreter either.
  for (bool Or : {false, true}) {
    FunctionBuilder B(Or ? "lor" : "land");
    View X = B.input("x", {makeIntConst(4)});
    View Y = B.output("y", {makeIntConst(4)});
    B.loop("i", 0, 4, [&](Expr I) {
      Expr Prev = X[I - 1].load() > makeFloatConst(0.0);
      Expr Cond = Or ? (makeEQ(I, makeIntConst(0)) || Prev) : (I > 0 && Prev);
      Y[I].assign(select(Cond, makeFloatConst(1.0), makeFloatConst(2.0)));
    });
    Func F = B.build();
    Buffer XB = Buffer::fromF32({4}, {1, -1, 1, -1});
    Buffer YI(DataType::Float32, {4}), YJ(DataType::Float32, {4});
    ASSERT_TRUE(interpretChecked(F, {{"x", &XB}, {"y", &YI}}).ok());
    auto K = Kernel::compile(F, "-O2");
    ASSERT_TRUE(K.ok()) << K.message();
    ASSERT_TRUE(K->run({{"x", &XB}, {"y", &YJ}}).ok());
    const std::vector<double> Want =
        Or ? std::vector<double>{1, 1, 2, 1} : std::vector<double>{2, 1, 2, 1};
    const char *Op = Or ? "||" : "&&";
    for (int64_t I = 0; I < 4; ++I) {
      EXPECT_EQ(YJ.getF(I), Want[I]) << Op << " y[" << I << "]";
      EXPECT_EQ(YI.getF(I), YJ.getF(I)) << Op << " y[" << I << "]";
    }
  }
}

/// Position of \p X in the total order of float bit patterns, so that
/// adjacent floats differ by one (+0 and -0 coincide).
int64_t floatOrdinal(float X) {
  int32_t I;
  std::memcpy(&I, &X, sizeof(I));
  return I >= 0 ? int64_t(I) : int64_t(INT32_MIN) - int64_t(I);
}

TEST(CodegenTest, VectorMathMatchesInterpreter) {
  // exp, log and sigmoid in a proven `omp simd` loop. On x86-64 glibc the
  // kernel calls glibc's vector expf and logf (ft_prelude.h), which are
  // accurate to 4 ulp; special values must come out exactly.
  const std::vector<float> Special = {
      0.0f, -0.0f, INFINITY, -INFINITY, NAN, 1.0f, -1.0f, -1e-30f,
      FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN, 1e-40f, -1e-40f,
      88.72f, 88.7228394f, 88.73f, 100.0f, -103.97f, -104.0f, -200.0f,
      FLT_MAX, -FLT_MAX};
  std::vector<float> X = Special;
  for (uint32_t Bits = 1; Bits < 0x7f800000u; Bits += 0x7f800000u / 2000) {
    float V;
    std::memcpy(&V, &Bits, sizeof(V));
    X.push_back(V);
    X.push_back(-V);
  }
  for (int I = 0; I < 1000; ++I)
    X.push_back(-110.0f + 0.2003f * float(I));
  X.resize((X.size() + 15) / 16 * 16, 0.5f);
  const int64_t N = static_cast<int64_t>(X.size());

  FunctionBuilder B("vmath");
  View In = B.input("x", {makeIntConst(N)});
  View E = B.output("e", {makeIntConst(N)});
  View L = B.output("l", {makeIntConst(N)});
  View Sg = B.output("s", {makeIntConst(N)});
  int64_t Loop = B.loop("i", 0, N, [&](Expr I) {
    E[I].assign(ft::exp(In[I].load()));
    L[I].assign(ft::ln(In[I].load()));
    Sg[I].assign(ft::sigmoid(In[I].load()));
  });
  Schedule S(B.build());
  ASSERT_TRUE(S.vectorize(Loop, 16).ok());
  const Func &F = S.func();
  EXPECT_NE(generateCpp(F).find("#pragma omp simd simdlen(16)"),
            std::string::npos);

  char Dir[] = "/tmp/ftvmath.XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  ::setenv("FT_CACHE_DIR", Dir, 1);
  auto K = Kernel::compile(F, CodegenOptions{});
  ASSERT_TRUE(K.ok()) << K.message();
  kernel_cache::Key Key = kernel_cache::cacheKey(F, CodegenOptions{}, "-O3");
  std::string So = kernel_cache::diskLookup(kernel_cache::config(), Key);
  std::string SoBytes;
  if (!So.empty()) {
    std::ifstream Bin(So, std::ios::binary);
    SoBytes.assign(std::istreambuf_iterator<char>(Bin),
                   std::istreambuf_iterator<char>());
  }
  ::unsetenv("FT_CACHE_DIR");
  std::system(("rm -rf '" + std::string(Dir) + "'").c_str());

  std::map<std::string, Buffer> Ref, Jit;
  for (auto *M : {&Ref, &Jit}) {
    M->emplace("x", Buffer::fromF32({N}, X));
    for (const char *O : {"e", "l", "s"})
      M->emplace(O, Buffer(DataType::Float32, {N}));
  }
  auto Args = [](std::map<std::string, Buffer> &M) {
    std::map<std::string, Buffer *> A;
    for (auto &[Name, Buf] : M)
      A[Name] = &Buf;
    return A;
  };
  interpret(F, Args(Ref));
  ASSERT_TRUE(K->run(Args(Jit)).ok());
  for (const char *O : {"e", "l", "s"})
    for (int64_t I = 0; I < N; ++I) {
      float Want = Ref.at(O).as<float>()[I], Got = Jit.at(O).as<float>()[I];
      if (std::isnan(Want) || std::isinf(Want) || Want == 0 || X[I] == 0 ||
          std::isinf(X[I])) {
        // Special values, and every NaN, infinite or zero result, are exact.
        if (std::isnan(Want))
          EXPECT_TRUE(std::isnan(Got)) << O << "(" << X[I] << ") = " << Got;
        else
          EXPECT_EQ(Want, Got) << O << "(" << X[I] << ")";
        continue;
      }
      if (std::fabs(Want) < FLT_MIN && O[0] == 's') {
        // sigmoid's float formula 1 / (1 + expf(-x)) reaches 0 once expf
        // overflows, where the interpreter (in double) keeps a subnormal.
        // Scalar code does the same; the result need only underflow.
        EXPECT_LT(std::fabs(Got), FLT_MIN) << O << "(" << X[I] << ")";
        continue;
      }
      EXPECT_LE(std::llabs(floatOrdinal(Want) - floatOrdinal(Got)), 4)
          << O << "(" << X[I] << "): want " << Want << ", got " << Got;
    }

#if defined(__x86_64__) && defined(__GLIBC__)
  // The kernel imports a SIMD variant (_ZGV<isa>N<lanes>v_expf) of each.
  ASSERT_FALSE(SoBytes.empty()) << "no cached .so under the private cache";
  for (const char *Fn : {"expf", "logf"}) {
    bool Found = false;
    for (size_t P = SoBytes.find("_ZGV"); P != std::string::npos && !Found;
         P = SoBytes.find("_ZGV", P + 1)) {
      std::string Sym(SoBytes.c_str() + P);
      Found = Sym.size() > std::strlen(Fn) &&
              Sym.compare(Sym.size() - std::strlen(Fn), std::string::npos,
                          Fn) == 0 &&
              Sym[Sym.size() - std::strlen(Fn) - 1] == '_';
    }
    EXPECT_TRUE(Found) << "no _ZGV..._" << Fn << " import";
  }
#endif
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
