//===- tests/dynshape_test.cpp - Shape-generic kernel execution -----------===//
//
// Dynamic-shape correctness end to end:
//   - differential fuzz: ONE compiled `.so` of a shape-generic program,
//     run across randomized shapes, bit-compared against the interpreter
//     (the JIT and the reference semantics must agree at every extent);
//   - a 2-D program with two independent extents exercises symbolic
//     strides, not just symbolic trip counts;
//   - ragged serving: >= 32 distinct shapes through the executor perform
//     exactly one generic background compile (the fingerprint never sees
//     a literal extent) and every response is interpreter-equal;
//   - validateArgs / Kernel::run negative paths: missing, zero, negative,
//     and inconsistent extent bindings, and a buffer shorter than a static
//     kernel's declared extent, are typed errors, not UB.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <random>
#include <unistd.h>

#include "analysis/extents.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "frontend/builder.h"
#include "interp/interp.h"
#include "serve/serve.h"
#include "serve/shape_key.h"
#include "serve/telemetry.h"

using namespace ft;
using namespace ft::serve;

namespace {

Expr ic(int64_t V) { return makeIntConst(V); }

/// y[i] = x[i] * 2 + 1 over a symbolic extent `n`.
Func makeDynAxpy() {
  FunctionBuilder B("dynaxpy");
  Expr N = B.scalarInput("n");
  View X = B.input("x", {N});
  View Y = B.output("y", {N});
  B.loop("i", ic(0), N, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0) + makeFloatConst(1.0));
  });
  return B.build();
}

/// Row-sum with two independent extents: y[i] = sum_j x[i,j] + x[i,0].
/// The inner stride of `x` is the runtime value of `m`, so this exercises
/// symbolic strides (address arithmetic), not just symbolic trip counts.
Func makeDynRowSum() {
  FunctionBuilder B("dynrowsum");
  Expr N = B.scalarInput("n");
  Expr M = B.scalarInput("m");
  View X = B.input("x", {N, M});
  View Y = B.output("y", {N});
  B.loop("i", ic(0), N, [&](Expr I) {
    Y[I].assign(X[I][ic(0)].load());
    B.loop("j", ic(0), M,
           [&](Expr J) { Y[I] += X[I][J].load(); });
  });
  return B.build();
}

void seed(Buffer &B, double Phase = 0.37) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, std::sin(Phase * double(I)));
}

class DynShapeTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftdyn.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    for (const char *V :
         {"FT_SERVE_THREADS", "FT_SERVE_QUEUE_CAP", "FT_SERVE_ON_FULL",
          "FT_SERVE_MAX_BATCH", "FT_SERVE_OPT_FLAGS", "FT_SERVE_RT_THREADS",
          "FT_TELEMETRY_DIR", "FT_SPECIALIZE", "FT_SPECIALIZE_AFTER",
          "FT_SPECIALIZE_MAX", "FT_SPECIALIZE_OPT_FLAGS"})
      ::unsetenv(V);
    telemetry::setEnabled(false);
    telemetry::reset();
    kernel_cache::memReset();
  }
  void TearDown() override {
    ::unsetenv("FT_CACHE_DIR");
    ::unsetenv("FT_CACHE");
    telemetry::setEnabled(false);
    telemetry::reset();
    kernel_cache::memReset();
    std::system(("rm -rf '" + Dir + "'").c_str());
  }
  std::string Dir;
};

} // namespace

TEST_F(DynShapeTest, ShapeKeyCanonicalAndRoundTrips) {
  Buffer N = Buffer::scalarI64(7);
  Buffer X(DataType::Float32, {4, 2});
  Buffer Z(DataType::Int64, {3});
  // Insertion order must not matter: the key sorts by parameter name.
  std::map<std::string, Buffer *> A{{"z", &Z}, {"n", &N}, {"x", &X}};
  EXPECT_EQ(shapeKeyOf(A), "n:i64=7 x:f32[4x2] z:i64[3]");
  auto Ext = parseScalarExtents(shapeKeyOf(A));
  ASSERT_TRUE(Ext.ok()) << Ext.message();
  ASSERT_EQ(Ext->size(), 1u);
  EXPECT_EQ(Ext->at("n"), 7);
}

TEST_F(DynShapeTest, ParseScalarExtentsRejectsNonIntegerDtype) {
  // A float "scalar extent" cannot bind an extent parameter; parsing must
  // fail loudly rather than silently truncate.
  auto Bad = parseScalarExtents("n:f32=3 x:f32[4x2]");
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find("non-integer dtype"), std::string::npos)
      << Bad.message();
  // Bucketed (`~`) segments are ranges, not bindings: skipped, not errors.
  auto Bucketed = parseScalarExtents("m:i64=16 nnz:i64~8192 val:f32[~8192]");
  ASSERT_TRUE(Bucketed.ok()) << Bucketed.message();
  ASSERT_EQ(Bucketed->size(), 1u);
  EXPECT_EQ(Bucketed->at("m"), 16);
}

TEST_F(DynShapeTest, DifferentialFuzzOneCompiledKernel) {
  Func F = makeDynAxpy();
  auto K = Kernel::compile(F, "-O2");
  ASSERT_TRUE(K.ok()) << K.status().message();

  std::mt19937 Rng(20260809);
  std::uniform_int_distribution<int64_t> Dist(1, 97);
  for (int Iter = 0; Iter < 16; ++Iter) {
    int64_t N = Dist(Rng);
    Buffer NB = Buffer::scalarI64(N);
    Buffer X(DataType::Float32, {N});
    Buffer YJ(DataType::Float32, {N}), YI(DataType::Float32, {N});
    seed(X, 0.11 + 0.01 * Iter);
    Status S = K->run({{"n", &NB}, {"x", &X}, {"y", &YJ}});
    ASSERT_TRUE(S.ok()) << "n=" << N << ": " << S.message();
    interpret(F, {{"n", &NB}, {"x", &X}, {"y", &YI}});
    EXPECT_EQ(std::memcmp(YJ.raw(), YI.raw(), size_t(N) * sizeof(float)), 0)
        << "JIT/interpreter divergence at n=" << N;
  }
}

TEST_F(DynShapeTest, DifferentialFuzzSymbolicStrides) {
  Func F = makeDynRowSum();
  {
    ExtentSpec Spec = extentParamsOf(F);
    ASSERT_EQ(Spec.Params.size(), 2u);
    EXPECT_TRUE(Spec.contains("n"));
    EXPECT_TRUE(Spec.contains("m"));
  }
  auto K = Kernel::compile(F, "-O2");
  ASSERT_TRUE(K.ok()) << K.status().message();

  std::mt19937 Rng(7);
  std::uniform_int_distribution<int64_t> Dist(1, 23);
  for (int Iter = 0; Iter < 12; ++Iter) {
    int64_t N = Dist(Rng), M = Dist(Rng);
    Buffer NB = Buffer::scalarI64(N), MB = Buffer::scalarI64(M);
    Buffer X(DataType::Float32, {N, M});
    Buffer YJ(DataType::Float32, {N}), YI(DataType::Float32, {N});
    seed(X, 0.29 + 0.01 * Iter);
    std::map<std::string, Buffer *> Args{
        {"n", &NB}, {"m", &MB}, {"x", &X}, {"y", &YJ}};
    Status S = K->run(Args);
    ASSERT_TRUE(S.ok()) << "n=" << N << " m=" << M << ": " << S.message();
    Args["y"] = &YI;
    interpret(F, Args);
    EXPECT_EQ(std::memcmp(YJ.raw(), YI.raw(), size_t(N) * sizeof(float)), 0)
        << "JIT/interpreter divergence at n=" << N << " m=" << M;
  }
}

TEST_F(DynShapeTest, RaggedServeCompilesOnceForAllShapes) {
  Func F = makeDynAxpy();
  Config C;
  C.Specialize = true;
  C.SpecializeAfter = 4;
  C.SpecializeMax = 2;
  Executor Ex(C);

  constexpr int kShapes = 32;
  for (int K = 0; K < kShapes; ++K) {
    int64_t N = 1 + 3 * K; // 1, 4, 7, ..., 94: every shape distinct
    Buffer NB = Buffer::scalarI64(N);
    Buffer X(DataType::Float32, {N}), Y(DataType::Float32, {N});
    seed(X, 0.17 + 0.01 * K);
    auto R = Ex.submit(F, {{"n", &NB}, {"x", &X}, {"y", &Y}});
    ASSERT_TRUE(R.ok()) << R.status().message();
    Response Resp = R->get();
    ASSERT_TRUE(Resp.S.ok()) << "n=" << N << ": " << Resp.S.message();

    Buffer YI(DataType::Float32, {N});
    interpret(F, {{"n", &NB}, {"x", &X}, {"y", &YI}});
    EXPECT_EQ(std::memcmp(Y.raw(), YI.raw(), size_t(N) * sizeof(float)), 0)
        << "serve/interpreter divergence at n=" << N;
  }
  Ex.drain();
  ServeStats St = Ex.stats();
  // One generic fingerprint serves all 32 shapes: exactly one background
  // compile, and at most SpecializeMax specialized ones on top.
  EXPECT_EQ(St.CompilesStarted, 1u);
  EXPECT_EQ(St.CompilesFailed, 0u);
  EXPECT_LE(St.SpecCompilesStarted, C.SpecializeMax);
  EXPECT_EQ(St.RunErrors, 0u);
  Ex.shutdown();
}

TEST_F(DynShapeTest, ValidateArgsRejectsBadExtentBindings) {
  Func F = makeDynAxpy();
  Buffer N8 = Buffer::scalarI64(8);
  Buffer X8(DataType::Float32, {8}), Y8(DataType::Float32, {8});

  // Well-formed binding passes.
  EXPECT_TRUE(validateArgs(F, {{"n", &N8}, {"x", &X8}, {"y", &Y8}}).ok());

  // Missing extent binding.
  {
    Status S = validateArgs(F, {{"x", &X8}, {"y", &Y8}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("n"), std::string::npos) << S.message();
  }
  // Zero extent.
  {
    Buffer N0 = Buffer::scalarI64(0);
    Buffer X0(DataType::Float32, {0}), Y0(DataType::Float32, {0});
    Status S = validateArgs(F, {{"n", &N0}, {"x", &X0}, {"y", &Y0}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find(">= 1"), std::string::npos) << S.message();
  }
  // Negative extent.
  {
    Buffer Nneg = Buffer::scalarI64(-3);
    Status S = validateArgs(F, {{"n", &Nneg}, {"x", &X8}, {"y", &Y8}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find(">= 1"), std::string::npos) << S.message();
  }
  // Tensor inconsistent with the bound extent: n says 4, x has 8.
  {
    Buffer N4 = Buffer::scalarI64(4);
    Status S = validateArgs(F, {{"n", &N4}, {"x", &X8}, {"y", &Y8}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("shape mismatch"), std::string::npos)
        << S.message();
  }
  // Extent bound to a rank-1 tensor instead of a 0-D scalar.
  {
    Buffer NV(DataType::Int64, {1});
    NV.as<int64_t>()[0] = 8;
    Status S = validateArgs(F, {{"n", &NV}, {"x", &X8}, {"y", &Y8}});
    EXPECT_FALSE(S.ok());
  }
}

TEST_F(DynShapeTest, KernelRunRejectsBadExtentBindings) {
  Func F = makeDynAxpy();
  auto K = Kernel::compile(F, "-O2");
  ASSERT_TRUE(K.ok()) << K.status().message();

  Buffer X8(DataType::Float32, {8}), Y8(DataType::Float32, {8});
  // The compiled kernel enforces the same request contract as
  // validateArgs: bad bindings are typed errors before any native code
  // touches the buffers.
  {
    Buffer N0 = Buffer::scalarI64(0);
    Buffer X0(DataType::Float32, {0}), Y0(DataType::Float32, {0});
    Status S = K->run({{"n", &N0}, {"x", &X0}, {"y", &Y0}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find(">= 1"), std::string::npos) << S.message();
  }
  {
    Buffer N4 = Buffer::scalarI64(4);
    Status S = K->run({{"n", &N4}, {"x", &X8}, {"y", &Y8}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("shape mismatch"), std::string::npos)
        << S.message();
  }
  {
    // Rank mismatch on a tensor argument.
    Buffer N8 = Buffer::scalarI64(8);
    Buffer X2D(DataType::Float32, {2, 4});
    Status S = K->run({{"n", &N8}, {"x", &X2D}, {"y", &Y8}});
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("rank"), std::string::npos) << S.message();
  }
}

TEST_F(DynShapeTest, KernelRunRejectsMisSizedStaticBuffers) {
  // A static-shape kernel indexes with its declared extents, so a buffer
  // shorter than declared is a typed error, not a read past its end — the
  // same error validateArgs gives.
  FunctionBuilder B("static4096");
  View X = B.input("x", {ic(4096)});
  View Y = B.output("y", {ic(4096)});
  B.loop("i", ic(0), ic(4096), [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0));
  });
  Func F = B.build();
  auto K = Kernel::compile(F, "-O2");
  ASSERT_TRUE(K.ok()) << K.status().message();

  Buffer X16(DataType::Float32, {16}), Y4096(DataType::Float32, {4096});
  std::map<std::string, Buffer *> Args{{"x", &X16}, {"y", &Y4096}};
  Status S = K->run(Args);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("shape mismatch"), std::string::npos)
      << S.message();
  EXPECT_EQ(S.message(), validateArgs(F, Args).message());
}

TEST_F(DynShapeTest, StaticShapeKeyOnlyForFixedSignatures) {
  // The executor computes a static-shape fingerprint's shape key once; it
  // must spell exactly what the per-request key of a valid binding spells.
  FunctionBuilder B("rows64x8");
  View X = B.input("x", {ic(64), ic(8)});
  View Y = B.output("y", {ic(64)});
  B.loop("i", ic(0), ic(64), [&](Expr I) { Y[I].assign(X[I][ic(0)].load()); });
  Func F = B.build();
  Buffer X64(DataType::Float32, {64, 8}), Y64(DataType::Float32, {64});
  EXPECT_EQ(staticShapeKeyOf(argContractOf(F)),
            shapeKeyOf({{"x", &X64}, {"y", &Y64}}));
  // An extent parameter's value is part of every request's key.
  EXPECT_EQ(staticShapeKeyOf(argContractOf(makeDynAxpy())), "");
}
