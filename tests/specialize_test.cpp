//===- tests/specialize_test.cpp - Shape-bucket specialization ------------===//
//
// The shape-generic kernel machinery (analysis/extents.h, pass/specialize.h)
// and its serving-side promotion path:
//   - extent-parameter discovery: 0-D integer Input params used in shapes
//     or loop bounds are the extent spec; static programs have none;
//   - evalExtentExpr folds shape arithmetic under bindings;
//   - specializeFunc constant-folds the extents away while preserving the
//     parameter list (ABI) — the specialized kernel binds the same request;
//   - the cache fingerprint separates generic from specialized programs and
//     distinct specializations from each other;
//   - executor promotion: a hot shape bucket gets a background specialized
//     compile that hot-swaps in behind the same entry, with bit-identical
//     results to the generic kernel;
//   - FT_SPECIALIZE=0 disables nomination; SpecializeMax caps buckets.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <unistd.h>

#include "analysis/extents.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "frontend/builder.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "pass/specialize.h"
#include "serve/serve.h"
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

void seed(Buffer &B, double Phase = 0.37) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, std::sin(Phase * double(I)));
}

/// Fresh private cache dir per test; no FT_SERVE_* / FT_SPECIALIZE_*
/// leakage between tests.
class SpecializeTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftspec.XXXXXX";
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

TEST(ExtentSpecTest, DiscoversExtentParams) {
  Func F = makeDynAxpy();
  ExtentSpec S = extentParamsOf(F);
  ASSERT_EQ(S.Params.size(), 1u);
  EXPECT_EQ(S.Params[0], "n");
  EXPECT_TRUE(S.contains("n"));
  EXPECT_FALSE(S.contains("x"));
}

TEST(ExtentSpecTest, StaticProgramHasNoExtents) {
  FunctionBuilder B("axpy");
  View X = B.input("x", {ic(16)});
  View Y = B.output("y", {ic(16)});
  B.loop("i", 0, 16, [&](Expr I) { Y[I].assign(X[I].load()); });
  EXPECT_TRUE(extentParamsOf(B.build()).empty());
}

TEST(ExtentSpecTest, ScalarParamNotUsedInShapeIsNotAnExtent) {
  // A 0-D integer param used only as a *value* (not a shape or bound) is
  // an ordinary argument, not an extent.
  FunctionBuilder B("shift");
  Expr S = B.scalarInput("s");
  View X = B.input("x", {ic(8)}, DataType::Int64);
  View Y = B.output("y", {ic(8)}, DataType::Int64);
  B.loop("i", 0, 8, [&](Expr I) { Y[I].assign(X[I].load() + S); });
  EXPECT_TRUE(extentParamsOf(B.build()).empty());
}

TEST(ExtentSpecTest, EvalExtentExprFolds) {
  std::map<std::string, int64_t> Bind{{"n", 10}, {"m", 3}};
  Expr N = makeLoad("n", {}, DataType::Int64);
  Expr M = makeLoad("m", {}, DataType::Int64);
  EXPECT_EQ(evalExtentExpr(makeAdd(N, M), Bind), 13);
  EXPECT_EQ(evalExtentExpr(makeMul(N, ic(4)), Bind), 40);
  EXPECT_EQ(evalExtentExpr(makeSub(M, N), Bind), -7);
  // Unbound name: no fold.
  EXPECT_FALSE(
      evalExtentExpr(makeLoad("q", {}, DataType::Int64), Bind).has_value());
}

TEST(ExtentSpecTest, BuilderRejectsUndeclaredExtent) {
  // A tensor whose shape references a scalar declared *after* it must be
  // rejected at build() time: the VarDef nest would put the extent out of
  // scope where codegen emits the dimension locals.
  EXPECT_DEATH(
      {
        FunctionBuilder B("bad");
        Expr N = makeLoad("n", {}, DataType::Int64);
        B.input("x", {N});
        B.scalarInput("n");
        B.build();
      },
      "not declared before");
}

TEST_F(SpecializeTest, SpecializeFuncConstantFoldsExtents) {
  Func F = makeDynAxpy();
  Func S = specializeFunc(F, {{"n", 24}});
  // Parameter list (the ABI) is preserved — `n` stays a bound argument.
  EXPECT_EQ(S.Params, F.Params);
  // But no extent remains symbolic.
  EXPECT_TRUE(extentParamsOf(S).empty());
  // And the printed program now carries the literal 24.
  EXPECT_NE(toString(S.Body).find("24"), std::string::npos);

  // Same semantics at the bound shape.
  Buffer NB = Buffer::scalarI64(24);
  Buffer X(DataType::Float32, {24}), YG(DataType::Float32, {24}),
      YS(DataType::Float32, {24});
  seed(X);
  interpret(F, {{"n", &NB}, {"x", &X}, {"y", &YG}});
  interpret(S, {{"n", &NB}, {"x", &X}, {"y", &YS}});
  EXPECT_EQ(std::memcmp(YG.raw(), YS.raw(), 24 * sizeof(float)), 0);
}

TEST_F(SpecializeTest, FingerprintsSeparateGenericAndSpecialized) {
  Func F = makeDynAxpy();
  uint64_t Generic = kernel_cache::cacheKey(F, {}, "-O2").Full;
  uint64_t At16 =
      kernel_cache::cacheKey(specializeFunc(F, {{"n", 16}}), {}, "-O2").Full;
  uint64_t At32 =
      kernel_cache::cacheKey(specializeFunc(F, {{"n", 32}}), {}, "-O2").Full;
  EXPECT_NE(Generic, At16);
  EXPECT_NE(At16, At32);
  // The generic fingerprint is shape-independent by construction: the same
  // Func serves every n, so every shape maps to one cache entry.
  EXPECT_EQ(Generic, kernel_cache::cacheKey(makeDynAxpy(), {}, "-O2").Full);
}

TEST_F(SpecializeTest, HotBucketPromotesToSpecializedBitIdentical) {
  Func F = makeDynAxpy();
  Config C;
  C.Threads = 2;
  C.Specialize = true;
  C.SpecializeAfter = 5;
  C.SpecializeMax = 2;
  Executor Ex(C);

  constexpr int64_t N = 96;
  Buffer NB = Buffer::scalarI64(N);
  Buffer X(DataType::Float32, {N}), Y(DataType::Float32, {N});
  seed(X);
  std::map<std::string, Buffer *> Args{{"n", &NB}, {"x", &X}, {"y", &Y}};

  // Serve until the generic JIT kernel answers, then capture its output.
  std::vector<float> YGeneric;
  for (int I = 0; I < 200 && YGeneric.empty(); ++I) {
    auto R = Ex.submit(F, Args);
    ASSERT_TRUE(R.ok());
    Response Resp = R->get();
    ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
    if (Resp.ServedBy == Tier::Jit && !Resp.Specialized)
      YGeneric.assign(Y.as<float>(), Y.as<float>() + N);
    else
      Ex.drain(); // bound the wait on the background generic compile
  }
  ASSERT_FALSE(YGeneric.empty()) << "generic kernel never served";

  // Keep hammering the same shape bucket until the specialized kernel
  // hot-swaps in (nomination at SpecializeAfter hits, then a background
  // compile, then Ready). drain() bounds the wait on the compile.
  std::vector<float> YSpec;
  for (int I = 0; I < 200 && YSpec.empty(); ++I) {
    auto R = Ex.submit(F, Args);
    ASSERT_TRUE(R.ok());
    Response Resp = R->get();
    ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
    if (Resp.Specialized)
      YSpec.assign(Y.as<float>(), Y.as<float>() + N);
    else
      Ex.drain();
  }
  ASSERT_FALSE(YSpec.empty()) << "specialized kernel never promoted";

  // The hot swap must be invisible: bit-identical outputs.
  EXPECT_EQ(std::memcmp(YGeneric.data(), YSpec.data(), N * sizeof(float)),
            0);

  ServeStats St = Ex.stats();
  EXPECT_EQ(St.SpecCompilesStarted, 1u);
  EXPECT_EQ(St.SpecCompilesFailed, 0u);
  EXPECT_GE(St.SpecServed, 1u);
  Ex.shutdown();
}

TEST_F(SpecializeTest, SpecializeOffServesGenericOnly) {
  Func F = makeDynAxpy();
  Config C;
  C.Specialize = false;
  C.SpecializeAfter = 1;
  Executor Ex(C);

  constexpr int64_t N = 32;
  Buffer NB = Buffer::scalarI64(N);
  Buffer X(DataType::Float32, {N}), Y(DataType::Float32, {N});
  seed(X);
  std::map<std::string, Buffer *> Args{{"n", &NB}, {"x", &X}, {"y", &Y}};
  for (int I = 0; I < 20; ++I) {
    auto R = Ex.submit(F, Args);
    ASSERT_TRUE(R.ok());
    Response Resp = R->get();
    ASSERT_TRUE(Resp.S.ok());
    EXPECT_FALSE(Resp.Specialized);
    Ex.drain();
  }
  ServeStats St = Ex.stats();
  EXPECT_EQ(St.SpecCompilesStarted, 0u);
  EXPECT_EQ(St.SpecServed, 0u);
  Ex.shutdown();
}

TEST_F(SpecializeTest, SpecializeMaxCapsBuckets) {
  Func F = makeDynAxpy();
  Config C;
  C.Specialize = true;
  C.SpecializeAfter = 1;
  C.SpecializeMax = 1; // only ONE bucket may specialize
  Executor Ex(C);

  for (int64_t N : {16, 24, 48}) {
    Buffer NB = Buffer::scalarI64(N);
    Buffer X(DataType::Float32, {N}), Y(DataType::Float32, {N});
    seed(X);
    std::map<std::string, Buffer *> Args{{"n", &NB}, {"x", &X}, {"y", &Y}};
    for (int I = 0; I < 5; ++I) {
      auto R = Ex.submit(F, Args);
      ASSERT_TRUE(R.ok());
      ASSERT_TRUE(R->get().S.ok());
    }
    Ex.drain();
  }
  ServeStats St = Ex.stats();
  EXPECT_LE(St.SpecCompilesStarted, 1u);
  Ex.shutdown();
}
