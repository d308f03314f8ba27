//===- tests/autoschedule_test.cpp - The §4.3 rule passes -------------------===//

#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <unistd.h>

#include "autodiff/grad.h"
#include "autoschedule/autoschedule.h"
#include "frontend/libop.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "support/trace.h"
#include "workloads/workloads.h"

using namespace ft;

namespace {

TEST(AutoScheduleTest, FusesProducerConsumerChains) {
  // Three elementwise loops over the same range fuse into one.
  FunctionBuilder B("chain");
  View X = B.input("x", {makeIntConst(64)});
  View Y = B.output("y", {makeIntConst(64)});
  View T1 = B.local("t1", {makeIntConst(64)});
  View T2 = B.local("t2", {makeIntConst(64)});
  B.loop("i", 0, 64, [&](Expr I) {
    T1[I].assign(X[I].load() * makeFloatConst(2.0));
  });
  B.loop("i", 0, 64, [&](Expr I) {
    T2[I].assign(T1[I].load() + makeFloatConst(1.0));
  });
  B.loop("i", 0, 64, [&](Expr I) { Y[I].assign(ft::exp(T2[I].load())); });
  Func F = B.build();

  Schedule S(F);
  AutoScheduleOptions Opts;
  Opts.Parallelize = false;
  Opts.Vectorize = false;
  Opts.Unroll = false;
  AutoScheduleReport R = autoSchedule(S, Opts);
  EXPECT_EQ(R.Fused, 2);

  // Results unchanged.
  Buffer BX(DataType::Float32, {64}), BY1(DataType::Float32, {64}),
      BY2(DataType::Float32, {64});
  for (int I = 0; I < 64; ++I)
    BX.as<float>()[I] = 0.01f * float(I);
  interpret(F, {{"x", &BX}, {"y", &BY1}});
  interpret(S.func(), {{"x", &BX}, {"y", &BY2}});
  for (int I = 0; I < 64; ++I)
    EXPECT_NEAR(BY1.as<float>()[I], BY2.as<float>()[I], 1e-5);
}

TEST(AutoScheduleTest, ParallelizesAndLocalizesLongformer) {
  workloads::LongformerConfig C{32, 8, 3};
  Func F = workloads::buildLongformer(C);
  Schedule S(F);
  AutoScheduleOptions POpts;
  POpts.NumThreads = 4; // Pretend a multicore target for this test.
  AutoScheduleReport R = autoSchedule(S, POpts);
  EXPECT_GE(R.Parallelized, 1);
  EXPECT_GE(R.Localized, 2); // dot / attn (and softmax internals).

  // The token loop is parallel.
  auto L = dyn_cast<ForNode>(findStmt(S.ast(), *S.findByLabel("tokens")));
  ASSERT_NE(L, nullptr);
  EXPECT_TRUE(L->Property.Parallel);

  // Semantics preserved.
  workloads::LongformerData D = workloads::makeLongformerData(C);
  Buffer Y1(DataType::Float32, {C.SeqLen, C.Feats});
  Buffer Y2(DataType::Float32, {C.SeqLen, C.Feats});
  interpret(F, {{"Q", &D.Q}, {"K", &D.K}, {"V", &D.V}, {"y", &Y1}});
  interpret(S.func(), {{"Q", &D.Q}, {"K", &D.K}, {"V", &D.V}, {"y", &Y2}});
  for (int64_t I = 0; I < Y1.numel(); ++I)
    EXPECT_NEAR(Y1.as<float>()[I], Y2.as<float>()[I], 1e-4);
}

TEST(AutoScheduleTest, UsesLibForMatmul) {
  FunctionBuilder B("mm");
  View A = B.input("A", {makeIntConst(16), makeIntConst(16)});
  View Bv = B.input("B", {makeIntConst(16), makeIntConst(16)});
  View C = B.output("C", {makeIntConst(16), makeIntConst(16)});
  libop::matmul(B, A, Bv, C);
  Func F = B.build();
  Schedule S(F);
  AutoScheduleOptions Opts;
  Opts.Parallelize = false; // Keep the nest intact for the matcher.
  AutoScheduleReport R = autoSchedule(S, Opts);
  EXPECT_EQ(R.LibCalls, 1);
  EXPECT_NE(toString(S.ast()).find("gemm("), std::string::npos);
}

TEST(AutoScheduleTest, UnrollsShortLoops) {
  workloads::SubdivNetConfig C{16, 4};
  Func F = workloads::buildSubdivNet(C);
  Schedule S(F);
  AutoScheduleOptions Opts;
  Opts.Parallelize = false;
  AutoScheduleReport R = autoSchedule(S, Opts);
  // The 3-neighbor loop is fully unrolled.
  EXPECT_GE(R.Unrolled, 1);

  workloads::SubdivNetData D = workloads::makeSubdivNetData(C);
  Buffer Y1(DataType::Float32, {C.NFaces, C.Feats});
  Buffer Y2(DataType::Float32, {C.NFaces, C.Feats});
  interpret(F, {{"e", &D.E}, {"adj", &D.Adj}, {"y", &Y1}});
  interpret(S.func(), {{"e", &D.E}, {"adj", &D.Adj}, {"y", &Y2}});
  for (int64_t I = 0; I < Y1.numel(); ++I)
    EXPECT_NEAR(Y1.as<float>()[I], Y2.as<float>()[I], 1e-4);
}

TEST(AutoScheduleTest, VectorizeMarksContiguousInnermost) {
  FunctionBuilder B("v");
  View X = B.input("x", {makeIntConst(8), makeIntConst(32)});
  View Y = B.output("y", {makeIntConst(8), makeIntConst(32)});
  B.loop("i", 0, 8, [&](Expr I) {
    B.loop("j", 0, 32,
           [&](Expr J) { Y[I][J].assign(X[I][J].load() * 2); });
  });
  Func F = B.build();
  Schedule S(F);
  AutoScheduleOptions Opts;
  Opts.Parallelize = false;
  Opts.Unroll = false;
  AutoScheduleReport R = autoSchedule(S, Opts);
  EXPECT_GE(R.Vectorized, 1);
}

TEST(AutoScheduleTest, AllWorkloadsSurviveAutoScheduleAndMatch) {
  // The paper's point: "we can aggressively try transformations without
  // worrying about their correctness". Run the full rule stack on every
  // workload and verify outputs are unchanged.
  {
    workloads::SubdivNetConfig C{48, 6};
    Func F = workloads::buildSubdivNet(C);
    Func Opt = autoScheduleFunc(F);
    workloads::SubdivNetData D = workloads::makeSubdivNetData(C);
    Buffer Y1(DataType::Float32, {C.NFaces, C.Feats});
    Buffer Y2(DataType::Float32, {C.NFaces, C.Feats});
    interpret(F, {{"e", &D.E}, {"adj", &D.Adj}, {"y", &Y1}});
    interpret(Opt, {{"e", &D.E}, {"adj", &D.Adj}, {"y", &Y2}});
    for (int64_t I = 0; I < Y1.numel(); ++I)
      ASSERT_NEAR(Y1.as<float>()[I], Y2.as<float>()[I], 1e-4) << "subdivnet";
  }
  {
    workloads::SoftRasConfig C{12, 8, 8, 0.05f};
    Func F = workloads::buildSoftRas(C);
    Func Opt = autoScheduleFunc(F);
    workloads::SoftRasData D = workloads::makeSoftRasData(C);
    Buffer I1(DataType::Float32, {C.numPixels()});
    Buffer I2(DataType::Float32, {C.numPixels()});
    interpret(F, {{"verts", &D.Verts}, {"px", &D.Px}, {"py", &D.Py},
                  {"img", &I1}});
    interpret(Opt, {{"verts", &D.Verts}, {"px", &D.Px}, {"py", &D.Py},
                    {"img", &I2}});
    for (int64_t I = 0; I < I1.numel(); ++I)
      ASSERT_NEAR(I1.as<float>()[I], I2.as<float>()[I], 1e-4) << "softras";
  }
  {
    workloads::GATConfig C{40, 6, 3};
    Func F = workloads::buildGAT(C);
    Func Opt = autoScheduleFunc(F);
    workloads::GATData D = workloads::makeGATData(C);
    Buffer Y1(DataType::Float32, {C.NNodes, C.Feats});
    Buffer Y2(DataType::Float32, {C.NNodes, C.Feats});
    interpret(F, {{"h", &D.H}, {"adj", &D.Adj}, {"a1", &D.A1},
                  {"a2", &D.A2}, {"y", &Y1}});
    interpret(Opt, {{"h", &D.H}, {"adj", &D.Adj}, {"a1", &D.A1},
                    {"a2", &D.A2}, {"y", &Y2}});
    for (int64_t I = 0; I < Y1.numel(); ++I)
      ASSERT_NEAR(Y1.as<float>()[I], Y2.as<float>()[I], 1e-4) << "gat";
  }
}

TEST(AutoScheduleTest, SwapEnablesFusion) {
  // loop A; unrelated store; loop B  — auto_fuse swaps the store past loop
  // B and fuses A with B (paper §4.3: "transformations like swap may be
  // applied to enable it").
  FunctionBuilder B("sw");
  View X = B.input("x", {makeIntConst(16)});
  View Y = B.output("y", {makeIntConst(16)});
  View Z = B.output("z", {makeIntConst(16)});
  View W = B.output("w", {});
  B.loop("i", 0, 16, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0));
  });
  W.assign(1.0);
  B.loop("i", 0, 16, [&](Expr I) {
    Z[I].assign(X[I].load() + makeFloatConst(1.0));
  });
  Func F = B.build();
  Schedule S(F);
  AutoScheduleOptions Opts;
  Opts.Parallelize = false;
  Opts.Vectorize = false;
  Opts.Unroll = false;
  AutoScheduleReport R = autoSchedule(S, Opts);
  EXPECT_EQ(R.Fused, 1);

  Buffer BX(DataType::Float32, {16}), BY(DataType::Float32, {16}),
      BZ(DataType::Float32, {16}), BW(DataType::Float32, {});
  for (int I = 0; I < 16; ++I)
    BX.as<float>()[I] = 0.25f * float(I);
  interpret(S.func(), {{"x", &BX}, {"y", &BY}, {"z", &BZ}, {"w", &BW}});
  for (int I = 0; I < 16; ++I) {
    EXPECT_FLOAT_EQ(BY.as<float>()[I], 0.5f * float(I));
    EXPECT_FLOAT_EQ(BZ.as<float>()[I], 0.25f * float(I) + 1.0f);
  }
  EXPECT_FLOAT_EQ(BW.as<float>()[0], 1.0f);
}

//===--------------------------------------------------------------------===//
// auto_layout: struct-of-arrays copies for SIMD
//===--------------------------------------------------------------------===//

/// One autoSchedule run and the schedule decisions it logged.
struct LoggedRun {
  Func F;
  AutoScheduleReport R;
  std::vector<trace::ScheduleDecision> Log;

  /// "cache <var>" / "cache_reduction <var>" for every copy applied.
  std::vector<std::string> copies() const {
    std::vector<std::string> Out;
    for (const trace::ScheduleDecision &D : Log)
      if (D.Applied &&
          (D.Primitive == "cache" || D.Primitive == "cache_reduction"))
        Out.push_back(D.Primitive + " " +
                      D.Target.substr(4, D.Target.find(" at ") - 4));
    return Out;
  }
};

LoggedRun scheduleLogged(const Func &F, int NumThreads = 1,
                         int64_t LocalSizeLimit = 4096) {
  AutoScheduleOptions Opts;
  Opts.NumThreads = NumThreads;
  Opts.LocalSizeLimit = LocalSizeLimit;
  size_t Mark = trace::auditSize();
  LoggedRun Run;
  Run.F = autoScheduleFunc(F, Opts, &Run.R);
  Run.Log = trace::auditLogSince(Mark);
  return Run;
}

using Copies = std::vector<std::string>;

TEST(AutoScheduleTest, LayoutCopiesSoftRasVertsAtPerfbenchSize) {
  Func F = workloads::buildSoftRas({128, 32, 32, 0.05f});
  auto G = grad(F, {"verts"}, TapeStrategy::Selective);
  ASSERT_TRUE(G.ok()) << G.message();
  LoggedRun Fwd = scheduleLogged(F), GF = scheduleLogged(G->Forward),
            GB = scheduleLogged(G->Backward);
  EXPECT_EQ(Fwd.copies(), Copies{"cache verts"});
  EXPECT_EQ(GF.copies(), Copies{"cache verts"});
  EXPECT_EQ(GB.copies(), (Copies{"cache verts", "cache_reduction verts.grad"}));
  EXPECT_EQ(Fwd.R.Copied, 1);
  EXPECT_EQ(GB.R.Copied, 2);
  // The face dimension is innermost, and the face loop stays proven.
  std::string Ir = toString(Fwd.F.Body);
  EXPECT_NE(Ir.find("var verts.cache: f32[3, 2, 128] @cpulocal"),
            std::string::npos)
      << Ir;
  EXPECT_NE(Ir.find("verts.cache[0, 0, f]"), std::string::npos) << Ir;
  EXPECT_NE(Ir.find("for f in 0:128  # vectorize(16)"), std::string::npos)
      << Ir;
  EXPECT_NE(toString(GB.F.Body).find("var verts.grad.red: f32[3, 2, 128]"),
            std::string::npos);
}

TEST(AutoScheduleTest, LayoutCopyNeedsTripCountOfTheWidth) {
  // 8 faces: the face loop is shorter than the 16 SIMD lanes.
  LoggedRun Run = scheduleLogged(workloads::buildSoftRas({8, 16, 16, 0.05f}));
  EXPECT_EQ(Run.copies(), Copies{});
  EXPECT_EQ(Run.R.Copied, 0);
}

TEST(AutoScheduleTest, LayoutCopyNeedsASmallTensor) {
  // verts has 1024 * 6 elements, more than LocalSizeLimit = 4096.
  LoggedRun Run = scheduleLogged(workloads::buildSoftRas({1024, 4, 4, 0.05f}));
  EXPECT_EQ(Run.copies(), Copies{});
  // The same program at a limit above 768 elements gets its copy.
  Func F = workloads::buildSoftRas({128, 4, 4, 0.05f});
  EXPECT_EQ(scheduleLogged(F, 1, 767).copies(), Copies{});
  EXPECT_EQ(scheduleLogged(F, 1, 768).copies(), Copies{"cache verts"});
}

TEST(AutoScheduleTest, LayoutCopyNeedsAConstantShape) {
  LoggedRun Run = scheduleLogged(workloads::buildSoftRasDyn({}));
  EXPECT_EQ(Run.copies(), Copies{});
}

TEST(AutoScheduleTest, ReduceCopyNeverWrapsAParallelLoop) {
  // At 4 threads the pixel loop of the backward runs in parallel: its adds
  // into verts.grad stay atomic, so verts.grad gets no copy. The read-only
  // verts still does.
  Func F = workloads::buildSoftRas({128, 32, 32, 0.05f});
  auto G = grad(F, {"verts"}, TapeStrategy::Selective);
  ASSERT_TRUE(G.ok()) << G.message();
  LoggedRun GB = scheduleLogged(G->Backward, /*NumThreads=*/4);
  EXPECT_GE(GB.R.Parallelized, 1);
  EXPECT_EQ(GB.copies(), Copies{"cache verts"});
  EXPECT_EQ(toString(GB.F.Body).find("verts.grad.red"), std::string::npos);
}

TEST(AutoScheduleTest, RolledBackLayoutCopyLeavesProgramByteIdentical) {
  // The face-style loop reads t along both dimensions: a copy with the
  // first dimension innermost makes t[f, 3] unit-stride but t[3, f]
  // strided, so the rule rolls it back.
  FunctionBuilder B("both_ways");
  View T = B.input("t", {makeIntConst(32), makeIntConst(32)});
  View Y = B.output("y", {makeIntConst(4), makeIntConst(32)});
  B.loop("i", 0, 4, [&](Expr I) {
    B.loop("f", 0, 32, [&](Expr Fi) {
      Y[I][Fi].assign(T[Fi][makeIntConst(3)].load() * I +
                      T[makeIntConst(3)][Fi].load());
    });
  });
  Func F = B.build();
  LoggedRun Tried = scheduleLogged(F);
  LoggedRun Skipped = scheduleLogged(F, 1, /*LocalSizeLimit=*/1023);
  EXPECT_EQ(Tried.copies(), Copies{"cache t"});
  EXPECT_EQ(Skipped.copies(), Copies{});
  EXPECT_EQ(Tried.R.Copied, 0);
  bool RolledBack = false;
  for (const trace::ScheduleDecision &D : Tried.Log)
    if (D.Primitive == "auto_layout") {
      RolledBack = !D.Applied;
      EXPECT_NE(D.Reason.find("strided"), std::string::npos) << D.Reason;
    }
  EXPECT_TRUE(RolledBack);
  EXPECT_EQ(toString(Tried.F.Body), toString(Skipped.F.Body));
}

TEST(AutoScheduleTest, SearchDedupsStructurallyIdenticalCandidates) {
  // Mutation rounds whose primitives are all rejected reproduce the
  // incumbent bit for bit; the fingerprint memo must skip recompiling them.
  char Tmpl[] = "/tmp/ftsearch.XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  ::setenv("FT_CACHE_DIR", Tmpl, 1);

  FunctionBuilder B("tune");
  View X = B.input("x", {makeIntConst(128)});
  View Y = B.output("y", {makeIntConst(128)});
  B.loop("i", 0, 128, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(3.0) + makeFloatConst(1.0));
  });
  Func F = B.build();

  Buffer BX(DataType::Float32, {128}), BY(DataType::Float32, {128});
  for (int I = 0; I < 128; ++I)
    BX.as<float>()[I] = 0.1f * float(I);

  SearchOptions Opts;
  Opts.Rounds = 8;
  Opts.MeasureRuns = 1;
  Opts.OptFlags = "-O1";
  AutoScheduleReport R;
  auto Best = autoTuneFunc(F, {{"x", &BX}, {"y", &BY}}, Opts, &R);
  ASSERT_TRUE(Best.ok()) << Best.message();

  EXPECT_EQ(R.CandidatesTried, Opts.Rounds + 1); // seed + every round
  EXPECT_GT(R.CandidatesDeduped, 0);
  EXPECT_EQ(R.CandidatesTried, R.CandidatesMeasured + R.CandidatesDeduped);
  EXPECT_GT(R.BestMs, 0.0);

  // The winner still computes the same function.
  Buffer CY(DataType::Float32, {128});
  interpret(*Best, {{"x", &BX}, {"y", &CY}});
  for (int I = 0; I < 128; ++I)
    EXPECT_NEAR(CY.as<float>()[I], 3.0f * BX.as<float>()[I] + 1.0f, 1e-5);

  ::unsetenv("FT_CACHE_DIR");
  std::system(("rm -rf '" + std::string(Tmpl) + "'").c_str());
}

} // namespace
