//===- tests/profile_test.cpp - Kernel-level profiler tests -----------------===//
//
// The profiler's contract (DESIGN.md §10) has three load-bearing claims:
//
//  1. Exactness: per-statement Calls/Iters from an instrumented kernel are
//     *exact*, not sampled — so they must equal the interpreter's per-stmt
//     counts on the same (scheduled) program, statement by statement. We
//     check this on fuzzed programs, including under FT_NUM_THREADS=4
//     where counters merge across the pool's per-thread slots.
//  2. Zero cost when off: profile-off emission is byte-identical to the
//     default emission — no instrumentation residue whatsoever.
//  3. Reports resolve: every runtime sample maps back through the source
//     map to a named loop with nesting path and schedule provenance, and
//     the flamegraph / JSON renderers produce well-formed output.
//
// Plus the memory-accounting half: heap-backed caches report peak/current
// bytes through Kernel::rtStats().
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/profile.h"
#include "frontend/builder.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "schedule/schedule.h"
#include "support/trace.h"

using namespace ft;

namespace {

/// Deterministic PRNG (same recipe as fuzz_test.cpp).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435761u + 1) {}
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

struct RandomProgram {
  Func F;
  std::map<std::string, std::vector<int64_t>> Shapes;
};

/// A random two-pass program over 2-D/1-D tensors; mirrors the fuzz-test
/// generator but stays branch-light so every seed JIT-compiles quickly.
RandomProgram makeRandomProgram(uint64_t Seed) {
  Rng R(Seed);
  const int64_t N = R.range(6, 14);
  const int64_t M = R.range(3, 9);
  FunctionBuilder B("prof" + std::to_string(Seed));
  View A = B.input("a", {makeIntConst(N), makeIntConst(M)});
  View Y = B.output("y", {makeIntConst(N), makeIntConst(M)});
  View Z = B.output("z", {makeIntConst(N)});

  B.loop(
      "i", 0, N,
      [&](Expr I) {
        B.loop("j", 0, M, [&](Expr J) {
          Expr V = A[I][J].load() * makeFloatConst(0.5 + (Seed % 3));
          if (R.coin())
            Y[I][J].assign(V);
          else
            Y[I][J].assign(V + makeFloatConst(1.0));
        });
      },
      "L1");

  B.loop(
      "i", 0, N,
      [&](Expr I) {
        View T = B.local("t", {});
        T.assign(0.0);
        B.loop("j", 0, M, [&](Expr J) { T += Y[I][J].load(); });
        Z[I].assign(T.load());
      },
      "L2");

  RandomProgram P;
  P.F = B.build();
  P.Shapes = {{"a", {N, M}}, {"y", {N, M}}, {"z", {N}}};
  return P;
}

std::vector<int64_t> allLoops(const Stmt &S) {
  std::vector<int64_t> Out;
  std::function<void(const Stmt &)> Walk = [&](const Stmt &St) {
    if (auto L = dyn_cast<ForNode>(St)) {
      Out.push_back(L->Id);
      return Walk(L->Body);
    }
    if (auto Seq = dyn_cast<StmtSeqNode>(St)) {
      for (const Stmt &Sub : Seq->Stmts)
        Walk(Sub);
      return;
    }
    if (auto D = dyn_cast<VarDefNode>(St))
      return Walk(D->Body);
    if (auto I = dyn_cast<IfNode>(St)) {
      Walk(I->Then);
      if (I->Else)
        Walk(I->Else);
    }
  };
  Walk(S);
  return Out;
}

/// Random schedule requests; rejections are fine — we only need variety in
/// the final loop structure (splits, fusions, parallel loops, tails).
void applyRandomSchedules(Schedule &S, Rng &R, int Steps) {
  for (int Step = 0; Step < Steps; ++Step) {
    std::vector<int64_t> Loops = allLoops(S.ast());
    if (Loops.empty())
      break;
    int64_t L = Loops[R.range(0, Loops.size())];
    switch (R.range(0, 6)) {
    case 0:
      (void)S.split(L, R.range(2, 5));
      break;
    case 1: {
      auto Nest = S.perfectNest(L);
      if (Nest.size() >= 2)
        (void)S.reorder({Nest[1]->Id, Nest[0]->Id});
      break;
    }
    case 2:
      (void)S.parallelize(L);
      break;
    case 3:
      (void)S.vectorize(L);
      break;
    case 4:
      (void)S.separateTail(L);
      break;
    case 5: {
      std::vector<int64_t> All = allLoops(S.ast());
      int64_t L2 = All[R.range(0, All.size())];
      if (L != L2)
        (void)S.fuse(L, L2);
      break;
    }
    }
  }
  S.cleanup();
}

std::map<std::string, Buffer> makeBuffers(const RandomProgram &P) {
  std::map<std::string, Buffer> Store;
  uint64_t I = 0;
  for (const auto &[Name, Shape] : P.Shapes) {
    Store.emplace(Name, Buffer(DataType::Float32, Shape));
    Buffer &B = Store.at(Name);
    for (int64_t K = 0; K < B.numel(); ++K)
      B.setF(K, 0.25 * double((K + ++I) % 7));
  }
  return Store;
}

std::map<std::string, Buffer *> argPtrs(std::map<std::string, Buffer> &S) {
  std::map<std::string, Buffer *> Args;
  for (auto &[Name, B] : S)
    Args[Name] = &B;
  return Args;
}

//===--------------------------------------------------------------------===//
// Profile-off emission is byte-identical to the default emission.
//===--------------------------------------------------------------------===//

TEST(ProfileTest, ProfileOffEmissionIsByteIdentical) {
  for (uint64_t Seed : {3u, 11u}) {
    RandomProgram P = makeRandomProgram(Seed);
    Rng R(Seed + 5);
    Schedule S(P.F);
    applyRandomSchedules(S, R, 8);
    Func Scheduled = S.func();

    std::string Default = generateCpp(Scheduled);
    std::string OffExplicit = generateCpp(Scheduled, CodegenOptions{});
    EXPECT_EQ(Default, OffExplicit);
    EXPECT_EQ(Default.find("profSlots"), std::string::npos);
    EXPECT_EQ(Default.find("_ft_prof"), std::string::npos);

    CodegenOptions On;
    On.Profile = true;
    std::string Instrumented = generateCpp(Scheduled, On);
    EXPECT_NE(Instrumented, Default);
    EXPECT_NE(Instrumented.find("profSlots"), std::string::npos);
  }
}

//===--------------------------------------------------------------------===//
// Exactness: instrumented Calls/Iters == interpreter per-stmt counts.
//===--------------------------------------------------------------------===//

class ProfileCountFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProfileCountFuzz, KernelCountsMatchInterpreterExactly) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 17 + 3;
  RandomProgram P = makeRandomProgram(Seed);
  Rng R(Seed + 1);
  Schedule S(P.F);
  applyRandomSchedules(S, R, 8);
  Func Scheduled = S.func();

  // Interpreter ground truth for one execution.
  std::map<std::string, Buffer> IStore = makeBuffers(P);
  auto IArgs = argPtrs(IStore);
  InterpOptions IOpts;
  IOpts.CountStmts = true;
  InterpStats IStats = interpret(Scheduled, IArgs, IOpts);

  CodegenOptions Opts;
  Opts.Profile = true;
  auto K = Kernel::compile(Scheduled, Opts, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();

  const uint64_t Runs = 3;
  std::map<std::string, Buffer> KStore = makeBuffers(P);
  auto KArgs = argPtrs(KStore);
  for (uint64_t I = 0; I < Runs; ++I)
    ASSERT_TRUE(K->run(KArgs).ok());

  profile::KernelProfile Prof = K->profileNow();
  ASSERT_FALSE(Prof.Samples.empty());

  // Root pseudo-statement: one call per kernel invocation.
  const profile::LoopSample *Root = Prof.sample(-1);
  ASSERT_NE(Root, nullptr);
  EXPECT_EQ(Root->Calls, Runs);

  // Every instrumented statement matches the interpreter exactly (kernel
  // counters are cumulative over Runs invocations), and every id resolves
  // through the source map.
  size_t Checked = 0;
  for (const profile::LoopSample &L : Prof.Samples) {
    EXPECT_NE(K->sourceMap().find(L.StmtId), nullptr)
        << "unresolved stmt id " << L.StmtId << " (seed " << Seed << ")";
    if (L.StmtId < 0)
      continue;
    auto It = IStats.PerStmt.find(L.StmtId);
    ASSERT_NE(It, IStats.PerStmt.end())
        << "kernel counted stmt " << L.StmtId
        << " the interpreter never entered (seed " << Seed << "):\n"
        << toString(Scheduled.Body);
    EXPECT_EQ(L.Calls, It->second.Calls * Runs)
        << "calls mismatch on stmt " << L.StmtId << " (seed " << Seed << ")";
    EXPECT_EQ(L.Iters, It->second.Iters * Runs)
        << "iters mismatch on stmt " << L.StmtId << " (seed " << Seed << ")";
    ++Checked;
  }
  // And the other direction: the interpreter saw no statement the kernel
  // missed.
  EXPECT_EQ(Checked, IStats.PerStmt.size())
      << "instrumentation coverage differs (seed " << Seed << ")";

  // Exactness of the counters implies the instrumentation did not perturb
  // semantics; still, cheap to assert the outputs agree.
  for (const auto &[Name, B] : IStore) {
    const Buffer &KB = KStore.at(Name);
    for (int64_t I = 0; I < B.numel(); ++I)
      ASSERT_NEAR(B.as<float>()[I], KB.as<float>()[I], 1e-4)
          << Name << "[" << I << "] seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProfileCountFuzz, ::testing::Range(1, 6));

//===--------------------------------------------------------------------===//
// Merge correctness across a 4-thread pool.
//===--------------------------------------------------------------------===//

TEST(ProfileTest, CountsExactUnderFourThreads) {
  // tests/CMakeLists.txt runs this binary with FT_NUM_THREADS=4, so the
  // process-wide pool spreads the loop over four threads.
  const int64_t N = 1024;
  FunctionBuilder B("ptpool");
  View A = B.input("a", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N)});
  int64_t L = B.loop(
      "i", 0, N, [&](Expr I) { Y[I].assign(A[I].load() * 2.0f + 1.0f); },
      "rows");
  Func F = B.build();

  Schedule S(F);
  ASSERT_TRUE(S.parallelize(L).ok());
  Func Scheduled = S.func();

  CodegenOptions Opts;
  Opts.Profile = true;
  auto K = Kernel::compile(Scheduled, Opts, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();

  std::map<std::string, Buffer> Store;
  Store.emplace("a", Buffer(DataType::Float32, {N}));
  Store.emplace("y", Buffer(DataType::Float32, {N}));
  for (int64_t I = 0; I < N; ++I)
    Store.at("a").setF(I, float(I) * 0.5f);
  auto Args = argPtrs(Store);

  const uint64_t Runs = 5;
  for (uint64_t I = 0; I < Runs; ++I)
    ASSERT_TRUE(K->run(Args).ok());

  // Iterations land on 4 worker threads; the merged table must still be
  // exact: Calls counts loop *entries* (1 per invocation), Iters the total
  // body executions across all threads.
  profile::KernelProfile Prof = K->profileNow();
  const profile::LoopSample *Loop = Prof.sample(L);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Calls, Runs);
  EXPECT_EQ(Loop->Iters, Runs * uint64_t(N));

  KernelRtStats St = K->rtStats();
  ASSERT_TRUE(St.Valid);
  EXPECT_EQ(St.Invocations, Runs);
  EXPECT_EQ(St.ParallelFors, Runs);
  EXPECT_EQ(St.ParallelIters, Runs * uint64_t(N));

  for (int64_t I = 0; I < N; ++I)
    ASSERT_NEAR(Store.at("y").as<float>()[I], float(I) * 0.5f * 2.0f + 1.0f,
                1e-5);
}

//===--------------------------------------------------------------------===//
// Source map & schedule provenance.
//===--------------------------------------------------------------------===//

TEST(ProfileTest, SourceMapJoinsScheduleProvenance) {
  trace::AuditGuard G; // Provenance flows through the audit log.

  const int64_t N = 32;
  FunctionBuilder B("ptprov");
  View A = B.input("a", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N)});
  int64_t L =
      B.loop("i", 0, N, [&](Expr I) { Y[I].assign(A[I].load() * 2.0f); },
             "rows");
  Func F = B.build();

  Schedule S(F);
  auto Split = S.split(L, 8);
  ASSERT_TRUE(Split.ok()) << Split.message();

  profile::SourceMap Map =
      profile::buildSourceMap(S.func(), trace::auditLog());

  EXPECT_EQ(Map.FuncName, "ptprov");
  ASSERT_FALSE(Map.Stmts.empty());
  // [0] is the kernel root.
  EXPECT_EQ(Map.Stmts[0].Id, -1);
  EXPECT_EQ(Map.Stmts[0].Kind, "kernel");

  // Both halves of the split resolve, carry the frontend label in their
  // path, and name the split in their provenance.
  for (int64_t Id : {Split->First, Split->Second}) {
    const profile::StmtSourceInfo *Info = Map.find(Id);
    ASSERT_NE(Info, nullptr) << "loop " << Id << " missing from source map";
    EXPECT_EQ(Info->Kind, "for");
    EXPECT_NE(Info->QualName.find("ptprov/"), std::string::npos);
    bool NamesSplit = false;
    for (const std::string &Prov : Info->Provenance)
      NamesSplit |= Prov.find("split") != std::string::npos;
    EXPECT_TRUE(NamesSplit)
        << "loop " << Id << " lost its split provenance";
  }

  // The outer half encloses the inner half in the nesting path.
  const profile::StmtSourceInfo *Outer = Map.find(Split->First);
  const profile::StmtSourceInfo *Inner = Map.find(Split->Second);
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->ParentId, Outer->Id);
  EXPECT_EQ(Inner->Depth, Outer->Depth + 1);
  EXPECT_GT(Inner->Path.size(), Outer->Path.size());
}

//===--------------------------------------------------------------------===//
// Renderers: hierarchical table, collapsed stacks, JSON.
//===--------------------------------------------------------------------===//

/// Minimal structural JSON validator: quotes, escapes, and bracket
/// balance. Enough to catch malformed emission without a JSON library.
bool jsonWellFormed(const std::string &J) {
  std::vector<char> Stack;
  bool InStr = false;
  for (size_t I = 0; I < J.size(); ++I) {
    char C = J[I];
    if (InStr) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InStr = false;
      continue;
    }
    switch (C) {
    case '"':
      InStr = true;
      break;
    case '{':
    case '[':
      Stack.push_back(C);
      break;
    case '}':
      if (Stack.empty() || Stack.back() != '{')
        return false;
      Stack.pop_back();
      break;
    case ']':
      if (Stack.empty() || Stack.back() != '[')
        return false;
      Stack.pop_back();
      break;
    default:
      break;
    }
  }
  return !InStr && Stack.empty() && !J.empty() && J[0] == '{';
}

TEST(ProfileTest, ReportsRenderAndParse) {
  RandomProgram P = makeRandomProgram(7);
  CodegenOptions Opts;
  Opts.Profile = true;
  auto K = Kernel::compile(P.F, Opts, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();

  std::map<std::string, Buffer> Store = makeBuffers(P);
  auto Args = argPtrs(Store);
  ASSERT_TRUE(K->run(Args).ok());

  profile::KernelProfile Prof = K->profileNow();

  // Table: one row per sample, loops addressed by label#id.
  std::string Table = profile::formatTable(Prof);
  EXPECT_NE(Table.find(P.F.Name), std::string::npos);
  EXPECT_NE(Table.find("L1#"), std::string::npos);
  EXPECT_NE(Table.find("L2#"), std::string::npos);

  // Collapsed stacks: "frame;frame;... <selfNs>" per line.
  std::string Folded = profile::toFolded(Prof);
  ASSERT_FALSE(Folded.empty());
  size_t Lines = 0, Begin = 0;
  while (Begin < Folded.size()) {
    size_t End = Folded.find('\n', Begin);
    if (End == std::string::npos)
      End = Folded.size();
    std::string Line = Folded.substr(Begin, End - Begin);
    Begin = End + 1;
    if (Line.empty())
      continue;
    ++Lines;
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << "bad folded line: " << Line;
    std::string Count = Line.substr(Sp + 1);
    ASSERT_FALSE(Count.empty());
    for (char C : Count)
      ASSERT_TRUE(C >= '0' && C <= '9') << "bad folded count: " << Line;
    // Frames are rooted at the function name.
    EXPECT_EQ(Line.rfind(P.F.Name, 0), 0u) << "unrooted stack: " << Line;
  }
  EXPECT_GT(Lines, 0u);

  // JSON: structurally valid, rows resolved, schema fields present.
  std::string J = profile::toJson(Prof);
  EXPECT_TRUE(jsonWellFormed(J)) << J;
  EXPECT_NE(J.find("\"loops\""), std::string::npos);
  EXPECT_NE(J.find("\"est_self_ns\""), std::string::npos);
  EXPECT_NE(J.find("\"resolved\":true"), std::string::npos);
  EXPECT_EQ(J.find("\"resolved\":false"), std::string::npos);

  // The registry aggregate is JSON too.
  profile::clearProfiles();
  profile::record(Prof);
  std::string Snap = profile::snapshotJson();
  EXPECT_TRUE(jsonWellFormed(Snap)) << Snap;
  EXPECT_NE(Snap.find("\"profiles\""), std::string::npos);
  EXPECT_NE(Snap.find(P.F.Name), std::string::npos);
  profile::clearProfiles();
}

//===--------------------------------------------------------------------===//
// Memory accounting of profiled calls.
//===--------------------------------------------------------------------===//

TEST(ProfileTest, HeapCacheMemoryAccounting) {
  // A MemType::CPU cache too big for the stack-array path: codegen backs
  // it with the runtime allocator, which the profiler instruments.
  const int64_t N = 128, M = 257;
  FunctionBuilder B("ptmem");
  View A = B.input("a", {makeIntConst(N), makeIntConst(M)});
  View Y = B.output("y", {makeIntConst(N)});
  View Buf = B.local("buf", {makeIntConst(N), makeIntConst(M)},
                     DataType::Float32, MemType::CPU);
  B.loop("i", 0, N, [&](Expr I) {
    B.loop("j", 0, M,
           [&](Expr J) { Buf[I][J].assign(A[I][J].load() * 2.0f); });
  });
  B.loop("i", 0, N, [&](Expr I) {
    View T = B.local("t", {});
    T.assign(0.0);
    B.loop("j", 0, M, [&](Expr J) { T += Buf[I][J].load(); });
    Y[I].assign(T.load());
  });
  Func F = B.build();

  CodegenOptions Opts;
  Opts.Profile = true;
  auto K = Kernel::compile(F, Opts, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();

  std::map<std::string, Buffer> Store;
  Store.emplace("a", Buffer(DataType::Float32, {N, M}));
  Store.emplace("y", Buffer(DataType::Float32, {N}));
  for (int64_t I = 0; I < N * M; ++I)
    Store.at("a").setF(I, 0.001f * float(I % 101));
  auto Args = argPtrs(Store);

  const uint64_t Runs = 2;
  for (uint64_t I = 0; I < Runs; ++I)
    ASSERT_TRUE(K->run(Args).ok());

  const uint64_t BufBytes = uint64_t(N) * uint64_t(M) * sizeof(float);
  KernelRtStats St = K->rtStats();
  ASSERT_TRUE(St.Valid);
  EXPECT_EQ(St.Invocations, Runs);
  // Peak live: at least the cache tensor while the kernel ran...
  EXPECT_GE(St.PeakBytes, BufBytes);
  // ...fully released once it returned...
  EXPECT_EQ(St.CurrentBytes, 0u);
  // ...allocated once per invocation.
  EXPECT_GE(St.AllocCount, Runs);
  EXPECT_GE(St.TotalAllocBytes, BufBytes * Runs);

  // Same numbers surface on the profile snapshot.
  profile::KernelProfile Prof = K->profileNow();
  EXPECT_EQ(Prof.PeakBytes, St.PeakBytes);
  EXPECT_EQ(Prof.CurrentBytes, 0u);
  EXPECT_EQ(Prof.TotalAllocBytes, St.TotalAllocBytes);
}

//===--------------------------------------------------------------------===//
// Profile-off kernels still count their calls, without memory accounting.
//===--------------------------------------------------------------------===//

TEST(ProfileTest, UnprofiledKernelCountsInvocations) {
  RandomProgram P = makeRandomProgram(9);
  auto K = Kernel::compile(P.F, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();
  EXPECT_FALSE(K->profiled());

  std::map<std::string, Buffer> Store = makeBuffers(P);
  auto Args = argPtrs(Store);
  ASSERT_TRUE(K->run(Args).ok());

  KernelRtStats St = K->rtStats();
  ASSERT_TRUE(St.Valid);
  EXPECT_EQ(St.Invocations, 1u);
  // No profiler, no allocator instrumentation.
  EXPECT_EQ(St.AllocCount, 0u);
}

} // namespace
