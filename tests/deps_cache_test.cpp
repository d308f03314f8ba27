//===- tests/deps_cache_test.cpp - Differential tests of the query cache ---===//
//
// The dependence-query engine layers several accelerations (constraint
// canonicalization, an interval/GCD pre-filter, process-wide emptiness
// memoization, per-point domain caching, analyzer reuse) over the plain
// Fourier–Motzkin path. Every layer is required to be *exact*: with
// acceleration on or bypassed (BypassGuard), every query must return
// the identical answer. These tests enforce that on randomized programs and
// randomized schedule sequences.
//
//===----------------------------------------------------------------------===//

#include <functional>
#include <gtest/gtest.h>
#include <set>
#include <tuple>

#include "frontend/libop.h"
#include "ir/printer.h"
#include "math/affine_set.h"
#include "schedule/schedule.h"
#include "support/metrics.h"

using namespace ft;

namespace {

struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435761u + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int64_t range(int64_t Lo, int64_t Hi) { // [Lo, Hi)
    return Lo + static_cast<int64_t>(next() % uint64_t(Hi - Lo));
  }
  bool coin() { return next() & 1; }
};

/// Random programs exercising the query corners: scalar recurrences
/// (carried deps), guarded stores, reductions, shifted windows (distance-1
/// deps), temporaries scoped inside loops (stack-scope filtering).
Func makeRandomProgram(uint64_t Seed) {
  Rng R(Seed);
  const int64_t N = R.range(5, 12);
  const int64_t M = R.range(3, 8);
  FunctionBuilder B("dc" + std::to_string(Seed));
  View A = B.input("a", {makeIntConst(N), makeIntConst(M)});
  View Bv = B.input("b", {makeIntConst(N)});
  View Y = B.output("y", {makeIntConst(N), makeIntConst(M)});
  View Z = B.output("z", {makeIntConst(N)});

  B.loop(
      "i", 0, N,
      [&](Expr I) {
        B.loop("j", 0, M, [&](Expr J) {
          Expr V = A[I][J].load() * makeFloatConst(0.5);
          if (R.coin())
            V = V + Bv[I].load();
          switch (R.range(0, 3)) {
          case 0:
            Y[I][J].assign(V);
            break;
          case 1:
            // Shifted window: distance-1 dependence carried by i.
            Y[I][J].assign(makeFloatConst(0.0));
            B.ifThen(I >= 1, [&] { Y[I][J] += V; });
            break;
          default:
            Y[I][J] += V;
            break;
          }
        });
      },
      "L1");

  B.loop(
      "i", 0, N,
      [&](Expr I) {
        // Loop-scoped temporary: dependences on t across i iterations are
        // killed by stack-scope filtering.
        View T = B.local("t", {});
        T.assign(0.0);
        B.loop("j", 0, M, [&](Expr J) { T += Y[I][J].load(); });
        if (R.coin())
          Z[I].assign(T.load() + Bv[I].load());
        else
          Z[I].assign(T.load());
      },
      "L2");

  return B.build();
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

std::vector<int64_t> topLevelStmts(const Stmt &S) {
  if (auto Seq = dyn_cast<StmtSeqNode>(S)) {
    std::vector<int64_t> Out;
    for (const Stmt &Sub : Seq->Stmts)
      Out.push_back(Sub->Id);
    return Out;
  }
  return {S->Id};
}

/// An ID-free rendering of one found dependence: stable across analyzer
/// instances and across structurally identical ASTs with different node
/// IDs.
using DepSig = std::tuple<std::string, int64_t, int, int, // var, E seq/kind/ph
                          int64_t, int, int,              // L seq/kind/phase
                          int, bool>;                     // type, same-op

DepSig sigOf(const FoundDep &D) {
  return {D.Earlier->Var,
          D.Earlier->Seq,
          static_cast<int>(D.Earlier->Kind),
          D.Earlier->Phase,
          D.Later->Seq,
          static_cast<int>(D.Later->Kind),
          D.Later->Phase,
          static_cast<int>(D.Type),
          D.SameOpReduce};
}

/// Runs every carriedBy and pairwise betweenAtEqualIters query on \p Root
/// with a fresh analyzer and returns the full multiset of answers.
std::multiset<DepSig> allQueries(const Stmt &Root) {
  DepAnalyzer DA(Root);
  std::multiset<DepSig> Out;
  for (int64_t L : allLoops(Root))
    for (const FoundDep &D : DA.carriedBy(L))
      Out.insert(sigOf(D));
  std::vector<int64_t> Top = topLevelStmts(Root);
  for (int64_t A : Top)
    for (int64_t B : Top)
      if (A != B)
        for (const FoundDep &D : DA.betweenAtEqualIters(A, B))
          Out.insert(sigOf(D));
  return Out;
}

/// Applies the same deterministic schedule-request sequence to \p S,
/// recording which requests were accepted.
std::vector<bool> applySchedules(Schedule &S, uint64_t Seed, int Steps) {
  Rng R(Seed * 7919 + 13);
  std::vector<bool> Accepted;
  for (int Step = 0; Step < Steps; ++Step) {
    std::vector<int64_t> Loops = allLoops(S.ast());
    if (Loops.empty())
      break;
    int64_t L = Loops[R.range(0, Loops.size())];
    switch (R.range(0, 6)) {
    case 0:
      Accepted.push_back(S.split(L, R.range(2, 5)).ok());
      break;
    case 1: {
      auto Nest = S.perfectNest(L);
      Accepted.push_back(Nest.size() >= 2 &&
                         S.reorder({Nest[1]->Id, Nest[0]->Id}).ok());
      break;
    }
    case 2:
      Accepted.push_back(S.parallelize(L).ok());
      break;
    case 3:
      Accepted.push_back(S.vectorize(L).ok());
      break;
    case 4: {
      std::vector<int64_t> All = allLoops(S.ast());
      int64_t L2 = All[R.range(0, All.size())];
      Accepted.push_back(L != L2 && S.fuse(L, L2).ok());
      break;
    }
    default: {
      auto Nest = S.perfectNest(L);
      Accepted.push_back(Nest.size() >= 2 &&
                         S.merge(Nest[0]->Id, Nest[1]->Id).ok());
      break;
    }
    }
  }
  return Accepted;
}

class DepsCacheFuzz : public ::testing::TestWithParam<int> {};

// Every query on an unscheduled random program must answer identically
// with the acceleration layers on and bypassed.
TEST_P(DepsCacheFuzz, CachedQueriesMatchBypassedQueries) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Func F = makeRandomProgram(Seed);

  std::multiset<DepSig> Accelerated = allQueries(F.Body);
  std::multiset<DepSig> Plain;
  {
    BypassGuard G;
    Plain = allQueries(F.Body);
  }
  EXPECT_EQ(Accelerated, Plain) << "seed " << Seed;
}

// An identical schedule-request sequence must be accepted/rejected
// identically with and without acceleration, produce structurally
// identical ASTs, and leave identical dependences behind. This exercises
// analyzer reuse + invalidation across every mutating primitive.
TEST_P(DepsCacheFuzz, ScheduleDecisionsMatchBypassedDecisions) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());

  Schedule SAccel(makeRandomProgram(Seed));
  std::vector<bool> AcceptedAccel = applySchedules(SAccel, Seed, 10);

  Schedule SPlain(makeRandomProgram(Seed));
  std::vector<bool> AcceptedPlain;
  {
    BypassGuard G;
    AcceptedPlain = applySchedules(SPlain, Seed, 10);
  }

  EXPECT_EQ(AcceptedAccel, AcceptedPlain) << "seed " << Seed;
  EXPECT_EQ(toString(SAccel.ast()), toString(SPlain.ast()))
      << "seed " << Seed;
  EXPECT_EQ(allQueries(SAccel.ast()), allQueries(SPlain.ast()))
      << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DepsCacheFuzz, ::testing::Range(1, 33));

// Re-running the same queries must hit the process-wide emptiness memo,
// and hits must not change the answers.
TEST(DepsCache, MemoizationServesRepeatedQueries) {
  Func F = makeRandomProgram(7);
  std::multiset<DepSig> First = allQueries(F.Body);

  metrics::resetPrefix("deps/");
  std::multiset<DepSig> Second = allQueries(F.Body);
  EXPECT_EQ(First, Second);

  EXPECT_GT(metrics::counter("deps/emptiness_queries").load(), 0u);
  // Every FM-requiring system was already solved in the first pass.
  EXPECT_GT(metrics::counter("deps/emptiness_cache_hits").load(), 0u);
  EXPECT_EQ(metrics::counter("deps/emptiness_cache_misses").load(), 0u);
}

// The per-point domain cache must serve repeated pair-set constructions.
TEST(DepsCache, DomainCacheServesRepeatedPairSets) {
  Func F = makeRandomProgram(11);
  DepAnalyzer DA(F.Body);
  metrics::resetPrefix("deps/");
  for (int64_t L : allLoops(F.Body)) {
    (void)DA.carriedBy(L);
    (void)DA.carriedBy(L);
  }
  EXPECT_GT(metrics::counter("deps/domain_cache_hits").load(), 0u);
}

} // namespace
