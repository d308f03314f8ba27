//===- tests/runtime_test.cpp - Kernel runtime & support utilities --------===//
//
// Covers what every generated kernel runs on: the host thread pool and
// function table (codegen/rt/host.h) and the prelude's inline pieces
// (codegen/rt/ft_prelude.h: trampoline, atomics, integer division, math,
// GEMM), plus the small support utilities.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <type_traits>

#include "codegen/rt/host.h"
#include "support/error.h"
#include "support/string_utils.h"

using namespace ft;

namespace {

/// A kernel context on the host function table, as Kernel::run builds it.
struct TestCtx {
  ft_rt_counters Stats{};
  ft_rt_ctx Ctx{};
  explicit TestCtx(int MaxThreads = 1 << 30) {
    Ctx.api = &rt::hostApi();
    Ctx.stats = &Stats;
    Ctx.max_threads = MaxThreads;
  }
};

/// Runs Fn over [Begin, End) on \p Pool through the kernels' trampoline.
template <typename F>
void poolFor(rt::ThreadPool &Pool, int64_t Begin, int64_t End, const F &Fn) {
  Pool.parallelFor(Begin, End, &rt::runChunk<F>, &Fn, 1 << 30);
}

TEST(RuntimeTest, ParallelForCoversRangeExactlyOnce) {
  TestCtx C;
  std::vector<std::atomic<int>> Hits(1000);
  rt::parallelFor(&C.Ctx, 0, 1000, [&](int64_t I) { Hits[I].fetch_add(1); });
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
  // Empty and negative ranges are no-ops, and are not counted.
  bool Ran = false;
  rt::parallelFor(&C.Ctx, 5, 5, [&](int64_t) { Ran = true; });
  rt::parallelFor(&C.Ctx, 5, 3, [&](int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
  EXPECT_EQ(C.Stats.parallel_fors, 1u);
  EXPECT_EQ(C.Stats.parallel_iters, 1000u);
}

TEST(RuntimeTest, ThreadCapOfOneRunsOnTheCaller) {
  TestCtx C(/*MaxThreads=*/1);
  const std::thread::id Me = std::this_thread::get_id();
  std::atomic<int> Elsewhere{0}, NonZeroId{0};
  rt::parallelFor(&C.Ctx, 0, 4096, [&](int64_t, int W) {
    Elsewhere += std::this_thread::get_id() != Me;
    NonZeroId += W != 0;
  });
  EXPECT_EQ(Elsewhere.load(), 0);
  EXPECT_EQ(NonZeroId.load(), 0);
}

TEST(RuntimeTest, WorkerIdsIdentifyThreads) {
  // Profiled kernels index per-thread counter arrays by this id, so one
  // thread must always report the same id and two threads never one id.
  rt::ThreadPool Pool(4);
  std::mutex M;
  std::map<std::thread::id, std::set<int>> Ids;
  for (int R = 0; R < 200; ++R)
    poolFor(Pool, 0, 64, [&](int64_t, int W) {
      std::lock_guard<std::mutex> L(M);
      Ids[std::this_thread::get_id()].insert(W);
    });
  std::set<int> Seen;
  for (const auto &[Thread, Ws] : Ids) {
    ASSERT_EQ(Ws.size(), 1u);
    int W = *Ws.begin();
    EXPECT_GE(W, 0);
    EXPECT_LT(W, Pool.numThreads());
    EXPECT_TRUE(Seen.insert(W).second) << "id " << W << " on two threads";
  }
  EXPECT_EQ(Ids[std::this_thread::get_id()].count(0), 1u);
}

TEST(RuntimeTest, ManyShortUnevenRegionsComplete) {
  // The completion race: a worker finishing the last chunk must not touch
  // the region after its caller may return (the region lives on the
  // caller's stack). Many short regions with uneven chunks make the
  // caller and the last worker finish together; under TSan a late touch
  // is reported as a use of freed stack memory.
  auto Work = [](int64_t I) { // uneven iteration costs
    uint64_t V = uint64_t(I) + 1;
    for (int64_t K = 0; K < (I % 4) * 16; ++K)
      V = V * 6364136223846793005ull + 1;
    return V;
  };
  rt::ThreadPool Pool(4);
  constexpr int kRegions = 100000;
  uint64_t Want = 0, Got = 0;
  for (int R = 0; R < kRegions; ++R) {
    const int64_t N = 4 + R % 13;
    std::atomic<uint64_t> Sum{0};
    poolFor(Pool, 0, N, [&](int64_t I) { Sum.fetch_add(Work(I)); });
    Got += Sum.load();
    for (int64_t I = 0; I < N; ++I)
      Want += Work(I);
  }
  EXPECT_EQ(Got, Want);
}

TEST(RuntimeTest, NestedRegionsComplete) {
  // An 8x8 nest where each outer chunk opens an inner region while every
  // worker is busy: the inner callers must run their own unclaimed chunks
  // instead of waiting for a free worker.
  rt::ThreadPool Pool(4);
  for (int Rep = 0; Rep < 50; ++Rep) {
    std::vector<std::atomic<int>> Hits(64);
    poolFor(Pool, 0, 8, [&](int64_t I) {
      poolFor(Pool, 0, 8, [&](int64_t J) { Hits[I * 8 + J].fetch_add(1); });
    });
    for (int K = 0; K < 64; ++K)
      ASSERT_EQ(Hits[K].load(), 1) << "rep " << Rep << " cell " << K;
  }
  // The same nest through the kernel-facing function table and the
  // process-wide pool, counting both levels of regions.
  TestCtx C;
  std::atomic<int64_t> Sum{0};
  rt::parallelFor(&C.Ctx, 0, 8, [&](int64_t I) {
    rt::parallelFor(&C.Ctx, 0, 8, [&](int64_t J) { Sum += I * 8 + J; });
  });
  EXPECT_EQ(Sum.load(), 64 * 63 / 2);
  EXPECT_EQ(C.Stats.parallel_fors, 9u);
  EXPECT_EQ(C.Stats.parallel_iters, 72u);
}

TEST(RuntimeTest, ThreadCountFromEnvClamps) {
  EXPECT_EQ(rt::threadCountFromEnv(nullptr, 8), 8);
  EXPECT_EQ(rt::threadCountFromEnv("", 8), 8);
  EXPECT_EQ(rt::threadCountFromEnv("4", 8), 4);
  EXPECT_EQ(rt::threadCountFromEnv("0", 8), 1);
  EXPECT_EQ(rt::threadCountFromEnv("-3", 8), 1);
  EXPECT_EQ(rt::threadCountFromEnv("300", 8), 256);
  EXPECT_EQ(rt::threadCountFromEnv("99999999999999999999", 8), 256);
  EXPECT_EQ(rt::threadCountFromEnv("abc", 8), 8);
  EXPECT_EQ(rt::threadCountFromEnv("4x", 8), 8);
  EXPECT_EQ(rt::threadCountFromEnv(nullptr, 0), 1);
}

TEST(RuntimeTest, AtomicReductions) {
  TestCtx C;
  float Acc = 0;
  rt::parallelFor(&C.Ctx, 0, 500, [&](int64_t) { rt::atomicAdd(&Acc, 1.0f); });
  EXPECT_FLOAT_EQ(Acc, 500.0f);

  float Mx = -1e30f, Mn = 1e30f;
  rt::parallelFor(&C.Ctx, 0, 100, [&](int64_t I) {
    rt::atomicMax(&Mx, float(I));
    rt::atomicMin(&Mn, float(I));
  });
  EXPECT_FLOAT_EQ(Mx, 99.0f);
  EXPECT_FLOAT_EQ(Mn, 0.0f);

  double Prod = 1.0;
  for (int I = 0; I < 10; ++I)
    rt::atomicMul(&Prod, 2.0);
  EXPECT_DOUBLE_EQ(Prod, 1024.0);
}

TEST(RuntimeTest, HeapAccountsOnlyProfiledCalls) {
  TestCtx C;
  auto *P = static_cast<float *>(C.Ctx.api->alloc(&C.Ctx, 64));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P[I], 0.0f); // zeroed, like the std::vector it replaced
  C.Ctx.api->free(&C.Ctx, P, 64);
  EXPECT_EQ(C.Stats.alloc_count, 0u);

  rt::ProfileEntry Slots[1] = {};
  C.Ctx.prof = Slots;
  {
    rt::Heap<double> A(&C.Ctx, 10), B(&C.Ctx, 20);
    EXPECT_EQ(C.Stats.current_bytes, 240u);
  }
  EXPECT_EQ(C.Stats.current_bytes, 0u);
  EXPECT_EQ(C.Stats.peak_bytes, 240u);
  EXPECT_EQ(C.Stats.total_alloc_bytes, 240u);
  EXPECT_EQ(C.Stats.alloc_count, 2u);
}

TEST(RuntimeTest, FloorDivModMatchPython) {
  EXPECT_EQ(rt::floorDiv(7, 2), 3);
  EXPECT_EQ(rt::floorDiv(-7, 2), -4);
  EXPECT_EQ(rt::floorDiv(7, -2), -4);
  EXPECT_EQ(rt::floorMod(-7, 2), 1);
  EXPECT_EQ(rt::floorMod(7, -2), -1);
  EXPECT_EQ(rt::floorMod(-6, 3), 0);
}

template <typename A, typename B> bool sameBits(A X, B Y) {
  static_assert(std::is_same_v<A, B>, "result types differ from <cmath>");
  return std::memcmp(&X, &Y, sizeof(A)) == 0;
}

TEST(RuntimeTest, MathMatchesTheStandardLibrary) {
  // Kernels used to call <cmath> and <algorithm>; the prelude's versions
  // must give the same result types and the same bits.
  for (float X : {0.0f, 0.3f, 1.0f, 2.5f, 17.0f, -0.0f, INFINITY, NAN}) {
    EXPECT_TRUE(sameBits(rt::sqrt(X), std::sqrt(X))) << X;
    EXPECT_TRUE(sameBits(rt::exp(X), std::exp(X))) << X;
    EXPECT_TRUE(sameBits(rt::log(X), std::log(X))) << X;
    EXPECT_TRUE(sameBits(rt::tanh(-X), std::tanh(-X))) << X;
    EXPECT_TRUE(sameBits(rt::abs(-X), std::abs(-X))) << X;
    EXPECT_TRUE(sameBits(rt::min<float>(X, 1.0f), std::min<float>(X, 1.0f)));
    EXPECT_TRUE(sameBits(rt::max<float>(1.0f, X), std::max<float>(1.0f, X)));
    double D = X;
    EXPECT_TRUE(sameBits(rt::sqrt(D), std::sqrt(D))) << D;
    EXPECT_TRUE(sameBits(rt::exp(D), std::exp(D))) << D;
    EXPECT_TRUE(sameBits(rt::log(D), std::log(D))) << D;
    EXPECT_TRUE(sameBits(rt::abs(-D), std::abs(-D))) << D;
  }
  for (int64_t I : {int64_t(-9), int64_t(0), int64_t(7)}) {
    EXPECT_TRUE(sameBits(rt::abs(I), std::abs(I)));
    EXPECT_TRUE(sameBits(rt::exp(I), std::exp(I)));
    EXPECT_TRUE(sameBits(rt::tanh(int32_t(I)), std::tanh(int32_t(I))));
    EXPECT_TRUE(sameBits(rt::sqrt(I * I), std::sqrt(I * I)));
    EXPECT_TRUE(sameBits(rt::min<int64_t>(I, 3), std::min<int64_t>(I, 3)));
  }
  EXPECT_TRUE(sameBits(rt::sqrt(true), std::sqrt(true)));
}

TEST(RuntimeTest, GemmAllTransposeCombinations) {
  // A = [[1,2,3],[4,5,6]] (2x3), B = [[1,0],[0,1],[1,1]] (3x2).
  std::vector<float> A{1, 2, 3, 4, 5, 6};
  std::vector<float> B{1, 0, 0, 1, 1, 1};
  std::vector<float> AT{1, 4, 2, 5, 3, 6}; // 3x2
  std::vector<float> BT{1, 0, 1, 0, 1, 1}; // 2x3
  std::vector<float> Want{4, 5, 10, 11};   // A @ B

  TestCtx Ctx;
  for (int Mode = 0; Mode < 4; ++Mode) {
    bool TA = Mode & 1, TB = Mode & 2;
    std::vector<float> C(4, 0.0f);
    rt::gemm<float>(&Ctx.Ctx, TA, TB, 2, 2, 3, (TA ? AT : A).data(),
                    (TB ? BT : B).data(), C.data());
    for (int I = 0; I < 4; ++I)
      EXPECT_FLOAT_EQ(C[I], Want[I]) << "mode " << Mode << " elt " << I;
  }
  EXPECT_EQ(Ctx.Stats.gemm_calls, 4u);
}

TEST(RuntimeTest, GemmAccumulates) {
  std::vector<float> A{1, 0, 0, 1}, B{2, 0, 0, 2};
  std::vector<float> C{5, 5, 5, 5};
  TestCtx Ctx;
  rt::gemm<float>(&Ctx.Ctx, false, false, 2, 2, 2, A.data(), B.data(),
                  C.data());
  EXPECT_FLOAT_EQ(C[0], 7);
  EXPECT_FLOAT_EQ(C[1], 5);
}

TEST(RuntimeTest, GemmLargerThanTile) {
  // Exercise the blocking path (Tile = 48).
  const int64_t N = 70;
  std::vector<float> A(N * N), B(N * N), C(N * N, 0.0f);
  for (int64_t I = 0; I < N * N; ++I) {
    A[I] = float((I * 7) % 5) - 2;
    B[I] = float((I * 3) % 7) - 3;
  }
  TestCtx Ctx;
  rt::gemm<float>(&Ctx.Ctx, false, false, N, N, N, A.data(), B.data(),
                  C.data());
  // Spot-check a few entries against a direct computation.
  for (int64_t I : {int64_t(0), int64_t(33), N - 1})
    for (int64_t J : {int64_t(0), int64_t(47), N - 1}) {
      float Want = 0;
      for (int64_t K = 0; K < N; ++K)
        Want += A[I * N + K] * B[K * N + J];
      EXPECT_FLOAT_EQ(C[I * N + J], Want) << I << "," << J;
    }
}

TEST(RuntimeTest, Sigmoid) {
  EXPECT_NEAR(rt::sigmoid(0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(rt::sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(rt::sigmoid(-100.0f), 0.0f, 1e-6);
}

//===--------------------------------------------------------------------===//
// Support utilities.
//===--------------------------------------------------------------------===//

TEST(SupportTest, StatusAndResult) {
  Status Ok;
  EXPECT_TRUE(Ok.ok());
  EXPECT_TRUE(static_cast<bool>(Ok));
  Status Err = Status::error("boom");
  EXPECT_FALSE(Err.ok());
  EXPECT_EQ(Err.message(), "boom");

  Result<int> R(42);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 42);
  Result<int> E = Result<int>::error("nope");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "nope");
  EXPECT_FALSE(E.status().ok());
}

TEST(SupportTest, StringUtils) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(fmtDouble(1.5), "1.5");
  EXPECT_EQ(fmtDouble(-std::numeric_limits<double>::infinity()),
            "(-INFINITY)");
  EXPECT_EQ(fmtDouble(std::numeric_limits<double>::infinity()), "INFINITY");

  std::set<std::string> Used{"x", "x.1"};
  auto IsUsed = [&](const std::string &N) { return Used.count(N) > 0; };
  EXPECT_EQ(freshName("y", IsUsed), "y");
  EXPECT_EQ(freshName("x", IsUsed), "x.2");
}

} // namespace
