//===- tests/concurrency_test.cpp - Cross-layer thread-safety -------------===//
//
// The thread-safety guarantees the serving runtime leans on, tested at the
// layer that provides each one:
//
//   - metrics:: counters are relaxed atomics: concurrent increments from
//     many threads lose nothing, and concurrent first-use registration of
//     the same / different names is safe;
//   - the kernel cache's in-process LRU survives a concurrent
//     lookup/insert/evict storm (same and distinct keys, tiny capacity)
//     with its bound intact and every handle it returns still runnable;
//   - N threads compiling the same program concurrently all succeed and
//     agree bit-for-bit (first-writer-wins insert, shared handles);
//   - two kernels executing concurrently on the process-wide pool under
//     Kernel::setMaxThreads caps still produce exact profile counts and
//     correct outputs;
//   - kernels are re-entrant: one kernel, plain and profiled, run from 8
//     threads at once with no lock gives the interpreter's outputs and
//     exact counters;
//   - parallel loops nested in parallel loops run to completion and match
//     the interpreter.
//
// tests/CMakeLists.txt runs this binary with FT_NUM_THREADS=4.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "codegen/profile.h"
#include "frontend/builder.h"
#include "interp/interp.h"
#include "schedule/schedule.h"
#include "support/metrics.h"

using namespace ft;

namespace {

Func makeAxpy(double Scale, const std::string &Prefix = "") {
  FunctionBuilder B(Prefix + "axpy");
  View X = B.input(Prefix + "x", {makeIntConst(256)});
  View Y = B.output(Prefix + "y", {makeIntConst(256)});
  B.loop(Prefix + "i", 0, 256, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(Scale) + makeFloatConst(1.0));
  });
  return B.build();
}

std::vector<float> runOnce(const Kernel &K, const Func &F) {
  Buffer X(DataType::Float32, {256}), Y(DataType::Float32, {256});
  for (int64_t I = 0; I < X.numel(); ++I)
    X.setF(I, std::sin(0.37 * double(I)));
  std::map<std::string, Buffer *> Args = {{F.Params[0], &X},
                                          {F.Params[1], &Y}};
  Status S = K.run(Args);
  EXPECT_TRUE(S.ok()) << S.message();
  return std::vector<float>(Y.as<float>(), Y.as<float>() + Y.numel());
}

class ConcurrencyTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftconc.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    kernel_cache::memReset();
  }
  void TearDown() override {
    ::unsetenv("FT_CACHE_DIR");
    ::unsetenv("FT_CACHE");
    kernel_cache::memReset();
    std::system(("rm -rf '" + Dir + "'").c_str());
  }
  std::string Dir;
};

} // namespace

//===--------------------------------------------------------------------===//
// Metrics counters under contention.
//===--------------------------------------------------------------------===//

TEST(MetricsConcurrencyTest, ConcurrentIncrementsAreExact) {
  metrics::Counter &C = metrics::counter("test/concurrent_adds");
  const uint64_t Before = C.load();

  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 100000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([] {
      // Resolve inside the thread: registration itself must be racy-safe.
      metrics::Counter &Mine = metrics::counter("test/concurrent_adds");
      for (uint64_t I = 0; I < kAdds; ++I)
        Mine.fetch_add(1);
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(C.load() - Before, kThreads * kAdds);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsStableRefs) {
  constexpr int kThreads = 8;
  std::vector<metrics::Counter *> Seen(kThreads, nullptr);
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &Seen] {
      // Everyone races to create a mix of names; the shared one must
      // resolve to a single instance for all threads.
      metrics::counter("test/reg_private_" + std::to_string(T)).fetch_add(1);
      Seen[T] = &metrics::counter("test/reg_shared");
      Seen[T]->fetch_add(1);
    });
  for (std::thread &T : Ts)
    T.join();

  for (int T = 1; T < kThreads; ++T)
    EXPECT_EQ(Seen[T], Seen[0]);
  EXPECT_GE(metrics::counter("test/reg_shared").load(), (uint64_t)kThreads);
}

//===--------------------------------------------------------------------===//
// Kernel-cache memory tier under a lookup/insert/evict storm.
//===--------------------------------------------------------------------===//

TEST_F(ConcurrencyTest, MemTierSurvivesConcurrentStorm) {
  // A few real kernels to shuffle through the LRU; handles are copyable,
  // so many logical keys can share one loaded library.
  std::vector<Kernel> Kernels;
  Func F = makeAxpy(3.0);
  std::vector<float> Want;
  for (double Scale : {3.0, 4.0, 5.0}) {
    auto K = Kernel::compile(makeAxpy(Scale), "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    Kernels.push_back(*K);
    if (Scale == 3.0)
      Want = runOnce(*K, F);
  }

  constexpr size_t kCap = 8;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr uint64_t kKeySpace = 32; // 4x the capacity => constant eviction
  std::atomic<bool> Failed{false};

  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &Kernels, &Failed] {
      uint64_t S = 0x9e3779b9u * (T + 1);
      for (int I = 0; I < kIters && !Failed.load(); ++I) {
        S ^= S << 13;
        S ^= S >> 7;
        S ^= S << 17;
        uint64_t Key = S % kKeySpace;
        switch (S % 4) {
        case 0:
        case 1: // lookups dominate, as in real serving
          (void)kernel_cache::memLookup(Key);
          break;
        case 2:
          kernel_cache::memInsert(Key, Kernels[Key % Kernels.size()], kCap);
          break;
        default:
          if (kernel_cache::memSize() > kCap)
            Failed.store(true);
          break;
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_FALSE(Failed.load()) << "LRU bound violated under concurrency";
  EXPECT_LE(kernel_cache::memSize(), kCap);

  // Any handle still resident must be runnable (no use-after-eviction).
  for (uint64_t Key = 0; Key < kKeySpace; ++Key)
    if (std::optional<Kernel> K = kernel_cache::memLookup(Key))
      if (Key % Kernels.size() == 0) {
        std::vector<float> Got = runOnce(*K, F);
        EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                                 Want.size() * sizeof(float)));
        break;
      }
}

TEST_F(ConcurrencyTest, ConcurrentCompilesOfSameProgramAgree) {
  Func F = makeAxpy(6.0);
  constexpr int kThreads = 4;
  std::vector<std::optional<Kernel>> Ks(kThreads);
  std::vector<std::string> Errs(kThreads);

  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &F, &Ks, &Errs] {
      auto R = Kernel::compile(F, "-O1");
      if (R.ok())
        Ks[T] = *R;
      else
        Errs[T] = R.message();
    });
  for (std::thread &T : Ts)
    T.join();

  std::vector<float> Want;
  for (int T = 0; T < kThreads; ++T) {
    ASSERT_TRUE(Ks[T].has_value()) << Errs[T];
    std::vector<float> Got = runOnce(*Ks[T], F);
    if (T == 0)
      Want = Got;
    else
      EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                               Want.size() * sizeof(float)));
  }
  // Exactly one resident entry for the shared program afterwards.
  EXPECT_LE(kernel_cache::memSize(), 1u);
}

//===--------------------------------------------------------------------===//
// Two concurrent kernels under a host thread budget (oversubscription fix).
//===--------------------------------------------------------------------===//

TEST_F(ConcurrencyTest, TwoCappedProfiledKernelsKeepExactCounts) {
  // The pool has 4 threads; the host caps each kernel at 2 so the pair
  // stays within a 4-thread budget.
  const int64_t N = 4096;
  struct Ctx {
    Func F;
    int64_t LoopId = 0;
    std::optional<Kernel> K;
  };
  std::vector<Ctx> Cs(2);
  for (int Idx = 0; Idx < 2; ++Idx) {
    FunctionBuilder B("cap" + std::to_string(Idx));
    View A = B.input("a", {makeIntConst(N)});
    View Y = B.output("y", {makeIntConst(N)});
    int64_t L = B.loop(
        "i", 0, N,
        [&](Expr I) {
          Y[I].assign(A[I].load() * makeFloatConst(2.0 + Idx) +
                      makeFloatConst(1.0));
        },
        "rows");
    Cs[Idx].F = B.build();
    Cs[Idx].LoopId = L;

    Schedule S(Cs[Idx].F);
    ASSERT_TRUE(S.parallelize(L).ok());
    CodegenOptions Opts;
    Opts.Profile = true;
    auto K = Kernel::compile(S.func(), Opts, "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    // The serving executor applies the same cap to every kernel it loads.
    EXPECT_TRUE(K->setMaxThreads(2));
    Cs[Idx].K = *K;
  }

  const uint64_t Runs = 20;
  std::vector<std::thread> Ts;
  for (int Idx = 0; Idx < 2; ++Idx)
    Ts.emplace_back([&, Idx] {
      Buffer A(DataType::Float32, {N}), Y(DataType::Float32, {N});
      for (int64_t I = 0; I < N; ++I)
        A.setF(I, float(I) * 0.25f);
      std::map<std::string, Buffer *> Args = {{"a", &A}, {"y", &Y}};
      for (uint64_t R = 0; R < Runs; ++R)
        ASSERT_TRUE(Cs[Idx].K->run(Args).ok());
      for (int64_t I = 0; I < N; ++I)
        ASSERT_NEAR(Y.as<float>()[I],
                    float(I) * 0.25f * float(2.0 + Idx) + 1.0f, 1e-4);
    });
  for (std::thread &T : Ts)
    T.join();

  // Both kernels ran concurrently, each capped; the per-chunk profile
  // slots and the rt counters must still be exact per kernel.
  for (int Idx = 0; Idx < 2; ++Idx) {
    profile::KernelProfile Prof = Cs[Idx].K->profileNow();
    const profile::LoopSample *Loop = Prof.sample(Cs[Idx].LoopId);
    ASSERT_NE(Loop, nullptr);
    EXPECT_EQ(Loop->Calls, Runs);
    EXPECT_EQ(Loop->Iters, Runs * uint64_t(N));

    KernelRtStats St = Cs[Idx].K->rtStats();
    ASSERT_TRUE(St.Valid);
    EXPECT_EQ(St.Invocations, Runs);
    EXPECT_EQ(St.ParallelFors, Runs);
    EXPECT_EQ(St.ParallelIters, Runs * uint64_t(N));
  }
}

TEST_F(ConcurrencyTest, SetMaxThreadsToOneStillComputesCorrectly) {
  Func F = makeAxpy(2.0);
  Schedule S(F);
  // makeAxpy's single loop is the only one; find and parallelize it.
  int64_t LoopId = -1;
  std::function<void(const Stmt &)> Find = [&](const Stmt &St) {
    if (auto L = dyn_cast<ForNode>(St)) {
      LoopId = L->Id;
      return;
    }
    if (auto Seq = dyn_cast<StmtSeqNode>(St))
      for (const Stmt &Sub : Seq->Stmts)
        Find(Sub);
    if (auto D = dyn_cast<VarDefNode>(St))
      Find(D->Body);
  };
  Find(F.Body);
  ASSERT_GE(LoopId, 0);
  ASSERT_TRUE(S.parallelize(LoopId).ok());

  auto K = Kernel::compile(S.func(), CodegenOptions{}, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();
  ASSERT_TRUE(K->setMaxThreads(1)); // degenerate cap: serial execution

  std::vector<float> Got = runOnce(*K, F);
  for (int64_t I = 0; I < 256; ++I)
    EXPECT_NEAR(Got[size_t(I)], std::sin(0.37 * double(I)) * 2.0 + 1.0, 1e-5);
}

//===--------------------------------------------------------------------===//
// Re-entrant kernels and nested parallel loops on the process-wide pool.
//===--------------------------------------------------------------------===//

namespace {

constexpr int64_t kRows = 64, kCols = 48;

/// y[i, j] = a[i, j] * 3 + i - j over a kRows x kCols nest; \p Outer and
/// \p Inner receive the loop ids.
Func makeNest(const std::string &Name, int64_t &Outer, int64_t &Inner) {
  FunctionBuilder B(Name);
  View A = B.input("a", {makeIntConst(kRows), makeIntConst(kCols)});
  View Y = B.output("y", {makeIntConst(kRows), makeIntConst(kCols)});
  Outer = B.loop(
      "i", 0, kRows,
      [&](Expr I) {
        Inner = B.loop(
            "j", 0, kCols,
            [&](Expr J) {
              Y[I][J].assign(A[I][J].load() * makeFloatConst(3.0) +
                             makeCast(DataType::Float32, I - J));
            },
            "cols");
      },
      "rows");
  return B.build();
}

/// Runs \p K (or, when null, the interpreter) on inputs drawn from
/// \p Phase and returns y.
std::vector<float> runNest(const Kernel *K, const Func &F, double Phase) {
  Buffer A(DataType::Float32, {kRows, kCols}), Y(DataType::Float32,
                                                 {kRows, kCols});
  for (int64_t I = 0; I < A.numel(); ++I)
    A.setF(I, std::sin(Phase * double(I + 1)));
  std::map<std::string, Buffer *> Args = {{"a", &A}, {"y", &Y}};
  if (K) {
    Status S = K->run(Args);
    EXPECT_TRUE(S.ok()) << S.message();
  } else {
    interpret(F, Args);
  }
  return std::vector<float>(Y.as<float>(), Y.as<float>() + Y.numel());
}

/// The interpreter computes in double, the kernel in float.
bool closeTo(const std::vector<float> &Got, const std::vector<float> &Want) {
  for (size_t I = 0; I < Want.size(); ++I)
    if (std::fabs(Got[I] - Want[I]) > 1e-4f * (1 + std::fabs(Want[I])))
      return false;
  return Got.size() == Want.size();
}

} // namespace

TEST_F(ConcurrencyTest, NestedParallelLoopsMatchInterpreter) {
  // parallelize accepts a loop nested in a parallel loop; the inner
  // regions then start while every pool thread is busy with an outer
  // chunk, which used to deadlock at 4 threads.
  int64_t Outer = -1, Inner = -1;
  Func F = makeNest("nestpar", Outer, Inner);
  Schedule S(F);
  ASSERT_TRUE(S.parallelize(Outer).ok());
  ASSERT_TRUE(S.parallelize(Inner).ok());
  const std::vector<float> Want = runNest(nullptr, S.func(), 0.7);

  for (bool Profiled : {false, true}) {
    CodegenOptions Opts;
    Opts.Profile = Profiled;
    auto K = Kernel::compile(S.func(), Opts, "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    constexpr uint64_t Runs = 20;
    for (uint64_t R = 0; R < Runs; ++R)
      ASSERT_TRUE(closeTo(runNest(&*K, S.func(), 0.7), Want)) << "run " << R;
    KernelRtStats St = K->rtStats();
    EXPECT_EQ(St.ParallelFors, Runs * (1 + kRows));
    EXPECT_EQ(St.ParallelIters, Runs * (kRows + kRows * kCols));
    if (Profiled) {
      profile::KernelProfile P = K->profileNow();
      ASSERT_NE(P.sample(Inner), nullptr);
      EXPECT_EQ(P.sample(Outer)->Iters, Runs * kRows);
      EXPECT_EQ(P.sample(Inner)->Calls, Runs * kRows);
      EXPECT_EQ(P.sample(Inner)->Iters, Runs * kRows * kCols);
    }
  }
}

TEST_F(ConcurrencyTest, OneKernelRunsFromEightThreadsAtOnce) {
  // No lock around Kernel::run: every call gets its own context, and the
  // shared counters are exact.
  int64_t Outer = -1, Inner = -1;
  Func F = makeNest("reentrant", Outer, Inner);
  Schedule S(F);
  ASSERT_TRUE(S.parallelize(Outer).ok());
  constexpr int kThreads = 8;
  constexpr uint64_t Runs = 25;
  std::vector<std::vector<float>> Want;
  for (int T = 0; T < kThreads; ++T)
    Want.push_back(runNest(nullptr, S.func(), 0.1 * (T + 1)));

  for (bool Profiled : {false, true}) {
    CodegenOptions Opts;
    Opts.Profile = Profiled;
    auto K = Kernel::compile(S.func(), Opts, "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    metrics::Counter &Invocations = metrics::counter("rt/kernel_invocations");
    const uint64_t Invocations0 = Invocations.load();
    std::atomic<int> Mismatches{0};
    std::vector<std::thread> Ts;
    for (int T = 0; T < kThreads; ++T)
      Ts.emplace_back([&, T] {
        for (uint64_t R = 0; R < Runs; ++R)
          if (!closeTo(runNest(&*K, S.func(), 0.1 * (T + 1)), Want[T]))
            ++Mismatches;
      });
    for (std::thread &T : Ts)
      T.join();
    EXPECT_EQ(Mismatches.load(), 0) << "profiled=" << Profiled;

    const uint64_t Calls = kThreads * Runs;
    EXPECT_EQ(Invocations.load() - Invocations0, Calls);
    KernelRtStats St = K->rtStats();
    EXPECT_EQ(St.Invocations, Calls);
    EXPECT_EQ(St.ParallelFors, Calls);
    EXPECT_EQ(St.ParallelIters, Calls * kRows);
    if (Profiled) {
      profile::KernelProfile P = K->profileNow();
      ASSERT_NE(P.sample(Inner), nullptr);
      EXPECT_EQ(P.sample(-1)->Calls, Calls);
      EXPECT_EQ(P.sample(Outer)->Calls, Calls);
      EXPECT_EQ(P.sample(Outer)->Iters, Calls * kRows);
      EXPECT_EQ(P.sample(Inner)->Calls, Calls * kRows);
      EXPECT_EQ(P.sample(Inner)->Iters, Calls * kRows * kCols);
    }
  }
}

//===----------------------------------------------------------------------===//
// Histogram record path under contention (telemetry-plane PR): the
// wait-free record() loses nothing — counts, sums, and bucket totals are
// exact across racing threads, and min/max converge to the true extremes.
//===----------------------------------------------------------------------===//

TEST_F(ConcurrencyTest, HistogramConcurrentRecordsAreExact) {
  metrics::Histogram &H = metrics::histogram("test/conc_hist");
  H.reset();

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &H] {
      // Thread T records values T*1000 .. T*1000+kPerThread-1: every
      // thread hits a distinct range, together spanning many buckets.
      for (uint64_t I = 0; I < kPerThread; ++I)
        H.record(uint64_t(T) * 1000 + I);
    });
  for (std::thread &T : Ts)
    T.join();

  metrics::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, uint64_t(kThreads) * kPerThread);

  uint64_t WantSum = 0, BucketSum = 0;
  for (int T = 0; T < kThreads; ++T)
    for (uint64_t I = 0; I < kPerThread; ++I)
      WantSum += uint64_t(T) * 1000 + I;
  EXPECT_EQ(S.Sum, WantSum);
  for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
    BucketSum += S.Buckets[I];
  EXPECT_EQ(BucketSum, S.Count);
  EXPECT_EQ(S.Min, 0u);
  EXPECT_EQ(S.Max, uint64_t(kThreads - 1) * 1000 + kPerThread - 1);
  H.reset();
}
