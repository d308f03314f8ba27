//===- tests/serve_test.cpp - Tiered kernel-serving runtime ---------------===//
//
// The serving executor (serve/serve.h) end to end:
//   - tier promotion: the first request of a fingerprint is answered by the
//     interpreter, and once the background compile lands requests are served
//     by the JIT'd kernel;
//   - in-flight compile dedup: N concurrent cold submissions of the same
//     program start exactly one compile;
//   - a warm kernel cache makes the very first request JIT-tier (no compile);
//   - queue-full backpressure: reject policy returns a typed error, block
//     policy completes everything;
//   - the request queue hands each push to exactly one consumer, also when
//     consumers keep going idle, and close() releases the idle ones;
//   - shutdown with pending work completes every accepted request;
//   - a failing background compile pins the fingerprint to the interpreter
//     (degraded, not broken) and is counted;
//   - micro-batched execution produces the same outputs as the reference
//     interpreter (differential check);
//   - requests of one fingerprint run on both workers at once and are
//     answered correctly;
//   - a bad argument binding fails that one request, not the executor.
//
// All tests run against a fresh private kernel-cache directory so background
// compiles never hit artifacts from other tests or earlier runs.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <gtest/gtest.h>
#include <set>
#include <thread>
#include <unistd.h>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "frontend/builder.h"
#include "interp/interp.h"
#include "serve/queue.h"
#include "serve/serve.h"
#include "serve/telemetry.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;
using namespace ft::serve;

namespace {

constexpr int64_t kN = 256;

/// An elementwise kernel whose constant \p Scale makes distinct programs.
Func makeAxpy(double Scale) {
  FunctionBuilder B("saxpy");
  View X = B.input("x", {makeIntConst(kN)});
  View Y = B.output("y", {makeIntConst(kN)});
  B.loop("i", 0, kN, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(Scale) + makeFloatConst(1.0));
  });
  return B.build();
}

/// A kernel the interpreter takes visibly long on (~260k statement visits
/// over kN x kN): used to keep a worker busy while the test piles up queued
/// requests. Parameter shapes match Slot's kN buffers.
Func makeSlow() {
  FunctionBuilder B("slowsum");
  View X = B.input("x", {makeIntConst(kN)});
  View Y = B.output("y", {makeIntConst(kN)});
  B.loop("i", 0, kN, [&](Expr I) {
    B.loop("j", 0, kN, [&](Expr J) { Y[I] += X[J].load(); });
  });
  return B.build();
}

void seed(Buffer &B, double Phase = 0.37) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, std::sin(Phase * double(I)));
}

void zero(Buffer &B) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, 0.0);
}

/// One request's argument set, kept alive until its future resolves.
struct Slot {
  Buffer X{DataType::Float32, {kN}};
  Buffer Y{DataType::Float32, {kN}};
  std::future<Response> Fut;

  std::map<std::string, Buffer *> args(const Func &F) {
    return {{F.Params[0], &X}, {F.Params[1], &Y}};
  }
};

/// Fresh private cache dir + clean memory tier per test, and no FT_SERVE_*
/// leakage between tests.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftserve.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    for (const char *V :
         {"FT_SERVE_THREADS", "FT_SERVE_QUEUE_CAP", "FT_SERVE_ON_FULL",
          "FT_SERVE_MAX_BATCH", "FT_SERVE_OPT_FLAGS", "FT_SERVE_RT_THREADS",
          "FT_TELEMETRY_DIR", "FT_TELEMETRY_INTERVAL_MS", "FT_TELEMETRY_KEEP",
          "FT_FLIGHT_CAP"})
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

TEST_F(ServeTest, TierPromotionInterpThenJit) {
  Func F = makeAxpy(3.0);
  Executor Ex;

  // Cold: nothing compiled, nothing cached — the interpreter answers
  // immediately instead of making the request wait on the host compiler.
  Slot S0;
  seed(S0.X);
  auto R0 = Ex.submit(F, S0.args(F));
  ASSERT_TRUE(R0.ok()) << R0.message();
  S0.Fut = std::move(*R0);
  Response Resp0 = S0.Fut.get();
  ASSERT_TRUE(Resp0.S.ok()) << Resp0.S.message();
  EXPECT_EQ(Resp0.ServedBy, Tier::Interp);

  // drain() also waits for the background compile to land.
  Ex.drain();
  ServeStats Mid = Ex.stats();
  EXPECT_EQ(Mid.CompilesStarted, 1u);
  EXPECT_EQ(Mid.CompilesFailed, 0u);
  EXPECT_EQ(Mid.InterpServed, 1u);

  // Warm: the same program is now served by the compiled kernel, and the
  // two tiers agree on the numbers.
  Slot S1;
  seed(S1.X);
  auto R1 = Ex.submit(F, S1.args(F));
  ASSERT_TRUE(R1.ok()) << R1.message();
  Response Resp1 = R1->get();
  ASSERT_TRUE(Resp1.S.ok()) << Resp1.S.message();
  EXPECT_EQ(Resp1.ServedBy, Tier::Jit);
  for (int64_t It = 0; It < kN; ++It)
    EXPECT_FLOAT_EQ(S0.Y.as<float>()[It], S1.Y.as<float>()[It]);

  EXPECT_EQ(Ex.stats().JitServed, 1u);
  EXPECT_EQ(Ex.directorySize(), 1u);
}

TEST_F(ServeTest, ConcurrentColdMissesStartOneCompile) {
  Func F = makeAxpy(4.0);
  Config C;
  C.Threads = 4;
  C.MaxBatch = 1; // isolate the dedup mechanism from batching
  Executor Ex(C);

  constexpr int kReqs = 16;
  std::vector<Slot> Slots(kReqs);
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(F, S.args(F));
    ASSERT_TRUE(R.ok()) << R.message();
    S.Fut = std::move(*R);
  }
  for (Slot &S : Slots) {
    Response Resp = S.Fut.get();
    EXPECT_TRUE(Resp.S.ok()) << Resp.S.message();
  }
  Ex.drain();

  ServeStats St = Ex.stats();
  // The load-bearing assertion: 16 racing cold submissions, ONE compile.
  EXPECT_EQ(St.CompilesStarted, 1u);
  EXPECT_EQ(St.Submitted, static_cast<uint64_t>(kReqs));
  EXPECT_EQ(St.InterpServed + St.JitServed, static_cast<uint64_t>(kReqs));
  EXPECT_EQ(Ex.directorySize(), 1u);
}

TEST_F(ServeTest, WarmKernelCacheServesJitFromTheFirstRequest) {
  Func F = makeAxpy(5.0);
  // Populate the kernel cache out of band, with the executor's own options
  // (CodegenOptions{} + Config::OptFlags) so the keys line up.
  Config C;
  auto Pre = Kernel::compile(F, CodegenOptions{}, C.OptFlags);
  ASSERT_TRUE(Pre.ok()) << Pre.message();

  Executor Ex(C);
  Slot S;
  seed(S.X);
  auto R = Ex.submit(F, S.args(F));
  ASSERT_TRUE(R.ok()) << R.message();
  Response Resp = R->get();
  ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
  EXPECT_EQ(Resp.ServedBy, Tier::Jit);

  ServeStats St = Ex.stats();
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(St.CompilesStarted, 0u); // the host compiler never ran here
  EXPECT_EQ(St.InterpServed, 0u);
}

TEST_F(ServeTest, QueueFullRejectsWithTypedError) {
  Func F = makeSlow();
  Config C;
  C.Threads = 1;
  C.QueueCap = 2;
  C.MaxBatch = 1;
  C.BlockOnFull = false;
  Executor Ex(C);

  // First request occupies the single worker for ~10^6 interpreted
  // statements; everything after lands in (and then overflows) the queue.
  std::vector<Slot> Slots(8);
  int Accepted = 0, Rejected = 0;
  std::string RejectMsg;
  for (Slot &S : Slots) {
    seed(S.X);
    zero(S.Y);
    auto R = Ex.submit(F, S.args(F));
    if (R.ok()) {
      S.Fut = std::move(*R);
      ++Accepted;
    } else {
      RejectMsg = R.message();
      ++Rejected;
    }
  }
  EXPECT_GE(Rejected, 1);
  EXPECT_NE(RejectMsg.find("queue full"), std::string::npos) << RejectMsg;
  // Every accepted request still completes.
  for (Slot &S : Slots)
    if (S.Fut.valid()) {
      Response Resp = S.Fut.get();
      EXPECT_TRUE(Resp.S.ok()) << Resp.S.message();
    }

  ServeStats St = Ex.stats();
  EXPECT_EQ(St.Rejected, static_cast<uint64_t>(Rejected));
  EXPECT_EQ(St.Submitted, static_cast<uint64_t>(Accepted));
}

TEST_F(ServeTest, QueueHandsEachPushToOneConsumerAndCloseWakesTheRest) {
  // The producer pauses every 16 pushes, so consumers keep going idle and
  // pushes keep landing on blocked ones: every element must reach exactly
  // one consumer, and close() must release those still waiting.
  BoundedQueue<int> Q(8);
  constexpr int kItems = 2000, kConsumers = 4;
  std::atomic<int64_t> Sum{0};
  std::atomic<int> Count{0};
  std::vector<std::thread> Consumers;
  for (int C = 0; C < kConsumers; ++C)
    Consumers.emplace_back([&] {
      while (std::optional<int> V = Q.popWait()) {
        Sum += *V;
        ++Count;
      }
    });
  for (int I = 1; I <= kItems; ++I) {
    EXPECT_EQ(Q.pushWait(I), PushResult::Ok);
    if (I % 16 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  while (Count.load() < kItems)
    std::this_thread::yield();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();
  EXPECT_EQ(Count.load(), kItems);
  EXPECT_EQ(Sum.load(), int64_t(kItems) * (kItems + 1) / 2);
  EXPECT_EQ(Q.pushWait(1), PushResult::Closed);
  EXPECT_FALSE(Q.popWait().has_value());
}

TEST_F(ServeTest, BlockPolicyCompletesEverything) {
  Func F = makeSlow();
  Config C;
  C.Threads = 1;
  C.QueueCap = 1;
  C.MaxBatch = 1;
  C.BlockOnFull = true;
  Executor Ex(C);

  std::vector<Slot> Slots(6);
  for (Slot &S : Slots) {
    seed(S.X);
    zero(S.Y);
    auto R = Ex.submit(F, S.args(F)); // blocks instead of rejecting
    ASSERT_TRUE(R.ok()) << R.message();
    S.Fut = std::move(*R);
  }
  for (Slot &S : Slots) {
    Response Resp = S.Fut.get();
    EXPECT_TRUE(Resp.S.ok()) << Resp.S.message();
  }
  ServeStats St = Ex.stats();
  EXPECT_EQ(St.Rejected, 0u);
  EXPECT_EQ(St.Submitted, 6u);
}

TEST_F(ServeTest, ShutdownCompletesPendingThenRejects) {
  Func F = makeAxpy(6.0);
  Config C;
  C.Threads = 2;
  Executor Ex(C);

  constexpr int kReqs = 12;
  std::vector<Slot> Slots(kReqs);
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(F, S.args(F));
    ASSERT_TRUE(R.ok()) << R.message();
    S.Fut = std::move(*R);
  }

  // Shut down while requests are still queued/executing: all of them must
  // resolve (drain-on-shutdown), none may be dropped with a broken promise.
  Ex.shutdown();
  for (Slot &S : Slots) {
    ASSERT_EQ(S.Fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    Response Resp = S.Fut.get();
    EXPECT_TRUE(Resp.S.ok()) << Resp.S.message();
  }
  ServeStats St = Ex.stats();
  EXPECT_EQ(St.InterpServed + St.JitServed, static_cast<uint64_t>(kReqs));

  // The executor is now closed for business, with a typed error.
  Slot Late;
  seed(Late.X);
  auto R = Ex.submit(F, Late.args(F));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("shut down"), std::string::npos) << R.message();

  Ex.shutdown(); // idempotent
}

TEST_F(ServeTest, CompileFailurePinsInterpreterFallback) {
  Func F = makeAxpy(7.0);
  Config C;
  C.OptFlags = "-O1 -fthis-flag-does-not-exist"; // host compiler will balk
  Executor Ex(C);

  Slot S0;
  seed(S0.X);
  auto R0 = Ex.submit(F, S0.args(F));
  ASSERT_TRUE(R0.ok()) << R0.message();
  Response Resp0 = R0->get();
  ASSERT_TRUE(Resp0.S.ok()) << Resp0.S.message();
  EXPECT_EQ(Resp0.ServedBy, Tier::Interp);

  Ex.drain(); // compile has failed by now

  // Degraded, not broken: requests keep being answered, by the
  // interpreter, forever — and the failure is visible in the counters.
  Slot S1;
  seed(S1.X);
  auto R1 = Ex.submit(F, S1.args(F));
  ASSERT_TRUE(R1.ok()) << R1.message();
  Response Resp1 = R1->get();
  ASSERT_TRUE(Resp1.S.ok()) << Resp1.S.message();
  EXPECT_EQ(Resp1.ServedBy, Tier::Interp);

  ServeStats St = Ex.stats();
  EXPECT_EQ(St.CompilesStarted, 1u);
  EXPECT_EQ(St.CompilesFailed, 1u);
  EXPECT_EQ(St.JitServed, 0u);
  EXPECT_EQ(St.InterpServed, 2u);
}

TEST_F(ServeTest, MicroBatchingMatchesReferenceOutputs) {
  Func Slow = makeSlow(), F = makeAxpy(2.5);
  Config C;
  C.Threads = 1; // one worker => arrivals pile up behind it
  C.MaxBatch = 8;
  C.BlockOnFull = true;
  Executor Ex(C);

  // The worker interprets the slow request while the 8 axpy requests
  // queue behind it; it then takes them as already-queued batches.
  Slot Busy;
  seed(Busy.X);
  zero(Busy.Y);
  auto BusySub = Ex.submit(Slow, Busy.args(Slow));
  ASSERT_TRUE(BusySub.ok()) << BusySub.message();
  constexpr int kReqs = 8;
  std::vector<Slot> Slots(kReqs);
  for (int R = 0; R < kReqs; ++R) {
    seed(Slots[R].X, 0.11 * double(R + 1)); // distinct inputs per request
    auto Sub = Ex.submit(F, Slots[R].args(F));
    ASSERT_TRUE(Sub.ok()) << Sub.message();
    Slots[R].Fut = std::move(*Sub);
  }
  Response BusyResp = BusySub->get();
  ASSERT_TRUE(BusyResp.S.ok()) << BusyResp.S.message();

  uint64_t MaxBatch = 0;
  for (Slot &S : Slots) {
    Response Resp = S.Fut.get();
    ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
    MaxBatch = std::max(MaxBatch, static_cast<uint64_t>(Resp.BatchSize));
  }
  // At least some of the 8 same-fingerprint requests were grouped.
  EXPECT_GE(Ex.stats().MaxBatch, 2u);
  EXPECT_EQ(Ex.stats().MaxBatch, MaxBatch);
  EXPECT_LT(Ex.stats().Batches, static_cast<uint64_t>(kReqs));

  // Differential: batched serving = unbatched reference interpreter.
  for (Slot &S : Slots) {
    Buffer RefY(DataType::Float32, {kN});
    Status RS = interpretChecked(F, {{F.Params[0], &S.X}, {F.Params[1], &RefY}});
    ASSERT_TRUE(RS.ok()) << RS.message();
    for (int64_t It = 0; It < kN; ++It)
      EXPECT_FLOAT_EQ(RefY.as<float>()[It], S.Y.as<float>()[It]);
  }
}

TEST_F(ServeTest, SameFingerprintRunsOnBothWorkersAtOnce) {
  // y[i] = sum over 64 sweeps of x: a few ms per request, so the two
  // workers' runs of the one kernel overlap.
  FunctionBuilder B("sweeps");
  View X = B.input("x", {makeIntConst(kN)});
  View Y = B.output("y", {makeIntConst(kN)});
  B.loop("i", 0, kN, [&](Expr I) {
    Y[I].assign(0.0);
    B.loop("r", 0, 64, [&](Expr) {
      B.loop("j", 0, kN, [&](Expr J) { Y[I] += X[J].load(); });
    });
  });
  Func F = B.build();
  Config C;
  C.Threads = 2;
  C.MaxBatch = 1;
  C.BlockOnFull = true;
  // Warm the kernel cache: every request is JIT-tier.
  ASSERT_TRUE(Kernel::compile(F, {}, C.OptFlags).ok());
  Executor Ex(C);

  trace::EnabledGuard Tracing(true, false);
  trace::clear();
  constexpr int kReqs = 24;
  std::vector<Slot> Slots(kReqs);
  for (int R = 0; R < kReqs; ++R) {
    seed(Slots[R].X, 0.05 * double(R + 1));
    auto Sub = Ex.submit(F, Slots[R].args(F));
    ASSERT_TRUE(Sub.ok()) << Sub.message();
    Slots[R].Fut = std::move(*Sub);
  }
  for (Slot &S : Slots) {
    Response Resp = S.Fut.get();
    ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
    EXPECT_EQ(Resp.ServedBy, Tier::Jit);
    for (int64_t I = 0; I < kN; ++I) {
      float Want = 0;
      for (int R = 0; R < 64; ++R)
        for (int64_t J = 0; J < kN; ++J)
          Want += S.X.as<float>()[J];
      ASSERT_FLOAT_EQ(S.Y.as<float>()[I], Want) << "y[" << I << "]";
    }
  }

  // Kernel spans on different workers overlapped in time.
  std::vector<trace::SpanEvent> Runs;
  for (const trace::SpanEvent &E : trace::snapshot().Spans)
    if (E.Name.rfind("rt/kernel/", 0) == 0)
      Runs.push_back(E);
  ASSERT_EQ(Runs.size(), size_t(kReqs));
  bool Overlap = false;
  for (size_t A = 0; A < Runs.size(); ++A)
    for (size_t B2 = 0; B2 < Runs.size(); ++B2)
      Overlap |= Runs[A].Tid != Runs[B2].Tid &&
                 Runs[A].StartUs < Runs[B2].StartUs &&
                 Runs[B2].StartUs < Runs[A].StartUs + Runs[A].DurUs;
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_TRUE(Overlap) << "no two runs of the kernel overlapped";
  }
}

TEST_F(ServeTest, BadArgumentBindingFailsOnlyThatRequest) {
  Func F = makeAxpy(8.0);
  Executor Ex;

  // Missing the output buffer: typed per-request error in the Response.
  Buffer X(DataType::Float32, {kN});
  seed(X);
  std::map<std::string, Buffer *> Bad = {{F.Params[0], &X}};
  auto R0 = Ex.submit(F, Bad);
  ASSERT_TRUE(R0.ok()) << R0.message(); // accepted; fails at execution
  Response Resp0 = R0->get();
  EXPECT_FALSE(Resp0.S.ok());
  EXPECT_NE(Resp0.S.message().find(F.Params[1]), std::string::npos)
      << Resp0.S.message();

  // Wrong shape: also a typed error, not a process abort — the serving
  // runtime validates untrusted requests before handing them to a backend.
  Buffer Small(DataType::Float32, {8}), Out(DataType::Float32, {kN});
  std::map<std::string, Buffer *> Mis = {{F.Params[0], &Small},
                                         {F.Params[1], &Out}};
  auto R1 = Ex.submit(F, Mis);
  ASSERT_TRUE(R1.ok()) << R1.message();
  Response Resp1 = R1->get();
  EXPECT_FALSE(Resp1.S.ok());
  EXPECT_NE(Resp1.S.message().find("shape mismatch"), std::string::npos)
      << Resp1.S.message();

  // The executor is unharmed: a well-formed request still succeeds.
  Slot S;
  seed(S.X);
  auto R2 = Ex.submit(F, S.args(F));
  ASSERT_TRUE(R2.ok()) << R2.message();
  Response Resp2 = R2->get();
  EXPECT_TRUE(Resp2.S.ok()) << Resp2.S.message();
  EXPECT_EQ(Ex.stats().RunErrors, 2u);
}

//===----------------------------------------------------------------------===//
// Telemetry under load (satellite of the telemetry-plane PR): queue-wait
// accounting is monotone with offered load, and rejected requests never
// pollute the latency histograms.
//===----------------------------------------------------------------------===//

namespace {

/// Submits \p Reqs slow-kernel requests against a 1-worker block-on-full
/// executor and returns the queue-wait histogram's mean over them,
/// normalized by the same run's mean interpreter service time. Higher
/// offered load against the same service rate must mean more service
/// times spent waiting; the normalization cancels machine-load drift
/// between the sequentially measured load levels.
double queueWaitMeanUnderLoad(const Func &F, int Reqs) {
  metrics::resetPrefix("serve/");
  telemetry::reset();

  Config C;
  C.Threads = 1;
  C.QueueCap = 4; // small: saturates quickly, block policy absorbs the rest
  C.BlockOnFull = true;
  C.MaxBatch = 1; // no batching: every request waits its full turn
  // Pin the background compile to fail so every request stays on the
  // interpreter tier: on a slow machine (ASan) the bigger load levels
  // would otherwise outlive the JIT compile, flip tiers mid-stream, and
  // wreck the fixed-service-rate queueing model this test asserts.
  C.OptFlags = "-O1 -fthis-flag-does-not-exist";
  Executor Ex(C);

  std::vector<Slot> Slots(static_cast<size_t>(Reqs));
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(F, S.args(F));
    // Block policy: nothing is rejected, submit may wait for space.
    EXPECT_TRUE(R.ok()) << R.message();
    if (R.ok())
      S.Fut = std::move(*R);
  }
  for (Slot &S : Slots)
    if (S.Fut.valid()) {
      Response Resp = S.Fut.get();
      EXPECT_TRUE(Resp.S.ok()) << Resp.S.message();
    }
  Ex.shutdown();

  metrics::HistogramSnapshot H =
      metrics::histogram("serve/queue_wait_ns").snapshot();
  EXPECT_EQ(H.Count, static_cast<uint64_t>(Reqs));
  metrics::HistogramSnapshot Run =
      metrics::histogram("serve/run_ns_interp").snapshot();
  EXPECT_GT(Run.Count, 0u);
  double RunMean = Run.mean();
  return RunMean > 0 ? H.mean() / RunMean : 0.0;
}

} // namespace

TEST_F(ServeTest, QueueWaitHistogramMonotoneWithOfferedLoad) {
  telemetry::setEnabled(true);
  // Interpreter-only service (no cache, compiles pinned slow): use the
  // slow kernel so each request holds the single worker for a visible
  // time and later submissions genuinely queue.
  ::setenv("FT_CACHE", "0", 1);
  Func F = makeSlow();

  double MeanLow = queueWaitMeanUnderLoad(F, 4);
  double MeanMid = queueWaitMeanUnderLoad(F, 12);
  double MeanHigh = queueWaitMeanUnderLoad(F, 24);

  // Strictly more offered load against one fixed-rate worker => strictly
  // more service times spent queued (each doubling adds whole service
  // times, far beyond scheduler jitter once normalized by the measured
  // service rate of the same run).
  EXPECT_GT(MeanMid, MeanLow);
  EXPECT_GT(MeanHigh, MeanMid);
}

TEST_F(ServeTest, RejectedRequestsNeverPolluteLatencyHistograms) {
  telemetry::setEnabled(true);
  metrics::resetPrefix("serve/");
  telemetry::reset();

  ::setenv("FT_CACHE", "0", 1);
  Func F = makeSlow();

  Config C;
  C.Threads = 1;
  C.QueueCap = 2;
  C.BlockOnFull = false; // reject policy: overload bounces at submit
  C.MaxBatch = 1;
  Executor Ex(C);

  const int kOffered = 40;
  std::vector<Slot> Slots(kOffered);
  uint64_t Accepted = 0, Rejected = 0;
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(F, S.args(F));
    if (R.ok()) {
      S.Fut = std::move(*R);
      ++Accepted;
    } else {
      ++Rejected;
    }
  }
  for (Slot &S : Slots)
    if (S.Fut.valid())
      (void)S.Fut.get();
  Ex.shutdown();

  ASSERT_GT(Rejected, 0u) << "overload did not saturate the queue";

  // Latency histograms hold exactly the accepted requests; the rejects
  // show up only in the flight recorder's outcome tallies. The background
  // compile may land while accepted requests still queue, so the run
  // histograms of both tiers together hold them.
  metrics::HistogramSnapshot QH =
      metrics::histogram("serve/queue_wait_ns").snapshot();
  metrics::HistogramSnapshot RIH =
      metrics::histogram("serve/run_ns_interp").snapshot();
  metrics::HistogramSnapshot RJH =
      metrics::histogram("serve/run_ns_jit").snapshot();
  EXPECT_EQ(QH.Count, Accepted);
  EXPECT_EQ(RIH.Count + RJH.Count, Accepted);

  FlightSummary FS = flightRecorder().summary();
  EXPECT_EQ(FS.RejectedFull, Rejected);
  EXPECT_EQ(FS.Ok, Accepted);
  EXPECT_EQ(FS.Recorded, Accepted + Rejected);
}

//===----------------------------------------------------------------------===//
// Request context: identity, tenant, deadline (DESIGN.md §15)
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ResponsesCarryDistinctRequestIds) {
  Func F = makeAxpy(11.0);
  Executor Ex;
  std::vector<Slot> Slots(4);
  std::set<uint64_t> Ids;
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(F, S.args(F));
    ASSERT_TRUE(R.ok()) << R.message();
    S.Fut = std::move(*R);
  }
  for (Slot &S : Slots) {
    Response Resp = S.Fut.get();
    ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
    EXPECT_NE(Resp.ReqId, 0u) << "0 is the no-request sentinel";
    Ids.insert(Resp.ReqId);
  }
  EXPECT_EQ(Ids.size(), Slots.size()) << "request ids must be unique";
  Ex.shutdown();
}

TEST_F(ServeTest, DeadlineVerdictStampsResponseAndTelemetry) {
  telemetry::setEnabled(true);
  Func F = makeAxpy(12.0);
  Executor Ex;

  // A 1 ns budget no request can meet, then a 30 s budget none can miss.
  Slot Tight;
  seed(Tight.X);
  SubmitOptions TightOpts;
  TightOpts.Tenant = "acme";
  TightOpts.DeadlineNs = 1;
  auto R0 = Ex.submit(F, Tight.args(F), TightOpts);
  ASSERT_TRUE(R0.ok()) << R0.message();
  Response Missed = R0->get();
  ASSERT_TRUE(Missed.S.ok()) << Missed.S.message();
  EXPECT_TRUE(Missed.DeadlineMissed)
      << "a 1 ns deadline is an SLO miss, not an execution error";

  Slot Loose;
  seed(Loose.X);
  SubmitOptions LooseOpts;
  LooseOpts.Tenant = "acme";
  LooseOpts.DeadlineNs = 30'000'000'000ull;
  auto R1 = Ex.submit(F, Loose.args(F), LooseOpts);
  ASSERT_TRUE(R1.ok()) << R1.message();
  Response Met = R1->get();
  ASSERT_TRUE(Met.S.ok()) << Met.S.message();
  EXPECT_FALSE(Met.DeadlineMissed);
  Ex.drain();

  std::vector<telemetry::TenantSlo> Slo = telemetry::tenantSlo();
  ASSERT_EQ(Slo.size(), 1u);
  EXPECT_EQ(Slo[0].Tenant, "acme");
  EXPECT_EQ(Slo[0].Met, 1u);
  EXPECT_EQ(Slo[0].Missed, 1u);

  // The flight recorder flags the missed request with its identity and
  // the queue-vs-run breakdown.
  bool FoundMissed = false;
  for (const FlightEvent &E : flightRecorder().peek()) {
    if (!E.DeadlineMissed)
      continue;
    FoundMissed = true;
    EXPECT_EQ(E.ReqId, Missed.ReqId);
    EXPECT_EQ(E.Tenant, "acme");
    EXPECT_EQ(E.DeadlineNs, 1u);
    EXPECT_EQ(E.TotalNs, E.QueueNs + E.RunNs);
  }
  EXPECT_TRUE(FoundMissed);
  Ex.shutdown();
}

TEST_F(ServeTest, RequestsWithoutOptionsGetConfigDefaults) {
  telemetry::setEnabled(true);
  Func F = makeAxpy(13.0);
  Config C;
  C.DefaultTenant = "fleet-a";
  C.DefaultDeadlineNs = 30'000'000'000ull;
  Executor Ex(C);
  Slot S;
  seed(S.X);
  auto R = Ex.submit(F, S.args(F));
  ASSERT_TRUE(R.ok()) << R.message();
  Response Resp = R->get();
  ASSERT_TRUE(Resp.S.ok()) << Resp.S.message();
  EXPECT_FALSE(Resp.DeadlineMissed);
  Ex.drain();

  std::vector<telemetry::TenantSlo> Slo = telemetry::tenantSlo();
  ASSERT_EQ(Slo.size(), 1u);
  EXPECT_EQ(Slo[0].Tenant, "fleet-a");
  EXPECT_EQ(Slo[0].Met, 1u);

  // The executor records the argument-shape signature for the request.
  std::vector<telemetry::ShapeStat> Shapes = telemetry::hotShapes();
  ASSERT_EQ(Shapes.size(), 1u);
  EXPECT_EQ(Shapes[0].ShapeKey, "x:f32[256] y:f32[256]");
  EXPECT_EQ(Shapes[0].Requests, 1u);
  Ex.shutdown();
}

TEST_F(ServeTest, RejectedRequestsCarryTheirRequestIdentity) {
  telemetry::setEnabled(true);
  Func Slow = makeSlow();
  Config C;
  C.Threads = 1;
  C.QueueCap = 1;
  C.BlockOnFull = false;
  C.MaxBatch = 1;
  Executor Ex(C);

  std::vector<Slot> Slots(12);
  size_t Rejected = 0;
  for (Slot &S : Slots) {
    seed(S.X);
    auto R = Ex.submit(Slow, S.args(Slow), SubmitOptions{"acme", 0});
    if (R.ok())
      S.Fut = std::move(*R);
    else
      ++Rejected;
  }
  for (Slot &S : Slots)
    if (S.Fut.valid())
      (void)S.Fut.get();
  Ex.shutdown();
  ASSERT_GT(Rejected, 0u) << "overload did not saturate the queue";

  size_t FlaggedRejects = 0;
  for (const FlightEvent &E : flightRecorder().peek()) {
    if (E.Out != Outcome::RejectedFull)
      continue;
    ++FlaggedRejects;
    EXPECT_NE(E.ReqId, 0u) << "bounced request lost its identity";
    EXPECT_EQ(E.Tenant, "acme");
  }
  EXPECT_EQ(FlaggedRejects, Rejected);
}
