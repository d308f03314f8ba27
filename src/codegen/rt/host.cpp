//===- codegen/rt/host.cpp ------------------------------------------------===//

#include "codegen/rt/host.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace ft::rt {

namespace {

/// Set once in each worker thread: the pool it belongs to and its id.
thread_local const ThreadPool *tPool = nullptr;
thread_local int tWorkerId = 0;

void apiParallelFor(ft_rt_ctx *Ctx, int64_t Begin, int64_t End, ChunkFn Fn,
                    const void *Body) {
  if (End <= Begin)
    return;
  __atomic_fetch_add(&Ctx->stats->parallel_fors, 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&Ctx->stats->parallel_iters, uint64_t(End - Begin),
                     __ATOMIC_RELAXED);
  processPool().parallelFor(Begin, End, Fn, Body, Ctx->max_threads);
}

/// Memory accounting is part of profile mode: only profiled calls carry
/// profile slots, and only they pay for the counters.
void *apiAlloc(ft_rt_ctx *Ctx, uint64_t Bytes) {
  void *P = std::calloc(Bytes == 0 ? 1 : Bytes, 1);
  if (P == nullptr) {
    std::fprintf(stderr, "freetensor: kernel allocation of %llu bytes failed\n",
                 static_cast<unsigned long long>(Bytes));
    std::abort();
  }
  if (Ctx->prof != nullptr) {
    ft_rt_counters *S = Ctx->stats;
    __atomic_fetch_add(&S->alloc_count, 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&S->total_alloc_bytes, Bytes, __ATOMIC_RELAXED);
    uint64_t Cur =
        __atomic_add_fetch(&S->current_bytes, Bytes, __ATOMIC_RELAXED);
    uint64_t Peak = __atomic_load_n(&S->peak_bytes, __ATOMIC_RELAXED);
    while (Cur > Peak &&
           !__atomic_compare_exchange_n(&S->peak_bytes, &Peak, Cur, true,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
  }
  return P;
}

void apiFree(ft_rt_ctx *Ctx, void *P, uint64_t Bytes) {
  std::free(P);
  if (Ctx->prof != nullptr)
    __atomic_fetch_sub(&Ctx->stats->current_bytes, Bytes, __ATOMIC_RELAXED);
}

const ft_rt_api HostApi = {apiParallelFor, apiAlloc, apiFree};

} // namespace

int threadCountFromEnv(const char *Env, unsigned Hardware) {
  long N = static_cast<long>(Hardware);
  if (Env != nullptr && Env[0] != '\0') {
    char *End = nullptr;
    long V = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0')
      N = std::clamp(V, 1L, 256L);
  }
  return N < 1 ? 1 : static_cast<int>(N);
}

/// One parallelFor call, on its caller's stack. Workers reach it only
/// through ThreadPool::Open, and are counted in Active from the moment
/// they take it until they are done with it.
struct ThreadPool::Region {
  ChunkFn Fn = nullptr;
  const void *Body = nullptr;
  int64_t Begin = 0, End = 0, Chunk = 0;
  int NumChunks = 0;
  std::atomic<int> Next{0}; ///< The next unclaimed chunk.
  int Seats = 0;            ///< Workers that may still join; guarded by Mu.
  int Active = 0;           ///< Workers inside runChunks; guarded by Mu.
};

ThreadPool::ThreadPool(int NumThreads) : NumThreads(std::max(NumThreads, 1)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

int ThreadPool::workerId() const { return tPool == this ? tWorkerId : 0; }

void ThreadPool::runChunks(Region &R) {
  const int Me = workerId();
  for (int C; (C = R.Next.fetch_add(1, std::memory_order_relaxed)) <
              R.NumChunks;) {
    int64_t B = R.Begin + C * R.Chunk;
    int64_t E = std::min(R.End, B + R.Chunk);
    if (B < E)
      R.Fn(R.Body, B, E, Me);
  }
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End, ChunkFn Fn,
                             const void *Body, int MaxThreads) {
  const int64_t N = End - Begin;
  const int Workers = std::max(1, std::min(NumThreads, MaxThreads));
  if (N < Workers || Workers <= 1) {
    if (N > 0)
      Fn(Body, Begin, End, workerId());
    return;
  }
  Region R;
  R.Fn = Fn;
  R.Body = Body;
  R.Begin = Begin;
  R.End = End;
  R.Chunk = (N + Workers - 1) / Workers;
  R.NumChunks = Workers;
  R.Seats = Workers - 1;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Threads.empty())
      for (int W = 1; W < NumThreads; ++W)
        Threads.emplace_back([this, W] { workerLoop(W); });
    Open.push_back(&R);
  }
  WorkCv.notify_all();
  runChunks(R);
  // Every chunk is claimed now. Close the region to latecomers and wait
  // for the workers inside it: after that none can touch R again.
  std::unique_lock<std::mutex> Lock(Mu);
  if (auto It = std::find(Open.begin(), Open.end(), &R); It != Open.end())
    Open.erase(It);
  DoneCv.wait(Lock, [&R] { return R.Active == 0; });
}

void ThreadPool::workerLoop(int Id) {
  tPool = this;
  tWorkerId = Id;
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    WorkCv.wait(Lock, [this] { return Stop || !Open.empty(); });
    if (Open.empty())
      return;
    Region *R = Open.front();
    if (--R->Seats == 0 ||
        R->Next.load(std::memory_order_relaxed) >= R->NumChunks)
      Open.erase(Open.begin());
    ++R->Active;
    Lock.unlock();
    runChunks(*R);
    Lock.lock();
    // The last access to R: its caller may return once Mu is released.
    if (--R->Active == 0)
      DoneCv.notify_all();
  }
}

ThreadPool &processPool() {
  // Leaked like the other process-wide singletons, so no kernel running
  // from an atexit hook can outlive it.
  static ThreadPool *P = new ThreadPool(threadCountFromEnv(
      std::getenv("FT_NUM_THREADS"), std::thread::hardware_concurrency()));
  return *P;
}

const ft_rt_api &hostApi() { return HostApi; }

double profNsPerTick() {
  static const double NsPerTick = [] {
    using Clock = std::chrono::steady_clock;
    auto T0 = Clock::now();
    uint64_t C0 = profClock();
    for (;;) {
      auto T1 = Clock::now();
      if (T1 - T0 >= std::chrono::milliseconds(2)) {
        uint64_t C1 = profClock();
        double Ns = std::chrono::duration<double, std::nano>(T1 - T0).count();
        return C1 > C0 ? Ns / double(C1 - C0) : 1.0;
      }
    }
  }();
  return NsPerTick;
}

} // namespace ft::rt
