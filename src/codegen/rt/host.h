//===- codegen/rt/host.h - Host side of the kernel runtime ------*- C++ -*-===//
///
/// \file
/// What generated kernels call back into (ft_rt_api, declared in
/// ft_prelude.h): one process-wide thread pool backing `parallelFor` (the
/// CPU lowering of the paper's `parallelize` schedule) and the allocator
/// for kernel-allocated tensors, with the memory accounting of profiled
/// kernels.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_RT_HOST_H
#define FT_CODEGEN_RT_HOST_H

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "codegen/rt/ft_prelude.h"

namespace ft::rt {

/// Pool size for FT_NUM_THREADS = \p Env on a host with \p Hardware
/// threads: an integer value clamped to [1, 256]; unset, empty or
/// non-numeric means \p Hardware; never below 1.
int threadCountFromEnv(const char *Env, unsigned Hardware);

/// A persistent pool of NumThreads - 1 worker threads; the thread that
/// calls parallelFor is the NumThreads-th. Workers start on first use.
///
/// A region's chunks are claimed one at a time, by its caller and by
/// whichever workers join it, so a region entered while every worker is
/// busy (for instance from inside another region's chunk) is still run to
/// completion by its caller alone. parallelFor returns only once no worker
/// refers to the region any more: nothing a worker touches lives past it.
class ThreadPool {
public:
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return NumThreads; }

  /// Runs Fn(Body, b, e, worker) over [Begin, End) split into chunks for
  /// min(numThreads(), MaxThreads) threads; runs it in one piece on the
  /// calling thread when that is one thread or the range is shorter.
  void parallelFor(int64_t Begin, int64_t End, ChunkFn Fn, const void *Body,
                   int MaxThreads);

private:
  struct Region;
  /// The calling thread's identity in this pool, passed to every chunk it
  /// runs: 1.. for the pool's workers, 0 for every other thread.
  int workerId() const;
  void runChunks(Region &R);
  void workerLoop(int Id);

  const int NumThreads;
  std::mutex Mu;
  std::condition_variable WorkCv; ///< Regions posted, or Stop.
  std::condition_variable DoneCv; ///< A region lost its last worker.
  std::vector<Region *> Open;     ///< Regions workers may still join.
  bool Stop = false;
  std::vector<std::thread> Threads; ///< After everything the workers use.
};

/// The process-wide pool every kernel runs on, sized by FT_NUM_THREADS
/// (threadCountFromEnv) when first used.
ThreadPool &processPool();

/// The function table handed to kernels in ft_rt_ctx::api.
const ft_rt_api &hostApi();

/// Nanoseconds per profClock() tick, calibrated once per process.
double profNsPerTick();

} // namespace ft::rt

#endif // FT_CODEGEN_RT_HOST_H
