//===- serve/serve.h - Tiered kernel-serving runtime -------------*- C++ -*-===//
///
/// \file
/// The kernel-serving runtime (DESIGN.md §12): an in-process executor that
/// accepts kernel-execution requests and answers them from a tiered backend,
/// turning the compile-then-run library into something shaped like an
/// inference server.
///
///   submit() ──► bounded request queue ──► worker pool ──► dispatch
///                                                            │
///                                      ┌─────────────────────┴───┐
///                                      ▼                         ▼
///                               JIT tier (hot)           interpreter tier
///                            cached compiled kernel     (cold / fallback)
///
/// The life of a fingerprint: the first request finds no compiled kernel, is
/// answered by the reference interpreter (slow but immediate — no request
/// ever waits on the host C++ compiler), and enqueues exactly one background
/// compile regardless of how many requests race in (in-flight dedup). Once
/// the compile lands, subsequent requests are served by the JIT'd kernel. If
/// the compile fails, the fingerprint is pinned to the interpreter forever
/// and the failure is counted — degraded, never broken.
///
/// Same-fingerprint requests already queued when a worker pops one are
/// micro-batched: the worker executes them back-to-back while the kernel's
/// code and metadata are hot. A worker never waits for a batch to fill, so
/// a lone request goes straight to execution.
///
/// Configuration comes from Config::fromEnv (FT_SERVE_* variables; see the
/// README's environment table). Every executor mirrors its counters into the
/// global metrics registry under "serve/" and opens a "serve/request" span
/// per request when tracing is on.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SERVE_SERVE_H
#define FT_SERVE_SERVE_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "interp/buffer.h"
#include "ir/func.h"
#include "serve/request_context.h"
#include "support/error.h"

namespace ft::serve {

/// Which backend answered a request.
enum class Tier : uint8_t {
  Interp, ///< Reference interpreter (cold start or permanent fallback).
  Jit,    ///< Compiled kernel (cache hit or background compile landed).
};

/// Returns "interp" / "jit".
const char *nameOf(Tier T);

/// Executor configuration. Defaults match Config::fromEnv with no FT_SERVE_*
/// variables set.
struct Config {
  /// Worker threads executing requests (FT_SERVE_THREADS, default 2).
  int Threads = 2;
  /// Bounded request-queue capacity (FT_SERVE_QUEUE_CAP, default 64).
  size_t QueueCap = 64;
  /// Backpressure policy when the queue is full (FT_SERVE_ON_FULL):
  /// false = "reject" (submit returns a typed error immediately),
  /// true = "block" (submit waits for space).
  bool BlockOnFull = false;
  /// Unread. Workers batch only what is already queued, never waiting for
  /// arrivals; the field stays only because existing callers assign it.
  int BatchWindowUs = 200;
  /// Largest micro-batch one worker executes back-to-back
  /// (FT_SERVE_MAX_BATCH, default 16; 1 disables batching).
  size_t MaxBatch = 16;
  /// Host-compiler flags for background compiles (FT_SERVE_OPT_FLAGS,
  /// default "-O2": server-style workloads prefer compile latency over the
  /// last few percent of kernel speed).
  std::string OptFlags = "-O2";
  /// Total kernel worker threads budgeted across every concurrently
  /// executing kernel (FT_SERVE_RT_THREADS, default
  /// hardware_concurrency). Each compiled kernel is capped at
  /// max(1, budget / Threads) via Kernel::setMaxThreads so Threads
  /// concurrent kernels cannot oversubscribe the machine.
  int RtThreadBudget = 0; ///< 0 = hardware_concurrency.
  /// Tenant label stamped on requests that pass no SubmitOptions::Tenant
  /// (FT_SLO_TENANT, default "default") — SLO accounting always has a
  /// bucket to land in.
  std::string DefaultTenant = "default";
  /// Deadline stamped on requests that pass no SubmitOptions::DeadlineNs
  /// (FT_SLO_DEADLINE_MS, converted to ns; default 0 = no deadline).
  uint64_t DefaultDeadlineNs = 0;
  /// Profile-guided shape-bucket specialization of shape-generic
  /// fingerprints (FT_SPECIALIZE, default on; 0 disables). The generic
  /// kernel serves every shape from request 1; hot buckets additionally
  /// get a background specialized compile that hot-swaps in when ready.
  bool Specialize = true;
  /// Requests a shape bucket must accumulate before it is nominated for a
  /// specialized compile (FT_SPECIALIZE_AFTER, default 16, floor 1).
  uint64_t SpecializeAfter = 16;
  /// Most specialized compiles per generic fingerprint — the advise cap K
  /// (FT_SPECIALIZE_MAX, default 4; 0 disables nomination).
  size_t SpecializeMax = 4;
  /// Host-compiler flags for specialized compiles (FT_SPECIALIZE_OPT_FLAGS,
  /// default "-O3": a specialized kernel is compiled once per hot bucket
  /// and served many times, so it buys the full optimization budget the
  /// generic tier's OptFlags trades away).
  std::string SpecOptFlags = "-O3";

  /// Reads FT_SERVE_* / FT_SLO_* from the environment, falling back to the
  /// defaults above on unset or unparsable values.
  static Config fromEnv();
};

/// Per-submission overrides for the request's SLO identity. Fields left at
/// their defaults fall back to the Config values above.
struct SubmitOptions {
  std::string Tenant;      ///< Empty = Config::DefaultTenant.
  uint64_t DeadlineNs = 0; ///< 0 = Config::DefaultDeadlineNs.
};

/// Outcome of one served request, delivered through the future submit()
/// returned.
struct Response {
  /// Execution outcome. An error here is per-request (bad argument binding,
  /// kernel runtime error) — the executor itself keeps running.
  Status S;
  Tier ServedBy = Tier::Interp;
  /// Wall-clock seconds from submit() to completion.
  double LatencySec = 0;
  /// Seconds the request waited in the queue before execution started.
  double QueueSec = 0;
  /// Size of the micro-batch this request was executed in (1 = unbatched).
  int BatchSize = 1;
  /// The process-unique request id submit() stamped (RequestContext::Id) —
  /// the join key into spans, flow arrows, flight events, and snapshots.
  uint64_t ReqId = 0;
  /// True when the request carried a deadline and submit→completion
  /// exceeded it. The request still ran to completion — a missed deadline
  /// is an SLO fact, not an execution error.
  bool DeadlineMissed = false;
  /// True when ServedBy == Jit and the kernel was a shape-bucket
  /// specialization rather than the shape-generic compile.
  bool Specialized = false;
};

/// Monotonic executor counters (a consistent-enough snapshot; fields are
/// read individually with relaxed ordering). Storage is the global
/// "serve/..." metrics registry — stats() reports deltas from the values
/// at this executor's construction, so concurrently-live executors see
/// each other's traffic (existing drivers use executors sequentially).
struct ServeStats {
  uint64_t Submitted = 0;       ///< Requests accepted into the queue.
  uint64_t Rejected = 0;        ///< Submissions refused: queue full.
  uint64_t InterpServed = 0;    ///< Requests answered by the interpreter.
  uint64_t JitServed = 0;       ///< Requests answered by a compiled kernel.
  uint64_t CompilesStarted = 0; ///< Background compiles enqueued (deduped).
  uint64_t CompilesFailed = 0;  ///< Compiles that failed => pinned fallback.
  uint64_t CacheHits = 0;       ///< Kernels acquired from the kernel cache
                                ///< without running the host compiler.
  uint64_t Batches = 0;         ///< Micro-batches executed (incl. size 1).
  uint64_t MaxBatch = 0;        ///< Largest batch observed.
  uint64_t RunErrors = 0;       ///< Requests completed with an error Status.
  uint64_t SpecServed = 0;      ///< JitServed subset answered by a
                                ///< shape-bucket specialization.
  uint64_t SpecCompilesStarted = 0; ///< Specialized compiles enqueued.
  uint64_t SpecCompilesFailed = 0;  ///< Specialized compiles that failed
                                    ///< (bucket falls back to the generic
                                    ///< kernel — degraded, never broken).
};

/// The serving executor. Owns a fixed worker pool, one background compile
/// thread, and the bounded request queue. Thread-safe: any thread may
/// submit. Destruction shuts down gracefully (pending requests complete).
class Executor {
public:
  explicit Executor(const Config &C = Config::fromEnv());
  ~Executor();

  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  /// Enqueues one execution request: run \p F binding parameter names to
  /// the caller-owned buffers in \p Args. The caller must keep every
  /// buffer alive (and not read results) until the returned future
  /// resolves. Errors are typed and immediate:
  ///   - queue full (reject policy): "serve: queue full ..."
  ///   - executor shut down:         "serve: executor is shut down"
  /// Per-request execution errors travel inside Response::S instead.
  Result<std::future<Response>> submit(const Func &F,
                                       const std::map<std::string, Buffer *> &Args);

  /// submit() with an explicit tenant label and/or deadline; the two-arg
  /// overload forwards here with defaults (see SubmitOptions).
  Result<std::future<Response>> submit(const Func &F,
                                       const std::map<std::string, Buffer *> &Args,
                                       const SubmitOptions &Opts);

  /// Blocks until every accepted request has completed AND every enqueued
  /// background compile has finished. The executor stays usable after.
  void drain();

  /// Stops accepting work, completes everything already accepted (requests
  /// and background compiles), and joins all threads. Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Snapshot of the executor counters.
  ServeStats stats() const;

  /// Requests currently waiting in the queue.
  size_t queueDepth() const;

  /// Number of distinct kernel fingerprints this executor has seen.
  size_t directorySize() const;

  const Config &config() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace ft::serve

#endif // FT_SERVE_SERVE_H
