//===- serve/executor.cpp - Serving executor ------------------------------===//
///
/// \file
/// Implementation of serve::Executor (serve/serve.h). Threading model:
///
///   - Submitters (any thread) intern the fingerprint, win-or-lose the
///     single compile trigger, and push a Request onto the bounded queue.
///   - `Config::Threads` workers pop requests, gather a same-fingerprint
///     micro-batch, and execute it on whichever tier the entry currently
///     offers.
///   - One compile thread drains the compile queue; each job runs the host
///     compiler once and flips its entry to Ready or Failed.
///
/// Drain accounting: `Outstanding` (accepted, promise not yet fulfilled)
/// and `PendingCompiles` are both guarded by DrainMu so drain() cannot miss
/// a transition between a queue pop and the counter update.
///
//===----------------------------------------------------------------------===//

#include "serve/serve.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/extents.h"
#include "autoschedule/autoschedule.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "interp/interp.h"
#include "pass/simplify.h"
#include "pass/specialize.h"
#include "serve/dispatch.h"
#include "serve/queue.h"
#include "serve/shape_key.h"
#include "serve/telemetry.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;
using namespace ft::serve;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

long envLong(const char *Name, long Default, long Min) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Default;
  char *End = nullptr;
  long V = std::strtol(E, &End, 10);
  if (End == E)
    return Default;
  return V < Min ? Min : V;
}

} // namespace

const char *ft::serve::nameOf(Tier T) {
  return T == Tier::Jit ? "jit" : "interp";
}

Config Config::fromEnv() {
  Config C;
  C.Threads = static_cast<int>(envLong("FT_SERVE_THREADS", C.Threads, 1));
  C.QueueCap = static_cast<size_t>(
      envLong("FT_SERVE_QUEUE_CAP", static_cast<long>(C.QueueCap), 1));
  if (const char *E = std::getenv("FT_SERVE_ON_FULL"))
    C.BlockOnFull = std::strcmp(E, "block") == 0;
  C.MaxBatch = static_cast<size_t>(
      envLong("FT_SERVE_MAX_BATCH", static_cast<long>(C.MaxBatch), 1));
  if (const char *E = std::getenv("FT_SERVE_OPT_FLAGS"))
    if (*E)
      C.OptFlags = E;
  C.RtThreadBudget = static_cast<int>(
      envLong("FT_SERVE_RT_THREADS", C.RtThreadBudget, 0));
  if (const char *E = std::getenv("FT_SLO_TENANT"))
    if (*E)
      C.DefaultTenant = E;
  C.DefaultDeadlineNs =
      static_cast<uint64_t>(envLong("FT_SLO_DEADLINE_MS", 0, 0)) * 1'000'000;
  if (const char *E = std::getenv("FT_SPECIALIZE"))
    C.Specialize = std::strcmp(E, "0") != 0;
  C.SpecializeAfter = static_cast<uint64_t>(envLong(
      "FT_SPECIALIZE_AFTER", static_cast<long>(C.SpecializeAfter), 1));
  C.SpecializeMax = static_cast<size_t>(envLong(
      "FT_SPECIALIZE_MAX", static_cast<long>(C.SpecializeMax), 0));
  if (const char *E = std::getenv("FT_SPECIALIZE_OPT_FLAGS"))
    if (*E)
      C.SpecOptFlags = E;
  return C;
}

namespace {

/// One accepted request, queued until a worker executes it.
struct Request {
  std::shared_ptr<KernelEntry> E;
  std::map<std::string, Buffer *> Args;
  std::promise<Response> P;
  Clock::time_point SubmitT;
  RequestContext Ctx; ///< Stamped at submit, carried by value.
};

// The argument-shape signature (telemetry row key + specialization bucket
// key) is the canonical sorted-by-name serve::shapeKeyOf in
// serve/shape_key.h — one definition for both consumers, so a bucket the
// executor specializes and a row `ftc --advise` nominates can never drift
// apart.

/// The executor's counters, stored once: in the global metrics registry.
/// References are resolved at construction so every bump is one relaxed
/// add, not a map lookup. Executor::stats() reports per-executor numbers
/// as saturating deltas from a construction-time baseline (MaxBatch is a
/// max-gauge, not summable, and stays a per-executor atomic in Impl).
struct StatsRefs {
  metrics::Counter &Submitted = metrics::counter("serve/submitted");
  metrics::Counter &Rejected = metrics::counter("serve/rejected");
  metrics::Counter &InterpServed = metrics::counter("serve/interp_served");
  metrics::Counter &JitServed = metrics::counter("serve/jit_served");
  metrics::Counter &CompilesStarted = metrics::counter("serve/compiles_started");
  metrics::Counter &CompilesFailed = metrics::counter("serve/compiles_failed");
  metrics::Counter &CacheHits = metrics::counter("serve/cache_hits");
  metrics::Counter &Batches = metrics::counter("serve/batches");
  metrics::Counter &RunErrors = metrics::counter("serve/run_errors");
  metrics::Counter &SpecServed = metrics::counter("serve/spec_served");
  metrics::Counter &SpecCompilesStarted =
      metrics::counter("serve/spec_compiles_started");
  metrics::Counter &SpecCompilesFailed =
      metrics::counter("serve/spec_compiles_failed");
};

/// Registry values when this executor was built. A metrics::resetAll()
/// while an executor is live makes its deltas saturate to zero rather
/// than wrap; concurrently-live executors see each other's traffic (the
/// registry is process-global — documented in serve.h).
struct StatsBaseline {
  uint64_t Submitted, Rejected, InterpServed, JitServed, CompilesStarted,
      CompilesFailed, CacheHits, Batches, RunErrors, SpecServed,
      SpecCompilesStarted, SpecCompilesFailed;

  explicit StatsBaseline(const StatsRefs &R)
      : Submitted(R.Submitted.load()), Rejected(R.Rejected.load()),
        InterpServed(R.InterpServed.load()), JitServed(R.JitServed.load()),
        CompilesStarted(R.CompilesStarted.load()),
        CompilesFailed(R.CompilesFailed.load()),
        CacheHits(R.CacheHits.load()), Batches(R.Batches.load()),
        RunErrors(R.RunErrors.load()), SpecServed(R.SpecServed.load()),
        SpecCompilesStarted(R.SpecCompilesStarted.load()),
        SpecCompilesFailed(R.SpecCompilesFailed.load()) {}
};

uint64_t satDelta(uint64_t Cur, uint64_t Base) {
  return Cur >= Base ? Cur - Base : 0;
}

uint64_t toNs(Clock::time_point A, Clock::time_point B) {
  auto D = std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count();
  return D < 0 ? 0 : static_cast<uint64_t>(D);
}

} // namespace

struct Executor::Impl {
  explicit Impl(const Config &Cfg)
      : C(sanitize(Cfg)), Q(C.QueueCap), CompileQ(4096), Base(Stats),
        QueueDepth(metrics::counter("serve/queue_depth")) {}

  static Config sanitize(Config C) {
    if (C.Threads < 1)
      C.Threads = 1;
    if (C.QueueCap < 1)
      C.QueueCap = 1;
    if (C.MaxBatch < 1)
      C.MaxBatch = 1;
    return C;
  }

  const Config C;
  KernelDirectory Dir;
  BoundedQueue<Request> Q;
  BoundedQueue<std::shared_ptr<KernelEntry>> CompileQ;
  std::vector<std::thread> Workers;
  std::thread Compiler;
  StatsRefs Stats;
  StatsBaseline Base;
  std::atomic<uint64_t> MaxBatch{0}; ///< Largest batch this executor ran.
  metrics::Counter &QueueDepth;      ///< Gauge: current queue size.

  std::atomic<bool> ShuttingDown{false};

  /// Drain accounting (see file comment).
  std::mutex DrainMu;
  std::condition_variable DrainCv;
  uint64_t Outstanding = 0;      ///< Accepted, promise not yet fulfilled.
  uint64_t PendingCompiles = 0;  ///< Compile jobs enqueued, not finished.

  /// Joined-state guard: shutdown() must be idempotent and callable
  /// concurrently with the destructor.
  std::mutex ShutdownMu;
  bool Joined = false;

  /// Per-kernel thread cap so `Threads` concurrently executing kernels
  /// share the host budget instead of each claiming the whole pool.
  void capThreads(const Kernel &K) const {
    int Budget = C.RtThreadBudget > 0
                     ? C.RtThreadBudget
                     : static_cast<int>(std::thread::hardware_concurrency());
    if (Budget < 1)
      Budget = 1;
    int Per = Budget / C.Threads;
    K.setMaxThreads(Per < 1 ? 1 : Per);
  }

  void bumpOutstanding() {
    std::lock_guard<std::mutex> Lock(DrainMu);
    ++Outstanding;
  }
  void dropOutstanding() {
    {
      std::lock_guard<std::mutex> Lock(DrainMu);
      --Outstanding;
    }
    DrainCv.notify_all();
  }
  void bumpPendingCompiles() {
    std::lock_guard<std::mutex> Lock(DrainMu);
    ++PendingCompiles;
  }
  void dropPendingCompiles() {
    {
      std::lock_guard<std::mutex> Lock(DrainMu);
      --PendingCompiles;
    }
    DrainCv.notify_all();
  }

  /// First sight of a Cold fingerprint: probe the kernel cache (no host
  /// compiler); a hit makes the very first request JIT-tier. On a miss the
  /// beginCompile winner enqueues the one background compile job.
  void triggerCompile(const std::shared_ptr<KernelEntry> &E,
                      uint64_t TriggerReqId) {
    if (E->state() != KernelState::Cold || !E->beginCompile())
      return;
    if (std::optional<Kernel> K = Kernel::tryCached(E->F, {}, C.OptFlags)) {
      capThreads(*K);
      Stats.CacheHits.fetch_add(1);
      E->finishCompile(std::move(*K));
      return;
    }
    // The beginCompile winner's request id — written before the push, read
    // by the compile thread after the pop (the queue lock orders them).
    E->TriggerReqId = TriggerReqId;
    Stats.CompilesStarted.fetch_add(1);
    bumpPendingCompiles();
    if (CompileQ.tryPush(E) != PushResult::Ok) {
      // Queue closed (shutdown raced in) or full beyond any plausible
      // working set: pin to the interpreter rather than wedge in
      // Compiling.
      dropPendingCompiles();
      Stats.CompilesFailed.fetch_add(1);
      E->failCompile("serve: compile queue unavailable");
    }
  }

  /// Enqueues the one background compile of a nominated shape-bucket
  /// specialization. No cache probe here: the compile job schedules the
  /// specialized function first, and Kernel::compile's own probe (keyed on
  /// the scheduled program) catches warm artifacts — including ones
  /// pre-compiled by `ftc --advise --specialize`.
  void triggerSpecCompile(const std::shared_ptr<KernelEntry> &E,
                          uint64_t TriggerReqId) {
    if (E->state() != KernelState::Cold || !E->beginCompile())
      return;
    E->TriggerReqId = TriggerReqId;
    Stats.SpecCompilesStarted.fetch_add(1);
    bumpPendingCompiles();
    if (CompileQ.tryPush(E) != PushResult::Ok) {
      dropPendingCompiles();
      Stats.SpecCompilesFailed.fetch_add(1);
      E->failCompile("serve: compile queue unavailable");
    }
  }

  /// Shape-bucket bookkeeping for one request of a shape-generic entry:
  /// tallies the bucket, nominates a specialized compile once the bucket
  /// crosses SpecializeAfter (at most SpecializeMax buckets per
  /// fingerprint), and returns the bucket's specialized kernel when its
  /// background compile has landed. Null = serve the generic tier.
  /// \p Bucket is the request's bucketed shape key: ragged entries bucket
  /// by the pow2-rounded key, one bucket (and one specialized kernel) per
  /// nnz octave instead of one per exact nnz.
  std::optional<Kernel> specKernelFor(KernelEntry *E, const Request &Req,
                                      const std::string &Bucket) {
    std::shared_ptr<KernelEntry> SE;
    {
      std::lock_guard<std::mutex> Lock(E->SpecMu);
      KernelEntry::SpecBucket &B = E->Spec[Bucket];
      ++B.Hits;
      if (!B.Entry && C.SpecializeMax > 0 && E->SpecCount < C.SpecializeMax &&
          B.Hits >= C.SpecializeAfter) {
        std::map<std::string, int64_t> Ext;
        bool Bindable =
            bindExtentArgs(E->Contract.Extents, Req.Args, Ext).ok();
        for (const auto &[Name, Val] : Ext)
          Bindable = Bindable && Val >= 1;
        // Ragged extents stay symbolic: folding the nominating request's
        // exact nnz would bake a constant every other request in the
        // bucket violates. Dense extents fold; nnz rides through as the
        // specialized entry's residual extent spec, bound per request by
        // Kernel::run.
        for (const std::string &Name : E->Contract.Ragged.RaggedExtents)
          Ext.erase(Name);
        if (Bindable && !Ext.empty()) {
          Func SF = specializeFunc(E->F, Ext);
          uint64_t SKey = kernel_cache::cacheKey(SF, {}, C.SpecOptFlags).Full;
          B.Entry = std::make_shared<KernelEntry>(SKey, std::move(SF),
                                                  /*IsSpec=*/true);
          ++E->SpecCount;
        }
      }
      SE = B.Entry;
    }
    if (!SE)
      return std::nullopt;
    triggerSpecCompile(SE, Req.Ctx.Id);
    return SE->kernel();
  }

  void compileLoop() {
    while (std::optional<std::shared_ptr<KernelEntry>> Job =
               CompileQ.popWait()) {
      std::shared_ptr<KernelEntry> E = *Job;
      trace::Span Sp("serve/compile");
      if (Sp.active() && E->TriggerReqId != 0)
        // Close the triggering request's flow arrow inside this span:
        // Perfetto draws enqueue → dispatch → this compile as one chain.
        trace::emitFlow("serve/req", E->TriggerReqId, 'f');
      Clock::time_point T0 = Clock::now();
      // A specialized job's input has its extents constant-folded already;
      // re-arm the static-shape optimization stack on it (simplify +
      // autoschedule: SIMD proofs, stack placement, parallelization) and
      // spend the full host-compiler budget. Generic jobs compile the
      // submitted program as-is at the serving OptFlags.
      Func In = E->F;
      const std::string &Flags = E->IsSpec ? C.SpecOptFlags : C.OptFlags;
      if (E->IsSpec)
        In = autoScheduleFunc(simplify(In));
      Result<Kernel> R = Kernel::compile(In, {}, Flags);
      telemetry::onCompile(toNs(T0, Clock::now()), R.ok());
      if (Sp.active()) {
        Sp.annotate("key", E->Key);
        Sp.annotate("req", E->TriggerReqId);
        Sp.annotate("spec", std::string(E->IsSpec ? "true" : "false"));
        Sp.annotate("ok", std::string(R.ok() ? "true" : "false"));
      }
      if (R.ok()) {
        capThreads(*R);
        E->finishCompile(std::move(*R));
      } else {
        (E->IsSpec ? Stats.SpecCompilesFailed : Stats.CompilesFailed)
            .fetch_add(1);
        E->failCompile(R.message());
      }
      dropPendingCompiles();
    }
  }

  void workerLoop() {
    std::vector<Request> Batch;
    while (std::optional<Request> R = Q.popWait()) {
      Batch.clear();
      Batch.push_back(std::move(*R));
      // Batch only what is already queued: a lone request's client is
      // blocked in get(), so waiting for company would only delay it.
      KernelEntry *E = Batch.front().E.get();
      if (C.MaxBatch > 1)
        Q.extractIf([E](const Request &Req) { return Req.E.get() == E; },
                    C.MaxBatch - 1, Batch);
      QueueDepth.store(Q.size());
      executeBatch(Batch);
    }
  }

  void executeBatch(std::vector<Request> &Batch) {
    std::shared_ptr<KernelEntry> E = Batch.front().E;
    std::optional<Kernel> K = E->kernel();

    Stats.Batches.fetch_add(1);
    uint64_t Prev = MaxBatch.load();
    while (Batch.size() > Prev &&
           !MaxBatch.compare_exchange_weak(Prev, Batch.size())) {
    }
    uint64_t BatchId = 0; ///< Telemetry's id, taken with the first sample.

    for (Request &Req : Batch) {
      trace::Span Sp("serve/request");
      if (Sp.active())
        // Flow step inside the dispatch span: the arrow started at this
        // request's enqueue passes through here.
        trace::emitFlow("serve/req", Req.Ctx.Id, 't');
      Clock::time_point Start = Clock::now();
      // Validate on both tiers: requests are untrusted, and a compiled
      // kernel would otherwise execute a bad binding unchecked. The entry's
      // contract was built at intern, so this walks no IR.
      Status S = E->Contract.check(Req.Args);
      const bool ArgsOk = S.ok();
      // The request's bucketed shape key, built at most once: a valid
      // request binding exactly a static-shape entry's parameters has the
      // entry's precomputed key.
      std::string Bucket;
      auto ShapeKey = [&]() -> const std::string & {
        if (ArgsOk && !E->StaticShapeKey.empty() &&
            Req.Args.size() == E->Contract.Params.size())
          return E->StaticShapeKey;
        if (Bucket.empty())
          Bucket = bucketedShapeKeyOf(Req.Args, E->Contract.Ragged);
        return Bucket;
      };
      // Tier selection is per request: on a shape-generic entry, a request
      // whose shape bucket has a landed specialization is served by that
      // kernel; everything else takes the generic kernel (or the
      // interpreter while it compiles).
      std::optional<Kernel> UseK = K;
      bool Specialized = false;
      if (ArgsOk && C.Specialize && !E->Contract.Extents.empty())
        if (std::optional<Kernel> SK =
                specKernelFor(E.get(), Req, ShapeKey())) {
          UseK = std::move(SK);
          Specialized = true;
        }
      const Tier T = UseK ? Tier::Jit : Tier::Interp;
      if (ArgsOk) {
        if (UseK)
          S = UseK->run(Req.Args, Req.Ctx.Id);
        else
          interpret(E->F, Req.Args);
      }
      Clock::time_point End = Clock::now();

      if (T == Tier::Jit)
        Stats.JitServed.fetch_add(1);
      else
        Stats.InterpServed.fetch_add(1);
      if (Specialized)
        Stats.SpecServed.fetch_add(1);
      if (!S)
        Stats.RunErrors.fetch_add(1);
      if (Sp.active()) {
        Sp.annotate("req", Req.Ctx.Id);
        Sp.annotate("tenant", Req.Ctx.Tenant);
        Sp.annotate("tier", std::string(nameOf(T)));
        Sp.annotate("batch", static_cast<uint64_t>(Batch.size()));
        Sp.annotate("key", E->Key);
      }
      const uint64_t TotalNs = toNs(Req.SubmitT, End);
      const bool DeadlineMissed =
          Req.Ctx.DeadlineNs > 0 && TotalNs > Req.Ctx.DeadlineNs;
      // Telemetry records after the response is delivered, so its
      // bookkeeping stays off the caller's latency; only the shape key,
      // which may read the caller's buffers, is taken before. The batch is
      // recorded with its first sample, and dropOutstanding() follows the
      // record, so drain() still sees every sample.
      const bool Record = telemetry::enabled();
      const std::string *Key = Record ? &ShapeKey() : nullptr;
      const Outcome Out =
          S.ok() ? Outcome::Ok
                 : (ArgsOk ? Outcome::RunError : Outcome::InvalidArgs);
      std::string Error = Record && !S.ok() ? S.message() : std::string();

      Response Resp;
      Resp.S = std::move(S);
      Resp.ServedBy = T;
      Resp.LatencySec = secondsBetween(Req.SubmitT, End);
      Resp.QueueSec = secondsBetween(Req.SubmitT, Start);
      Resp.BatchSize = static_cast<int>(Batch.size());
      Resp.ReqId = Req.Ctx.Id;
      Resp.DeadlineMissed = DeadlineMissed;
      Resp.Specialized = Specialized;
      Req.P.set_value(std::move(Resp));
      if (Record) {
        if (BatchId == 0)
          BatchId = telemetry::onBatch(static_cast<uint32_t>(Batch.size()));
        telemetry::RequestSample TS;
        TS.Fingerprint = E->Key;
        TS.ReqId = Req.Ctx.Id;
        TS.Tenant = Req.Ctx.Tenant;
        TS.DeadlineNs = Req.Ctx.DeadlineNs;
        // Ragged entries report the bucketed key: nnz that churns every
        // request would otherwise shatter the shape table into
        // one-hit-wonder rows `--advise` can never nominate.
        TS.ShapeKey = *Key;
        TS.ServedBy = T;
        TS.Out = Out;
        TS.QueueNs = toNs(Req.SubmitT, Start);
        TS.RunNs = toNs(Start, End);
        TS.TotalNs = TotalNs;
        TS.BatchSize = static_cast<uint32_t>(Batch.size());
        TS.BatchId = BatchId;
        TS.Error = std::move(Error);
        telemetry::onRequestComplete(TS);
      }
      dropOutstanding();
    }
  }
};

Executor::Executor(const Config &Cfg) : I(std::make_unique<Impl>(Cfg)) {
  telemetry::autoStartFromEnv();
  I->Compiler = std::thread([Impl = I.get()] { Impl->compileLoop(); });
  I->Workers.reserve(static_cast<size_t>(I->C.Threads));
  for (int W = 0; W < I->C.Threads; ++W)
    I->Workers.emplace_back([Impl = I.get()] { Impl->workerLoop(); });
}

Executor::~Executor() { shutdown(); }

Result<std::future<Response>>
Executor::submit(const Func &F, const std::map<std::string, Buffer *> &Args) {
  return submit(F, Args, SubmitOptions{});
}

Result<std::future<Response>>
Executor::submit(const Func &F, const std::map<std::string, Buffer *> &Args,
                 const SubmitOptions &Opts) {
  RequestContext Ctx;
  Ctx.Id = nextRequestId();
  Ctx.Tenant = Opts.Tenant.empty() ? I->C.DefaultTenant : Opts.Tenant;
  Ctx.DeadlineNs =
      Opts.DeadlineNs != 0 ? Opts.DeadlineNs : I->C.DefaultDeadlineNs;

  if (I->ShuttingDown.load(std::memory_order_acquire)) {
    I->Stats.Rejected.fetch_add(1);
    // Fingerprint 0: rejected before the key was computed.
    telemetry::onReject(0, Outcome::RejectedShutdown, Ctx.Id, Ctx.Tenant);
    return Result<std::future<Response>>::error("serve: executor is shut down");
  }

  uint64_t Key = kernel_cache::cacheKey(F, {}, I->C.OptFlags).Full;
  std::shared_ptr<KernelEntry> E = I->Dir.intern(Key, F);
  I->triggerCompile(E, Ctx.Id);

  Request R;
  R.E = std::move(E);
  R.Args = Args;
  R.SubmitT = Clock::now();
  R.Ctx = Ctx;
  std::future<Response> Fut = R.P.get_future();

  I->bumpOutstanding();
  PushResult PR;
  {
    // The flow arrow starts inside this span: Perfetto binds a flow point
    // to the slice enclosing it, and the push is the moment the request
    // enters the system.
    trace::Span Sp("serve/enqueue");
    if (Sp.active()) {
      Sp.annotate("req", Ctx.Id);
      Sp.annotate("tenant", Ctx.Tenant);
      Sp.annotate("key", Key);
      trace::emitFlow("serve/req", Ctx.Id, 's');
    }
    PR = I->C.BlockOnFull ? I->Q.pushWait(std::move(R))
                          : I->Q.tryPush(std::move(R));
  }
  if (PR != PushResult::Ok) {
    I->dropOutstanding();
    I->Stats.Rejected.fetch_add(1);
    if (PR == PushResult::Closed) {
      telemetry::onReject(Key, Outcome::RejectedShutdown, Ctx.Id, Ctx.Tenant);
      return Result<std::future<Response>>::error(
          "serve: executor is shut down");
    }
    telemetry::onReject(Key, Outcome::RejectedFull, Ctx.Id, Ctx.Tenant);
    return Result<std::future<Response>>::error(
        "serve: queue full (capacity " + std::to_string(I->C.QueueCap) +
        "); retry or set FT_SERVE_ON_FULL=block");
  }
  I->Stats.Submitted.fetch_add(1);
  I->QueueDepth.store(I->Q.size());
  return Fut;
}

void Executor::drain() {
  std::unique_lock<std::mutex> Lock(I->DrainMu);
  I->DrainCv.wait(Lock, [this] {
    return I->Outstanding == 0 && I->PendingCompiles == 0;
  });
}

void Executor::shutdown() {
  I->ShuttingDown.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(I->ShutdownMu);
  if (I->Joined)
    return;
  // Closing the queues stops intake but lets consumers pop what is already
  // queued, so every accepted request completes and every enqueued compile
  // finishes before the threads exit.
  I->Q.close();
  I->CompileQ.close();
  for (std::thread &W : I->Workers)
    W.join();
  if (I->Compiler.joinable())
    I->Compiler.join();
  I->Joined = true;
}

ServeStats Executor::stats() const {
  ServeStats S;
  S.Submitted = satDelta(I->Stats.Submitted.load(), I->Base.Submitted);
  S.Rejected = satDelta(I->Stats.Rejected.load(), I->Base.Rejected);
  S.InterpServed =
      satDelta(I->Stats.InterpServed.load(), I->Base.InterpServed);
  S.JitServed = satDelta(I->Stats.JitServed.load(), I->Base.JitServed);
  S.CompilesStarted =
      satDelta(I->Stats.CompilesStarted.load(), I->Base.CompilesStarted);
  S.CompilesFailed =
      satDelta(I->Stats.CompilesFailed.load(), I->Base.CompilesFailed);
  S.CacheHits = satDelta(I->Stats.CacheHits.load(), I->Base.CacheHits);
  S.Batches = satDelta(I->Stats.Batches.load(), I->Base.Batches);
  S.MaxBatch = I->MaxBatch.load();
  S.RunErrors = satDelta(I->Stats.RunErrors.load(), I->Base.RunErrors);
  S.SpecServed = satDelta(I->Stats.SpecServed.load(), I->Base.SpecServed);
  S.SpecCompilesStarted = satDelta(I->Stats.SpecCompilesStarted.load(),
                                   I->Base.SpecCompilesStarted);
  S.SpecCompilesFailed = satDelta(I->Stats.SpecCompilesFailed.load(),
                                  I->Base.SpecCompilesFailed);
  return S;
}

size_t Executor::queueDepth() const { return I->Q.size(); }

size_t Executor::directorySize() const { return I->Dir.size(); }

const Config &Executor::config() const { return I->C; }
