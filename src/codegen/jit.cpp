//===- codegen/jit.cpp ----------------------------------------------------===//

#include "codegen/jit.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <mutex>
#include <sys/stat.h>
#include <vector>

#include "analysis/extents.h"
#include "codegen/codegen.h"
#include "codegen/kernel_cache.h"
#include "codegen/profile.h"
#include "codegen/rt/host.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Single-quotes \p S for sh(1): safe against spaces and every shell
/// metacharacter (FT_CACHE_DIR, $HOME and /tmp paths all flow into the
/// std::system command line).
std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

/// Removes the JIT scratch directory and its known contents on scope exit —
/// success and failure paths alike (the dlopen'd .so stays mapped after its
/// directory entry is unlinked).
struct ScratchDir {
  std::string Path;
  ~ScratchDir() {
    if (Path.empty())
      return;
    for (const char *F : {"/kernel.cpp", "/kernel.so", "/compile.log"})
      ::unlink((Path + F).c_str());
    ::rmdir(Path.c_str());
  }
};

/// True when some loop was proven for explicit-width SIMD
/// (vectorize(LoopId, Width)). Codegen then emits __restrict__ parameter
/// bindings, so Kernel::run must enforce the no-aliasing contract.
bool hasExplicitSimdLoop(const Stmt &S) {
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
      if (hasExplicitSimdLoop(Sub))
        return true;
    return false;
  case NodeKind::VarDef:
    return hasExplicitSimdLoop(cast<VarDefNode>(S)->Body);
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    return hasExplicitSimdLoop(I->Then) ||
           (I->Else != nullptr && hasExplicitSimdLoop(I->Else));
  }
  case NodeKind::For: {
    auto L = cast<ForNode>(S);
    return L->Property.VectorWidth > 0 || hasExplicitSimdLoop(L->Body);
  }
  default:
    return false;
  }
}

} // namespace

struct Kernel::Impl {
  std::string Source;
  std::string Symbol;
  /// The compiled Func's argument contract, checked on every run() exactly
  /// as validateArgs checks it: the generated code indexes with the
  /// declared shapes, so it must never see a mis-sized buffer, a
  /// non-positive extent or a decreasing indptr (analysis/extents.h).
  ArgContract Contract;
  void *Handle = nullptr;
  void (*Entry)(void **, ft_rt_ctx *) = nullptr;
  /// Counters of every call of this kernel, written by the host runtime
  /// and by the kernel through ft_rt_ctx::stats.
  ft_rt_counters Stats{};
  /// Host-side thread cap of every call (setMaxThreads).
  std::atomic<int> MaxThreads{1 << 30};
  bool Profiled = false;
  profile::SourceMap Map;
  /// Profiled kernels: the statement id of each slot, and each slot summed
  /// over the finished calls.
  std::vector<int64_t> SlotIds;
  std::mutex ProfMu;
  std::vector<rt::ProfileEntry> ProfTotals; ///< Guarded by ProfMu.
  std::string SpanName; ///< "rt/kernel/<symbol>", precomputed.
  /// True when the kernel was compiled with __restrict__ parameters (some
  /// loop proven for explicit SIMD): run() must reject aliasing arguments,
  /// or the compiled code's no-overlap assumption would be a silent lie.
  bool RequiresDistinctParams = false;

  KernelRtStats stats() const {
    auto Load = [](const uint64_t &V) {
      return __atomic_load_n(&V, __ATOMIC_RELAXED);
    };
    KernelRtStats Out;
    Out.Valid = true;
    Out.Invocations = Load(Stats.invocations);
    Out.ParallelFors = Load(Stats.parallel_fors);
    Out.ParallelIters = Load(Stats.parallel_iters);
    Out.GemmCalls = Load(Stats.gemm_calls);
    Out.CurrentBytes = Load(Stats.current_bytes);
    Out.PeakBytes = Load(Stats.peak_bytes);
    Out.TotalAllocBytes = Load(Stats.total_alloc_bytes);
    Out.AllocCount = Load(Stats.alloc_count);
    return Out;
  }

  /// Adds one call's per-thread slot arrays into ProfTotals.
  void mergeProfile(const std::vector<rt::ProfileEntry> &Call) {
    std::lock_guard<std::mutex> Lock(ProfMu);
    for (size_t I = 0; I < Call.size(); ++I) {
      rt::ProfileEntry &T = ProfTotals[I % ProfTotals.size()];
      T.Calls += Call[I].Calls;
      T.Iters += Call[I].Iters;
      T.Ns += Call[I].Ns;
      T.TimedCalls += Call[I].TimedCalls;
      T.TimedIters += Call[I].TimedIters;
    }
  }

  profile::KernelProfile pullProfile() {
    profile::KernelProfile P;
    P.Symbol = Symbol;
    P.Map = Map;
    if (Profiled) {
      const double NsPerTick = rt::profNsPerTick();
      std::lock_guard<std::mutex> Lock(ProfMu);
      for (size_t S = 0; S < SlotIds.size(); ++S) {
        const rt::ProfileEntry &E = ProfTotals[S];
        profile::LoopSample L;
        L.StmtId = SlotIds[S];
        L.Calls = E.Calls;
        L.Iters = E.Iters;
        L.Ns = static_cast<uint64_t>(double(E.Ns) * NsPerTick);
        L.TimedCalls = E.TimedCalls;
        L.TimedIters = E.TimedIters;
        P.Samples.push_back(L);
      }
    }
    KernelRtStats St = stats();
    P.Invocations = St.Invocations;
    P.CurrentBytes = St.CurrentBytes;
    P.PeakBytes = St.PeakBytes;
    P.TotalAllocBytes = St.TotalAllocBytes;
    P.AllocCount = St.AllocCount;
    profile::RequestAttribution A = profile::requestAttribution(Symbol);
    P.AttributedRuns = A.AttributedRuns;
    P.RecentRequestIds = std::move(A.RecentRequestIds);
    return P;
  }

  ~Impl() {
    // The accumulated profile is recorded into the host-side registry
    // (FT_PROFILE sink, snapshotJson) when the last handle goes away.
    if (Profiled && Handle)
      profile::record(pullProfile());
    if (Handle)
      dlclose(Handle);
  }

  /// Builds the host-side half of an Impl from the Func alone (everything
  /// that does not require the compiled library): symbol, profile source
  /// map, parameter binding. Shared by the miss path and the disk-hit path.
  static Result<std::shared_ptr<Impl>> makeSkeleton(const Func &F,
                                                    const CodegenOptions &Opts);

  /// dlopens \p LibPath and resolves the entry point.
  Status loadLibrary(const std::string &LibPath);
};

Result<std::shared_ptr<Kernel::Impl>>
Kernel::Impl::makeSkeleton(const Func &F, const CodegenOptions &Opts) {
  auto I = std::make_shared<Impl>();
  I->Symbol = kernelSymbol(F);
  I->Profiled = Opts.Profile;
  if (Opts.Profile) {
    I->Map = profile::buildSourceMap(F, trace::auditLog());
    I->SlotIds = profileSlotIds(F);
    I->ProfTotals.resize(I->SlotIds.size());
  }
  I->RequiresDistinctParams = hasExplicitSimdLoop(F.Body);
  I->Contract = argContractOf(F);
  for (const ArgContract::Param &P : I->Contract.Params)
    if (!P.Def)
      return Result<std::shared_ptr<Impl>>::error("parameter `" + P.Name +
                                                  "` has no VarDef");
  I->SpanName = "rt/kernel/" + I->Symbol;
  return I;
}

Status Kernel::Impl::loadLibrary(const std::string &LibPath) {
  Handle = dlopen(LibPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return Status::error(std::string("dlopen failed: ") + dlerror());
  Entry = reinterpret_cast<void (*)(void **, ft_rt_ctx *)>(
      dlsym(Handle, Symbol.c_str()));
  if (!Entry)
    return Status::error("kernel symbol not found: " + Symbol);
  return Status::success();
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

const char *ft::nameOf(KernelCacheTier T) {
  switch (T) {
  case KernelCacheTier::Compiled:
    return "miss";
  case KernelCacheTier::Memory:
    return "mem";
  case KernelCacheTier::Disk:
    return "disk";
  }
  return "?";
}

Result<Kernel> Kernel::compile(const Func &F, const std::string &OptFlags) {
  CodegenOptions Opts;
  Opts.Profile = profile::envEnabled();
  return compile(F, Opts, OptFlags);
}

std::optional<Kernel> Kernel::tryCached(const Func &F,
                                        const CodegenOptions &Opts,
                                        const std::string &OptFlags) {
  kernel_cache::Config Cfg = kernel_cache::config();
  if (!Cfg.Enabled)
    return std::nullopt;
  trace::Span Sp("codegen/kernel_cache.probe");
  auto T0 = std::chrono::steady_clock::now();
  kernel_cache::Key CK = kernel_cache::cacheKey(F, Opts, OptFlags);
  if (Sp.active())
    Sp.annotate("key", CK.hex());
  // Memory tier (skipped for profiled kernels; see compile()).
  if (!Opts.Profile) {
    if (std::optional<Kernel> K = kernel_cache::memLookup(CK.Full)) {
      metrics::counter("codegen/jit_cache_hit_mem").fetch_add(1);
      Sp.annotate("hit", "mem");
      K->Tier = KernelCacheTier::Memory;
      K->CompileSec = secondsSince(T0);
      return K;
    }
  }
  // Disk tier: dlopen the stored object. Corrupt entries are evicted, and
  // the probe reports a miss — it never compiles.
  std::string So = kernel_cache::diskLookup(Cfg, CK);
  if (!So.empty()) {
    if (auto SkelR = Impl::makeSkeleton(F, Opts); SkelR.ok()) {
      std::shared_ptr<Impl> I = *SkelR;
      if (Status L = I->loadLibrary(So); L.ok()) {
        I->Source = kernel_cache::storedSource(Cfg, CK);
        metrics::counter("codegen/jit_cache_hit_disk").fetch_add(1);
        Sp.annotate("hit", "disk");
        Kernel K;
        K.I = std::move(I);
        K.Tier = KernelCacheTier::Disk;
        K.CompileSec = secondsSince(T0);
        if (!Opts.Profile)
          kernel_cache::memInsert(CK.Full, K, Cfg.MemEntries);
        return K;
      }
      kernel_cache::evictDisk(Cfg, CK);
    }
  }
  // Deliberately not counted against codegen/jit_cache_miss: a probe miss
  // is expected serving traffic (the cold tier handles it), not a compile.
  Sp.annotate("hit", "none");
  return std::nullopt;
}

Result<Kernel> Kernel::compile(const Func &F, const CodegenOptions &Opts,
                               const std::string &OptFlags) {
  trace::Span Sp("codegen/jit");
  if (Sp.active())
    Sp.annotate("func", F.Name);
  metrics::counter("codegen/jit_compiles").fetch_add(1);
  auto T0 = std::chrono::steady_clock::now();

  // Resolve the cache counters eagerly so all three always show up in the
  // FT_METRICS exit summary, hits or not.
  auto &HitMem = metrics::counter("codegen/jit_cache_hit_mem");
  auto &HitDisk = metrics::counter("codegen/jit_cache_hit_disk");
  auto &Miss = metrics::counter("codegen/jit_cache_miss");

  kernel_cache::Config Cfg = kernel_cache::config();
  kernel_cache::Key CK;
  {
    trace::Span LSp("codegen/kernel_cache.lookup");
    if (Cfg.Enabled) {
      CK = kernel_cache::cacheKey(F, Opts, OptFlags);
      if (LSp.active())
        LSp.annotate("key", CK.hex());
      // Memory tier. Profiled kernels skip it: a shared handle would merge
      // the per-statement profile counters of unrelated call sites.
      if (!Opts.Profile) {
        if (std::optional<Kernel> K = kernel_cache::memLookup(CK.Full)) {
          HitMem.fetch_add(1);
          LSp.annotate("hit", "mem");
          if (Sp.active())
            Sp.annotate("cache", "mem");
          K->Tier = KernelCacheTier::Memory;
          K->CompileSec = secondsSince(T0);
          return *K;
        }
      }
      // Disk tier: dlopen the stored object, skipping codegen + cc. A
      // corrupt or truncated entry fails to load; evict it and fall
      // through to a fresh compile.
      std::string So = kernel_cache::diskLookup(Cfg, CK);
      if (!So.empty()) {
        auto SkelR = Impl::makeSkeleton(F, Opts);
        if (!SkelR.ok())
          return Result<Kernel>::error(SkelR.message());
        std::shared_ptr<Impl> I = *SkelR;
        if (Status L = I->loadLibrary(So); L.ok()) {
          I->Source = kernel_cache::storedSource(Cfg, CK);
          HitDisk.fetch_add(1);
          LSp.annotate("hit", "disk");
          if (Sp.active())
            Sp.annotate("cache", "disk");
          Kernel K;
          K.I = std::move(I);
          K.Tier = KernelCacheTier::Disk;
          K.CompileSec = secondsSince(T0);
          if (!Opts.Profile)
            kernel_cache::memInsert(CK.Full, K, Cfg.MemEntries);
          return K;
        }
        kernel_cache::evictDisk(Cfg, CK);
      }
    }
    Miss.fetch_add(1);
    LSp.annotate("hit", "none");
  }

  auto SkelR = Impl::makeSkeleton(F, Opts);
  if (!SkelR.ok())
    return Result<Kernel>::error(SkelR.message());
  std::shared_ptr<Impl> I = *SkelR;
  I->Source = generateCpp(F, Opts);

  static std::atomic<int> Counter{0};
  ScratchDir Scratch; // Removes the directory on every exit path below.
  std::string Dir = "/tmp/ftjit." + std::to_string(getpid()) + "." +
                    std::to_string(Counter.fetch_add(1));
  if (mkdir(Dir.c_str(), 0755) != 0)
    return Result<Kernel>::error("could not create JIT directory " + Dir);
  Scratch.Path = Dir;
  std::string Src = Dir + "/kernel.cpp";
  std::string Lib = Dir + "/kernel.so";
  std::string Log = Dir + "/compile.log";
  {
    std::ofstream Out(Src);
    Out << I->Source;
  }

  // -fopenmp-simd honors `#pragma omp simd` (and its reduction/aligned
  // clauses) without linking the OpenMP runtime — no new dependency. On
  // x86-64 glibc, vectorized expf/logf calls go to libmvec, and they only
  // vectorize when they do not set errno (ft_prelude.h).
#if defined(__x86_64__) && defined(__GLIBC__)
  const char *MathFlags = " -fno-math-errno";
  const char *MathLibs = " -lmvec";
#else
  const char *MathFlags = "";
  const char *MathLibs = "";
#endif
  std::string Cmd = "g++ -std=c++20 " + OptFlags + MathFlags +
                    " -march=native -fopenmp-simd -fPIC -shared -I " +
                    shellQuote(FT_RUNTIME_INCLUDE_DIR) + " " +
                    shellQuote(Src) + MathLibs + " -o " + shellQuote(Lib) +
                    " > " + shellQuote(Log) + " 2>&1";
  auto TCc = std::chrono::steady_clock::now();
  int Rc = std::system(Cmd.c_str());
  double CcSec = secondsSince(TCc);
  if (Rc != 0)
    return Result<Kernel>::error("host compiler failed:\n" + readFile(Log));
  if (!fileExists(Lib)) {
    // Some toolchain wrappers exit 0 after failing (e.g. a ccache/distcc
    // front-end dying on signal); the log is the only evidence.
    return Result<Kernel>::error(
        "host compiler exited 0 but produced no output .so; compile log:\n" +
        readFile(Log));
  }

  if (Status L = I->loadLibrary(Lib); !L.ok())
    return Result<Kernel>::error(L.message());

  if (Cfg.Enabled)
    kernel_cache::publish(Cfg, CK, Lib, I->Source);

  if (Sp.active()) {
    Sp.annotate("compile_sec", CcSec);
    Sp.annotate("source_bytes", static_cast<uint64_t>(I->Source.size()));
    Sp.annotate("cache", "miss");
  }
  Kernel K;
  K.I = std::move(I);
  K.CompileSec = CcSec;
  if (Cfg.Enabled && !Opts.Profile)
    kernel_cache::memInsert(CK.Full, K, Cfg.MemEntries);
  return K;
}

Status Kernel::run(const std::map<std::string, Buffer *> &Args) const {
  return run(Args, /*RequestId=*/0);
}

Status Kernel::run(const std::map<std::string, Buffer *> &Args,
                   uint64_t RequestId) const {
  ftAssert(I != nullptr, "running an empty Kernel");
  std::vector<void *> Ptrs;
  if (Status S = I->Contract.check(Args, &Ptrs); !S.ok())
    return S;
  if (I->RequiresDistinctParams) {
    // Two arguments may only share a pointer when neither is written.
    const std::vector<ArgContract::Param> &Ps = I->Contract.Params;
    auto Writes = [&](size_t P) {
      return Ps[P].Def->ATy == AccessType::Output ||
             Ps[P].Def->ATy == AccessType::InOut;
    };
    for (size_t A = 0; A < Ptrs.size(); ++A)
      for (size_t B = A + 1; B < Ptrs.size(); ++B)
        if (Ptrs[A] == Ptrs[B] && (Writes(A) || Writes(B)))
          return Status::error(
              "arguments `" + Ps[A].Name + "` and `" + Ps[B].Name +
              "` alias, but the kernel was compiled with proven no-aliasing "
              "(__restrict__ parameters for SIMD lowering)");
  }
  trace::Span Sp(I->SpanName);
  if (RequestId != 0) {
    if (Sp.active())
      Sp.annotate("req", RequestId);
    if (I->Profiled)
      profile::noteRequest(I->Symbol, RequestId);
  }
  // The context lives on this stack: a non-profiled call allocates nothing.
  ft_rt_ctx Ctx{};
  Ctx.api = &rt::hostApi();
  Ctx.stats = &I->Stats;
  Ctx.max_threads = I->MaxThreads.load(std::memory_order_relaxed);
  Ctx.seq = __atomic_add_fetch(&I->Stats.invocations, 1, __ATOMIC_RELAXED);
  std::vector<rt::ProfileEntry> Prof;
  if (I->Profiled) {
    Prof.resize(size_t(rt::processPool().numThreads()) * I->SlotIds.size());
    Ctx.prof = Prof.data();
    Ctx.prof_slots = static_cast<uint32_t>(I->SlotIds.size());
  }
  I->Entry(Ptrs.data(), &Ctx);
  if (I->Profiled)
    I->mergeProfile(Prof);
  static metrics::Counter &Invocations =
      metrics::counter("rt/kernel_invocations");
  Invocations.fetch_add(1);
  if (Sp.active()) {
    KernelRtStats S = I->stats();
    Sp.annotate("invocations", S.Invocations);
    Sp.annotate("parallel_fors", S.ParallelFors);
    Sp.annotate("parallel_iters", S.ParallelIters);
    Sp.annotate("gemm_calls", S.GemmCalls);
    if (I->Profiled) {
      Sp.annotate("peak_bytes", S.PeakBytes);
      Sp.annotate("total_alloc_bytes", S.TotalAllocBytes);
    }
  }
  return Status::success();
}

bool Kernel::setMaxThreads(int N) const {
  if (!I)
    return false;
  I->MaxThreads.store(N < 1 ? 1 : N, std::memory_order_relaxed);
  return true;
}

double Kernel::compileSeconds() const { return CompileSec; }

KernelCacheTier Kernel::cacheTier() const { return Tier; }

const std::string &Kernel::source() const {
  ftAssert(I != nullptr, "source() on an empty Kernel");
  return I->Source;
}

KernelRtStats Kernel::rtStats() const {
  return I ? I->stats() : KernelRtStats{};
}

bool Kernel::profiled() const { return I && I->Profiled; }

const profile::SourceMap &Kernel::sourceMap() const {
  ftAssert(I != nullptr, "sourceMap() on an empty Kernel");
  return I->Map;
}

profile::KernelProfile Kernel::profileNow() const {
  ftAssert(I != nullptr, "profileNow() on an empty Kernel");
  return I->pullProfile();
}
