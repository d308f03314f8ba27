//===- codegen/jit.h - Compile-and-load execution driver ---------*- C++ -*-===//
///
/// \file
/// Drives the end of the paper's pipeline (§4.3): the generated C++ source
/// is handed to the host compiler, built into a shared library, and loaded
/// for execution ("a DSL function is finally compiled as a shared library,
/// which can be dynamically loaded ... to run").
///
/// Compilation is backed by the two-tier content-addressed kernel cache
/// (codegen/kernel_cache.h): a whole-program fingerprint keys an in-process
/// LRU of loaded kernels and an on-disk store of compiled objects, so the
/// host compiler only ever runs for programs this machine has not built
/// before. FT_CACHE=0 disables it.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_JIT_H
#define FT_CODEGEN_JIT_H

#include <map>
#include <memory>
#include <optional>

#include "codegen/codegen.h"
#include "codegen/profile.h"
#include "interp/buffer.h"
#include "ir/func.h"
#include "support/error.h"

namespace ft {

/// A kernel's runtime counters, summed over all its calls (ft_rt_counters in
/// codegen/rt/ft_prelude.h). Valid is false for an empty Kernel handle.
struct KernelRtStats {
  bool Valid = false;
  uint64_t Invocations = 0;
  uint64_t ParallelFors = 0;
  uint64_t ParallelIters = 0;
  uint64_t GemmCalls = 0;
  uint64_t CurrentBytes = 0;
  uint64_t PeakBytes = 0;
  uint64_t TotalAllocBytes = 0;
  uint64_t AllocCount = 0;
};

/// How a Kernel was obtained (see codegen/kernel_cache.h).
enum class KernelCacheTier : uint8_t {
  Compiled, ///< Cache miss (or cache disabled): the host compiler ran.
  Memory,   ///< In-process LRU hit: shared already-loaded handle.
  Disk,     ///< On-disk store hit: dlopen of a previously compiled object.
};

/// Returns "miss" / "mem" / "disk".
const char *nameOf(KernelCacheTier T);

/// A compiled, loaded kernel. Copyable handle; the library stays loaded as
/// long as any handle lives.
class Kernel {
public:
  /// Compiles \p F with the host C++ compiler. \p OptFlags defaults to an
  /// optimized build. This overload consults FT_PROFILE: when the env sink
  /// is armed, the kernel is compiled in profile mode automatically.
  static Result<Kernel> compile(const Func &F,
                                const std::string &OptFlags = "-O3");

  /// Compiles with explicit codegen options. With Opts.Profile the kernel
  /// is instrumented, a source map is built from \p F plus the current
  /// schedule audit log, and the accumulated profile is recorded to the
  /// profile registry when the last handle is dropped.
  static Result<Kernel> compile(const Func &F, const CodegenOptions &Opts,
                                const std::string &OptFlags = "-O3");

  /// Cache-only acquisition: returns the kernel when the fingerprint hits
  /// the in-process LRU or the on-disk store, nullopt on a miss — the host
  /// compiler never runs. This is the serving runtime's hot-tier probe
  /// (src/serve/): a miss there falls back to the interpreter while a
  /// background task calls compile(). Thread-safe; concurrent probes and
  /// compiles of the same program are allowed.
  static std::optional<Kernel> tryCached(const Func &F,
                                         const CodegenOptions &Opts = {},
                                         const std::string &OptFlags = "-O3");

  /// Runs the kernel binding each parameter by name. The binding is first
  /// checked against the compiled function's ArgContract
  /// (analysis/extents.h), so a missing, mistyped or mis-sized buffer is
  /// the same typed error validateArgs gives, never an out-of-bounds
  /// access. Kernels are re-entrant: any number of threads may run one
  /// handle at once.
  Status run(const std::map<std::string, Buffer *> &Args) const;

  /// Runs the kernel on behalf of serving request \p RequestId
  /// (RequestContext::Id; 0 = no request). A nonzero id is annotated onto
  /// the kernel's trace span and, when the kernel is profiled, noted in
  /// the profile registry's request-attribution table — so hot-loop rows
  /// join back to the requests that produced them (DESIGN.md §15).
  Status run(const std::map<std::string, Buffer *> &Args,
             uint64_t RequestId) const;

  /// Caps every later run of this kernel at \p N threads (>= 1) of the
  /// process-wide pool. The serving executor caps every kernel it loads so
  /// K concurrent kernels share the machine instead of each claiming all
  /// of it. Returns false for an empty handle.
  bool setMaxThreads(int N) const;

  /// Wall-clock seconds spent acquiring this kernel: host-compiler time on
  /// a cache miss, lookup + dlopen time on a cache hit.
  double compileSeconds() const;

  /// Which cache tier (if any) produced this kernel.
  KernelCacheTier cacheTier() const;

  /// The generated C++ source (for inspection/tests).
  const std::string &source() const;

  /// Cumulative kernel-side counters (invocations, parallel regions,
  /// gemm calls, memory accounting). Valid==false when unavailable.
  KernelRtStats rtStats() const;

  /// True when this kernel was compiled in profile mode.
  bool profiled() const;

  /// The statement-level source map (empty unless profiled).
  const profile::SourceMap &sourceMap() const;

  /// The per-statement counters summed over all finished runs, joined
  /// with the source map.
  /// Returns an empty profile (no samples) unless profiled().
  profile::KernelProfile profileNow() const;

private:
  struct Impl;
  std::shared_ptr<Impl> I;
  // Per-handle acquisition record: a memory-tier hit shares the Impl (the
  // loaded library) with the handle that first compiled it, so how *this*
  // handle was obtained — and how long that took — lives on the handle.
  KernelCacheTier Tier = KernelCacheTier::Compiled;
  double CompileSec = 0;
};

} // namespace ft

#endif // FT_CODEGEN_JIT_H
