//===- codegen/kernel_cache.h - Two-tier content-addressed cache -*- C++ -*-===//
///
/// \file
/// The kernel-compilation cache (DESIGN.md §11). The JIT's dominant cost is
/// shelling out to the host compiler; this subsystem makes recompiling a
/// program the process (or the machine) has already compiled nearly free:
///
///   - **Memory tier**: a process-wide LRU of loaded Kernel handles keyed by
///     the full cache key. A hit returns the shared handle with no syscall.
///     Bounded by FT_CACHE_MEM_ENTRIES (default 64; 0 disables the tier).
///   - **Disk tier**: a content-addressed store of compiled `.so` files (and
///     their generated `.cpp`, so Kernel::source() keeps working) under
///     FT_CACHE_DIR (default `~/.cache/freetensor`). A hit dlopens the
///     stored object, skipping codegen and the host compiler entirely.
///     Entries are published atomically (temp file + rename within the cache
///     directory), so concurrent processes can share one directory.
///
/// The cache key is derived from the whole-program fingerprint
/// (ir/compare.h: alpha-renamed, statement-ID- and label-invariant) combined
/// with everything else that shapes the emitted binary: the kernel symbol
/// (derived from the Func name), the ABI parameter-name list (the host-side
/// run() binding), CodegenOptions (a profiled kernel additionally keys on
/// the statement-ID preorder sequence, because profile slots are addressed
/// by statement ID inside the generated code — so profiled and plain
/// kernels can never share an entry, and a profiled entry only hits when
/// the IDs line up exactly), the OptFlags string, the host compiler
/// identity (`cc --version` plus the kernel prelude bytes, probed once),
/// and kSchemaVersion.
///
/// FT_CACHE=0 disables both tiers. Configuration is re-read from the
/// environment on every lookup so tests can flip it between cases.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_KERNEL_CACHE_H
#define FT_CODEGEN_KERNEL_CACHE_H

#include <optional>
#include <string>

#include "codegen/jit.h"

namespace ft::kernel_cache {

/// Bump whenever the key derivation, the on-disk layout, or the meaning of
/// the emitted code changes (e.g. a codegen bugfix that alters semantics
/// without changing the IR): stale entries from older schemas then simply
/// never hit.
/// v2: kernels gained a per-kernel thread-budget export (gone since v4).
/// v3: compilerId() additionally hashes the -march=native target state, so
///     a `.so` compiled on one micro-architecture can never hit on another
///     node sharing the cache directory (the old key let an AVX-512 binary
///     migrate to a machine without those units — SIGILL at best).
/// v4: kernels take a per-call ft_rt_ctx and include only ft_prelude.h; an
///     older `.so` has the one-argument entry and must never load.
/// v5: a float literal beside a Float32 operand is emitted as a float
///     (weak literal typing), so an older `.so` of the same IR computes in
///     double where the new code computes in float.
/// v6: on x86-64 glibc, kernels build with -fno-math-errno and link
///     libmvec, so float exp/log in vectorized loops call glibc's SIMD
///     variants (up to 4 ulp) where a v5 `.so` called the scalar ones.
inline constexpr uint64_t kSchemaVersion = 6;

/// Cache configuration as read from the environment.
struct Config {
  bool Enabled = true;    ///< FT_CACHE=0|false|off disables both tiers.
  std::string Dir;        ///< FT_CACHE_DIR override, else ~/.cache/freetensor.
  size_t MemEntries = 64; ///< FT_CACHE_MEM_ENTRIES; 0 = memory tier off.
};

/// Re-reads the environment (cheap; called once per Kernel::compile).
Config config();

/// Hash of `cc --version` output, the resolved `-march=native` target
/// flags, and the kernel prelude bytes, probed once per process. A
/// compiler upgrade, a different host micro-architecture, or a prelude
/// change moves every key, invalidating the store without touching it.
uint64_t compilerId();

/// A derived cache key.
struct Key {
  /// fingerprint(F): invariant to variable/statement-ID/label renaming.
  uint64_t Fingerprint = 0;
  /// Fingerprint combined with symbol, parameter names, options, flags,
  /// compiler identity and schema version — the content address.
  uint64_t Full = 0;

  /// 16-hex-digit file stem of Full.
  std::string hex() const;
};

/// Derives the cache key for compiling \p F with \p Opts and \p OptFlags.
Key cacheKey(const Func &F, const CodegenOptions &Opts,
             const std::string &OptFlags);

//===----------------------------------------------------------------------===//
// Memory tier
//===----------------------------------------------------------------------===//

/// Returns the cached Kernel for \p FullKey (moving it to the MRU slot), or
/// nullopt.
std::optional<Kernel> memLookup(uint64_t FullKey);

/// Inserts \p K under \p FullKey, evicting LRU entries beyond \p Cap.
/// First writer wins on a duplicate key (the entry is only refreshed to
/// MRU): when N threads race to compile the same program, later finishers
/// converge on the handle already shared out by memLookup instead of
/// installing N distinct loaded libraries.
void memInsert(uint64_t FullKey, const Kernel &K, size_t Cap);

/// Number of currently resident memory-tier entries.
size_t memSize();

/// Drops every memory-tier entry (tests, benchmarks — forces the disk tier).
void memReset();

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

/// Path of the stored shared object for \p K, or "" when absent (or the
/// cache directory cannot be determined).
std::string diskLookup(const Config &Cfg, const Key &K);

/// Stored generated C++ for \p K, or "" when absent.
std::string storedSource(const Config &Cfg, const Key &K);

/// Atomically publishes the built artifacts: copies \p SoPath and writes
/// \p Source next to it, each via temp-file + rename inside the cache
/// directory. Best-effort — a full disk or unwritable directory degrades to
/// "no cache", never to an error.
void publish(const Config &Cfg, const Key &K, const std::string &SoPath,
             const std::string &Source);

/// Removes the on-disk entry for \p K (corrupt-entry fallback path).
void evictDisk(const Config &Cfg, const Key &K);

} // namespace ft::kernel_cache

#endif // FT_CODEGEN_KERNEL_CACHE_H
