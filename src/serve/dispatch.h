//===- serve/dispatch.h - Per-fingerprint kernel directory -------*- C++ -*-===//
///
/// \file
/// The executor's routing table: one entry per kernel fingerprint, holding
/// the tier state machine that decides how a request is served and dedups
/// background compiles.
///
///     Cold ──► Compiling ──► Ready   (compiled kernel serves the JIT tier)
///                     └────► Failed  (pinned to the interpreter forever)
///
/// Exactly one submitter wins the Cold→Compiling transition per fingerprint
/// (beginCompile), so N concurrent cache misses enqueue one compile job.
/// Kernels are re-entrant, so requests of one fingerprint run on every
/// worker at once.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SERVE_DISPATCH_H
#define FT_SERVE_DISPATCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analysis/extents.h"
#include "codegen/jit.h"
#include "ir/func.h"

namespace ft::serve {

/// Compile/tier state of one fingerprint. See the file comment.
enum class KernelState : uint8_t { Cold, Compiling, Ready, Failed };

/// Returns "cold" / "compiling" / "ready" / "failed".
const char *nameOf(KernelState S);

/// One fingerprint's entry. State fields are guarded by Mu.
struct KernelEntry {
  /// The full cache key (kernel_cache::Key::Full) identifying this entry.
  const uint64_t Key;
  /// The function as first submitted — the background compile input. All
  /// later submissions with the same key are semantically identical
  /// programs (the key hashes the whole program), so any one serves.
  const Func F;

  /// F's argument contract (analysis/extents.h): each parameter's VarDef,
  /// the extent parameters (non-empty iff this fingerprint is
  /// shape-generic) and the ragged structure (segment loops, index
  /// tensors, nnz-sized dims). Computed once at intern, so validating a
  /// request walks no IR; the ragged structure also picks the bucketed
  /// shape key.
  const ArgContract Contract;

  /// The shape key (serve/shape_key.h) every valid request of a
  /// static-shape entry has, computed once at intern; empty when requests
  /// can differ (symbolic extents, ragged sizes, 0-D integer arguments).
  const std::string StaticShapeKey;

  /// True for a specialized shape-bucket entry (DESIGN.md §16): F has its
  /// extents constant-folded, and the compile thread schedules it
  /// (simplify + autoschedule) and compiles at Config::SpecOptFlags
  /// instead of serving F as submitted.
  const bool IsSpec;

  explicit KernelEntry(uint64_t Key, Func F, bool IsSpec = false);

  /// The id of the request whose submit won beginCompile() — the compile
  /// thread stamps it on the serve/compile span and closes that request's
  /// trace flow arrow there, so a cold request visibly links to the one
  /// background compile it triggered. Written exactly once, by the
  /// beginCompile winner before the job is enqueued (the compile queue's
  /// lock orders the write before the compile thread's read); 0 until
  /// then and for cache-hit promotions that never reach the compile
  /// thread.
  uint64_t TriggerReqId = 0;

  /// If this entry is Cold, moves it to Compiling and returns true — the
  /// caller is now responsible for enqueueing exactly one compile job.
  /// Returns false in every other state (someone else already did, or the
  /// outcome is already known).
  bool beginCompile();

  /// Publishes a successful compile: installs the kernel and moves to
  /// Ready.
  void finishCompile(Kernel K);

  /// Publishes a failed compile: records the message, moves to Failed.
  /// Every future request of this fingerprint is served by the
  /// interpreter.
  void failCompile(std::string Msg);

  KernelState state() const;

  /// The compiled kernel when Ready, nullopt otherwise.
  std::optional<Kernel> kernel() const;

  /// The compile failure message (empty unless Failed).
  std::string failure() const;

  /// One shape bucket of a generic entry: request tally plus the
  /// specialized entry once the bucket is nominated (null before). The
  /// specialized entry reuses the full Cold→Compiling→Ready machinery, so
  /// nomination, compile dedup, and hot-swap are the same code path as the
  /// generic compile.
  struct SpecBucket {
    uint64_t Hits = 0;
    std::shared_ptr<KernelEntry> Entry;
  };

  /// Shape-bucket table (generic entries only), keyed by the canonical
  /// shape key (serve/shape_key.h). Guarded by SpecMu — never taken
  /// together with Mu.
  std::mutex SpecMu;
  std::map<std::string, SpecBucket> Spec;
  size_t SpecCount = 0; ///< Buckets nominated (bounds Config::SpecializeMax).

private:
  mutable std::mutex Mu;
  KernelState State = KernelState::Cold;
  std::optional<Kernel> K;
  std::string FailMsg;
};

/// The fingerprint → entry map. intern() is the only mutation; entries are
/// shared_ptrs so requests and the compile thread hold them across the
/// directory lock.
class KernelDirectory {
public:
  /// The entry for \p Key, created (Cold, holding a copy of \p F) on first
  /// sight.
  std::shared_ptr<KernelEntry> intern(uint64_t Key, const Func &F);

  /// Distinct fingerprints interned so far.
  size_t size() const;

private:
  mutable std::mutex Mu;
  std::unordered_map<uint64_t, std::shared_ptr<KernelEntry>> Map;
};

} // namespace ft::serve

#endif // FT_SERVE_DISPATCH_H
