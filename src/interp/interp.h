//===- interp/interp.h - Instrumented reference interpreter ------*- C++ -*-===//
///
/// \file
/// A tree-walking evaluator for the IR. It is the semantic reference the
/// JIT-compiled code is tested against, and it doubles as the measurement
/// instrument for the Figure-17 analysis: it counts loads, stores, moved
/// bytes, and floating-point operations of one "kernel" execution.
///
//===----------------------------------------------------------------------===//

#ifndef FT_INTERP_INTERP_H
#define FT_INTERP_INTERP_H

#include <map>

#include "analysis/extents.h"
#include "interp/buffer.h"
#include "ir/func.h"

namespace ft {

/// Execution counters of one interpreted run.
struct InterpStats {
  int64_t Loads = 0;
  int64_t Stores = 0;
  /// Traffic to main-memory tensors (parameters and MemType::CPU caches).
  int64_t BytesLoaded = 0;
  int64_t BytesStored = 0;
  /// Traffic to on-chip storage (MemType::CPULocal tensors and 0-D Cache
  /// scalars, which codegen keeps in registers) — the paper's
  /// registers/shared-memory tier, excluded from the DRAM proxy.
  int64_t LocalBytes = 0;
  int64_t Flops = 0;

  /// DRAM traffic estimated by the optional cache simulation (cache-line
  /// misses x line size); 0 when the simulation is off.
  int64_t SimDramBytes = 0;

  /// Per-statement execution counts, keyed by StmtNode::Id and filled when
  /// InterpOptions::CountStmts is set. Mirrors the kernel profiler's exact
  /// counters (ProfileEntry::Calls/Iters) for every For and GemmCall, so
  /// an instrumented kernel's counts can be diffed against interpreter
  /// ground truth statement by statement.
  struct StmtCount {
    uint64_t Calls = 0; ///< Times the statement was entered.
    uint64_t Iters = 0; ///< Loop iterations executed (1/call for gemm).
  };
  std::map<int64_t, StmtCount> PerStmt;

  int64_t bytesMoved() const { return BytesLoaded + BytesStored; }
};

/// Interpreter options.
struct InterpOptions {
  /// Simulate a fully-associative LRU cache in front of main-memory
  /// tensors and report estimated DRAM traffic in SimDramBytes.
  bool SimulateCache = false;
  size_t CacheBytes = 1 << 20; ///< Modeled capacity (default 1 MiB).
  size_t LineBytes = 64;
  /// Record per-statement Calls/Iters into InterpStats::PerStmt.
  bool CountStmts = false;
};

/// Runs \p F binding each parameter name to the caller-owned buffer in
/// \p Args (missing or mistyped parameters abort). Returns the counters.
InterpStats interpret(const Func &F,
                      const std::map<std::string, Buffer *> &Args,
                      const InterpOptions &Opts = {});

/// Checks that every parameter of \p F is bound in \p Args with the right
/// dtype, rank, and shape: argContractOf(F).check(Args), the contract
/// Kernel::run enforces (analysis/extents.h). Constant extents must match
/// the buffer exactly, and for shape-generic functions every extent
/// parameter must be bound to an integer scalar >= 1 with the symbolic
/// dimensions it determines matching the bound buffers. Returns a typed
/// error instead of aborting. Callers that check many requests of one
/// function (the serving runtime) build the contract once instead.
Status validateArgs(const Func &F,
                    const std::map<std::string, Buffer *> &Args);

/// validateArgs + interpret: the Status-returning execution entry the
/// serving runtime uses as its cold tier (a request whose kernel is not
/// yet JIT-compiled is answered by the interpreter). On success the
/// counters are written to \p Stats when non-null.
Status interpretChecked(const Func &F,
                        const std::map<std::string, Buffer *> &Args,
                        InterpStats *Stats = nullptr,
                        const InterpOptions &Opts = {});

} // namespace ft

#endif // FT_INTERP_INTERP_H
