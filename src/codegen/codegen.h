//===- codegen/codegen.h - C++ source emission -------------------*- C++ -*-===//
///
/// \file
/// Lowers a scheduled Func to a self-contained C++ translation unit (the
/// CPU backend of paper §4.3: "we generate OpenMP or CUDA code from the AST
/// and invoke dedicated backend compilers"). Parallel loops lower to the
/// host's thread pool, vectorize/unroll properties become pragmas, atomic
/// reductions become CAS loops, and GemmCall becomes a library call.
///
/// The kernel ABI is `extern "C" void <name>(void **params, ft_rt_ctx *ctx)`
/// with one pointer per Func parameter, in order, and the per-call context
/// of codegen/rt/ft_prelude.h, the only header the source includes.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_CODEGEN_H
#define FT_CODEGEN_CODEGEN_H

#include <string>
#include <vector>

#include "ir/func.h"

namespace ft {

/// Code-generation switches.
struct CodegenOptions {
  /// Instrument the emitted kernel with the statement-level profiler:
  /// every For (and GemmCall) gets per-thread call/iteration/time counters
  /// in the slot profileSlotIds() gives it (hot loops are timed on 1 in 64
  /// invocations), written into the per-call slot arrays the host passes
  /// in ft_rt_ctx::prof. Off by default; the profile-off emission is
  /// byte-identical to a build without this option.
  bool Profile = false;
};

/// Emits a complete C++ source file implementing \p F.
std::string generateCpp(const Func &F, const CodegenOptions &Opts);
std::string generateCpp(const Func &F);

/// The statement id of each profiler slot of \p F's profiled kernel: -1
/// (the kernel body) first, then every For and GemmCall in pre-order.
std::vector<int64_t> profileSlotIds(const Func &F);

/// The exported symbol name of the kernel generated for \p F.
std::string kernelSymbol(const Func &F);

} // namespace ft

#endif // FT_CODEGEN_CODEGEN_H
