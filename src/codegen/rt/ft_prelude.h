//===- codegen/rt/ft_prelude.h - Prelude of generated kernels ---*- C++ -*-===//
///
/// \file
/// The one header a JIT-compiled kernel includes. It holds the kernel ABI
/// and the inline pieces of the runtime that compile into loop bodies:
/// Python-style integer division, std::min/std::max, elementwise math on
/// the compiler's builtins (expf and logf with glibc's SIMD variants on
/// x86-64), atomic reductions (Fig. 13(e)), the reference
/// GEMM of the `as_lib` schedule, and the trampoline that hands a parallel
/// loop body to the host's thread pool.
///
/// A kernel is `extern "C" void <symbol>(void **params, ft_rt_ctx *ctx)`
/// and owns no state: Kernel::run builds the context on its own stack for
/// every call, pointing at the host function table (codegen/rt/host.h) and
/// at that kernel's host-side counters. Kernels are therefore re-entrant,
/// and the process has one thread pool however many kernels it loads.
///
/// Only <stdint.h> is included: parsing the C++ standard library used to
/// cost more than the rest of a kernel compile. Its functions are hidden,
/// so a kernel .so exports its entry point and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_RT_FT_PRELUDE_H
#define FT_CODEGEN_RT_FT_PRELUDE_H

#include <stdint.h>

// Spelled as glibc's <math.h> spells them, so host files that include
// both see identical definitions.
#ifndef INFINITY
#define INFINITY (__builtin_inff ())
#endif
#ifndef NAN
#define NAN (__builtin_nanf (""))
#endif

namespace ft::rt {

/// Counters for one instrumented statement (a For, a GemmCall, or the
/// kernel body itself). Hot loops are timed on 1 in 64 invocations;
/// TimedCalls/TimedIters record exactly which share of the work Ns
/// covers, so the host extrapolates EstNs = Ns * Iters / TimedIters.
/// Calls and Iters are always exact.
struct ProfileEntry {
  uint64_t Calls;      ///< Times the statement was entered.
  uint64_t Iters;      ///< Loop iterations executed (1/call for gemm).
  uint64_t Ns;         ///< profClock() ticks over the timed entries only.
  uint64_t TimedCalls; ///< Entries covered by Ns.
  uint64_t TimedIters; ///< Iterations covered by Ns.
};

/// Runs iterations [Begin, End) of a parallel loop body on the executing
/// thread \p Worker (0 for a thread outside the pool, 1.. for pool
/// workers; see ft_rt_api::parallel_for).
typedef void (*ChunkFn)(const void *Body, int64_t Begin, int64_t End,
                        int Worker);

} // namespace ft::rt

struct ft_rt_ctx;

/// Host functions a kernel calls; one static table in the host.
struct ft_rt_api {
  /// Runs Fn over [Begin, End) in chunks on the process-wide pool, with at
  /// most ctx->max_threads threads, and returns when every chunk is done.
  void (*parallel_for)(ft_rt_ctx *Ctx, int64_t Begin, int64_t End,
                       ft::rt::ChunkFn Fn, const void *Body);
  /// Zeroed storage for a kernel-allocated tensor, and its release.
  void *(*alloc)(ft_rt_ctx *Ctx, uint64_t Bytes);
  void (*free)(ft_rt_ctx *Ctx, void *P, uint64_t Bytes);
};

/// Host-side counters of one loaded kernel, shared by all its calls and
/// updated only with __atomic builtins.
struct ft_rt_counters {
  uint64_t invocations;       ///< Kernel::run calls.
  uint64_t parallel_fors;     ///< parallelFor regions run.
  uint64_t parallel_iters;    ///< Iterations across regions.
  uint64_t gemm_calls;        ///< Library gemm invocations.
  uint64_t current_bytes;     ///< Live kernel-allocated bytes (profiled).
  uint64_t peak_bytes;        ///< High-water mark of current_bytes.
  uint64_t total_alloc_bytes; ///< Cumulative bytes allocated (profiled).
  uint64_t alloc_count;       ///< Number of tracked allocations.
};

/// The per-call context, built on the caller's stack by Kernel::run.
struct ft_rt_ctx {
  const ft_rt_api *api;
  ft_rt_counters *stats;
  /// Profiled kernels: one array of prof_slots entries per executing
  /// thread identity (see ChunkFn), private to this call. Null otherwise.
  ft::rt::ProfileEntry *prof;
  uint32_t prof_slots;
  /// Host-side thread cap of this kernel (Kernel::setMaxThreads).
  int32_t max_threads;
  /// This call's 1-based ordinal among the kernel's invocations; profiled
  /// kernels time the calls with seq % 64 == 1.
  uint64_t seq;
};

// Vector math. An `omp simd` loop that calls expf or logf stays scalar
// unless the callee has a declared SIMD variant, and glibc's <math.h>
// declares its libmvec variants only under -ffast-math. On x86-64 glibc the
// JIT links kernels with -lmvec and builds them with -fno-math-errno (so the
// calls do not clobber memory), and these declarations let GCC call
// _ZGV<isa>N<lanes>v_expf / _ZGV<isa>N<lanes>v_logf from vectorized loops;
// scalar code still calls expf and logf. glibc bounds those variants at
// 4 ulp. Other hosts use the compiler builtins.
#if defined(__x86_64__) && defined(__GLIBC__)
#define FT_RT_VECTOR_MATH 1
// The attribute is the spelling of `#pragma omp declare simd notinbranch`
// that glibc itself uses without OpenMP; host files include this header
// too, and they are not built with -fopenmp-simd.
extern "C" {
float expf(float) noexcept __attribute__((__simd__("notinbranch")));
float logf(float) noexcept __attribute__((__simd__("notinbranch")));
}
#else
#define FT_RT_VECTOR_MATH 0
#endif

// The functions below compile into each kernel; none of them is exported.
#pragma GCC visibility push(hidden)

namespace ft::rt {

/// Floor division / modulo with Python semantics (divisor sign).
inline int64_t floorDiv(int64_t A, int64_t B) {
  int64_t Q = A / B, R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    --Q;
  return Q;
}

inline int64_t floorMod(int64_t A, int64_t B) {
  int64_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    R += B;
  return R;
}

/// std::min / std::max: the first argument wins ties and unordered pairs.
template <typename T> inline T min(T A, T B) { return B < A ? B : A; }
template <typename T> inline T max(T A, T B) { return A < B ? B : A; }

// Elementwise math with <cmath>'s overload set: float and double map to
// the matching builtin, integral arguments compute in double.
inline float abs(float X) { return __builtin_fabsf(X); }
inline double abs(double X) { return __builtin_fabs(X); }
inline int abs(int X) { return __builtin_abs(X); }
inline long abs(long X) { return __builtin_labs(X); }

#define FT_RT_MATH(NAME, FLOAT_FN)                                             \
  inline float NAME(float X) { return FLOAT_FN(X); }                           \
  inline double NAME(double X) { return __builtin_##NAME(X); }                 \
  template <typename T> inline double NAME(T X) {                              \
    return __builtin_##NAME(double(X));                                        \
  }
FT_RT_MATH(sqrt, __builtin_sqrtf)
#if FT_RT_VECTOR_MATH
FT_RT_MATH(exp, expf)
FT_RT_MATH(log, logf)
#else
FT_RT_MATH(exp, __builtin_expf)
FT_RT_MATH(log, __builtin_logf)
#endif
FT_RT_MATH(tanh, __builtin_tanhf)
#undef FT_RT_MATH

template <typename T> inline T sigmoid(T X) { return T(1) / (T(1) + exp(-X)); }

/// Atomic read-modify-write via compare-exchange (works for any scalar).
template <typename T, typename OpFn>
inline void atomicRmw(T *Addr, T Val, OpFn Op) {
  T Old;
  __atomic_load(Addr, &Old, __ATOMIC_RELAXED);
  T New = Op(Old, Val);
  while (!__atomic_compare_exchange(Addr, &Old, &New, true, __ATOMIC_RELAXED,
                                    __ATOMIC_RELAXED))
    New = Op(Old, Val);
}

template <typename T> inline void atomicAdd(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A + B; });
}
template <typename T> inline void atomicMul(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A * B; });
}
template <typename T> inline void atomicMin(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A < B ? A : B; });
}
template <typename T> inline void atomicMax(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A > B ? A : B; });
}

/// The trampoline from an emitted `[&, ...](int64_t i)` or
/// `[&, ...](int64_t i, int w)` loop body to a ChunkFn: the chunk loop is
/// compiled here, with the body inlined into it. The closure (pointers and
/// extents) is copied into a local first, so its members become registers
/// that GCC hoists out of the body's `omp simd` loops; read through \p B,
/// they would be reloaded on every iteration.
template <typename Body>
void runChunk(const void *B, int64_t Begin, int64_t End, int Worker) {
  const Body F = *static_cast<const Body *>(B);
  if constexpr (requires { F(Begin, Worker); }) {
    for (int64_t I = Begin; I < End; ++I)
      F(I, Worker);
  } else {
    for (int64_t I = Begin; I < End; ++I)
      F(I);
  }
}

/// Runs F(i) (or F(i, worker)) for i in [Begin, End) on the host pool.
template <typename Body>
inline void parallelFor(ft_rt_ctx *Ctx, int64_t Begin, int64_t End,
                        const Body &F) {
  Ctx->api->parallel_for(Ctx, Begin, End, &runChunk<Body>, &F);
}

/// Storage of a kernel-allocated tensor for its VarDef scope.
template <typename T> struct Heap {
  ft_rt_ctx *Ctx;
  uint64_t Bytes;
  T *P;
  Heap(ft_rt_ctx *C, int64_t N)
      : Ctx(C), Bytes(uint64_t(N) * sizeof(T)),
        P(static_cast<T *>(C->api->alloc(C, Bytes))) {}
  ~Heap() { Ctx->api->free(Ctx, P, Bytes); }
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;
};

/// Timestamp for the profiler's brackets: a plain instruction, not a
/// function call, so a sampled bracket does not clobber vector registers
/// and the compiler stays free to keep accumulators in registers across
/// the surrounding loops. The host converts ticks to nanoseconds.
inline uint64_t profClock() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  uint64_t V;
  __asm__ __volatile__("mrs %0, cntvct_el0" : "=r"(V));
  return V;
#else
  return 0;
#endif
}

/// The profile slot array of executing thread \p Worker in this call.
inline ProfileEntry *profSlots(ft_rt_ctx *Ctx, int Worker) {
  return Ctx->prof + uint64_t(Worker) * Ctx->prof_slots;
}

/// C[M x N] += op(A) * op(B), row-major, with a register-blocked k-inner
/// loop. The "vendor library" of the as_lib schedule.
template <typename T>
inline void gemm(ft_rt_ctx *Ctx, bool TransA, bool TransB, int64_t M,
                 int64_t N, int64_t K, const T *A, const T *B, T *C) {
  __atomic_fetch_add(&Ctx->stats->gemm_calls, 1, __ATOMIC_RELAXED);
  auto AAt = [&](int64_t I, int64_t Kk) {
    return TransA ? A[Kk * M + I] : A[I * K + Kk];
  };
  auto BAt = [&](int64_t Kk, int64_t J) {
    return TransB ? B[J * K + Kk] : B[Kk * N + J];
  };
  constexpr int64_t Tile = 48;
  for (int64_t I0 = 0; I0 < M; I0 += Tile)
    for (int64_t K0 = 0; K0 < K; K0 += Tile)
      for (int64_t I = I0; I < min(M, I0 + Tile); ++I)
        for (int64_t Kk = K0; Kk < min(K, K0 + Tile); ++Kk) {
          T AV = AAt(I, Kk);
          for (int64_t J = 0; J < N; ++J)
            C[I * N + J] += AV * BAt(Kk, J);
        }
}

} // namespace ft::rt

#pragma GCC visibility pop

#endif // FT_CODEGEN_RT_FT_PRELUDE_H
