//===- perfbench/src/programs.h - Inputs, programs and references -*- C++ -*-===//
///
/// \file
/// Everything the benchmark feeds the system, owned here rather than read
/// from bench/: the problem sizes of the ten §6.1 programs, the base data
/// seeds (mixed with the run's --seed), the serve request mix, and the
/// independent references every output is checked against:
///
///   - forwards: the plain `*Naive()` loops;
///   - gradients: EagerTensor's tape autograd (`eager::backward`), which
///     shares no code with `autodiff`.
///
//===----------------------------------------------------------------------===//

#ifndef FT_PERFBENCH_PROGRAMS_H
#define FT_PERFBENCH_PROGRAMS_H

#include <map>
#include <string>
#include <vector>

#include "interp/buffer.h"
#include "ir/func.h"
#include "workloads/workloads.h"

namespace pb {

using ft::Buffer;
using ft::Func;

/// Kernel threads of every program the benchmark schedules: one, because
/// the default multi-threaded runtime is not yet safe to benchmark
/// (README.md, "Pinned threads").
inline constexpr int kNumThreads = 1;

/// The four §6.1 networks.
enum class Net { SubdivNet, Longformer, SoftRas, GAT };
inline constexpr Net kNets[] = {Net::SubdivNet, Net::Longformer, Net::SoftRas,
                                Net::GAT};
/// "subdivnet", "longformer", "softras", "gat".
const char *netName(Net W);
/// Every network but GAT is differentiated, as in the paper's Fig. 16(b).
inline bool hasGrad(Net W) { return W != Net::GAT; }

/// Problem sizes of the compiled programs: the repository's CPU-scale
/// Fig. 16 sizes, fixed here so a rewrite of bench/ cannot move them.
inline constexpr ft::workloads::SubdivNetConfig kSubdivNet{4096, 64};
inline constexpr ft::workloads::LongformerConfig kLongformer{512, 64, 32};
inline constexpr ft::workloads::SoftRasConfig kSoftRas{128, 32, 32, 0.05f};
inline constexpr ft::workloads::GATConfig kGAT{2048, 32, 8};

/// The DSL program of \p W at the sizes above (the `build*` call).
Func buildNet(Net W);
/// Names of the inputs `grad` differentiates against.
std::vector<std::string> wrtOf(Net W);
/// Name of the output parameter.
const char *outputOf(Net W);

/// Inputs of one network plus its references.
struct NetData {
  /// Every parameter of the forward program, output included (zeroed).
  std::map<std::string, Buffer> Store;
  /// Naive-loop output.
  std::vector<float> RefOut;
  /// Eager-autograd gradient of sum(output), by input name (laid out like
  /// the input); empty for GAT.
  std::map<std::string, std::vector<float>> RefGrad;
};

/// Inputs drawn from \p Seed (same seed, same inputs). References are
/// computed only when \p WithRefs.
NetData makeNetData(Net W, uint64_t Seed, bool WithRefs);

/// Max over i of |A[i] - B[i]| / (1 + |B[i]|).
double relErr(const float *A, const float *B, int64_t N);

//===----------------------------------------------------------------------===//
// Serve request mix
//===----------------------------------------------------------------------===//

/// One request type: a program, its bound buffers and what it should
/// return. Requests of one type differ only in which buffers they own.
struct ServeJob {
  std::string Name;
  /// The submitted program: auto-scheduled with one thread for the static
  /// jobs; the raw shape-generic program for the `dyn` jobs, as a client
  /// of the shape-generic tier submits it.
  Func F;
  bool Dyn = false;
  int64_t DynN = 0; ///< Bound extent `n` of a dyn job.
  std::map<std::string, Buffer> Inputs;
  std::string Out;
  std::vector<int64_t> OutShape;
  /// Independent reference (naive loops / the scale formula).
  std::vector<float> RefOut;
};

/// The 7 request types: an 8192-element scale kernel, the four forwards at
/// Table-2 sizes, and the shape-generic SubdivNet at two mesh sizes.
std::vector<ServeJob> makeServeJobs(uint64_t Seed);

/// The order requests are sent in: every job index \p PerJob times, in an
/// order drawn from \p Seed.
std::vector<int> serveOrder(size_t NumJobs, int PerJob, uint64_t Seed);

} // namespace pb

#endif // FT_PERFBENCH_PROGRAMS_H
