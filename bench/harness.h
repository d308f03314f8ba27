//===- bench/harness.h - The one benchmark harness --------------*- C++ -*-===//
///
/// \file
/// What every bench/ binary shares:
///   - one timing primitive: warm-up, then short batches interleaved across
///     the contenders, so machine-wide drift (frequency scaling, background
///     load) hits all of them instead of whichever ran last;
///   - one private kernel-cache scope, so cold compiles are cold and
///     concurrent runs share nothing;
///   - one report writer: BENCH_<name>.json in the working directory,
///     through json::Writer, with the host that produced it;
///   - the §6.1 workloads at the bench sizes, inputs bound by parameter
///     name, and their differentiated forms.
///
//===----------------------------------------------------------------------===//

#ifndef FT_BENCH_HARNESS_H
#define FT_BENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "autodiff/grad.h"
#include "autoschedule/autoschedule.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "codegen/rt/host.h"
#include "support/json.h"
#include "workloads/workloads.h"

namespace ftb {

using namespace ft;
using namespace ft::workloads;

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

/// Steady-clock seconds.
inline double seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thing a timing call compares. Run(N) performs the measured
/// operation N times. Enter and Exit, when set, run untimed around each of
/// its batches (and its warm-up): the state that only this contender runs
/// under, such as tracing switched on.
struct Contender {
  std::function<void(int64_t)> Run;
  std::function<void()> Enter = nullptr;
  std::function<void()> Exit = nullptr;
};

/// A contender that calls \p Op once per operation.
inline Contender each(std::function<void()> Op) {
  return {[Op = std::move(Op)](int64_t N) {
    for (int64_t I = 0; I < N; ++I)
      Op();
  }};
}

/// A contender that runs \p K on \p Args once per operation. Both must
/// outlive the timing call. A failed run aborts: a bench must not time an
/// error path.
inline Contender kernelRuns(const Kernel &K,
                            const std::map<std::string, Buffer *> &Args) {
  return each([&K, &Args] {
    Status S = K.run(Args);
    ftAssert(S.ok(), S.message());
  });
}

/// How timeInterleaved samples. Every contender first performs Warmup
/// untimed operations; then, in each of Rounds rounds, every contender in
/// turn takes Samples samples of Ops operations. A sample is the mean time
/// of one operation in it.
struct Sampling {
  int64_t Warmup = 2;
  int Rounds = 10;
  int Samples = 3;
  int64_t Ops = 1;
};

/// Seconds per operation: the fastest sample, the quartiles and the median
/// (the upper one for an even count).
struct Timing {
  double Best = 0, Q1 = 0, Median = 0, Q3 = 0;
};

/// Times every contender under \p S; one Timing per contender, in order.
inline std::vector<Timing> timeInterleaved(const std::vector<Contender> &Cs,
                                           const Sampling &S = {}) {
  ftAssert(S.Rounds > 0 && S.Samples > 0 && S.Ops > 0, "no samples to take");
  auto Batch = [](const Contender &C, const std::function<void()> &Body) {
    if (C.Enter)
      C.Enter();
    Body();
    if (C.Exit)
      C.Exit();
  };
  for (const Contender &C : Cs)
    if (S.Warmup > 0)
      Batch(C, [&] { C.Run(S.Warmup); });
  std::vector<std::vector<double>> Samples(Cs.size());
  for (int R = 0; R < S.Rounds; ++R)
    for (size_t I = 0; I < Cs.size(); ++I)
      Batch(Cs[I], [&] {
        for (int K = 0; K < S.Samples; ++K) {
          double T0 = seconds();
          Cs[I].Run(S.Ops);
          Samples[I].push_back((seconds() - T0) / double(S.Ops));
        }
      });
  std::vector<Timing> Out;
  for (std::vector<double> &V : Samples) {
    std::sort(V.begin(), V.end());
    size_t N = V.size();
    Out.push_back({V.front(), V[N / 4], V[N / 2], V[3 * N / 4]});
  }
  return Out;
}

/// Writes \p T as an object of milliseconds.
inline void writeMs(json::Writer &W, const Timing &T) {
  W.beginObject()
      .key("best_ms").value(T.Best * 1e3)
      .key("q1_ms").value(T.Q1 * 1e3)
      .key("median_ms").value(T.Median * 1e3)
      .key("q3_ms").value(T.Q3 * 1e3)
      .endObject();
}

//===----------------------------------------------------------------------===//
// Kernel-cache scope
//===----------------------------------------------------------------------===//

/// A fresh private FT_CACHE_DIR (caching on, memory tier empty) for as long
/// as the object lives; the directory is removed with it. Declare one at
/// the top of main(): nothing a bench compiles lands in the user's cache,
/// and no earlier run's entries warm a cold number.
class CacheScope {
public:
  CacheScope() {
    char Tmpl[] = "/tmp/ftbench.XXXXXX";
    ftAssert(::mkdtemp(Tmpl) != nullptr, "mkdtemp failed");
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    kernel_cache::memReset();
  }
  ~CacheScope() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
  CacheScope(const CacheScope &) = delete;
  CacheScope &operator=(const CacheScope &) = delete;

  const std::string &dir() const { return Dir; }

private:
  std::string Dir;
};

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// Writes BENCH_<Name>.json in the working directory: one object whose
/// members \p Members writes, then `host` — the hardware threads, the
/// kernel pool's threads and the host compiler's identity, so a number
/// can be traced back to the machine and thread count that produced it.
inline void writeReport(const std::string &Name,
                        const std::function<void(json::Writer &)> &Members) {
  std::string Doc;
  json::Writer W(Doc);
  W.beginObject();
  Members(W);
  char CompilerId[19];
  std::snprintf(CompilerId, sizeof(CompilerId), "0x%016llx",
                static_cast<unsigned long long>(kernel_cache::compilerId()));
  W.key("host").beginObject()
      .key("nproc").value(std::thread::hardware_concurrency())
      .key("pool_threads").value(rt::processPool().numThreads())
      .key("compiler_id").value(CompilerId)
      .endObject();
  W.endObject();
  Doc += '\n';
  std::string Path = "BENCH_" + Name + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ftAssert(F != nullptr, "could not open " + Path);
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
}

//===----------------------------------------------------------------------===//
// The §6.1 workloads
//===----------------------------------------------------------------------===//

/// The bench problem sizes: CPU-friendly, where the paper's are GPU-scale
/// (EXPERIMENTS.md).
inline SubdivNetConfig subdivnetCfg() { return {4096, 64}; }
inline LongformerConfig longformerCfg() { return {512, 64, 32}; }
inline SoftRasConfig softrasCfg() { return {128, 32, 32, 0.05f}; }
inline GATConfig gatCfg() { return {2048, 32, 8}; }

/// One §6.1 program with its arguments bound by parameter name: the
/// workload generator's inputs and a zeroed output.
struct Case {
  std::string Name;
  Func F;
  std::map<std::string, Buffer> Store;
  std::string Out;              ///< The output parameter.
  std::vector<std::string> Wrt; ///< The inputs Fig. 16(b) and 18 differentiate.

  /// Pointers into Store, the form Kernel::run and interpret take.
  std::map<std::string, Buffer *> args() {
    std::map<std::string, Buffer *> A;
    for (auto &[N, B] : Store)
      A[N] = &B;
    return A;
  }
};

inline Case subdivnetCase(const SubdivNetConfig &C = subdivnetCfg()) {
  SubdivNetData D = makeSubdivNetData(C);
  Case K{"subdivnet", buildSubdivNet(C), {}, "y", {"e"}};
  K.Store.emplace("e", std::move(D.E));
  K.Store.emplace("adj", std::move(D.Adj));
  K.Store.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
  return K;
}

inline Case longformerCase(const LongformerConfig &C = longformerCfg()) {
  LongformerData D = makeLongformerData(C);
  Case K{"longformer", buildLongformer(C), {}, "y", {"Q", "K", "V"}};
  K.Store.emplace("Q", std::move(D.Q));
  K.Store.emplace("K", std::move(D.K));
  K.Store.emplace("V", std::move(D.V));
  K.Store.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
  return K;
}

inline Case softrasCase(const SoftRasConfig &C = softrasCfg()) {
  SoftRasData D = makeSoftRasData(C);
  Case K{"softras", buildSoftRas(C), {}, "img", {"verts"}};
  K.Store.emplace("verts", std::move(D.Verts));
  K.Store.emplace("px", std::move(D.Px));
  K.Store.emplace("py", std::move(D.Py));
  K.Store.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
  return K;
}

inline Case gatCase(const GATConfig &C = gatCfg()) {
  GATData D = makeGATData(C);
  Case K{"gat", buildGAT(C), {}, "y", {}};
  K.Store.emplace("h", std::move(D.H));
  K.Store.emplace("adj", std::move(D.Adj));
  K.Store.emplace("a1", std::move(D.A1));
  K.Store.emplace("a2", std::move(D.A2));
  K.Store.emplace("y", Buffer(DataType::Float32, {C.NNodes, C.Feats}));
  return K;
}

/// The four forward workloads at the bench sizes.
inline std::vector<Case> paperCases() {
  std::vector<Case> Out;
  Out.push_back(subdivnetCase());
  Out.push_back(longformerCase());
  Out.push_back(softrasCase());
  Out.push_back(gatCase());
  return Out;
}

/// Auto-schedules and JIT-compiles \p F; aborts on failure (benchmarks
/// must not silently skip).
inline Kernel compileAuto(Func F) {
  Func Opt = autoScheduleFunc(std::move(F));
  auto K = Kernel::compile(Opt);
  ftAssert(K.ok(), K.message());
  return *K;
}

/// A Case differentiated with respect to its Wrt inputs: the forward and
/// backward programs auto-scheduled and compiled, with tapes, seeds (all
/// ones) and gradients bound beside the primal arguments. FwdArgs and
/// BwdArgs point into Store, so a GradCase is moved, never copied.
struct GradCase {
  GradResult Grad;
  Kernel Fwd, Bwd;
  std::map<std::string, Buffer> Store;
  std::map<std::string, Buffer *> FwdArgs, BwdArgs;
};

inline GradCase gradCase(Case C, TapeStrategy Strategy) {
  auto G = grad(C.F, C.Wrt, Strategy);
  ftAssert(G.ok(), G.message());
  GradCase R{*G, compileAuto(G->Forward), compileAuto(G->Backward),
             std::move(C.Store), {}, {}};
  for (const std::string &T : G->Tapes) {
    auto D = findVarDef(G->Forward.Body, T);
    ftAssert(D != nullptr, "tape def missing");
    std::vector<int64_t> Shape;
    for (const Expr &E : D->Info.Shape) {
      auto IC = dyn_cast<IntConstNode>(E);
      ftAssert(IC != nullptr, "bench tapes must be constant-shaped");
      Shape.push_back(IC->Val);
    }
    R.Store.emplace(T, Buffer(DataType::Float32, Shape));
  }
  for (const auto &[Y, SeedName] : G->SeedNames) {
    Buffer Seed(DataType::Float32, R.Store.at(Y).shape());
    for (int64_t I = 0; I < Seed.numel(); ++I)
      Seed.setF(I, 1.0);
    R.Store.emplace(SeedName, std::move(Seed));
  }
  for (const auto &[X, GradName] : G->GradNames)
    R.Store.emplace(GradName, Buffer(DataType::Float32, R.Store.at(X).shape()));
  for (const std::string &P : G->Forward.Params)
    R.FwdArgs[P] = &R.Store.at(P);
  for (const std::string &P : G->Backward.Params)
    R.BwdArgs[P] = &R.Store.at(P);
  return R;
}

/// Converts an interp Buffer into an eager Tensor.
inline eager::Tensor toEager(const Buffer &B, bool RequiresGrad = false) {
  return eager::Tensor::fromVec(
      B.shape(),
      std::vector<float>(B.as<float>(), B.as<float>() + B.numel()),
      RequiresGrad);
}

inline eager::IndexTensor toEagerIdx(const Buffer &B) {
  return eager::IndexTensor::fromVec(
      B.shape(),
      std::vector<int64_t>(B.as<int64_t>(), B.as<int64_t>() + B.numel()));
}

} // namespace ftb

#endif // FT_BENCH_HARNESS_H
