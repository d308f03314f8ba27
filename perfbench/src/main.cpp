//===- perfbench/src/main.cpp - Layer-isolating benchmark -----------------===//
//
// One process per run. Every run acquires the ten §6.1 programs cold, warms
// a serving executor, and then measures three phases; the workload decides
// which phase gets the long window (--seconds) and which get short ones:
//
//   compile  fresh-process warm re-acquisitions from the disk tier
//   kernels  round-robin timing of the 4 forwards and 3 fwd+bwd pairs
//   serve    a closed loop from one thread, k=1 then k=4 in flight
//
// Every output is checked: kernels against naive loops and eager autograd,
// warm re-acquisitions against the checked cold kernels, served responses
// against the direct kernel. The last stdout line is the JSON result; see
// README.md for the metrics and the layer each one should move.
//
//   perfbench --workload W --seed N --seconds T --trace 0|1 [--trace-out F]
//   perfbench --warm-pass --seed N --trace 0|1 [--trace-out F]
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "autodiff/grad.h"
#include "autoschedule/autoschedule.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "pass/simplify.h"
#include "pass/specialize.h"
#include "programs.h"
#include "serve/serve.h"
#include "spans.h"
#include "support/metrics.h"

extern char **environ;

using namespace ft;

namespace pb {
namespace {

//===----------------------------------------------------------------------===//
// Pinned configuration
//===----------------------------------------------------------------------===//

constexpr int kExecutorThreads = 2;
constexpr int kRtThreadBudget = 2; ///< Each executor kernel capped to 1.
constexpr const char *kOptFlags = "-O3"; ///< Kernel::compile's default.

/// Forward outputs and gradients may differ from their references by this
/// much relative error (float reassociation under -O3 and SIMD).
constexpr double kFwdTol = 1e-4;
constexpr double kGradTol = 2e-3;
/// Served responses of the static jobs must match the direct run of the
/// same kernel. The dyn jobs are answered by the executor's own
/// specialized compile, so they are held to kFwdTol.
constexpr double kServeTol = 1e-6;

/// Repeated timings report this quantile of their samples, the fastest
/// (for a rate, 1 - it: the highest). Shared hosts have bursts of contention
/// that slow everything by up to ~70%, some covering most of a run. The
/// fastest of many short samples spread over the run stays on the quiet
/// moments; a median, or even a 10th percentile, moves with the share of
/// the run that was noisy.
constexpr double kTimeQuantile = 0;

/// Short windows for the phases a workload does not stress.
constexpr int kLightWarmPasses = 24;
constexpr double kLightKernelSec = 4;
constexpr double kLightServeSec = 4;
/// Serve percentiles and throughput are computed per block of this many
/// requests (p99 then has 10 samples beyond it), over at least
/// kMinServeBlocks blocks per phase.
constexpr size_t kServeBlock = 1000;
constexpr size_t kMinServeBlocks = 3;
/// The measured phases run in this many interleaved rounds, so each
/// phase's samples spread over the whole run: a noisy period then hits
/// every phase alike, and no phase entirely.
constexpr int kRounds = 8;
/// Target length of one batch of calls to one kernel.
constexpr double kBatchSec = 0.004;
/// Requests per traced/untraced block when tracing.
constexpr int kTraceBlock = 64;

AutoScheduleOptions schedOptions() {
  AutoScheduleOptions O;
  O.NumThreads = kNumThreads;
  return O;
}

serve::Config serveConfig() {
  serve::Config C; // Explicit, not fromEnv: FT_SERVE_* cannot move it.
  C.Threads = kExecutorThreads;
  C.RtThreadBudget = kRtThreadBudget;
  C.QueueCap = 64;
  C.BlockOnFull = false;
  C.BatchWindowUs = 200;
  C.MaxBatch = 16;
  C.OptFlags = "-O2";
  C.Specialize = true;
  C.SpecializeAfter = 16;
  C.SpecializeMax = 4;
  C.SpecOptFlags = "-O3";
  return C;
}

//===----------------------------------------------------------------------===//
// Bookkeeping
//===----------------------------------------------------------------------===//

/// Names the layer the run is in, on stderr, so a wall-clock kill can say
/// where a hang happened.
void stage(const std::string &Layer) {
  std::fprintf(stderr, "stage: %s\n", Layer.c_str());
  std::fflush(stderr);
}

/// Attempted and failed operations. Failures are also printed.
struct Tally {
  uint64_t Attempted = 0, Failed = 0;

  bool check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failed <= 20)
        std::fprintf(stderr, "FAILED: %s\n", What.c_str());
    }
    return Ok;
  }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Value at quantile \p Q of \p V, indexing the sorted samples at
/// Q * (n - 1).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[static_cast<size_t>(Q * double(V.size() - 1))];
}

/// quantile(), with the sample distribution printed to stderr so a noisy
/// run can be told from a slow one.
double sampled(const char *Metric, const std::vector<double> &V, double Q) {
  std::fprintf(stderr,
               "samples: %s n=%zu min=%.6g q%.2g=%.6g median=%.6g max=%.6g\n",
               Metric, V.size(), quantile(V, 0), Q, quantile(V, Q),
               quantile(V, 0.5), quantile(V, 1));
  return quantile(V, Q);
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

/// Interned span names (span records keep a const char *).
const char *spanName(const std::string &S) {
  static std::deque<std::string> Names;
  for (const std::string &N : Names)
    if (N == S)
      return N.c_str();
  Names.push_back(S);
  return Names.back().c_str();
}

double childCpuSeconds() {
  rusage R{};
  getrusage(RUSAGE_CHILDREN, &R);
  return double(R.ru_utime.tv_sec + R.ru_stime.tv_sec) +
         1e-6 * double(R.ru_utime.tv_usec + R.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage R{};
  getrusage(RUSAGE_SELF, &R);
  return double(R.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

uint64_t counterValue(const char *Name) {
  return metrics::counter(Name).load();
}

void fnv(uint64_t &H, const Buffer &B) {
  const auto *P = static_cast<const unsigned char *>(B.raw());
  for (size_t I = 0; I < B.sizeBytes(); ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

//===----------------------------------------------------------------------===//
// The ten programs: DSL to loaded kernel
//===----------------------------------------------------------------------===//

/// One network's compiled programs and its bound buffers.
struct NetRun {
  Net W = Net::SubdivNet;
  NetData D;
  Func Fwd, GradFwd, GradBwd; ///< Scheduled programs.
  Kernel KFwd, KGradFwd, KGradBwd;
  GradResult G;
  std::map<std::string, Buffer> GradStore; ///< Primal + tapes/seeds/grads.
  std::map<std::string, Buffer *> FwdArgs, GradFwdArgs, GradBwdArgs;

  /// (program name, scheduled program, kernel) of every compiled program.
  std::vector<std::tuple<std::string, const Func *, const Kernel *>>
  programs() const {
    std::string N = netName(W);
    std::vector<std::tuple<std::string, const Func *, const Kernel *>> P{
        {"fwd." + N, &Fwd, &KFwd}};
    if (hasGrad(W)) {
      P.emplace_back("grad_fwd." + N, &GradFwd, &KGradFwd);
      P.emplace_back("grad_bwd." + N, &GradBwd, &KGradBwd);
    }
    return P;
  }
};

/// What one acquisition pass measured. Layer times come from spans and
/// are filled only when tracing.
struct PassStats {
  double WallSec = 0; ///< First `build*` to last loaded kernel.
  double BuildSec = 0, GradSec = 0, SchedSec = 0, KeySec = 0, EmitSec = 0,
         CompileSec = 0;
  double CcSec = 0, CcCpuSec = 0; ///< Host compiler wall / CPU (misses).
  double RulesTried = 0, RulesRejected = 0;
  double DepQueries = 0, EmptinessQueries = 0, EmptinessHits = 0;

  double spannedSec() const {
    return BuildSec + GradSec + SchedSec + KeySec + EmitSec + CompileSec;
  }
};

Func schedule(const Func &F, PassStats &PS) {
  AutoScheduleReport Rep;
  Func S;
  {
    Span Sp("autoschedule");
    S = autoScheduleFunc(F, schedOptions(), &Rep);
  }
  for (const auto &[Rule, T] : Rep.Rules) {
    PS.RulesTried += T.Tried;
    PS.RulesRejected += T.Rejected;
  }
  return S;
}

Kernel compile(const Func &S, const std::string &Name, bool ExpectMiss,
               PassStats &PS, Tally &T) {
  if (tracing()) {
    // Extra calls, timed on their own: the key and the emission are the
    // parts of Kernel::compile the benchmark can reach from outside.
    {
      Span Sp("kernel_cache.cacheKey");
      (void)kernel_cache::cacheKey(S, {}, kOptFlags);
    }
    if (ExpectMiss) {
      Span Sp("codegen.generateCpp");
      (void)generateCpp(S);
    }
  }
  stage("jit (Kernel::compile " + Name + ")");
  double Cpu0 = tracing() ? childCpuSeconds() : 0;
  Result<Kernel> K = [&] {
    Span Sp("jit.compile");
    return Kernel::compile(S, kOptFlags);
  }();
  if (tracing())
    PS.CcCpuSec += childCpuSeconds() - Cpu0;
  if (!T.check(K.ok(), "compile " + Name + ": " +
                           (K.ok() ? std::string() : K.message())))
    return Kernel();
  if (K->cacheTier() == KernelCacheTier::Compiled)
    PS.CcSec += K->compileSeconds();
  return *K;
}

/// The inputs of every network, in kNets order.
std::vector<NetData> makeAllData(uint64_t Seed, bool WithRefs) {
  std::vector<NetData> Data;
  for (Net W : kNets)
    Data.push_back(makeNetData(W, Seed, WithRefs));
  return Data;
}

/// Takes the ten programs from DSL to loaded kernels: `build*`, `grad`,
/// `autoScheduleFunc`, `Kernel::compile`. \p Data holds the inputs, in
/// kNets order. \p ExpectMiss: the pass runs on an empty cache. Binds
/// every buffer; runs nothing.
std::vector<NetRun> acquireAll(std::vector<NetData> Data, bool ExpectMiss,
                               PassStats &PS, Tally &T) {
  std::vector<NetRun> Runs;
  for (size_t I = 0; I < Data.size(); ++I) {
    NetRun R;
    R.W = kNets[I];
    R.D = std::move(Data[I]);
    Runs.push_back(std::move(R));
  }

  const size_t Mark = spanCount();
  const uint64_t Dep0 = counterValue("deps/dep_queries");
  const uint64_t EmQ0 = counterValue("deps/emptiness_queries");
  const uint64_t EmH0 = counterValue("deps/emptiness_cache_hits");
  const double T0 = now();
  for (NetRun &R : Runs) {
    const std::string N = netName(R.W);
    stage("frontend (build " + N + ")");
    Func F = [&] {
      Span Sp("frontend.build");
      return buildNet(R.W);
    }();
    stage("autoschedule (" + N + ")");
    R.Fwd = schedule(F, PS);
    R.KFwd = compile(R.Fwd, "fwd." + N, ExpectMiss, PS, T);
    if (!hasGrad(R.W))
      continue;
    stage("autodiff (grad " + N + ")");
    Result<GradResult> G = [&] {
      Span Sp("autodiff.grad");
      return grad(F, wrtOf(R.W), TapeStrategy::Selective);
    }();
    if (!T.check(G.ok(), "grad " + N + ": " +
                             (G.ok() ? std::string() : G.message())))
      continue;
    R.G = std::move(*G);
    stage("autoschedule (grad " + N + ")");
    R.GradFwd = schedule(R.G.Forward, PS);
    R.KGradFwd = compile(R.GradFwd, "grad_fwd." + N, ExpectMiss, PS, T);
    R.GradBwd = schedule(R.G.Backward, PS);
    R.KGradBwd = compile(R.GradBwd, "grad_bwd." + N, ExpectMiss, PS, T);
  }
  PS.WallSec = now() - T0;
  PS.DepQueries = double(counterValue("deps/dep_queries") - Dep0);
  PS.EmptinessQueries = double(counterValue("deps/emptiness_queries") - EmQ0);
  PS.EmptinessHits = double(counterValue("deps/emptiness_cache_hits") - EmH0);
  PS.BuildSec = spanSeconds("frontend.build", Mark);
  PS.GradSec = spanSeconds("autodiff.grad", Mark);
  PS.SchedSec = spanSeconds("autoschedule", Mark);
  PS.KeySec = spanSeconds("kernel_cache.cacheKey", Mark);
  PS.EmitSec = spanSeconds("codegen.generateCpp", Mark);
  PS.CompileSec = spanSeconds("jit.compile", Mark);

  // Bind buffers (outside the timed pass).
  for (NetRun &R : Runs) {
    for (const std::string &P : R.Fwd.Params)
      R.FwdArgs[P] = &R.D.Store.at(P);
    if (!hasGrad(R.W) || R.G.Forward.Params.empty())
      continue;
    R.GradStore = R.D.Store;
    for (const std::string &Tape : R.G.Tapes) {
      auto Def = findVarDef(R.G.Forward.Body, Tape);
      std::vector<int64_t> Shape;
      bool Const = Def != nullptr;
      if (Def)
        for (const Expr &E : Def->Info.Shape) {
          auto IC = dyn_cast<IntConstNode>(E);
          Const = Const && IC != nullptr;
          Shape.push_back(IC ? IC->Val : 0);
        }
      T.check(Const, "tape " + Tape + " has a constant shape");
      R.GradStore.emplace(Tape, Buffer(DataType::Float32, Shape));
    }
    for (const auto &[Y, Seed] : R.G.SeedNames) {
      Buffer S(DataType::Float32, R.GradStore.at(Y).shape());
      for (int64_t I = 0; I < S.numel(); ++I)
        S.setF(I, 1.0);
      R.GradStore.emplace(Seed, std::move(S));
    }
    for (const auto &[X, GradName] : R.G.GradNames)
      R.GradStore.emplace(GradName,
                          Buffer(DataType::Float32, R.GradStore.at(X).shape()));
    for (const std::string &P : R.G.Forward.Params)
      R.GradFwdArgs[P] = &R.GradStore.at(P);
    for (const std::string &P : R.G.Backward.Params)
      R.GradBwdArgs[P] = &R.GradStore.at(P);
  }
  return Runs;
}

/// Checks that every program's first acquisition in this process came
/// from \p Tier: a fresh private cache compiles each fingerprint once, and
/// a later process finds it on disk.
void checkTiers(const std::vector<NetRun> &Runs, KernelCacheTier Tier,
                Tally &T) {
  for (const NetRun &R : Runs)
    for (const auto &[Name, F, K] : R.programs())
      if (F->Body != nullptr)
        T.check(K->cacheTier() == Tier,
                Name + " acquired from tier " + nameOf(K->cacheTier()) +
                    ", expected " + nameOf(Tier));
}

bool runKernel(const Kernel &K, const std::map<std::string, Buffer *> &Args,
               const std::string &Name, Tally &T) {
  Status S = K.run(Args);
  return T.check(S.ok(), "run " + Name + ": " + S.message());
}

/// Runs every program once, in a fixed order, and checks the outputs
/// against the references (when present). Returns a hash of the outputs.
uint64_t runAndCheck(std::vector<NetRun> &Runs, bool WithRefs, Tally &T) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (NetRun &R : Runs) {
    const std::string N = netName(R.W);
    const char *Out = outputOf(R.W);
    stage("rt (Kernel::run " + N + ")");
    if (runKernel(R.KFwd, R.FwdArgs, "fwd." + N, T)) {
      const Buffer &Y = R.D.Store.at(Out);
      fnv(H, Y);
      if (WithRefs) {
        double E = relErr(Y.as<float>(), R.D.RefOut.data(), Y.numel());
        T.check(E <= kFwdTol, "fwd." + N + " vs naive loops: rel err " +
                                  std::to_string(E));
      }
    }
    if (!hasGrad(R.W) || R.GradFwdArgs.empty())
      continue;
    if (!runKernel(R.KGradFwd, R.GradFwdArgs, "grad_fwd." + N, T) ||
        !runKernel(R.KGradBwd, R.GradBwdArgs, "grad_bwd." + N, T))
      continue;
    const Buffer &Y = R.GradStore.at(Out);
    fnv(H, Y);
    if (WithRefs) {
      double E = relErr(Y.as<float>(), R.D.RefOut.data(), Y.numel());
      T.check(E <= kFwdTol, "grad_fwd." + N + " output vs naive loops: " +
                                std::to_string(E));
    }
    for (const auto &[X, GradName] : R.G.GradNames) {
      const Buffer &Gb = R.GradStore.at(GradName);
      fnv(H, Gb);
      if (WithRefs) {
        double E = relErr(Gb.as<float>(), R.D.RefGrad.at(X).data(),
                          Gb.numel());
        T.check(E <= kGradTol, "grad." + N + " d/d" + X +
                                   " vs eager autograd: rel err " +
                                   std::to_string(E));
      }
    }
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Warm passes: fresh child processes re-acquire from the disk tier
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  bool WarmPass = false;
};

/// Child side: one pass, reported as `key=value` tokens on one line.
int warmPassMain(const Options &O) {
  setTracing(O.Trace);
  Tally T;
  PassStats PS;
  std::vector<NetRun> Runs =
      acquireAll(makeAllData(O.Seed, /*WithRefs=*/false),
                 /*ExpectMiss=*/false, PS, T);
  checkTiers(Runs, KernelCacheTier::Disk, T);
  uint64_t Hash = runAndCheck(Runs, /*WithRefs=*/false, T);
  if (O.Trace && !O.TraceOut.empty())
    writeSpans(O.TraceOut);
  std::printf("warm_pass wall_ms=%.6f build_ms=%.6f grad_ms=%.6f "
              "sched_ms=%.6f key_us=%.6f compile_ms=%.6f rules_tried=%g "
              "rules_rejected=%g dep_queries=%g emptiness_queries=%g "
              "emptiness_hits=%g attempted=%llu failed=%llu hash=%llu\n",
              PS.WallSec * 1e3, PS.BuildSec * 1e3, PS.GradSec * 1e3,
              PS.SchedSec * 1e3, PS.KeySec * 1e6, PS.CompileSec * 1e3,
              PS.RulesTried, PS.RulesRejected, PS.DepQueries,
              PS.EmptinessQueries, PS.EmptinessHits,
              (unsigned long long)T.Attempted, (unsigned long long)T.Failed,
              (unsigned long long)Hash);
  return 0;
}

/// Parent side: spawns one warm pass and parses its report. Returns an
/// empty map when the child failed to run or report.
std::map<std::string, double> spawnWarmPass(const Options &O, bool Trace,
                                            const std::string &TraceOut,
                                            uint64_t &Hash) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return {};
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&FA, Pipe[0]);
  posix_spawn_file_actions_addclose(&FA, Pipe[1]);
  std::vector<std::string> Args = {"perfbench",  "--warm-pass",
                                   "--seed",     std::to_string(O.Seed),
                                   "--trace",    Trace ? "1" : "0",
                                   "--trace-out", TraceOut};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, "/proc/self/exe", &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  close(Pipe[1]);
  std::string Out;
  if (Rc == 0) {
    char Buf[4096];
    ssize_t N;
    while ((N = read(Pipe[0], Buf, sizeof Buf)) > 0)
      Out.append(Buf, static_cast<size_t>(N));
  }
  close(Pipe[0]);
  int Status = 0;
  if (Rc != 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return {};
  std::map<std::string, double> M;
  size_t At = Out.find("warm_pass ");
  if (At == std::string::npos)
    return {};
  std::istringstream In(Out.substr(At + 10));
  std::string Tok;
  while (In >> Tok) {
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos)
      continue;
    if (Tok.compare(0, Eq, "hash") == 0)
      Hash = std::strtoull(Tok.c_str() + Eq + 1, nullptr, 10);
    else
      M[Tok.substr(0, Eq)] = std::strtod(Tok.c_str() + Eq + 1, nullptr);
  }
  return M;
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

/// One forward kernel, or one fwd+bwd pair, timed in the kernels phase.
struct KernelUnit {
  NetRun *R = nullptr;
  bool Grad = false;
  const char *FwdSpan = nullptr, *BwdSpan = nullptr;
  int Reps = 1;                  ///< Calls per batch.
  std::vector<double> PerCallMs; ///< One sample per batch.
};

/// One in-flight request's own buffers, for every job type.
struct Slot {
  std::vector<std::map<std::string, Buffer>> Bufs;
  std::vector<std::map<std::string, Buffer *>> Args;
  std::future<serve::Response> Fut;
  int Job = -1;
  uint64_t Req = 0;
  double T0 = 0, SubmitSec = 0;

  explicit Slot(const std::vector<ServeJob> &Jobs) {
    for (const ServeJob &J : Jobs) {
      std::map<std::string, Buffer> B = J.Inputs;
      B.emplace(J.Out, Buffer(DataType::Float32, J.OutShape));
      Bufs.push_back(std::move(B));
    }
    for (auto &B : Bufs) {
      std::map<std::string, Buffer *> A;
      for (auto &[N, Buf] : B)
        A[N] = &Buf;
      Args.push_back(std::move(A));
    }
  }
};

class Run {
public:
  explicit Run(Options Opts) : O(std::move(Opts)) {}
  int main();

private:
  using Metrics =
      std::vector<std::pair<std::string, std::pair<double, const char *>>>;

  void e2e(const std::string &N, double V, const char *Unit) {
    E2E.push_back({N, {V, Unit}});
  }
  void layer(const std::string &N, double V, const char *Unit) {
    Layer.push_back({N, {V, Unit}});
  }
  /// This phase's total window: --seconds for the workload's own phase.
  double window(const char *Workload, double Light) const {
    return O.Workload == Workload ? O.Seconds : Light;
  }

  void coldPassLayers(const PassStats &Cold);
  void serveSetup();
  void serveRound(double Sec, bool Last);
  void serveReport();
  void submit(Slot &S);
  double complete(Slot &S, serve::Response &Resp);
  void warmRound(int MinPasses, double Sec);
  void warmReport();
  void kernelsSetup();
  void kernelsRound(double Sec);
  void kernelsReport();
  uint64_t parallelFors() const;
  uint64_t serveParallelFors() const;

  Options O;
  Tally T;
  Metrics E2E, Layer;
  double OverheadPct = 0;

  std::vector<NetRun> Runs;
  uint64_t ColdHash = 0;

  // Warm phase.
  int WarmPasses = 0;
  std::vector<double> WarmUntraced, WarmTraced, WarmCoverPct;
  std::map<std::string, std::vector<double>> WarmLayers;

  // Kernels phase.
  std::vector<KernelUnit> Units;
  int KernelRounds = 0;
  double KernelTracedSec = 0, KernelUntracedSec = 0;
  size_t KernelMark = 0;

  // Serve phase.
  std::unique_ptr<serve::Executor> Ex;
  serve::Config Cfg = serveConfig();
  std::vector<ServeJob> Jobs;
  std::vector<Slot> Slots;
  std::vector<Kernel> DirectK;
  std::vector<std::vector<float>> Direct;
  std::vector<int> Order;
  size_t Next = 0;
  uint64_t ReqSeq = 0, Sent = 0, K1Requests = 0, K4Requests = 0;
  serve::ServeStats Before;
  std::vector<double> Lat, LatTraced, LatUntraced;
  std::vector<double> SubmitUs, QueueUs, ExecUs, WakeUs;
  std::vector<double> BatchSizes, Gaps; ///< k=4: sizes, inter-completion s.
};

//===----------------------------------------------------------------------===//
// Warm phase
//===----------------------------------------------------------------------===//

void Run::warmRound(int MinPasses, double Sec) {
  const double T0 = now();
  for (int I = 0; I < MinPasses || now() - T0 < Sec; ++I) {
    const int Pass = WarmPasses++;
    const bool Trace = O.Trace && Pass % 2 == 0;
    const std::string Name = "warm pass " + std::to_string(Pass);
    stage("kernel_cache (" + Name + ")");
    uint64_t Hash = 0;
    std::map<std::string, double> M = spawnWarmPass(
        O, Trace,
        Trace && !O.TraceOut.empty()
            ? O.TraceOut + ".warm" + std::to_string(Pass)
            : "",
        Hash);
    if (!T.check(!M.empty(), Name + " ran and reported"))
      continue;
    T.Attempted += uint64_t(M["attempted"]);
    T.Failed += uint64_t(M["failed"]);
    T.check(Hash == ColdHash,
            Name + " outputs equal the checked cold kernels' outputs");
    (Trace ? WarmTraced : WarmUntraced).push_back(M["wall_ms"]);
    if (!Trace)
      continue;
    for (const char *K : {"build_ms", "grad_ms", "sched_ms", "key_us",
                          "compile_ms", "rules_tried", "rules_rejected",
                          "dep_queries", "emptiness_queries", "emptiness_hits"})
      WarmLayers[K].push_back(M[K]);
    WarmCoverPct.push_back(100.0 *
                           (M["build_ms"] + M["grad_ms"] + M["sched_ms"] +
                            M["key_us"] * 1e-3 + M["compile_ms"]) /
                           M["wall_ms"]);
  }
}

void Run::warmReport() {
  e2e("compile_warm_ms",
      sampled("compile_warm_ms", WarmUntraced, kTimeQuantile), "ms");
  if (!O.Trace)
    return;
  auto M = [&](const char *K) { return mean(WarmLayers[K]); };
  layer("frontend.build_ms", M("build_ms"), "ms");
  layer("autodiff.grad_ms", M("grad_ms"), "ms");
  layer("autoschedule.ms", M("sched_ms"), "ms");
  layer("autoschedule.rules_tried", M("rules_tried"), "count");
  layer("autoschedule.rules_rejected", M("rules_rejected"), "count");
  layer("analysis.dep_queries", M("dep_queries"), "count");
  layer("analysis.emptiness_hit_ratio",
        M("emptiness_queries") > 0
            ? M("emptiness_hits") / M("emptiness_queries")
            : 0,
        "ratio");
  layer("kernel_cache.key_us", M("key_us"), "us");
  layer("kernel_cache.disk_hit_ms", M("compile_ms"), "ms");
  layer("trace.split_pct.compile_warm", mean(WarmCoverPct), "%");
  if (O.Workload == "compile")
    OverheadPct = 100.0 * (mean(WarmTraced) / mean(WarmUntraced) - 1.0);
}

//===----------------------------------------------------------------------===//
// Kernels phase
//===----------------------------------------------------------------------===//

bool callUnit(KernelUnit &U, Tally &T) {
  const NetRun &R = *U.R;
  const std::string N = netName(R.W);
  if (!U.Grad) {
    Span Sp(U.FwdSpan);
    return runKernel(R.KFwd, R.FwdArgs, "fwd." + N, T);
  }
  bool Ok;
  {
    Span Sp(U.FwdSpan);
    Ok = runKernel(R.KGradFwd, R.GradFwdArgs, "grad_fwd." + N, T);
  }
  Span Sp(U.BwdSpan);
  return runKernel(R.KGradBwd, R.GradBwdArgs, "grad_bwd." + N, T) && Ok;
}

uint64_t Run::parallelFors() const {
  uint64_t S = 0;
  for (const NetRun &R : Runs)
    for (const auto &[Name, F, K] : R.programs())
      if (F->Body != nullptr)
        S += K->rtStats().ParallelFors;
  return S;
}

/// Parallel regions run by the serve kernels. The counters live in the
/// loaded library, which the executor shares when it found the kernel in
/// the cache, so its runs count here too.
uint64_t Run::serveParallelFors() const {
  uint64_t S = 0;
  for (const Kernel &K : DirectK)
    S += K.rtStats().ParallelFors;
  return S;
}

void Run::kernelsSetup() {
  for (NetRun &R : Runs)
    Units.push_back({&R, false,
                     spanName(std::string("rt.run.fwd.") + netName(R.W)),
                     nullptr, 1, {}});
  for (NetRun &R : Runs)
    if (hasGrad(R.W) && !R.GradFwdArgs.empty())
      Units.push_back(
          {&R, true, spanName(std::string("rt.run.grad_fwd.") + netName(R.W)),
           spanName(std::string("rt.run.grad_bwd.") + netName(R.W)), 1, {}});
  // Warm each kernel, then size its batch to about kBatchSec.
  const bool WasTracing = tracing();
  setTracing(false);
  for (KernelUnit &U : Units) {
    callUnit(U, T);
    double T0 = now();
    for (int I = 0; I < 3; ++I)
      callUnit(U, T);
    double Per = (now() - T0) / 3;
    U.Reps = std::clamp(static_cast<int>(kBatchSec / std::max(Per, 1e-7)), 1,
                        1000);
  }
  setTracing(WasTracing);
  KernelMark = spanCount();
}

void Run::kernelsRound(double Sec) {
  stage("rt (kernel timing)");
  const bool WasTracing = tracing();
  const double T0 = now();
  for (int I = 0; I == 0 || now() - T0 < Sec; ++I) {
    // Every kernel once per round, so a noisy period hits all alike.
    const bool Trace = O.Trace && KernelRounds++ % 2 == 0;
    setTracing(Trace);
    const double R0 = now();
    for (KernelUnit &U : Units) {
      const double B0 = now();
      for (int Rep = 0; Rep < U.Reps; ++Rep)
        callUnit(U, T);
      U.PerCallMs.push_back((now() - B0) * 1e3 / U.Reps);
    }
    (Trace ? KernelTracedSec : KernelUntracedSec) += now() - R0;
    // Check this round's outputs (untimed).
    setTracing(false);
    for (KernelUnit &U : Units) {
      const NetRun &R = *U.R;
      const std::string N = netName(R.W);
      if (!U.Grad) {
        const Buffer &Y = R.D.Store.at(outputOf(R.W));
        T.check(relErr(Y.as<float>(), R.D.RefOut.data(), Y.numel()) <=
                    kFwdTol,
                "timed fwd." + N + " output vs naive loops");
        continue;
      }
      for (const auto &[X, GradName] : R.G.GradNames) {
        const Buffer &Gb = R.GradStore.at(GradName);
        T.check(relErr(Gb.as<float>(), R.D.RefGrad.at(X).data(),
                       Gb.numel()) <= kGradTol,
                "timed grad." + N + " d/d" + X + " vs eager autograd");
      }
    }
  }
  setTracing(WasTracing);
}

void Run::kernelsReport() {
  for (KernelUnit &U : Units) {
    std::string M =
        std::string(U.Grad ? "grad_ms." : "fwd_ms.") + netName(U.R->W);
    e2e(M, sampled(M.c_str(), U.PerCallMs, kTimeQuantile), "ms/call");
  }
  if (!O.Trace)
    return;
  for (KernelUnit &U : Units) {
    if (!U.Grad)
      continue;
    const std::string N = netName(U.R->W);
    size_t Calls = std::max<size_t>(spanCalls(U.FwdSpan, KernelMark), 1);
    layer("rt.fwd_pass_ms." + N,
          spanSeconds(U.FwdSpan, KernelMark) * 1e3 / Calls, "ms");
    layer("rt.bwd_pass_ms." + N,
          spanSeconds(U.BwdSpan, KernelMark) * 1e3 / Calls, "ms");
    layer("autodiff.tape_kb." + N, double(U.R->G.totalTapeBytes()) / 1024.0,
          "KiB");
  }
  if (O.Workload == "kernels")
    OverheadPct = 100.0 * (KernelTracedSec / KernelUntracedSec - 1.0);
}

//===----------------------------------------------------------------------===//
// Serve phase
//===----------------------------------------------------------------------===//

/// Pre-warms the kernel cache with the kernels a warm executor holds for
/// \p Jobs, one per fingerprint, compiled here on a few threads because
/// the executor's single compile thread would take them one after another
/// and double the run's set-up: the generic kernel of every submitted
/// program at `Config::OptFlags`, and for each dyn job the specialization
/// of its bucket, replayed as `ftc --advise --specialize` does. Should the
/// executor's specialization pipeline change, it compiles its own kernel
/// in the warm-up; set-up then reads longer and nothing else changes.
/// \p DirectOf maps each job to its direct kernel.
std::vector<std::optional<Kernel>>
precompileServeKernels(const std::vector<ServeJob> &Jobs,
                       const serve::Config &Cfg, std::vector<size_t> &DirectOf,
                       Tally &T) {
  struct Want {
    std::string Name, Flags;
    Func F;
    uint64_t Key;
  };
  std::vector<Want> Wants;
  auto add = [&](const std::string &Name, Func F, const std::string &Flags) {
    const uint64_t Key = kernel_cache::cacheKey(F, {}, Flags).Full;
    for (size_t I = 0; I < Wants.size(); ++I)
      if (Wants[I].Key == Key)
        return I;
    Wants.push_back({Name, Flags, std::move(F), Key});
    return Wants.size() - 1;
  };
  DirectOf.assign(Jobs.size(), 0);
  for (size_t J = 0; J < Jobs.size(); ++J) {
    DirectOf[J] = add(Jobs[J].Name, Jobs[J].F, Cfg.OptFlags);
    if (Jobs[J].Dyn)
      DirectOf[J] = add(Jobs[J].Name + " (specialized)",
                        autoScheduleFunc(simplify(
                            specializeFunc(Jobs[J].F, {{"n", Jobs[J].DynN}}))),
                        Cfg.SpecOptFlags);
  }

  std::vector<std::optional<Result<Kernel>>> Got(Wants.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Wants.size();)
      Got[I] = Kernel::compile(Wants[I].F, CodegenOptions{}, Wants[I].Flags);
  };
  const unsigned Threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back(Work);
  for (std::thread &Th : Pool)
    Th.join();

  std::vector<std::optional<Kernel>> Kernels(Wants.size());
  for (size_t I = 0; I < Wants.size(); ++I) {
    const Result<Kernel> &K = *Got[I];
    if (T.check(K.ok(), "compile serve kernel " + Wants[I].Name + ": " +
                            (K.ok() ? std::string() : K.message())) &&
        T.check(K->cacheTier() == KernelCacheTier::Compiled,
                "serve kernel " + Wants[I].Name + " acquired from tier " +
                    nameOf(K->cacheTier()) + ", expected miss"))
      Kernels[I] = *K;
  }
  return Kernels;
}

void Run::serveSetup() {
  stage("jit (serve kernels)");
  Jobs = makeServeJobs(O.Seed);
  std::vector<size_t> DirectOf;
  std::vector<std::optional<Kernel>> Kernels =
      precompileServeKernels(Jobs, Cfg, DirectOf, T);

  stage("serve (setup: executor warm-up)");
  Ex = std::make_unique<serve::Executor>(Cfg);
  std::printf("pinned: AutoScheduleOptions::NumThreads=%d FT_NUM_THREADS=%s "
              "executor.Threads=%d executor.RtThreadBudget=%d\n",
              kNumThreads, std::getenv("FT_NUM_THREADS"), Cfg.Threads,
              Cfg.RtThreadBudget);
  Slots.reserve(4);
  for (int I = 0; I < 4; ++I)
    Slots.emplace_back(Jobs);
  Direct.resize(Jobs.size());
  DirectK.resize(Jobs.size());

  auto outOf = [&](int J) -> const Buffer & {
    return Slots[0].Bufs[J].at(Jobs[J].Out);
  };
  auto syncRequest = [&](int J) {
    auto R = Ex->submit(Jobs[J].F, Slots[0].Args[J]);
    if (!T.check(R.ok(), "submit " + Jobs[J].Name + ": " +
                             (R.ok() ? std::string() : R.message())))
      return false;
    serve::Response Resp = R->get();
    return T.check(Resp.S.ok(),
                   "serve " + Jobs[J].Name + ": " + Resp.S.message());
  };

  // First sight of every fingerprint: the executor's cache probe finds the
  // kernel compiled above. Then drive each shape-generic bucket past
  // SpecializeAfter; the nominated specialized compiles land before
  // drain() returns.
  const uint64_t Miss0 = counterValue("codegen/jit_cache_miss");
  for (size_t J = 0; J < Jobs.size(); ++J)
    if (syncRequest(int(J))) {
      const Buffer &Y = outOf(int(J));
      T.check(relErr(Y.as<float>(), Jobs[J].RefOut.data(), Y.numel()) <=
                  kFwdTol,
              "first response " + Jobs[J].Name + " vs reference");
    }
  for (size_t J = 0; J < Jobs.size(); ++J)
    for (uint64_t I = 0; Jobs[J].Dyn && I < Cfg.SpecializeAfter + 1; ++I)
      syncRequest(int(J));
  Ex->drain();
  const serve::ServeStats Warm = Ex->stats();
  T.check(Warm.CompilesFailed == 0 && Warm.SpecCompilesFailed == 0,
          "no executor compile failed in the warm-up");
  // Whether the pre-compile saved the executor its compiles is a note, not
  // a check: it depends on the executor's private pipeline.
  size_t Dyn = 0;
  for (const ServeJob &J : Jobs)
    Dyn += J.Dyn;
  std::fprintf(stderr,
               "note: executor warm-up: %llu of %zu generic kernels found in "
               "the kernel cache, %llu compiles, %llu specialized compiles, "
               "%llu host-compiler runs\n",
               (unsigned long long)Warm.CacheHits, Kernels.size() - Dyn,
               (unsigned long long)Warm.CompilesStarted,
               (unsigned long long)Warm.SpecCompilesStarted,
               (unsigned long long)(counterValue("codegen/jit_cache_miss") -
                                    Miss0));

  // The direct kernels: the ones the executor holds, when it found them.
  for (size_t J = 0; J < Jobs.size(); ++J) {
    if (!Kernels[DirectOf[J]])
      continue;
    DirectK[J] = *Kernels[DirectOf[J]];
    if (!runKernel(DirectK[J], Slots[0].Args[J], "direct " + Jobs[J].Name, T))
      continue;
    const Buffer &Y = outOf(int(J));
    T.check(relErr(Y.as<float>(), Jobs[J].RefOut.data(), Y.numel()) <=
                kFwdTol,
            "direct " + Jobs[J].Name + " vs reference");
    Direct[J].assign(Y.as<float>(), Y.as<float>() + Y.numel());
  }

  // Per-job floors, timed only in traced mode.
  for (size_t J = 0; O.Trace && J < Jobs.size(); ++J) {
    if (Direct[J].empty())
      continue;
    const char *RunSpan = spanName("rt.direct." + Jobs[J].Name);
    const char *KeySpan = spanName("kernel_cache.cacheKey." + Jobs[J].Name);
    std::vector<double> RunUs, KeyUs;
    for (int I = 0; I < 200; ++I) {
      double A = now();
      {
        Span Sp(RunSpan);
        runKernel(DirectK[J], Slots[0].Args[J], "direct " + Jobs[J].Name, T);
      }
      double B = now();
      {
        Span Sp(KeySpan);
        (void)kernel_cache::cacheKey(Jobs[J].F, {}, Cfg.OptFlags);
      }
      RunUs.push_back((B - A) * 1e6);
      KeyUs.push_back((now() - B) * 1e6);
    }
    layer("rt.direct_us." + Jobs[J].Name, median(RunUs), "us");
    layer("kernel_cache.key_us." + Jobs[J].Name, median(KeyUs), "us");
  }

  Order = serveOrder(Jobs.size(), 20, O.Seed);
  Before = Ex->stats();
}

void Run::submit(Slot &S) {
  S.Job = Order[Next++ % Order.size()];
  S.Req = ++ReqSeq;
  S.T0 = now();
  Result<std::future<serve::Response>> R = [&] {
    Span Sp("serve.submit", S.Req);
    return Ex->submit(Jobs[S.Job].F, S.Args[S.Job]);
  }();
  S.SubmitSec = now() - S.T0;
  ++Sent;
  if (!T.check(R.ok(), "submit " + Jobs[S.Job].Name + ": " +
                           (R.ok() ? std::string() : R.message()))) {
    S.Job = -1;
    return;
  }
  S.Fut = std::move(*R);
}

/// Waits for \p S's response and checks it. Returns the caller-observed
/// seconds, or a negative value on failure.
double Run::complete(Slot &S, serve::Response &Resp) {
  if (S.Job < 0)
    return -1.0;
  {
    Span Sp("serve.get", S.Req);
    Resp = S.Fut.get();
  }
  const double Caller = now() - S.T0;
  const ServeJob &J = Jobs[S.Job];
  bool Ok =
      T.check(Resp.S.ok(), "response " + J.Name + ": " + Resp.S.message()) &&
      T.check(Resp.ServedBy == serve::Tier::Jit && (!J.Dyn || Resp.Specialized),
              "response " + J.Name + " served by the " +
                  (J.Dyn ? "specialized " : "") + "compiled kernel");
  const Buffer &Y = S.Bufs[S.Job].at(J.Out);
  Ok = Ok && T.check(!Direct[S.Job].empty() &&
                         relErr(Y.as<float>(), Direct[S.Job].data(),
                                Y.numel()) <= (J.Dyn ? kFwdTol : kServeTol),
                     "response " + J.Name + " equals the direct kernel's");
  return Ok ? Caller : -1.0;
}

void Run::serveRound(double Sec, bool Last) {
  // k = 1: latency. The last round tops each phase up to MinRequests sent
  // (sent, not answered: failed requests must not keep the loop going).
  stage("serve (closed loop, k=1)");
  const bool WasTracing = tracing();
  const uint64_t MinRequests = kMinServeBlocks * kServeBlock;
  double T0 = now();
  while (now() - T0 < 0.5 * Sec || (Last && K1Requests < MinRequests)) {
    const bool Trace = O.Trace && (K1Requests / kTraceBlock) % 2 == 0;
    ++K1Requests;
    setTracing(Trace);
    serve::Response Resp;
    submit(Slots[0]);
    const double C = complete(Slots[0], Resp);
    if (C < 0)
      continue;
    Lat.push_back(C * 1e6);
    (Trace ? LatTraced : LatUntraced).push_back(C * 1e6);
    if (!Trace)
      continue;
    SubmitUs.push_back(Slots[0].SubmitSec * 1e6);
    QueueUs.push_back(Resp.QueueSec * 1e6);
    ExecUs.push_back((Resp.LatencySec - Resp.QueueSec) * 1e6);
    WakeUs.push_back((C - Slots[0].SubmitSec - Resp.LatencySec) * 1e6);
  }
  setTracing(WasTracing);

  // k = 4: throughput, from the same single thread. Gaps between
  // completions are kept, so time spent in other phases never counts.
  stage("serve (closed loop, k=4)");
  T0 = now();
  double Prev = T0;
  for (Slot &S : Slots)
    submit(S);
  for (size_t I = 0;; ++I) {
    Slot &S = Slots[I % Slots.size()];
    serve::Response Resp;
    ++K4Requests;
    if (complete(S, Resp) >= 0) {
      const double Now = now();
      Gaps.push_back(Now - Prev);
      Prev = Now;
      BatchSizes.push_back(Resp.BatchSize);
    }
    if (now() - T0 >= 0.5 * Sec && (!Last || K4Requests >= MinRequests)) {
      // Stop sending; collect what is still in flight (checked, uncounted).
      for (size_t K = 1; K < Slots.size(); ++K) {
        serve::Response R2;
        complete(Slots[(I + K) % Slots.size()], R2);
      }
      break;
    }
    submit(S);
  }
}

void Run::serveReport() {
  // Percentiles and throughput per block of kServeBlock requests; a low
  // quantile of latency and a high one of throughput over blocks.
  std::vector<double> P50, P99, Rps;
  for (size_t B = 0; B + kServeBlock <= Lat.size(); B += kServeBlock) {
    std::vector<double> Block(Lat.begin() + B, Lat.begin() + B + kServeBlock);
    P50.push_back(quantile(Block, 0.50));
    P99.push_back(quantile(Block, 0.99));
  }
  for (size_t B = 0; B + kServeBlock <= Gaps.size(); B += kServeBlock) {
    double Sum = 0;
    for (size_t I = B; I < B + kServeBlock; ++I)
      Sum += Gaps[I];
    Rps.push_back(double(kServeBlock) / Sum);
  }
  e2e("serve_p50_us", sampled("serve_p50_us", P50, kTimeQuantile), "us");
  e2e("serve_p99_us", sampled("serve_p99_us", P99, kTimeQuantile), "us");
  e2e("serve_rps", sampled("serve_rps", Rps, 1.0 - kTimeQuantile), "req/s");

  const serve::ServeStats After = Ex->stats();
  const uint64_t CompilesTimed =
      (After.CompilesStarted - Before.CompilesStarted) +
      (After.SpecCompilesStarted - Before.SpecCompilesStarted);
  const uint64_t Jit = After.JitServed - Before.JitServed;
  T.check(CompilesTimed == 0, "no compile started while timing serve");
  T.check(Jit == Sent, "every timed request served by a compiled kernel (" +
                           std::to_string(Jit) + " of " +
                           std::to_string(Sent) + ")");
  T.check(After.Rejected == Before.Rejected, "no request rejected");
  if (!O.Trace)
    return;
  layer("serve.submit_us", mean(SubmitUs), "us");
  layer("serve.queue_us", mean(QueueUs), "us");
  layer("serve.exec_us", mean(ExecUs), "us");
  layer("serve.wake_us", mean(WakeUs), "us");
  layer("serve.batch_mean", mean(BatchSizes), "count");
  layer("serve.jit_ratio", Sent ? double(Jit) / double(Sent) : 0, "ratio");
  layer("serve.compiles_timed", double(CompilesTimed), "count");
  if (O.Workload == "serve")
    OverheadPct = 100.0 * (mean(LatTraced) / mean(LatUntraced) - 1.0);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void Run::coldPassLayers(const PassStats &Cold) {
  double SourceKb = 0, SoKb = 0;
  const kernel_cache::Config CacheCfg = kernel_cache::config();
  for (const NetRun &R : Runs)
    for (const auto &[Name, F, K] : R.programs()) {
      if (F->Body == nullptr)
        continue;
      SourceKb += double(K->source().size()) / 1024.0;
      struct stat St{};
      std::string So = kernel_cache::diskLookup(
          CacheCfg, kernel_cache::cacheKey(*F, {}, kOptFlags));
      if (!So.empty() && stat(So.c_str(), &St) == 0)
        SoKb += double(St.st_size) / 1024.0;
    }
  layer("compile_cold_s", Cold.WallSec, "s");
  layer("codegen.emit_ms", Cold.EmitSec * 1e3, "ms");
  layer("codegen.source_kb", SourceKb, "KiB");
  layer("jit.cc_s", Cold.CcSec, "s");
  layer("jit.cc_cpu_s", Cold.CcCpuSec, "s");
  layer("jit.load_ms", (Cold.CompileSec - Cold.CcSec) * 1e3, "ms");
  layer("jit.so_kb", SoKb, "KiB");
  layer("trace.split_pct.compile_cold",
        100.0 * Cold.spannedSec() / Cold.WallSec, "%");
}

int Run::main() {
  setTracing(O.Trace);
  const char *Threads = std::getenv("FT_NUM_THREADS");
  if (Threads == nullptr || std::string(Threads) != "1") {
    std::fprintf(stderr, "perfbench: FT_NUM_THREADS must be 1 (run it "
                         "through run.py)\n");
    return 2;
  }
  const char *CacheDir = std::getenv("FT_CACHE_DIR");
  if (CacheDir == nullptr || CacheDir[0] == '\0') {
    std::fprintf(stderr, "perfbench: FT_CACHE_DIR must name a fresh private "
                         "directory (run it through run.py)\n");
    return 2;
  }

  // Inputs and references: built 3 times and the median time kept, so
  // set-up has a repeated part. The run uses the last build.
  stage("setup (inputs and references)");
  std::vector<double> InputSec;
  std::vector<NetData> Data;
  for (int I = 0; I < 3; ++I) {
    Data.clear(); // One build alive at a time; freeing it is not timed.
    const double T0 = now();
    Data = makeAllData(O.Seed, /*WithRefs=*/true);
    InputSec.push_back(now() - T0);
  }
  const double InputMedian = sampled("inputs_s", InputSec, 0.5);

  // Cold pass: the private cache is empty, so every program compiles.
  const double Cold0 = now();
  PassStats Cold;
  Runs = acquireAll(std::move(Data), /*ExpectMiss=*/true, Cold, T);
  checkTiers(Runs, KernelCacheTier::Compiled, T);
  ColdHash = runAndCheck(Runs, /*WithRefs=*/true, T);
  if (O.Trace)
    coldPassLayers(Cold);

  serveSetup();
  kernelsSetup();
  e2e("setup_s", InputMedian + (now() - Cold0), "s");

  // The measured phases, interleaved in rounds (see kRounds).
  const uint64_t Compiles0 = counterValue("codegen/jit_compiles");
  const uint64_t PFor0 = parallelFors();
  const uint64_t ServePFor0 = serveParallelFors();
  for (int R = 0; R < kRounds; ++R) {
    const bool Last = R + 1 == kRounds;
    serveRound(window("serve", kLightServeSec) / kRounds, Last);
    warmRound((kLightWarmPasses + kRounds - 1) / kRounds,
              window("compile", 0) / kRounds);
    kernelsRound(window("kernels", kLightKernelSec) / kRounds);
  }
  const uint64_t PForGrowth = parallelFors() - PFor0;
  T.check(PForGrowth == 0, "no parallel region ran while timing kernels");
  T.check(counterValue("codegen/jit_compiles") == Compiles0,
          "no Kernel::compile call in the measured phases");
  if (O.Trace) {
    layer("rt.parallel_fors", double(PForGrowth), "count");
    // Not a guard: the specialized serve kernels are scheduled with the
    // executor's default thread count (README.md, "Pinned threads").
    layer("serve.parallel_fors", double(serveParallelFors() - ServePFor0),
          "count");
  }
  serveReport();
  warmReport();
  kernelsReport();
  e2e("peak_rss_mb", peakRssMb(), "MB");

  if (O.Trace) {
    layer("trace.overhead_pct", OverheadPct, "%");
    if (!O.TraceOut.empty() && !writeSpans(O.TraceOut))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   O.TraceOut.c_str());
  }

  stage("report");
  const Metrics &Out = O.Trace ? Layer : E2E;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              T.Failed == 0 ? "true" : "false",
              (unsigned long long)T.Attempted, (unsigned long long)T.Failed);
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].first.c_str(),
                std::isfinite(Out[I].second.first) ? Out[I].second.first : 0.0,
                Out[I].second.second);
  std::printf("}}\n");
  std::fflush(stdout);
  return T.Failed == 0 ? 0 : 1;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--warm-pass")
      O.WarmPass = true;
    else if (A == "--workload" && (V = Val()))
      O.Workload = V;
    else if (A == "--seed" && (V = Val()))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds" && (V = Val()))
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace" && (V = Val()))
      O.Trace = std::string(V) == "1";
    else if (A == "--trace-out" && (V = Val()))
      O.TraceOut = V;
    else
      return false;
  }
  return O.WarmPass || O.Workload == "compile" || O.Workload == "kernels" ||
         O.Workload == "serve";
}

} // namespace
} // namespace pb

int main(int Argc, char **Argv) {
  pb::Options O;
  if (!pb::parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload compile|kernels|serve --seed N "
                 "--seconds T --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  if (O.WarmPass)
    return pb::warmPassMain(O);
  pb::Run R(O);
  return R.main();
}
