//===- bench/table2_compile_time.cpp - Paper Table 2 -------------------------===//
//
// Compiling time (paper §6.5): FreeTensor's analysis-driven auto-transform
// + code generation, measured end-to-end, versus a *measurement-driven
// auto-tuner* in the style of Ansor/TVM, simulated honestly: each tuning
// round mutates the schedule randomly (split factors / parallelization
// choices), really compiles the candidate with the host compiler, and
// really executes it to measure it. The paper's point — analytical
// scheduling costs seconds while tuning costs rounds x seconds-per-round —
// is reproduced structurally; we run a reduced number of rounds and also
// report the extrapolated cost at the paper's round counts.
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "bench_common.h"
#include "codegen/kernel_cache.h"
#include "support/metrics.h"

using namespace ftb;

namespace {

double seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadCase {
  const char *Name;
  Func F;
  std::map<std::string, Buffer> Store;
  int64_t PaperRounds; ///< TVM tuning rounds reported in Table 2 (CPU).
};

std::vector<WorkloadCase> makeCases() {
  std::vector<WorkloadCase> Out;
  {
    SubdivNetConfig C{1024, 32};
    SubdivNetData D = makeSubdivNetData(C);
    WorkloadCase W{"SubdivNet", buildSubdivNet(C), {}, 54};
    W.Store.emplace("e", std::move(D.E));
    W.Store.emplace("adj", std::move(D.Adj));
    W.Store.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
    Out.push_back(std::move(W));
  }
  {
    LongformerConfig C{128, 32, 16};
    LongformerData D = makeLongformerData(C);
    WorkloadCase W{"Longformer", buildLongformer(C), {}, 2944};
    W.Store.emplace("Q", std::move(D.Q));
    W.Store.emplace("K", std::move(D.K));
    W.Store.emplace("V", std::move(D.V));
    W.Store.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
    Out.push_back(std::move(W));
  }
  {
    SoftRasConfig C{32, 16, 16, 0.05f};
    SoftRasData D = makeSoftRasData(C);
    WorkloadCase W{"SoftRas", buildSoftRas(C), {}, 1024};
    W.Store.emplace("verts", std::move(D.Verts));
    W.Store.emplace("px", std::move(D.Px));
    W.Store.emplace("py", std::move(D.Py));
    W.Store.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
    Out.push_back(std::move(W));
  }
  {
    GATConfig C{256, 16, 6};
    GATData D = makeGATData(C);
    WorkloadCase W{"GAT", buildGAT(C), {}, 1024};
    W.Store.emplace("h", std::move(D.H));
    W.Store.emplace("adj", std::move(D.Adj));
    W.Store.emplace("a1", std::move(D.A1));
    W.Store.emplace("a2", std::move(D.A2));
    W.Store.emplace("y", Buffer(DataType::Float32, {C.NNodes, C.Feats}));
    Out.push_back(std::move(W));
  }
  return Out;
}

/// FreeTensor end-to-end compile: auto-transform + codegen + host compiler.
double freeTensorCompileSeconds(const Func &F) {
  double T0 = seconds();
  Func Opt = autoScheduleFunc(F);
  auto K = Kernel::compile(Opt);
  ftAssert(K.ok(), K.message());
  return seconds() - T0;
}

/// One simulated tuning round: random schedule mutation + compile + run.
double tunerRoundSeconds(const WorkloadCase &W, uint64_t &Rng) {
  double T0 = seconds();
  Schedule S(W.F);
  // Random mutations: try a split with a random factor on each loop, and
  // random parallelization, like a random-search tuner exploring the
  // schedule space.
  auto Rand = [&Rng](uint64_t Mod) {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng % Mod;
  };
  std::vector<int64_t> LoopIds;
  std::function<void(const Stmt &)> Collect = [&](const Stmt &St) {
    if (auto L = dyn_cast<ForNode>(St)) {
      LoopIds.push_back(L->Id);
      Collect(L->Body);
      return;
    }
    if (auto Seq = dyn_cast<StmtSeqNode>(St)) {
      for (const Stmt &Sub : Seq->Stmts)
        Collect(Sub);
      return;
    }
    if (auto D = dyn_cast<VarDefNode>(St))
      return Collect(D->Body);
    if (auto I = dyn_cast<IfNode>(St)) {
      Collect(I->Then);
      if (I->Else)
        Collect(I->Else);
    }
  };
  Collect(S.ast());
  if (!LoopIds.empty()) {
    int64_t Target = LoopIds[Rand(LoopIds.size())];
    static const int64_t Factors[] = {2, 4, 8, 16};
    (void)S.split(Target, Factors[Rand(4)]); // May fail; tuners retry.
    if (Rand(2) == 0 && !LoopIds.empty())
      (void)S.parallelize(LoopIds[Rand(LoopIds.size())]);
  }
  S.cleanup();
  auto K = Kernel::compile(S.func());
  ftAssert(K.ok(), K.message());
  // "Measure" the candidate: one real execution.
  std::map<std::string, Buffer *> Args;
  for (auto &KV : const_cast<WorkloadCase &>(W).Store)
    Args[KV.first] = &KV.second;
  Status St = K->run(Args);
  ftAssert(St.ok(), St.message());
  return seconds() - T0;
}

void printTable() {
  constexpr int SimRounds = 5;
  std::printf("\n=== Table 2: compiling time ===\n");
  std::printf("%-12s %14s %14s %14s %16s %22s\n", "workload", "FreeTensor(s)",
              "warm-cache(s)", "tuner s/round", "tuner rounds*",
              "tuner total extrapolated(s)");
  uint64_t Rng = 0x12345678;
  for (WorkloadCase &W : makeCases()) {
    // Per-case counter deltas: without the reset, FT_METRICS numbers
    // accumulate across workloads and mean nothing per case.
    ft::metrics::resetPrefix("deps/");
    double FtSec = freeTensorCompileSeconds(W.F);
    // The same compile against a now-populated kernel cache: scheduling
    // and codegen still run, the host compiler does not.
    double WarmSec = freeTensorCompileSeconds(W.F);
    double RoundSec = 0;
    for (int R = 0; R < SimRounds; ++R) {
      ft::metrics::resetPrefix("deps/");
      RoundSec += tunerRoundSeconds(W, Rng);
    }
    RoundSec /= SimRounds;
    std::printf("%-12s %14.2f %14.3f %14.2f %16lld %22.0f\n", W.Name, FtSec,
                WarmSec, RoundSec, static_cast<long long>(W.PaperRounds),
                RoundSec * double(W.PaperRounds));
  }
  std::printf("* rounds: the CPU tuning-round counts of the paper's "
              "Table 2.\n"
              "paper: FreeTensor needs 0.13%%-22.92%% of TVM's tuning "
              "time.\n\n");
}

void Table2_CompileTime(benchmark::State &State) {
  // The table is produced once in main(); this registered benchmark times
  // one representative FreeTensor end-to-end compile so the binary also
  // reports through the google-benchmark channel.
  static Func F = [] {
    SubdivNetConfig C{1024, 32};
    return buildSubdivNet(C);
  }();
  for (auto _ : State) {
    ft::metrics::resetPrefix("deps/");
    double Sec = freeTensorCompileSeconds(F);
    State.SetIterationTime(Sec);
    State.counters["dep_queries"] =
        double(ft::metrics::counter("deps/dep_queries").load());
  }
}
BENCHMARK(Table2_CompileTime)->UseManualTime()->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  // Keep the bench hermetic unless the caller pinned a cache dir: a private
  // per-process directory makes "FreeTensor(s)" a true cold compile and the
  // warm-cache column a true first rerun.
  bool OwnCacheDir = !std::getenv("FT_CACHE_DIR");
  std::string CacheDir = "/tmp/fttable2." + std::to_string(::getpid());
  if (OwnCacheDir)
    ::setenv("FT_CACHE_DIR", CacheDir.c_str(), 1);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // The registered benchmark above already compiled SubdivNet; point the
  // table at a fresh subdirectory so its cold column stays cold.
  if (OwnCacheDir)
    ::setenv("FT_CACHE_DIR", (CacheDir + "/table").c_str(), 1);
  ft::kernel_cache::memReset();
  printTable();
  if (OwnCacheDir)
    std::system(("rm -rf '" + CacheDir + "'").c_str());
  return 0;
}
