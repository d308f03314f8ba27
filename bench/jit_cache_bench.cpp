//===- bench/jit_cache_bench.cpp - Kernel-cache cold/warm speedup ----------===//
//
// The content-addressed kernel cache (ISSUE 4) on the four §6.1 forward
// workloads: each is auto-scheduled once, then acquired three times against
// a fresh private cache directory — cold (host compiler runs), warm via the
// in-process memory tier, and warm via the on-disk store (memory tier
// dropped first). Outputs of all three kernels must be bit-identical, and
// each warm path must be >= 20x faster than the cold compile.
//
// A second section runs the measurement-driven autoscheduler search twice
// with the same seed — cold and warm — plus once with FT_CACHE=0, showing
// the fingerprint dedup (candidates_deduped > 0) and the wall-clock win of
// searching on a warm cache. Writes BENCH_jit_cache.json.
//
//===----------------------------------------------------------------------===//

#include "frontend/builder.h"
#include "harness.h"

using namespace ftb;

namespace {

struct CacheResult {
  std::string Name;
  double ColdSec = 0;
  double WarmMemSec = 0;
  double WarmDiskSec = 0;
  bool BitIdentical = false;
  double speedupMem() const { return ColdSec / WarmMemSec; }
  double speedupDisk() const { return ColdSec / WarmDiskSec; }
};

std::vector<char> outputBytes(const std::map<std::string, Buffer *> &Args,
                              const std::vector<std::string> &Outputs) {
  std::vector<char> Out;
  for (const std::string &O : Outputs) {
    Buffer &B = *Args.at(O);
    const char *P = reinterpret_cast<const char *>(B.raw());
    Out.insert(Out.end(), P, P + B.numel() * sizeof(float));
  }
  return Out;
}

/// Auto-schedules \p C's program, compiles it three ways (cold / mem /
/// disk) against the private cache dir, runs each kernel on the case's
/// arguments, and bit-compares the outputs.
CacheResult measure(Case &C) {
  CacheResult R;
  R.Name = C.Name;
  const std::string &Name = C.Name;
  Func Opt = autoScheduleFunc(C.F);
  std::map<std::string, Buffer *> Args = C.args();
  const std::vector<std::string> Outputs = {C.Out};

  kernel_cache::memReset();
  double T0 = seconds();
  auto Cold = Kernel::compile(Opt);
  R.ColdSec = seconds() - T0;
  ftAssert(Cold.ok(), Cold.message());
  ftAssert(Cold->cacheTier() == KernelCacheTier::Compiled,
           Name + ": expected a cold miss on a fresh cache dir");
  ftAssert(Cold->run(Args).ok(), "cold run failed");
  std::vector<char> Want = outputBytes(Args, Outputs);

  T0 = seconds();
  auto Mem = Kernel::compile(Opt);
  R.WarmMemSec = seconds() - T0;
  ftAssert(Mem.ok(), Mem.message());
  ftAssert(Mem->cacheTier() == KernelCacheTier::Memory,
           Name + ": expected a memory-tier hit");
  ftAssert(Mem->run(Args).ok(), "mem run failed");
  std::vector<char> GotMem = outputBytes(Args, Outputs);

  kernel_cache::memReset();
  T0 = seconds();
  auto Disk = Kernel::compile(Opt);
  R.WarmDiskSec = seconds() - T0;
  ftAssert(Disk.ok(), Disk.message());
  ftAssert(Disk->cacheTier() == KernelCacheTier::Disk,
           Name + ": expected a disk-tier hit");
  ftAssert(Disk->run(Args).ok(), "disk run failed");
  std::vector<char> GotDisk = outputBytes(Args, Outputs);

  R.BitIdentical = Want == GotMem && Want == GotDisk;
  return R;
}

struct SearchResult {
  double NoCacheSec = 0;
  double ColdSec = 0;
  double WarmSec = 0;
  int Deduped = 0;
  int Measured = 0;
};

/// The search workload: a fusable two-pass pipeline with enough loops for
/// the mutations to bite, small enough that candidate compiles dominate.
Func makeSearchFunc() {
  FunctionBuilder B("searched");
  View X = B.input("x", {makeIntConst(256), makeIntConst(64)});
  View Y = B.output("y", {makeIntConst(256)});
  View T = B.local("t", {makeIntConst(256), makeIntConst(64)});
  B.loop("i", 0, 256, [&](Expr I) {
    B.loop("j", 0, 64, [&](Expr J) {
      T[I][J].assign(X[I][J].load() * makeFloatConst(1.5) +
                     makeFloatConst(0.25));
    });
  });
  B.loop("i", 0, 256, [&](Expr I) {
    Y[I].assign(0.0);
    B.loop("j", 0, 64, [&](Expr J) { Y[I] += T[I][J].load(); });
  });
  return B.build();
}

SearchResult runSearch() {
  SearchResult R;
  Func F = makeSearchFunc();
  Buffer X(DataType::Float32, {256, 64}), Y(DataType::Float32, {256});
  for (int64_t I = 0; I < X.numel(); ++I)
    X.setF(I, 0.01 * double(I % 97));
  std::map<std::string, Buffer *> Args = {{"x", &X}, {"y", &Y}};

  SearchOptions Opts;
  Opts.Rounds = 12;
  Opts.MeasureRuns = 2;
  Opts.OptFlags = "-O1";

  // Baseline: cache disabled — every unique candidate pays the compiler.
  ::setenv("FT_CACHE", "0", 1);
  double T0 = seconds();
  auto B0 = autoTuneFunc(F, Args, Opts);
  R.NoCacheSec = seconds() - T0;
  ftAssert(B0.ok(), B0.message());
  ::setenv("FT_CACHE", "1", 1);

  // Cold: the same seed, now publishing into the (empty) cache dir.
  kernel_cache::memReset();
  AutoScheduleReport Rep;
  T0 = seconds();
  auto B1 = autoTuneFunc(F, Args, Opts, &Rep);
  R.ColdSec = seconds() - T0;
  ftAssert(B1.ok(), B1.message());
  R.Deduped = Rep.CandidatesDeduped;
  R.Measured = Rep.CandidatesMeasured;

  // Warm: the same seed. Candidates repeat, and every compile hits, only
  // as far as the timings rank them as the cold run did: the incumbent
  // each round mutates is the fastest candidate measured so far.
  kernel_cache::memReset();
  T0 = seconds();
  auto B2 = autoTuneFunc(F, Args, Opts);
  R.WarmSec = seconds() - T0;
  ftAssert(B2.ok(), B2.message());
  return R;
}

} // namespace

int main() {
  CacheScope Cache;
  std::vector<CacheResult> Results;
  for (Case &C : paperCases())
    Results.push_back(measure(C));

  bool Ok = true;
  double WorstSpeedup = 1e30;
  for (const CacheResult &R : Results) {
    std::printf("%-10s cold %7.3f s  mem %9.6f s (%7.1fx)  disk %9.6f s "
                "(%7.1fx)  bit-identical %s\n",
                R.Name.c_str(), R.ColdSec, R.WarmMemSec, R.speedupMem(),
                R.WarmDiskSec, R.speedupDisk(),
                R.BitIdentical ? "yes" : "NO");
    Ok = Ok && R.BitIdentical && R.speedupMem() >= 20.0 &&
         R.speedupDisk() >= 20.0;
    WorstSpeedup = std::min({WorstSpeedup, R.speedupMem(), R.speedupDisk()});
  }

  SearchResult S = runSearch();
  std::printf("search     no-cache %7.3f s  cold %7.3f s  warm %7.3f s  "
              "deduped %d  measured %d\n",
              S.NoCacheSec, S.ColdSec, S.WarmSec, S.Deduped, S.Measured);
  Ok = Ok && S.Deduped > 0 && S.WarmSec < S.NoCacheSec;

  writeReport("jit_cache", [&](json::Writer &W) {
    W.key("benchmark").value("jit_kernel_cache");
    W.key("target_speedup").value(20.0).key("workloads").beginArray();
    for (const CacheResult &R : Results)
      W.beginObject()
          .key("name").value(R.Name)
          .key("cold_sec").value(R.ColdSec)
          .key("warm_mem_sec").value(R.WarmMemSec)
          .key("warm_disk_sec").value(R.WarmDiskSec)
          .key("speedup_mem").value(R.speedupMem())
          .key("speedup_disk").value(R.speedupDisk())
          .key("bit_identical").value(R.BitIdentical)
          .endObject();
    W.endArray();
    W.key("worst_speedup").value(WorstSpeedup);
    W.key("search").beginObject()
        .key("no_cache_sec").value(S.NoCacheSec)
        .key("cold_sec").value(S.ColdSec)
        .key("warm_sec").value(S.WarmSec)
        .key("candidates_deduped").value(S.Deduped)
        .key("candidates_measured").value(S.Measured)
        .endObject();
  });

  std::printf("%s: worst warm speedup %.1fx (target >= 20x)\n",
              Ok ? "PASS" : "FAIL", WorstSpeedup);
  return Ok ? 0 : 1;
}
