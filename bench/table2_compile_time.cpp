//===- bench/table2_compile_time.cpp - Paper Table 2 -------------------------===//
//
// Compiling time (paper §6.5): FreeTensor's analysis-driven auto-transform
// + code generation, measured end-to-end, versus a measurement-driven
// auto-tuner in the style of Ansor/TVM: autoTuneFunc, whose every measured
// candidate is a schedule mutation really compiled with the host compiler
// and really executed. The paper's point — analytical scheduling costs
// seconds while tuning costs rounds x seconds-per-round — is reproduced
// structurally; we run a reduced number of rounds and also report the
// extrapolated cost at the paper's round counts.
//
// Writes BENCH_table2.json.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "support/metrics.h"

using namespace ftb;

namespace {

struct Row {
  std::string Name;
  double FtSec = 0;     ///< Cold end-to-end compile.
  double WarmSec = 0;   ///< The same compile against the populated cache.
  double SearchSec = 0; ///< autoTuneFunc's wall time.
  int Measured = 0, Deduped = 0;
  int64_t PaperRounds = 0; ///< TVM tuning rounds reported in Table 2 (CPU).
  /// A deduplicated candidate costs no compile, so a round costs the
  /// search's wall time over the candidates it compiled and measured.
  double roundSec() const { return SearchSec / Measured; }
};

/// FreeTensor end-to-end compile: auto-transform + codegen + host compiler.
double freeTensorCompileSeconds(const Func &F) {
  double T0 = seconds();
  (void)compileAuto(F);
  return seconds() - T0;
}

Row measure(Case C, int64_t PaperRounds) {
  // Per-case counter deltas: without the reset, FT_METRICS numbers
  // accumulate across workloads and mean nothing per case.
  ft::metrics::resetPrefix("deps/");
  Row R{C.Name};
  R.PaperRounds = PaperRounds;
  R.FtSec = freeTensorCompileSeconds(C.F);
  // Scheduling and codegen still run, the host compiler does not.
  R.WarmSec = freeTensorCompileSeconds(C.F);
  AutoScheduleReport Rep;
  double T0 = seconds();
  auto Best = autoTuneFunc(C.F, C.args(), SearchOptions{}, &Rep);
  R.SearchSec = seconds() - T0;
  ftAssert(Best.ok(), Best.message());
  R.Measured = Rep.CandidatesMeasured;
  R.Deduped = Rep.CandidatesDeduped;
  return R;
}

} // namespace

int main() {
  CacheScope Cache;
  std::vector<Row> Rows;
  Rows.push_back(measure(subdivnetCase({1024, 32}), 54));
  Rows.push_back(measure(longformerCase({128, 32, 16}), 2944));
  Rows.push_back(measure(softrasCase({32, 16, 16, 0.05f}), 1024));
  Rows.push_back(measure(gatCase({256, 16, 6}), 1024));

  std::printf("=== Table 2: compiling time ===\n");
  std::printf("%-12s %14s %14s %14s %9s %16s %22s\n", "workload",
              "FreeTensor(s)", "warm-cache(s)", "tuner s/round", "measured",
              "tuner rounds*", "tuner total extrapolated(s)");
  for (const Row &R : Rows)
    std::printf("%-12s %14.2f %14.3f %14.2f %9d %16lld %22.0f\n",
                R.Name.c_str(), R.FtSec, R.WarmSec, R.roundSec(), R.Measured,
                static_cast<long long>(R.PaperRounds),
                R.roundSec() * double(R.PaperRounds));
  std::printf("* rounds: the CPU tuning-round counts of the paper's "
              "Table 2.\n"
              "paper: FreeTensor needs 0.13%%-22.92%% of TVM's tuning "
              "time.\n");

  writeReport("table2", [&](json::Writer &W) {
    W.key("benchmark").value("table2").key("workloads").beginArray();
    for (const Row &R : Rows)
      W.beginObject()
          .key("name").value(R.Name)
          .key("freetensor_sec").value(R.FtSec)
          .key("warm_cache_sec").value(R.WarmSec)
          .key("search_sec").value(R.SearchSec)
          .key("candidates_measured").value(R.Measured)
          .key("candidates_deduped").value(R.Deduped)
          .key("tuner_sec_per_round").value(R.roundSec())
          .key("paper_rounds").value(R.PaperRounds)
          .key("tuner_extrapolated_sec")
          .value(R.roundSec() * double(R.PaperRounds))
          .endObject();
    W.endArray();
  });
  return 0;
}
