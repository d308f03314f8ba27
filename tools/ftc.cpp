//===- tools/ftc.cpp - FreeTensor compiler driver ---------------------------===//
//
// A command-line front door to the compiler, mirroring how the original
// project is driven from Python:
//
//   ftc --workload subdivnet|longformer|softras|gat|spmm|sddmm|segsoftmax
//       [--print-ir]        print the staged IR
//       [--no-autoschedule] skip the rule passes
//       [--print-opt-ir]    print the IR after scheduling
//       [--emit-cpp FILE]   write the generated C++ to FILE ("-" = stdout)
//       [--grad]            also differentiate w.r.t. every float input
//                           and report the tapes, each tape-or-
//                           recompute decision with its two costs, and
//                           the backward's IR nodes and shared values
//       [--run N]           JIT-compile and time N executions
//       [--profile]         instrument the kernel (implies --run) and print
//                           the per-loop profile table; combine with
//                           FT_PROFILE=out.folded/out.json for file sinks
//       [--vectorize-width N] explicit SIMD width for auto_vectorize
//                           (0 = legacy ivdep-hint lowering only)
//       [--no-cache]        disable the kernel cache (sets FT_CACHE=0)
//       [--cache-dir DIR]   use DIR as the kernel cache (sets FT_CACHE_DIR)
//       [--serve N]         push N requests through the serving executor
//                           and report per-tier counts + latency
//                           percentiles (honors the FT_SERVE_* knobs)
//
//   ftc --top [--telemetry-dir DIR] [--watch]
//       text dashboard over the telemetry snapshot directory
//       (FT_TELEMETRY_DIR or --telemetry-dir): serving counters, latency
//       percentiles, per-tenant deadline met/missed, and the hot-kernel
//       ranking with req/s trends computed from the two newest snapshots.
//       --watch refreshes every second. Corrupt or partially-written
//       snapshots, and snapshots with a newer schema than this build
//       understands, are skipped with a one-line warning.
//
//   ftc --advise [--telemetry-dir DIR] [--specialize]
//       workload-characterization advisor: reads the per-fingerprint shape
//       table from the newest snapshot and nominates the (fingerprint,
//       shape) pairs worth specializing — ranked by requests x mean
//       latency (total served ns). With --specialize, nominations whose
//       fingerprint matches a shape-generic workload kernel are compiled
//       ahead of time (constant-folded extents + full autoschedule) into
//       the shared kernel cache, capped at FT_SPECIALIZE_MAX, so the
//       serving process promotes them from a warm cache instead of paying
//       the compile online.
//
//   ftc --dyn --workload W --serve N [--shapes M]
//       dynamic-shape serving demo: the shape-generic variant of the
//       workload (symbolic extents as runtime arguments) serves M distinct
//       shapes from ONE compiled kernel, then hot-bucket traffic triggers
//       a background specialized compile that hot-swaps in. Emits
//       greppable "dynshape:" summary lines.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "analysis/extents.h"
#include "autodiff/grad.h"
#include "autoschedule/autoschedule.h"
#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "ir/visitor.h"
#include "pass/simplify.h"
#include "pass/specialize.h"
#include "serve/serve.h"
#include "serve/shape_key.h"
#include "support/json.h"
#include "workloads/sparse_workloads.h"
#include "workloads/workloads.h"

using namespace ft;
using namespace ft::workloads;

namespace {

struct Options {
  std::string Workload = "longformer";
  bool PrintIr = false;
  bool PrintOptIr = false;
  bool AutoScheduleEnabled = true;
  bool Grad = false;
  bool Profile = false;
  int VectorWidth = -1; ///< -1 = keep the AutoScheduleOptions default.
  std::string EmitCpp;
  int Run = 0;
  int Serve = 0;
  bool Top = false;
  bool Advise = false;
  bool Watch = false;
  std::string TelemetryDir;
  bool Dyn = false;
  int Shapes = 12;
  bool Specialize = false;
  bool CheckSchedule = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: ftc --workload "
      "subdivnet|longformer|softras|gat|spmm|sddmm|segsoftmax\n"
      "           [--print-ir] [--print-opt-ir] [--no-autoschedule]\n"
      "           [--emit-cpp FILE|-] [--grad] [--run N] [--profile]\n"
      "           [--vectorize-width N] [--no-cache] [--cache-dir DIR]\n"
      "           [--serve N]\n"
      "       ftc --dyn --workload W --serve N [--shapes M]\n"
      "       ftc --top [--telemetry-dir DIR] [--watch]\n"
      "       ftc --advise [--telemetry-dir DIR] [--specialize]\n"
      "       ftc --check-schedule --workload spmm|sddmm|segsoftmax\n");
  return 2;
}

struct Bound {
  Func F;
  std::map<std::string, Buffer> Store;
};

Bound buildWorkload(const std::string &Name) {
  Bound B;
  if (Name == "subdivnet") {
    SubdivNetConfig C;
    SubdivNetData D = makeSubdivNetData(C);
    B.F = buildSubdivNet(C);
    B.Store.emplace("e", std::move(D.E));
    B.Store.emplace("adj", std::move(D.Adj));
    B.Store.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
  } else if (Name == "longformer") {
    LongformerConfig C;
    LongformerData D = makeLongformerData(C);
    B.F = buildLongformer(C);
    B.Store.emplace("Q", std::move(D.Q));
    B.Store.emplace("K", std::move(D.K));
    B.Store.emplace("V", std::move(D.V));
    B.Store.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
  } else if (Name == "softras") {
    SoftRasConfig C;
    SoftRasData D = makeSoftRasData(C);
    B.F = buildSoftRas(C);
    B.Store.emplace("verts", std::move(D.Verts));
    B.Store.emplace("px", std::move(D.Px));
    B.Store.emplace("py", std::move(D.Py));
    B.Store.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
  } else if (Name == "gat") {
    GATConfig C;
    GATData D = makeGATData(C);
    B.F = buildGAT(C);
    B.Store.emplace("h", std::move(D.H));
    B.Store.emplace("adj", std::move(D.Adj));
    B.Store.emplace("a1", std::move(D.A1));
    B.Store.emplace("a2", std::move(D.A2));
    B.Store.emplace("y", Buffer(DataType::Float32, {C.NNodes, C.Feats}));
  } else if (Name == "spmm") {
    SpMMConfig C;
    SpMMData D = makeSpMMData(C);
    B.F = buildSpMM(C, D.A.Nnz);
    B.Store.emplace("indptr", std::move(D.A.Indptr));
    B.Store.emplace("indices", std::move(D.A.Indices));
    B.Store.emplace("val", std::move(D.A.Val));
    B.Store.emplace("x", std::move(D.X));
    B.Store.emplace("y", Buffer(DataType::Float32, {C.Rows, C.Feats}));
  } else if (Name == "sddmm") {
    SDDMMConfig C;
    SDDMMData D = makeSDDMMData(C);
    const int64_t Nnz = D.A.Nnz;
    B.F = buildSDDMM(C, Nnz);
    B.Store.emplace("indptr", std::move(D.A.Indptr));
    B.Store.emplace("indices", std::move(D.A.Indices));
    B.Store.emplace("val", std::move(D.A.Val));
    B.Store.emplace("a", std::move(D.Da));
    B.Store.emplace("b", std::move(D.Db));
    B.Store.emplace("out_val", Buffer(DataType::Float32, {Nnz}));
  } else if (Name == "segsoftmax") {
    SegSoftmaxConfig C;
    SegSoftmaxData D = makeSegSoftmaxData(C);
    B.F = buildSegSoftmax(C, D.G.Nnz);
    B.Store.emplace("indptr", std::move(D.G.Indptr));
    B.Store.emplace("indices", std::move(D.G.Indices));
    B.Store.emplace("e", std::move(D.G.Val));
    B.Store.emplace("h", std::move(D.H));
    B.Store.emplace("y", Buffer(DataType::Float32, {C.Nodes, C.Feats}));
  }
  return B;
}

//===----------------------------------------------------------------------===//
// ftc --dyn: shape-generic serving demo
//===----------------------------------------------------------------------===//

/// The shape-generic (symbolic-extent) variant of \p Name with default
/// constant feature dimensions. Body is null for unknown names.
Func buildDynWorkload(const std::string &Name) {
  if (Name == "subdivnet")
    return buildSubdivNetDyn({});
  if (Name == "longformer")
    return buildLongformerDyn({});
  if (Name == "softras")
    return buildSoftRasDyn({});
  if (Name == "gat")
    return buildGATDyn({});
  if (Name == "spmm")
    return buildSpMMDyn({});
  if (Name == "sddmm")
    return buildSDDMMDyn({});
  if (Name == "segsoftmax")
    return buildSegSoftmaxDyn({});
  return {};
}

/// Argument store for the \p K-th distinct shape of the dyn workload:
/// deterministic input data of a size derived from K, the bound extent
/// scalars, and a zeroed output tensor.
std::map<std::string, Buffer> makeDynStore(const std::string &Name,
                                           int64_t K) {
  std::map<std::string, Buffer> S;
  if (Name == "subdivnet") {
    SubdivNetConfig C;
    C.NFaces = 64 + 16 * K;
    SubdivNetData D = makeSubdivNetData(C);
    S.emplace("n", Buffer::scalarI64(C.NFaces));
    S.emplace("e", std::move(D.E));
    S.emplace("adj", std::move(D.Adj));
    S.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
  } else if (Name == "longformer") {
    LongformerConfig C;
    C.SeqLen = 64 + 16 * K;
    LongformerData D = makeLongformerData(C);
    S.emplace("n", Buffer::scalarI64(C.SeqLen));
    S.emplace("Q", std::move(D.Q));
    S.emplace("K", std::move(D.K));
    S.emplace("V", std::move(D.V));
    S.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
  } else if (Name == "softras") {
    SoftRasConfig C;
    C.NFaces = 16 + 4 * K;
    C.ImgH = 4;
    C.ImgW = 4 + K;
    SoftRasData D = makeSoftRasData(C);
    S.emplace("nf", Buffer::scalarI64(C.NFaces));
    S.emplace("np", Buffer::scalarI64(C.numPixels()));
    S.emplace("verts", std::move(D.Verts));
    S.emplace("px", std::move(D.Px));
    S.emplace("py", std::move(D.Py));
    S.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
  } else if (Name == "gat") {
    GATConfig C;
    C.NNodes = 128 + 32 * K;
    GATData D = makeGATData(C);
    S.emplace("n", Buffer::scalarI64(C.NNodes));
    S.emplace("h", std::move(D.H));
    S.emplace("adj", std::move(D.Adj));
    S.emplace("a1", std::move(D.A1));
    S.emplace("a2", std::move(D.A2));
    S.emplace("y", Buffer(DataType::Float32, {C.NNodes, C.Feats}));
  } else if (Name == "spmm") {
    SpMMConfig C;
    C.Rows = 64 + 16 * K;
    C.Seed += static_cast<uint64_t>(K); // nnz churns shape-to-shape
    SpMMData D = makeSpMMData(C);
    S.emplace("m", Buffer::scalarI64(C.Rows));
    S.emplace("nnz", Buffer::scalarI64(D.A.Nnz));
    S.emplace("indptr", std::move(D.A.Indptr));
    S.emplace("indices", std::move(D.A.Indices));
    S.emplace("val", std::move(D.A.Val));
    S.emplace("x", std::move(D.X));
    S.emplace("y", Buffer(DataType::Float32, {C.Rows, C.Feats}));
  } else if (Name == "sddmm") {
    SDDMMConfig C;
    C.Rows = 64 + 16 * K;
    C.Seed += static_cast<uint64_t>(K);
    SDDMMData D = makeSDDMMData(C);
    const int64_t Nnz = D.A.Nnz;
    S.emplace("m", Buffer::scalarI64(C.Rows));
    S.emplace("nnz", Buffer::scalarI64(Nnz));
    S.emplace("indptr", std::move(D.A.Indptr));
    S.emplace("indices", std::move(D.A.Indices));
    S.emplace("val", std::move(D.A.Val));
    S.emplace("a", std::move(D.Da));
    S.emplace("b", std::move(D.Db));
    S.emplace("out_val", Buffer(DataType::Float32, {Nnz}));
  } else if (Name == "segsoftmax") {
    SegSoftmaxConfig C;
    C.Nodes = 64 + 16 * K;
    C.Seed += static_cast<uint64_t>(K);
    SegSoftmaxData D = makeSegSoftmaxData(C);
    S.emplace("m", Buffer::scalarI64(C.Nodes));
    S.emplace("nnz", Buffer::scalarI64(D.G.Nnz));
    S.emplace("indptr", std::move(D.G.Indptr));
    S.emplace("indices", std::move(D.G.Indices));
    S.emplace("e", std::move(D.G.Val));
    S.emplace("h", std::move(D.H));
    S.emplace("y", Buffer(DataType::Float32, {C.Nodes, C.Feats}));
  }
  return S;
}

/// Cross-checks the output tensor of \p Store against the plain-C++ naive
/// implementation at the store's bound shape. Returns the max |diff|.
double dynStoreError(const std::string &Name,
                     std::map<std::string, Buffer> &Store) {
  auto MaxDiff = [](const Buffer &Got, const std::vector<float> &Want) {
    double M = 0;
    for (int64_t I = 0; I < Got.numel(); ++I)
      M = std::max(M, double(std::fabs(Got.as<float>()[I] - Want[I])));
    return M;
  };
  if (Name == "subdivnet") {
    SubdivNetConfig C;
    C.NFaces = Store.at("n").getI(0);
    std::vector<float> Y(C.NFaces * C.Feats);
    subdivnetNaive(C, Store.at("e").as<float>(),
                   Store.at("adj").as<int64_t>(), Y.data());
    return MaxDiff(Store.at("y"), Y);
  }
  if (Name == "longformer") {
    LongformerConfig C;
    C.SeqLen = Store.at("n").getI(0);
    std::vector<float> Y(C.SeqLen * C.Feats);
    longformerNaive(C, Store.at("Q").as<float>(), Store.at("K").as<float>(),
                    Store.at("V").as<float>(), Y.data());
    return MaxDiff(Store.at("y"), Y);
  }
  if (Name == "softras") {
    SoftRasConfig C;
    C.NFaces = Store.at("nf").getI(0);
    C.ImgH = 1;
    C.ImgW = Store.at("np").getI(0); // numPixels() is all that matters
    std::vector<float> Img(C.numPixels());
    softrasNaive(C, Store.at("verts").as<float>(),
                 Store.at("px").as<float>(), Store.at("py").as<float>(),
                 Img.data());
    return MaxDiff(Store.at("img"), Img);
  }
  if (Name == "gat") {
    GATConfig C;
    C.NNodes = Store.at("n").getI(0);
    std::vector<float> Y(C.NNodes * C.Feats);
    gatNaive(C, Store.at("h").as<float>(), Store.at("adj").as<int64_t>(),
             Store.at("a1").as<float>(), Store.at("a2").as<float>(),
             Y.data());
    return MaxDiff(Store.at("y"), Y);
  }
  // The CSR arrays in the form the naive references take (copies).
  auto Csr = [&Store](const char *Val) {
    return SparseCSR{Store.at("m").getI(0), 0, 0, Store.at("indptr"),
                     Store.at("indices"), Store.at(Val)};
  };
  if (Name == "spmm") {
    SparseCSR A = Csr("val");
    SpMMConfig C;
    C.Rows = A.Rows;
    std::vector<float> Y(C.Rows * C.Feats);
    spmmNaive(C, A, Store.at("x").as<float>(), Y.data());
    return MaxDiff(Store.at("y"), Y);
  }
  if (Name == "sddmm") {
    SparseCSR A = Csr("val");
    SDDMMConfig C;
    C.Rows = A.Rows;
    std::vector<float> Out(Store.at("nnz").getI(0));
    sddmmNaive(C, A, Store.at("a").as<float>(), Store.at("b").as<float>(),
               Out.data());
    return MaxDiff(Store.at("out_val"), Out);
  }
  if (Name == "segsoftmax") {
    SparseCSR A = Csr("e");
    SegSoftmaxConfig C;
    C.Nodes = A.Rows;
    std::vector<float> Y(C.Nodes * C.Feats);
    segSoftmaxNaive(C, A, Store.at("h").as<float>(), Y.data());
    return MaxDiff(Store.at("y"), Y);
  }
  return 0;
}

int runDyn(Options &O) {
  Func DynF = buildDynWorkload(O.Workload);
  if (!DynF.Body) {
    std::fprintf(stderr, "unknown workload: %s\n", O.Workload.c_str());
    return usage();
  }
  ExtentSpec Spec = extentParamsOf(DynF);
  std::string ExtNames;
  for (const std::string &N : Spec.Params)
    ExtNames += (ExtNames.empty() ? "" : ",") + N;
  std::printf("workload %s (dyn): %zu parameters, extent args [%s]\n",
              O.Workload.c_str(), DynF.Params.size(), ExtNames.c_str());
  if (O.PrintIr)
    std::printf("\n=== staged IR ===\n%s\n", toString(DynF.Body).c_str());

  Func Opt = DynF;
  if (O.AutoScheduleEnabled) {
    AutoScheduleReport R;
    AutoScheduleOptions ASOpts;
    if (O.VectorWidth >= 0)
      ASOpts.VectorWidth = O.VectorWidth;
    Opt = autoScheduleFunc(DynF, ASOpts, &R);
    std::printf("auto-schedule: fused=%d vectorized=%d parallelized=%d "
                "localized=%d lib=%d unrolled=%d\n",
                R.Fused, R.Vectorized, R.Parallelized, R.Localized,
                R.LibCalls, R.Unrolled);
  }
  if (O.PrintOptIr)
    std::printf("\n=== scheduled IR ===\n%s\n", toString(Opt.Body).c_str());
  if (O.Serve <= 0)
    return 0;

  serve::Config C = serve::Config::fromEnv();
  serve::Executor Ex(C);
  const int M = std::max(1, O.Shapes);
  std::vector<std::map<std::string, Buffer>> Stores;
  std::vector<std::map<std::string, Buffer *>> Args;
  Stores.reserve(M);
  for (int K = 0; K < M; ++K)
    Stores.push_back(makeDynStore(O.Workload, K));
  for (auto &St : Stores) {
    std::map<std::string, Buffer *> A;
    for (auto &[N, Buf] : St)
      A[N] = &Buf;
    Args.push_back(std::move(A));
  }

  // Phase 1 — ragged traffic: one request per distinct shape, all against
  // the single shape-generic fingerprint. Early requests are answered by
  // the interpreter while the ONE generic compile runs in the background.
  auto Await = [&](std::vector<std::future<serve::Response>> &Futs,
                   uint64_t &SpecServed) -> bool {
    for (auto &Fu : Futs) {
      serve::Response R = Fu.get();
      if (!R.S.ok()) {
        std::fprintf(stderr, "dynshape: request failed: %s\n",
                     R.S.message().c_str());
        return false;
      }
      if (R.Specialized)
        ++SpecServed;
    }
    Futs.clear();
    return true;
  };
  uint64_t SpecSeen = 0;
  std::vector<std::future<serve::Response>> Futs;
  for (int K = 0; K < M; ++K) {
    auto R = Ex.submit(Opt, Args[K]);
    if (!R.ok()) {
      std::fprintf(stderr, "dynshape: submit failed: %s\n",
                   R.message().c_str());
      return 1;
    }
    Futs.push_back(std::move(*R));
  }
  if (!Await(Futs, SpecSeen))
    return 1;
  Ex.drain(); // generic compile has landed (or failed to interp-pin)
  serve::ServeStats St1 = Ex.stats();
  std::printf("dynshape: phase1 shapes=%d generic_compiles=%llu "
              "interp=%llu jit=%llu\n",
              M, (unsigned long long)St1.CompilesStarted,
              (unsigned long long)St1.InterpServed,
              (unsigned long long)St1.JitServed);

  // Differential check: every shape's output against the naive C++ loops.
  double MaxErr = 0;
  for (int K = 0; K < M; ++K)
    MaxErr = std::max(MaxErr, dynStoreError(O.Workload, Stores[K]));
  std::printf("dynshape: differential max_err=%.2e over %d shapes (%s)\n",
              MaxErr, M, MaxErr < 1e-3 ? "ok" : "FAIL");

  // Phase 2 — a hot bucket: hammer shape 0 past FT_SPECIALIZE_AFTER so it
  // is nominated, then drain so the specialized compile completes.
  uint64_t Hot = std::max<uint64_t>(C.SpecializeAfter + 1, O.Serve);
  for (uint64_t I = 0; I < Hot; ++I) {
    auto R = Ex.submit(Opt, Args[0]);
    if (R.ok())
      Futs.push_back(std::move(*R));
  }
  if (!Await(Futs, SpecSeen))
    return 1;
  Ex.drain();

  // Phase 3 — the hot bucket again: now served by the specialized kernel.
  for (int I = 0; I < std::max(1, O.Serve); ++I) {
    auto R = Ex.submit(Opt, Args[0]);
    if (R.ok())
      Futs.push_back(std::move(*R));
  }
  if (!Await(Futs, SpecSeen))
    return 1;
  Ex.drain();
  double HotErr = dynStoreError(O.Workload, Stores[0]);

  serve::ServeStats St = Ex.stats();
  std::printf("dynshape: spec_compiles=%llu spec_failed=%llu "
              "spec_served=%llu hot_err=%.2e\n",
              (unsigned long long)St.SpecCompilesStarted,
              (unsigned long long)St.SpecCompilesFailed,
              (unsigned long long)St.SpecServed, HotErr);
  std::printf("dynshape: summary shapes=%d generic_compiles=%llu "
              "spec_compiles=%llu promoted=%d differential=%s\n",
              M, (unsigned long long)St.CompilesStarted,
              (unsigned long long)St.SpecCompilesStarted,
              St.SpecServed > 0 ? 1 : 0,
              MaxErr < 1e-3 && HotErr < 1e-3 ? "ok" : "FAIL");
  return MaxErr < 1e-3 && HotErr < 1e-3 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// ftc --top: telemetry snapshot dashboard
//===----------------------------------------------------------------------===//

/// Lexicographically sorted snap-*.json names in \p Dir. Snapshot names
/// embed zero-padded epoch-ms + seq, so this is age order.
std::vector<std::string> listSnapshots(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Names;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec)) {
    std::string N = E.path().filename().string();
    if (N.rfind("snap-", 0) == 0 && N.size() > 5 &&
        N.rfind(".json") == N.size() - 5)
      Names.push_back(N);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// Newest snapshot schema this build understands. Snapshots stamped with a
/// later version are skipped (forward compatibility is not assumed: a v3
/// writer may have changed section shapes under us).
constexpr int kMaxSchema = 2;

/// Schema version of a parsed snapshot document:
/// "freetensor-telemetry/vN" -> N, 0 when missing or malformed.
int schemaVersionOf(const json::Value &S) {
  const std::string &Sc = S.str("schema");
  static const std::string Prefix = "freetensor-telemetry/v";
  if (Sc.rfind(Prefix, 0) != 0)
    return 0;
  int V = std::atoi(Sc.c_str() + Prefix.size());
  return V > 0 ? V : 0;
}

struct LoadedSnapshot {
  std::string Name;
  json::Value V;
};

/// Walks the snapshot directory newest-backwards and returns up to \p Max
/// usable snapshots, newest first. A corrupt or partially-written file
/// (the exporter renames atomically, but a crashed writer or a copying
/// tool can leave a truncated one) and a snapshot with a schema newer
/// than kMaxSchema are each skipped with a one-line warning — the
/// dashboard degrades to older snapshots instead of aborting.
std::vector<LoadedSnapshot> loadSnapshots(const std::string &Dir,
                                          size_t Max) {
  namespace fs = std::filesystem;
  std::vector<std::string> Names = listSnapshots(Dir);
  std::vector<LoadedSnapshot> Out;
  for (auto It = Names.rbegin(); It != Names.rend() && Out.size() < Max;
       ++It) {
    auto P = json::parseFile((fs::path(Dir) / *It).string());
    if (!P.ok()) {
      std::fprintf(stderr, "ftc: skipping %s (corrupt snapshot: %s)\n",
                   It->c_str(), P.message().c_str());
      continue;
    }
    int V = schemaVersionOf(*P);
    if (V == 0 || V > kMaxSchema) {
      std::fprintf(stderr,
                   "ftc: skipping %s (schema \"%s\"; this build reads up "
                   "to freetensor-telemetry/v%d)\n",
                   It->c_str(), P->str("schema").c_str(), kMaxSchema);
      continue;
    }
    Out.push_back({*It, std::move(*P)});
  }
  return Out;
}

/// Renders one dashboard frame from the two newest usable snapshots.
/// Returns false when the directory holds no usable snapshot yet.
bool renderTop(const std::string &Dir) {
  std::vector<LoadedSnapshot> Snaps = loadSnapshots(Dir, 2);
  if (Snaps.empty()) {
    std::fprintf(stderr, "ftc --top: no usable snapshots in %s\n",
                 Dir.c_str());
    return false;
  }
  // Previous snapshot (when present) powers the req/s trend column.
  bool HavePrev = Snaps.size() >= 2;
  const json::Value &Prev = HavePrev ? Snaps[1].V : Snaps[0].V;

  const json::Value &S = Snaps[0].V;
  const std::string &LatestName = Snaps[0].Name;
  double NowMs = double(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count());
  double AgeSec = (NowMs - S.num("wall_unix_ms")) / 1e3;
  std::printf("telemetry %s | %s | seq %.0f | age %.1fs | schema %s\n", Dir.c_str(),
              LatestName.c_str(), S.num("seq"), AgeSec < 0 ? 0 : AgeSec,
              S.str("schema").c_str());

  if (const json::Value *C = S.get("counters")) {
    std::printf("serve: submitted %.0f | interp %.0f, jit %.0f | rejected "
                "%.0f | compiles %.0f (failed %.0f, cache hits %.0f) | "
                "batches %.0f | run errors %.0f\n",
                C->num("serve/submitted"), C->num("serve/interp_served"),
                C->num("serve/jit_served"), C->num("serve/rejected"),
                C->num("serve/compiles_started"),
                C->num("serve/compiles_failed"), C->num("serve/cache_hits"),
                C->num("serve/batches"), C->num("serve/run_errors"));
    // Shape-bucket specialization: generic = jit minus specialized serves.
    std::printf("spec[shape-buckets]: generic %.0f | specialized %.0f | "
                "spec compiles %.0f (failed %.0f)\n",
                C->num("serve/jit_served") - C->num("serve/spec_served"),
                C->num("serve/spec_served"),
                C->num("serve/spec_compiles_started"),
                C->num("serve/spec_compiles_failed"));
  }
  if (const json::Value *Hs = S.get("histograms")) {
    for (const json::Value &H : Hs->items()) {
      const std::string &N = H.str("name");
      if (N != "serve/queue_wait_ns" && N != "serve/run_ns_jit" &&
          N != "serve/run_ns_interp" && N != "serve/compile_ns")
        continue;
      std::printf("%-22s n=%-8.0f p50 %9.3f ms  p95 %9.3f ms  p99 %9.3f ms\n",
                  N.c_str(), H.num("count"), H.num("p50") / 1e6,
                  H.num("p95") / 1e6, H.num("p99") / 1e6);
    }
  }
  if (const json::Value *F = S.get("flight"))
    std::printf("flight: %.0f recorded | ok %.0f | invalid_args %.0f | "
                "run_errors %.0f | rejected %.0f full, %.0f shutdown\n",
                F->num("recorded"), F->num("ok"), F->num("invalid_args"),
                F->num("run_errors"), F->num("rejected_full"),
                F->num("rejected_shutdown"));
  if (const json::Value *Ts = S.get("tenants")) {
    for (const json::Value &T : Ts->items()) {
      double Met = T.num("met"), Missed = T.num("missed");
      const json::Value *Slack = T.get("slack");
      std::printf("slo[%s]: %.0f reqs | deadline met %.0f, missed %.0f",
                  T.str("tenant").c_str(), T.num("requests"), Met, Missed);
      if (Slack && Met > 0)
        std::printf(" | slack p50 %.3f ms, min %.3f ms",
                    Slack->num("p50_ns") / 1e6, Slack->num("min_ns") / 1e6);
      std::printf("\n");
    }
  }

  std::printf("\n%-20s %9s %12s %12s %6s %7s %7s %10s\n", "FINGERPRINT", "REQS",
              "MEAN ms", "TOTAL ms", "ERR", "JIT", "INTERP", "TREND r/s");
  const json::Value *Kernels = S.get("kernels");
  if (!Kernels || Kernels->items().empty()) {
    std::printf("(no kernels served yet)\n");
    return true;
  }
  double DtSec = HavePrev
                     ? (S.num("wall_unix_ms") - Prev.num("wall_unix_ms")) / 1e3
                     : 0;
  size_t Shown = 0;
  for (const json::Value &K : Kernels->items()) {
    if (Shown++ >= 20)
      break;
    std::string Trend = "-";
    if (HavePrev && DtSec > 0) {
      if (const json::Value *PK = Prev.get("kernels")) {
        for (const json::Value &P : PK->items()) {
          if (P.str("fingerprint") != K.str("fingerprint"))
            continue;
          double Dr = K.num("requests") - P.num("requests");
          char Buf[32];
          std::snprintf(Buf, sizeof(Buf), "%+.1f", Dr / DtSec);
          Trend = Buf;
          break;
        }
      }
    }
    std::printf("%-20s %9.0f %12.3f %12.3f %6.0f %7.0f %7.0f %10s\n",
                K.str("fingerprint").c_str(), K.num("requests"),
                K.num("mean_ns") / 1e6, K.num("total_ns") / 1e6,
                K.num("errors"), K.num("jit"), K.num("interp"), Trend.c_str());
  }
  return true;
}

/// --telemetry-dir, falling back to FT_TELEMETRY_DIR ("" when neither).
std::string telemetryDirOf(const Options &O) {
  std::string Dir = O.TelemetryDir;
  if (Dir.empty())
    if (const char *E = std::getenv("FT_TELEMETRY_DIR"))
      Dir = E;
  return Dir;
}

int runTop(const Options &O) {
  std::string Dir = telemetryDirOf(O);
  if (Dir.empty()) {
    std::fprintf(stderr,
                 "ftc --top: no snapshot directory (pass --telemetry-dir or "
                 "set FT_TELEMETRY_DIR)\n");
    return 2;
  }
  if (!O.Watch)
    return renderTop(Dir) ? 0 : 1;
  for (;;) {
    std::printf("\033[2J\033[H");
    renderTop(Dir);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

//===----------------------------------------------------------------------===//
// ftc --advise: hot-shape specialization advisor
//===----------------------------------------------------------------------===//

/// One nomination row assembled from the snapshot's "shapes" section.
struct AdviseRow {
  std::string Fingerprint;
  std::string Shape;
  double Requests = 0;
  double TotalNs = 0;
  double MeanNs = 0;
  double P95Ns = 0;
};

int runAdvise(const Options &O) {
  std::string Dir = telemetryDirOf(O);
  if (Dir.empty()) {
    std::fprintf(stderr,
                 "ftc --advise: no snapshot directory (pass --telemetry-dir "
                 "or set FT_TELEMETRY_DIR)\n");
    return 2;
  }
  std::vector<LoadedSnapshot> Snaps = loadSnapshots(Dir, 1);
  if (Snaps.empty()) {
    std::fprintf(stderr, "ftc --advise: no usable snapshots in %s\n",
                 Dir.c_str());
    return 1;
  }
  const json::Value &S = Snaps[0].V;
  const json::Value *Shapes = S.get("shapes");

  std::vector<AdviseRow> Rows;
  // Overflow buckets per fingerprint: shapes the bounded table stopped
  // tracking individually. Reported separately — nominating "other" would
  // be meaningless, but a fat overflow bucket means the cap is hiding the
  // real workload.
  std::vector<std::pair<std::string, double>> Overflow;
  if (Shapes) {
    for (const json::Value &Fp : Shapes->items()) {
      const std::string &F = Fp.str("fingerprint");
      if (const json::Value *Rs = Fp.get("rows"))
        for (const json::Value &R : Rs->items())
          Rows.push_back({F, R.str("shape"), R.num("requests"),
                          R.num("total_ns"), R.num("mean_ns"),
                          R.num("p95_ns")});
      if (const json::Value *Ot = Fp.get("other"))
        if (Ot->num("requests") > 0)
          Overflow.emplace_back(F, Ot->num("requests"));
    }
  }
  std::printf("advise: %s | %s | schema %s\n", Dir.c_str(),
              Snaps[0].Name.c_str(), S.str("schema").c_str());
  if (Rows.empty()) {
    std::printf("advise: no per-shape workload data recorded yet (serve "
                "traffic with FT_TELEMETRY_DIR set)\n");
    return 0;
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const AdviseRow &A, const AdviseRow &B) {
              return A.TotalNs > B.TotalNs;
            });
  size_t N = std::min<size_t>(Rows.size(), 10);
  std::printf("advise: top %zu of %zu (fingerprint, shape) rows by total "
              "served time:\n",
              N, Rows.size());
  for (size_t I = 0; I < N; ++I) {
    const AdviseRow &R = Rows[I];
    std::printf("  %zu. specialize %s at shape `%s` — %.0f reqs, mean "
                "%.3f ms, p95 %.3f ms, total %.1f ms\n",
                I + 1, R.Fingerprint.c_str(), R.Shape.c_str(), R.Requests,
                R.MeanNs / 1e6, R.P95Ns / 1e6, R.TotalNs / 1e6);
  }
  for (const auto &[F, Reqs] : Overflow)
    std::printf("  note: %s served %.0f reqs at shapes beyond the table "
                "cap (raise FT_SHAPE_TABLE_CAP to track them)\n",
                F.c_str(), Reqs);
  if (!O.Specialize)
    return 0;

  // --specialize: pre-compile nominated shape buckets into the shared
  // kernel cache. Only fingerprints we can reconstruct locally — the
  // shape-generic workload kernels, staged exactly as `ftc --dyn` serves
  // them — are actionable; foreign fingerprints are skipped. The compile
  // pipeline replicates the serving executor's specialized path verbatim
  // (specializeFunc -> simplify -> autoScheduleFunc -> compile at
  // FT_SPECIALIZE_OPT_FLAGS) so the published cache entry is keyed
  // identically and the server's own compile becomes a warm cache hit.
  serve::Config SC = serve::Config::fromEnv();
  std::map<std::string, std::pair<std::string, Func>> ByFp;
  for (const char *W : {"subdivnet", "longformer", "softras", "gat", "spmm",
                        "sddmm", "segsoftmax"}) {
    Func DynF = buildDynWorkload(W);
    Func Served = DynF;
    if (O.AutoScheduleEnabled) {
      AutoScheduleOptions ASOpts;
      if (O.VectorWidth >= 0)
        ASOpts.VectorWidth = O.VectorWidth;
      Served = autoScheduleFunc(DynF, ASOpts);
    }
    uint64_t Key = kernel_cache::cacheKey(Served, {}, SC.OptFlags).Full;
    char Hex[24];
    std::snprintf(Hex, sizeof(Hex), "0x%016llx",
                  (unsigned long long)Key);
    ByFp.emplace(Hex, std::make_pair(std::string(W), std::move(Served)));
  }
  size_t Budget = SC.SpecializeMax;
  size_t Compiled = 0;
  for (const AdviseRow &R : Rows) {
    if (Compiled >= Budget)
      break;
    auto It = ByFp.find(R.Fingerprint);
    if (It == ByFp.end())
      continue;
    auto ExtR = serve::parseScalarExtents(R.Shape);
    if (!ExtR.ok()) {
      std::fprintf(stderr, "advise: skipping shape `%s`: %s\n",
                   R.Shape.c_str(), ExtR.message().c_str());
      continue;
    }
    if (ExtR->empty())
      continue;
    Func SF = specializeFunc(It->second.second, *ExtR);
    Func In = autoScheduleFunc(simplify(SF));
    auto K = Kernel::compile(In, {}, SC.SpecOptFlags);
    if (!K.ok()) {
      std::fprintf(stderr,
                   "advise: specialized compile failed for %s at `%s`: %s\n",
                   It->second.first.c_str(), R.Shape.c_str(),
                   K.message().c_str());
      continue;
    }
    ++Compiled;
    std::printf("advise: specialized %s (%s) at `%s`: %.2f s (cache: %s)\n",
                It->second.first.c_str(), R.Fingerprint.c_str(),
                R.Shape.c_str(), K->compileSeconds(),
                nameOf(K->cacheTier()));
  }
  std::printf("advise: %zu specialized kernel(s) in the cache (cap %zu)\n",
              Compiled, Budget);
  return 0;
}

/// `ftc --check-schedule`: drives the two schedule primitives the ragged
/// dependence analysis must decide — parallelize on the dense row loop
/// (legal: indptr monotonicity proves distinct rows touch disjoint
/// segments) and vectorize on the data-dependent segment loop (rejected
/// with a reason) — and prints the audit verdicts for check.sh to grep.
int runCheckSchedule(Options &O) {
  std::string RowLabel = "rows", SegLabel;
  Func F;
  if (O.Workload == "spmm") {
    F = buildSpMMDyn(SpMMConfig{});
    SegLabel = "spmm_seg";
  } else if (O.Workload == "sddmm") {
    F = buildSDDMMDyn(SDDMMConfig{});
    SegLabel = "sddmm_seg";
  } else if (O.Workload == "segsoftmax") {
    F = buildSegSoftmaxDyn(SegSoftmaxConfig{});
    RowLabel = "nodes";
    SegLabel = "seg_agg";
  } else {
    std::fprintf(stderr, "--check-schedule needs a sparse workload "
                         "(spmm|sddmm|segsoftmax), got `%s`\n",
                 O.Workload.c_str());
    return usage();
  }

  trace::setAuditEnabled(true);
  size_t Base = trace::auditSize();
  Schedule S(F);
  auto Row = S.findByLabel(RowLabel);
  if (!Row.ok()) {
    std::fprintf(stderr, "no `%s` loop: %s\n", RowLabel.c_str(),
                 Row.message().c_str());
    return 1;
  }
  Status Par = S.parallelize(*Row);
  auto Seg = S.findByLabel(SegLabel);
  if (!Seg.ok()) {
    std::fprintf(stderr, "no `%s` loop: %s\n", SegLabel.c_str(),
                 Seg.message().c_str());
    return 1;
  }
  Status Vec = S.vectorize(*Seg, 8);

  bool Ok = true;
  for (const trace::ScheduleDecision &D : trace::auditLogSince(Base)) {
    std::printf("schedule-audit: %s %s applied=%d%s%s\n", D.Primitive.c_str(),
                (D.Primitive == "parallelize" ? RowLabel : SegLabel).c_str(),
                D.Applied ? 1 : 0, D.Reason.empty() ? "" : " reason=",
                D.Reason.c_str());
    if (D.Primitive == "parallelize")
      Ok = Ok && D.Applied;
    if (D.Primitive == "vectorize")
      Ok = Ok && !D.Applied &&
           D.Reason.find("data-dependent") != std::string::npos;
  }
  trace::setAuditEnabled(false);
  Ok = Ok && Par.ok() && !Vec.ok();
  std::printf("check-schedule %s: row loop `%s` parallel=%s, segment loop "
              "`%s` vectorize=%s\n",
              O.Workload.c_str(), RowLabel.c_str(),
              Par.ok() ? "legal" : "REJECTED", SegLabel.c_str(),
              Vec.ok() ? "ACCEPTED (bug)" : "rejected");
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--workload" && I + 1 < argc)
      O.Workload = argv[++I];
    else if (A == "--print-ir")
      O.PrintIr = true;
    else if (A == "--print-opt-ir")
      O.PrintOptIr = true;
    else if (A == "--no-autoschedule")
      O.AutoScheduleEnabled = false;
    else if (A == "--grad")
      O.Grad = true;
    else if (A == "--profile")
      O.Profile = true;
    else if (A == "--emit-cpp" && I + 1 < argc)
      O.EmitCpp = argv[++I];
    else if (A == "--run" && I + 1 < argc)
      O.Run = std::atoi(argv[++I]);
    else if (A == "--serve" && I + 1 < argc)
      O.Serve = std::atoi(argv[++I]);
    else if (A == "--vectorize-width" && I + 1 < argc)
      O.VectorWidth = std::atoi(argv[++I]);
    else if (A == "--no-cache")
      ::setenv("FT_CACHE", "0", /*overwrite=*/1);
    else if (A == "--cache-dir" && I + 1 < argc)
      ::setenv("FT_CACHE_DIR", argv[++I], /*overwrite=*/1);
    else if (A == "--top")
      O.Top = true;
    else if (A == "--advise")
      O.Advise = true;
    else if (A == "--watch")
      O.Watch = true;
    else if (A == "--telemetry-dir" && I + 1 < argc)
      O.TelemetryDir = argv[++I];
    else if (A == "--dyn")
      O.Dyn = true;
    else if (A == "--shapes" && I + 1 < argc)
      O.Shapes = std::atoi(argv[++I]);
    else if (A == "--specialize")
      O.Specialize = true;
    else if (A == "--check-schedule")
      O.CheckSchedule = true;
    else
      return usage();
  }

  if (O.CheckSchedule)
    return runCheckSchedule(O);
  if (O.Top)
    return runTop(O);
  if (O.Advise)
    return runAdvise(O);
  if (O.Dyn)
    return runDyn(O);

  Bound B = buildWorkload(O.Workload);
  if (!B.F.Body) {
    std::fprintf(stderr, "unknown workload: %s\n", O.Workload.c_str());
    return usage();
  }
  std::printf("workload %s: %zu parameters, function `%s`\n",
              O.Workload.c_str(), B.F.Params.size(), B.F.Name.c_str());

  if (O.PrintIr)
    std::printf("\n=== staged IR ===\n%s\n", toString(B.F.Body).c_str());

  Func Opt = B.F;
  if (O.AutoScheduleEnabled) {
    AutoScheduleReport R;
    AutoScheduleOptions ASOpts;
    if (O.VectorWidth >= 0)
      ASOpts.VectorWidth = O.VectorWidth;
    Opt = autoScheduleFunc(B.F, ASOpts, &R);
    std::printf("auto-schedule: fused=%d vectorized=%d parallelized=%d "
                "localized=%d lib=%d unrolled=%d\n",
                R.Fused, R.Vectorized, R.Parallelized, R.Localized,
                R.LibCalls, R.Unrolled);
  }
  if (O.PrintOptIr)
    std::printf("\n=== scheduled IR ===\n%s\n", toString(Opt.Body).c_str());

  if (!O.EmitCpp.empty()) {
    CodegenOptions EmitOpts;
    EmitOpts.Profile = O.Profile;
    std::string Src = generateCpp(Opt, EmitOpts);
    if (O.EmitCpp == "-") {
      std::printf("\n=== generated C++ ===\n%s\n", Src.c_str());
    } else {
      std::ofstream Out(O.EmitCpp);
      Out << Src;
      std::printf("wrote %zu bytes of C++ to %s\n", Src.size(),
                  O.EmitCpp.c_str());
    }
  }

  if (O.Grad) {
    std::vector<std::string> Wrt;
    for (const std::string &P : B.F.Params) {
      auto D = findVarDef(B.F.Body, P);
      if (D && D->ATy == AccessType::Input && isFloat(D->Info.Dtype))
        Wrt.push_back(P);
    }
    auto G = grad(B.F, Wrt);
    if (!G.ok()) {
      std::printf("%s\n", G.message().c_str()); // Starts with "grad:".
    } else {
      std::printf("grad w.r.t.");
      for (const std::string &W : Wrt)
        std::printf(" `%s`", W.c_str());
      std::printf(": %zu tape(s)", G->Tapes.size());
      for (const std::string &T : G->Tapes)
        std::printf(" %s", T.c_str());
      std::printf("\n");
      for (const RecomputeDecision &D : G->Decisions)
        std::printf("  %s: %s (recompute %.4g, materialize %.4g, tape %llu "
                    "B)\n",
                    D.Tensor.c_str(),
                    D.Recomputed ? "recomputed" : "materialized",
                    D.RecomputeCost, D.MaterializeCost,
                    static_cast<unsigned long long>(D.TapeBytes));
      std::printf("  backward: %zu IR nodes, %zu shared value(s)\n",
                  countNodes(G->Backward.Body), G->SharedValues);
    }
  }

  if (O.Profile && O.Run <= 0)
    O.Run = 1;

  if (O.Run > 0) {
    CodegenOptions CgOpts;
    CgOpts.Profile = O.Profile || profile::envEnabled();
    auto K = Kernel::compile(Opt, CgOpts);
    if (!K.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", K.message().c_str());
      return 1;
    }
    std::printf("JIT compile: %.2f s (cache: %s)\n", K->compileSeconds(),
                nameOf(K->cacheTier()));
    std::map<std::string, Buffer *> Args;
    for (auto &[N, Buf] : B.Store)
      Args[N] = &Buf;
    Status S = K->run(Args); // Warm up.
    if (!S.ok()) {
      std::fprintf(stderr, "run failed: %s\n", S.message().c_str());
      return 1;
    }
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < O.Run; ++I)
      K->run(Args);
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
    std::printf("%d runs: %.3f ms each\n", O.Run, Sec / O.Run * 1e3);
    if (K->profiled())
      std::printf("\n%s", profile::formatTable(K->profileNow()).c_str());
  }

  if (O.Serve > 0) {
    // The demo loop: a burst of identical requests against a fresh
    // executor. The first ones are answered by the interpreter while the
    // kernel compiles in the background; the stream then flips to the JIT
    // tier — the serving runtime's cold-start story in one screenful.
    serve::Executor Ex;
    std::map<std::string, Buffer *> Args;
    for (auto &[N, Buf] : B.Store)
      Args[N] = &Buf;

    std::vector<std::future<serve::Response>> Futs;
    std::vector<double> Lat;
    int Rejected = 0;
    for (int I = 0; I < O.Serve; ++I) {
      auto R = Ex.submit(Opt, Args);
      if (R.ok())
        Futs.push_back(std::move(*R));
      else
        ++Rejected;
    }
    serve::Tier PrevTier = serve::Tier::Interp;
    bool First = true;
    int DeadlineMissed = 0;
    for (size_t I = 0; I < Futs.size(); ++I) {
      serve::Response R = Futs[I].get();
      if (!R.S.ok()) {
        std::fprintf(stderr, "request %zu failed: %s\n", I,
                     R.S.message().c_str());
        return 1;
      }
      if (R.DeadlineMissed)
        ++DeadlineMissed;
      Lat.push_back(R.LatencySec);
      if (First || R.ServedBy != PrevTier) {
        std::printf("request %4zu: tier flips to %s (%.3f ms)\n", I,
                    serve::nameOf(R.ServedBy), R.LatencySec * 1e3);
        PrevTier = R.ServedBy;
        First = false;
      }
    }
    Ex.drain();

    serve::ServeStats St = Ex.stats();
    std::sort(Lat.begin(), Lat.end());
    auto Pct = [&](double Q) {
      if (Lat.empty())
        return 0.0;
      return Lat[size_t(Q * double(Lat.size() - 1))] * 1e3;
    };
    std::printf("serve: %llu requests (%d rejected) | interp %llu, jit %llu "
                "| compiles %llu (failed %llu, cache hits %llu) | batches "
                "%llu (max %llu)\n",
                (unsigned long long)St.Submitted, Rejected,
                (unsigned long long)St.InterpServed,
                (unsigned long long)St.JitServed,
                (unsigned long long)St.CompilesStarted,
                (unsigned long long)St.CompilesFailed,
                (unsigned long long)St.CacheHits,
                (unsigned long long)St.Batches,
                (unsigned long long)St.MaxBatch);
    std::printf("serve: latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
                Pct(0.50), Pct(0.95), Pct(0.99));
    if (std::getenv("FT_SLO_DEADLINE_MS"))
      std::printf("serve: deadline missed on %d of %zu requests\n",
                  DeadlineMissed, Futs.size());
  }
  return 0;
}
