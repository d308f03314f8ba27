//===- perfbench/src/programs.cpp -----------------------------------------===//

#include "programs.h"

#include <cmath>

#include "autoschedule/autoschedule.h"
#include "frontend/builder.h"
#include "opframework/eager.h"

using namespace ft;
using namespace ft::workloads;

namespace pb {
namespace {

// Base data seeds, one per input family; the run's --seed is mixed in.
constexpr uint64_t kSeedSubdivNet = 0x5bd1e995;
constexpr uint64_t kSeedLongformer = 0xabcdef12;
constexpr uint64_t kSeedSoftRas = 0x13572468;
constexpr uint64_t kSeedGAT = 0xfeedbeef;
constexpr uint64_t kSeedScale = 0x51a1e000;
constexpr uint64_t kSeedOrder = 0x0dde7000;
// Neighbour tables are part of the problem's shape, like its sizes: they
// stay fixed across seeds, so a seed moves values, not memory access
// patterns.
constexpr uint64_t kGraphSubdivNet = 0x9e3779b9;
constexpr uint64_t kGraphGAT = 0x2468ace0;

// Serve sizes: the paper's Table-2 shapes as the repository scales them,
// small enough that per-request overhead, not the kernel, dominates.
constexpr SubdivNetConfig kServeSubdivNet{1024, 32};
constexpr LongformerConfig kServeLongformer{128, 32, 16};
constexpr SoftRasConfig kServeSoftRas{32, 16, 16, 0.05f};
constexpr GATConfig kServeGAT{256, 16, 6};
constexpr int64_t kScaleN = 8192;
constexpr int64_t kDynFeats = 32;
constexpr int64_t kDynSizes[] = {768, 1536};

/// Mixes the run seed into a base seed; never returns 0 (xorshift state).
uint64_t mixSeed(uint64_t Base, uint64_t Seed) {
  // splitmix64 finalizer over the pair.
  uint64_t Z = Base + 0x9e3779b97f4a7c15ull * (Seed + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z ^= Z >> 31;
  return Z == 0 ? 1 : Z;
}

Buffer randomF32(std::vector<int64_t> Shape, float Scale, uint64_t &S) {
  Buffer B(DataType::Float32, std::move(Shape));
  for (int64_t I = 0; I < B.numel(); ++I)
    B.as<float>()[I] = Scale * frand(S);
  return B;
}

/// Neighbour table: row i links to rows at pseudo-random offsets in
/// (i, i + Spread], wrapping — a ring-like mesh or graph.
Buffer neighbours(int64_t N, int64_t Deg, int64_t Spread, uint64_t S) {
  Buffer B(DataType::Int64, {N, Deg});
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < Deg; ++J) {
      S = S * 6364136223846793005ull + 1442695040888963407ull;
      B.as<int64_t>()[I * Deg + J] =
          static_cast<int64_t>((I + 1 + (S >> 33) % Spread) % N);
    }
  return B;
}

std::map<std::string, Buffer> subdivnetInputs(const SubdivNetConfig &C,
                                              uint64_t Seed) {
  uint64_t S = mixSeed(kSeedSubdivNet, Seed);
  std::map<std::string, Buffer> M;
  M.emplace("e", randomF32({C.NFaces, C.Feats}, 1.0f, S));
  M.emplace("adj", neighbours(C.NFaces, 3, 97, kGraphSubdivNet));
  M.emplace("y", Buffer(DataType::Float32, {C.NFaces, C.Feats}));
  return M;
}

std::map<std::string, Buffer> longformerInputs(const LongformerConfig &C,
                                               uint64_t Seed) {
  uint64_t S = mixSeed(kSeedLongformer, Seed);
  std::map<std::string, Buffer> M;
  for (const char *N : {"Q", "K", "V"})
    M.emplace(N, randomF32({C.SeqLen, C.Feats}, 0.5f, S));
  M.emplace("y", Buffer(DataType::Float32, {C.SeqLen, C.Feats}));
  return M;
}

std::map<std::string, Buffer> softrasInputs(const SoftRasConfig &C,
                                            uint64_t Seed) {
  uint64_t S = mixSeed(kSeedSoftRas, Seed);
  Buffer Verts(DataType::Float32, {C.NFaces, 3, 2});
  for (int64_t F = 0; F < C.NFaces; ++F) {
    float Cx = 0.5f * frand(S) + 0.5f, Cy = 0.5f * frand(S) + 0.5f;
    for (int64_t J = 0; J < 3; ++J) {
      Verts.as<float>()[(F * 3 + J) * 2 + 0] = Cx + 0.15f * frand(S);
      Verts.as<float>()[(F * 3 + J) * 2 + 1] = Cy + 0.15f * frand(S);
    }
  }
  Buffer Px(DataType::Float32, {C.numPixels()});
  Buffer Py(DataType::Float32, {C.numPixels()});
  for (int64_t Y = 0; Y < C.ImgH; ++Y)
    for (int64_t X = 0; X < C.ImgW; ++X) {
      Px.as<float>()[Y * C.ImgW + X] = (float(X) + 0.5f) / float(C.ImgW);
      Py.as<float>()[Y * C.ImgW + X] = (float(Y) + 0.5f) / float(C.ImgH);
    }
  std::map<std::string, Buffer> M;
  M.emplace("verts", std::move(Verts));
  M.emplace("px", std::move(Px));
  M.emplace("py", std::move(Py));
  M.emplace("img", Buffer(DataType::Float32, {C.numPixels()}));
  return M;
}

std::map<std::string, Buffer> gatInputs(const GATConfig &C, uint64_t Seed) {
  uint64_t S = mixSeed(kSeedGAT, Seed);
  std::map<std::string, Buffer> M;
  M.emplace("h", randomF32({C.NNodes, C.Feats}, 0.5f, S));
  M.emplace("a1", randomF32({C.Feats}, 0.3f, S));
  M.emplace("a2", randomF32({C.Feats}, 0.3f, S));
  M.emplace("adj", neighbours(C.NNodes, C.Degree, 211, kGraphGAT));
  M.emplace("y", Buffer(DataType::Float32, {C.NNodes, C.Feats}));
  return M;
}

std::vector<float> toVec(const Buffer &B) {
  return std::vector<float>(B.as<float>(), B.as<float>() + B.numel());
}

eager::Tensor toEager(const Buffer &B) {
  return eager::Tensor::fromVec(B.shape(), toVec(B), /*RequiresGrad=*/true);
}

eager::IndexTensor toEagerIdx(const Buffer &B) {
  return eager::IndexTensor::fromVec(
      B.shape(),
      std::vector<int64_t>(B.as<int64_t>(), B.as<int64_t>() + B.numel()));
}

std::vector<float> gradOf(const eager::Tensor &T) {
  eager::Tensor G = T.grad();
  return std::vector<float>(G.data(), G.data() + G.numel());
}

/// The naive-loop output of the network configured by \p C on inputs \p M.
template <typename Config>
std::vector<float> naiveOut(const Config &C,
                            const std::map<std::string, Buffer> &M,
                            int64_t OutNumel) {
  std::vector<float> Out(static_cast<size_t>(OutNumel));
  auto F = [&](const char *N) { return M.at(N).as<float>(); };
  auto I = [&](const char *N) { return M.at(N).as<int64_t>(); };
  if constexpr (std::is_same_v<Config, SubdivNetConfig>)
    subdivnetNaive(C, F("e"), I("adj"), Out.data());
  else if constexpr (std::is_same_v<Config, LongformerConfig>)
    longformerNaive(C, F("Q"), F("K"), F("V"), Out.data());
  else if constexpr (std::is_same_v<Config, SoftRasConfig>)
    softrasNaive(C, F("verts"), F("px"), F("py"), Out.data());
  else
    gatNaive(C, F("h"), I("adj"), F("a1"), F("a2"), Out.data());
  return Out;
}

Func scheduled(Func F) {
  AutoScheduleOptions Opts;
  Opts.NumThreads = kNumThreads;
  return autoScheduleFunc(std::move(F), Opts);
}

Func buildScale() {
  FunctionBuilder B("scale");
  View X = B.input("x", {makeIntConst(kScaleN)});
  View Y = B.output("y", {makeIntConst(kScaleN)});
  B.loop("i", 0, kScaleN, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.5) + makeFloatConst(1.0));
  });
  return B.build();
}

} // namespace

const char *netName(Net W) {
  switch (W) {
  case Net::SubdivNet:
    return "subdivnet";
  case Net::Longformer:
    return "longformer";
  case Net::SoftRas:
    return "softras";
  case Net::GAT:
    return "gat";
  }
  return "?";
}

Func buildNet(Net W) {
  switch (W) {
  case Net::SubdivNet:
    return buildSubdivNet(kSubdivNet);
  case Net::Longformer:
    return buildLongformer(kLongformer);
  case Net::SoftRas:
    return buildSoftRas(kSoftRas);
  case Net::GAT:
    return buildGAT(kGAT);
  }
  return {};
}

std::vector<std::string> wrtOf(Net W) {
  switch (W) {
  case Net::SubdivNet:
    return {"e"};
  case Net::Longformer:
    return {"Q", "K", "V"};
  case Net::SoftRas:
    return {"verts"};
  case Net::GAT:
    return {};
  }
  return {};
}

const char *outputOf(Net W) {
  switch (W) {
  case Net::SoftRas:
    return "img";
  default:
    return "y";
  }
}

double relErr(const float *A, const float *B, int64_t N) {
  double Worst = 0;
  for (int64_t I = 0; I < N; ++I) {
    double E = std::fabs(double(A[I]) - double(B[I])) /
               (1.0 + std::fabs(double(B[I])));
    // NaN compares false everywhere; make it the worst error.
    if (!(E <= Worst))
      Worst = std::isnan(E) ? INFINITY : E;
  }
  return Worst;
}

NetData makeNetData(Net W, uint64_t Seed, bool WithRefs) {
  NetData D;
  switch (W) {
  case Net::SubdivNet:
    D.Store = subdivnetInputs(kSubdivNet, Seed);
    break;
  case Net::Longformer:
    D.Store = longformerInputs(kLongformer, Seed);
    break;
  case Net::SoftRas:
    D.Store = softrasInputs(kSoftRas, Seed);
    break;
  case Net::GAT:
    D.Store = gatInputs(kGAT, Seed);
    break;
  }
  if (!WithRefs)
    return D;

  const int64_t OutN = D.Store.at(outputOf(W)).numel();
  eager::clearTape();
  switch (W) {
  case Net::SubdivNet: {
    D.RefOut = naiveOut(kSubdivNet, D.Store, OutN);
    eager::Tensor E = toEager(D.Store.at("e"));
    eager::backward(subdivnetEager(E, toEagerIdx(D.Store.at("adj")),
                                   kSubdivNet));
    D.RefGrad["e"] = gradOf(E);
    break;
  }
  case Net::Longformer: {
    D.RefOut = naiveOut(kLongformer, D.Store, OutN);
    eager::Tensor Q = toEager(D.Store.at("Q")), K = toEager(D.Store.at("K")),
                  V = toEager(D.Store.at("V"));
    eager::backward(longformerEager(Q, K, V, kLongformer));
    D.RefGrad["Q"] = gradOf(Q);
    D.RefGrad["K"] = gradOf(K);
    D.RefGrad["V"] = gradOf(V);
    break;
  }
  case Net::SoftRas: {
    D.RefOut = naiveOut(kSoftRas, D.Store, OutN);
    SoftRasData SD{D.Store.at("verts"), D.Store.at("px"), D.Store.at("py")};
    SoftRasEagerInputs In = makeSoftRasEagerInputs(SD, /*RequiresGrad=*/true);
    eager::backward(softrasEager(In, kSoftRas));
    // The eager baseline keeps one tensor per vertex coordinate; lay the
    // gradients out like `verts` [F, 3, 2].
    std::vector<float> G(static_cast<size_t>(SD.Verts.numel()));
    for (int J = 0; J < 3; ++J) {
      std::vector<float> Gx = gradOf(In.Vx[J]), Gy = gradOf(In.Vy[J]);
      for (int64_t F = 0; F < kSoftRas.NFaces; ++F) {
        G[(F * 3 + J) * 2 + 0] = Gx[F];
        G[(F * 3 + J) * 2 + 1] = Gy[F];
      }
    }
    D.RefGrad["verts"] = std::move(G);
    break;
  }
  case Net::GAT:
    D.RefOut = naiveOut(kGAT, D.Store, OutN);
    break;
  }
  eager::clearTape();
  return D;
}

std::vector<ServeJob> makeServeJobs(uint64_t Seed) {
  std::vector<ServeJob> Jobs;
  auto Static = [&](const char *Name, Func F, std::map<std::string, Buffer> M,
                    const char *Out, std::vector<float> Ref) {
    ServeJob J;
    J.Name = Name;
    J.F = scheduled(std::move(F));
    J.Out = Out;
    J.OutShape = M.at(Out).shape();
    M.erase(Out);
    J.Inputs = std::move(M);
    J.RefOut = std::move(Ref);
    Jobs.push_back(std::move(J));
  };

  {
    uint64_t S = mixSeed(kSeedScale, Seed);
    std::map<std::string, Buffer> M;
    M.emplace("x", randomF32({kScaleN}, 1.0f, S));
    M.emplace("y", Buffer(DataType::Float32, {kScaleN}));
    std::vector<float> Ref(kScaleN);
    for (int64_t I = 0; I < kScaleN; ++I)
      Ref[I] = M.at("x").as<float>()[I] * 2.5f + 1.0f;
    Static("scale", buildScale(), std::move(M), "y", std::move(Ref));
  }
  {
    auto M = subdivnetInputs(kServeSubdivNet, Seed);
    auto Ref = naiveOut(kServeSubdivNet, M, M.at("y").numel());
    Static("subdivnet", buildSubdivNet(kServeSubdivNet), std::move(M), "y",
           std::move(Ref));
  }
  {
    auto M = longformerInputs(kServeLongformer, Seed);
    auto Ref =
        naiveOut(kServeLongformer, M, M.at("y").numel());
    Static("longformer", buildLongformer(kServeLongformer), std::move(M), "y",
           std::move(Ref));
  }
  {
    auto M = softrasInputs(kServeSoftRas, Seed);
    auto Ref = naiveOut(kServeSoftRas, M, M.at("img").numel());
    Static("softras", buildSoftRas(kServeSoftRas), std::move(M), "img",
           std::move(Ref));
  }
  {
    auto M = gatInputs(kServeGAT, Seed);
    auto Ref = naiveOut(kServeGAT, M, M.at("y").numel());
    Static("gat", buildGAT(kServeGAT), std::move(M), "y", std::move(Ref));
  }
  for (int64_t N : kDynSizes) {
    SubdivNetConfig C{N, kDynFeats};
    auto M = subdivnetInputs(C, Seed);
    ServeJob J;
    J.Name = "subdivnet_dyn" + std::to_string(N);
    J.F = buildSubdivNetDyn(C);
    J.Dyn = true;
    J.DynN = N;
    J.RefOut = naiveOut(C, M, M.at("y").numel());
    J.Out = "y";
    J.OutShape = M.at("y").shape();
    M.erase("y");
    M.emplace("n", Buffer::scalarI64(N));
    J.Inputs = std::move(M);
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::vector<int> serveOrder(size_t NumJobs, int PerJob, uint64_t Seed) {
  std::vector<int> Order;
  for (int R = 0; R < PerJob; ++R)
    for (size_t J = 0; J < NumJobs; ++J)
      Order.push_back(static_cast<int>(J));
  uint64_t S = mixSeed(kSeedOrder, Seed);
  for (size_t I = Order.size(); I > 1; --I) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    std::swap(Order[I - 1], Order[S % I]);
  }
  return Order;
}

} // namespace pb
