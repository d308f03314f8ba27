//===- serve/shape_key.cpp ------------------------------------------------===//

#include "serve/shape_key.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "ir/ast.h"

using namespace ft;
using namespace ft::serve;

namespace {

/// The smallest power of two >= \p V (V < 1 buckets to 1). This is the
/// ragged size bucket: sparse inputs whose nnz drifts a few percent between
/// requests must not each mint a fresh specialization bucket.
int64_t pow2BucketOf(int64_t V) {
  int64_t B = 1;
  while (B < V && B < (int64_t{1} << 62))
    B <<= 1;
  return B;
}

/// One signature segment for parameter \p Name of dtype \p DT and shape
/// \p Sh; \p Scalar is the value of a 0-D integer binding. Ragged sizes
/// (per \p RI; null = none) are bucketed and spelled `~bucket`.
std::string segmentOf(const std::string &Name, DataType DT,
                      const std::vector<int64_t> &Sh, int64_t Scalar,
                      const RaggedInfo *RI) {
  std::string P = Name;
  P += ':';
  P += nameOf(DT);
  if (Sh.empty() && isInt(DT)) {
    if (RI && RI->isRaggedExtent(Name)) {
      P += '~';
      P += std::to_string(pow2BucketOf(Scalar));
    } else {
      P += '=';
      P += std::to_string(Scalar);
    }
  } else {
    const std::set<int> *Ragged = nullptr;
    if (RI) {
      auto It = RI->RaggedDims.find(Name);
      if (It != RI->RaggedDims.end())
        Ragged = &It->second;
    }
    P += '[';
    for (size_t I = 0; I < Sh.size(); ++I) {
      if (I)
        P += 'x';
      if (Ragged && Ragged->count(static_cast<int>(I))) {
        P += '~';
        P += std::to_string(pow2BucketOf(Sh[I]));
      } else {
        P += std::to_string(Sh[I]);
      }
    }
    P += ']';
  }
  return P;
}

/// Joins (name, segment) pairs sorted by name: the signature must be
/// canonical for any caller-side container, not an accident of its
/// iteration order.
std::string joinSorted(std::vector<std::pair<std::string, std::string>> Parts) {
  std::sort(Parts.begin(), Parts.end());
  std::string K;
  for (const auto &[Name, P] : Parts) {
    if (!K.empty())
      K += ' ';
    K += P;
  }
  return K;
}

std::string keyOf(const std::map<std::string, Buffer *> &Args,
                  const RaggedInfo *RI) {
  std::vector<std::pair<std::string, std::string>> Parts;
  Parts.reserve(Args.size());
  for (const auto &[Name, B] : Args) {
    if (!B)
      continue;
    const bool IntScalar = B->shape().empty() && isInt(B->dtype());
    Parts.emplace_back(Name, segmentOf(Name, B->dtype(), B->shape(),
                                       IntScalar ? B->getI(0) : 0, RI));
  }
  return joinSorted(std::move(Parts));
}

} // namespace

std::string ft::serve::shapeKeyOf(const std::map<std::string, Buffer *> &Args) {
  return keyOf(Args, nullptr);
}

std::string
ft::serve::bucketedShapeKeyOf(const std::map<std::string, Buffer *> &Args,
                              const RaggedInfo &RI) {
  return keyOf(Args, RI.empty() ? nullptr : &RI);
}

std::string ft::serve::staticShapeKeyOf(const ArgContract &C) {
  if (!C.Ragged.empty())
    return {}; // Ragged sizes are bucketed per request.
  std::vector<std::pair<std::string, std::string>> Parts;
  for (const ArgContract::Param &P : C.Params) {
    if (!P.Def)
      return {};
    const TensorInfo &Info = P.Def->Info;
    if (Info.Shape.empty() && isInt(Info.Dtype))
      return {}; // The key spells the value (extents included).
    std::vector<int64_t> Sh;
    for (const Expr &Dim : Info.Shape) {
      auto C = dyn_cast<IntConstNode>(Dim);
      if (!C)
        return {};
      Sh.push_back(C->Val);
    }
    Parts.emplace_back(P.Name, segmentOf(P.Name, Info.Dtype, Sh, 0, nullptr));
  }
  return joinSorted(std::move(Parts));
}

Result<std::map<std::string, int64_t>>
ft::serve::parseScalarExtents(const std::string &Key) {
  std::map<std::string, int64_t> Out;
  size_t Pos = 0;
  while (Pos < Key.size()) {
    size_t End = Key.find(' ', Pos);
    if (End == std::string::npos)
      End = Key.size();
    const std::string Seg = Key.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Colon = Seg.find(':');
    size_t Eq = Seg.find('=');
    if (Colon == std::string::npos || Eq == std::string::npos || Eq < Colon)
      continue; // Tensor ([...]) or bucketed (~) segment: not a binding.
    // A scalar binding names a dtype between `:` and `=`; only an integer
    // scalar can bind an extent parameter. Accepting `n:f32=3` here would
    // silently specialize at a truncated float — reject it instead.
    const std::string DT = Seg.substr(Colon + 1, Eq - Colon - 1);
    if (DT != nameOf(DataType::Int32) && DT != nameOf(DataType::Int64))
      return Status::error("shape key: scalar extent `" +
                           Seg.substr(0, Colon) + "` has non-integer dtype `" +
                           DT + "` in segment `" + Seg + "`");
    char *Stop = nullptr;
    const std::string ValStr = Seg.substr(Eq + 1);
    long long V = std::strtoll(ValStr.c_str(), &Stop, 10);
    if (!Stop || *Stop != '\0' || ValStr.empty())
      return Status::error("shape key: unparsable scalar value in segment `" +
                           Seg + "`");
    Out[Seg.substr(0, Colon)] = static_cast<int64_t>(V);
  }
  return Out;
}
