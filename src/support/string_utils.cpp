//===- support/string_utils.cpp -------------------------------------------===//

#include "support/string_utils.h"

#include <cmath>
#include <cstdio>

using namespace ft;

std::string ft::join(const std::vector<std::string> &Parts,
                     const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I > 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string ft::fmtDouble(double V) {
  if (std::isinf(V))
    return V > 0 ? "INFINITY" : "(-INFINITY)";
  if (std::isnan(V))
    return "NAN";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
