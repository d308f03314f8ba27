//===- support/string_utils.h - Small string helpers ------------*- C++ -*-===//
///
/// \file
/// Minimal string formatting helpers used across the compiler. We avoid
/// <iostream> in library code; these helpers build std::strings directly.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SUPPORT_STRING_UTILS_H
#define FT_SUPPORT_STRING_UTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace ft {

/// Joins \p Parts with \p Sep: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Formats a double with enough digits to round-trip (used by printers and
/// the code generator).
std::string fmtDouble(double V);

/// Returns \p Base if unused according to \p IsUsed, otherwise the first
/// "Base.N" that is unused. Used to generate fresh variable names.
template <typename Pred>
std::string freshName(const std::string &Base, Pred IsUsed) {
  if (!IsUsed(Base))
    return Base;
  for (int I = 1;; ++I) {
    std::string Cand = Base + "." + std::to_string(I);
    if (!IsUsed(Cand))
      return Cand;
  }
}

} // namespace ft

#endif // FT_SUPPORT_STRING_UTILS_H
