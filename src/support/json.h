//===- support/json.h - Minimal JSON parser and writer -----------*- C++ -*-===//
///
/// \file
/// The repo's one JSON layer. json::Writer streams a document in compact
/// form; it is the only emitting path of the Chrome-trace sink
/// (support/trace.h), the kernel-profile snapshot (codegen/profile.h) and
/// the telemetry snapshots of serve/telemetry.h, so commas, string escapes
/// and number spelling are decided here once. json::parse is the consuming
/// side: a small recursive-descent parser producing an owned DOM, used by
/// `ftc --top` to read telemetry snapshots back and by the tests that
/// assert every sink round-trips.
///
/// Parser scope: complete JSON syntax (objects, arrays, strings with
/// escapes incl. \uXXXX, numbers, true/false/null). Numbers are held as
/// double — exact for integers up to 2^53, which is why fingerprints travel
/// as hex *strings* in the telemetry schema. Errors are returned as Status
/// messages with a byte offset; no exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SUPPORT_JSON_H
#define FT_SUPPORT_JSON_H

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.h"

namespace ft::json {

/// One JSON value. Objects keep insertion order (the emitters write fixed
/// schemas; ordered iteration keeps dumps deterministic).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const { return isBool() ? B : Default; }
  double asNumber(double Default = 0) const {
    return isNumber() ? Num : Default;
  }
  const std::string &asString() const { return Str; }

  const std::vector<Value> &items() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }
  size_t size() const { return isArray() ? Arr.size() : Obj.size(); }

  /// Object member lookup; nullptr when absent or not an object.
  const Value *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, V] : Obj)
      if (Name == Key)
        return &V;
    return nullptr;
  }

  /// Dotted-path lookup through nested objects: at("warm.jit_fraction").
  const Value *at(const std::string &DottedPath) const;

  /// Convenience: number at \p Key, or \p Default when absent/mistyped.
  double num(const std::string &Key, double Default = 0) const {
    const Value *V = get(Key);
    return V ? V->asNumber(Default) : Default;
  }
  /// Convenience: string at \p Key, or "" when absent/mistyped.
  const std::string &str(const std::string &Key) const {
    static const std::string Empty;
    const Value *V = get(Key);
    return V && V->isString() ? V->Str : Empty;
  }

private:
  friend class Parser;
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Error statuses carry a byte offset.
Result<Value> parse(const std::string &Text);

/// Parses the file at \p Path. Error on unreadable file or invalid JSON.
Result<Value> parseFile(const std::string &Path);

/// Appends one JSON document to a string, token by token, with no
/// whitespace between tokens. The writer places every comma itself and
/// escapes every string (quotes, backslashes and all control characters
/// below 0x20; UTF-8 passes through), so a hostile span or kernel name
/// cannot corrupt a document. Doubles are spelled one way, the shortest
/// form that parses back to the same value (std::to_chars); a caller that
/// wants fewer digits rounds the value first. JSON has no NaN or infinity,
/// so those are written as null. Every call returns the writer, so a
/// member reads `W.key("seq").value(Seq)`.
///
/// The writer only appends to the string it was given: a caller streaming
/// a large document may write that string out and clear it between values.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  Writer &beginObject();
  Writer &endObject();
  Writer &beginArray();
  Writer &endArray();

  /// The next member's key; the value call that follows completes it.
  Writer &key(std::string_view K);

  Writer &value(std::string_view S);
  Writer &value(const char *S) { return value(std::string_view(S)); }
  Writer &value(bool B);
  Writer &value(int64_t V);
  Writer &value(uint64_t V);
  Writer &value(double V);
  /// Other integer types (int, unsigned, long long) widen to 64 bits.
  template <std::integral T> Writer &value(T V) {
    if constexpr (std::is_signed_v<T>)
      return value(static_cast<int64_t>(V));
    else
      return value(static_cast<uint64_t>(V));
  }

private:
  /// Writes the comma owed before a new value or key, if any.
  void separate();
  Writer &open(char C);
  Writer &close(char C);
  void string(std::string_view S);

  std::string &Out;
  /// One entry per open object or array: whether it has an element yet.
  std::vector<bool> HasElement;
  bool AfterKey = false;
};

} // namespace ft::json

#endif // FT_SUPPORT_JSON_H
