//===- support/json.cpp ---------------------------------------------------===//

#include "support/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>

namespace ft::json {

const Value *Value::at(const std::string &DottedPath) const {
  const Value *Cur = this;
  size_t Pos = 0;
  while (Pos < DottedPath.size()) {
    size_t Dot = DottedPath.find('.', Pos);
    std::string Key = DottedPath.substr(
        Pos, Dot == std::string::npos ? std::string::npos : Dot - Pos);
    Cur = Cur->get(Key);
    if (!Cur)
      return nullptr;
    if (Dot == std::string::npos)
      break;
    Pos = Dot + 1;
  }
  return Cur;
}

/// Recursive-descent parser over the whole input string. Depth-capped so a
/// hostile deeply-nested document cannot blow the stack.
class Parser {
public:
  explicit Parser(const std::string &Text) : S(Text) {}

  Result<Value> run() {
    skipWs();
    Value V;
    if (Status St = parseValue(V, 0); !St.ok())
      return Result<Value>::error(St.message());
    skipWs();
    if (Pos != S.size())
      return err("trailing characters after JSON document");
    return Result<Value>(std::move(V));
  }

private:
  static constexpr int kMaxDepth = 128;

  Result<Value> err(const std::string &Msg) const {
    return Result<Value>::error(statusMsg(Msg));
  }
  std::string statusMsg(const std::string &Msg) const {
    return "json: " + Msg + " (at byte " + std::to_string(Pos) + ")";
  }
  Status fail(const std::string &Msg) const {
    return Status::error(statusMsg(Msg));
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Status parseValue(Value &Out, int Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    if (Pos >= S.size())
      return fail("unexpected end of input");
    switch (S[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    case 't':
      if (S.compare(Pos, 4, "true") == 0) {
        Pos += 4;
        Out.K = Value::Kind::Bool;
        Out.B = true;
        return Status::success();
      }
      return fail("invalid literal");
    case 'f':
      if (S.compare(Pos, 5, "false") == 0) {
        Pos += 5;
        Out.K = Value::Kind::Bool;
        Out.B = false;
        return Status::success();
      }
      return fail("invalid literal");
    case 'n':
      if (S.compare(Pos, 4, "null") == 0) {
        Pos += 4;
        Out.K = Value::Kind::Null;
        return Status::success();
      }
      return fail("invalid literal");
    default:
      return parseNumber(Out);
    }
  }

  Status parseObject(Value &Out, int Depth) {
    ++Pos; // '{'
    Out.K = Value::Kind::Object;
    skipWs();
    if (consume('}'))
      return Status::success();
    for (;;) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return fail("expected object key string");
      std::string Key;
      if (Status St = parseString(Key); !St.ok())
        return St;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWs();
      Value V;
      if (Status St = parseValue(V, Depth + 1); !St.ok())
        return St;
      Out.Obj.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Status::success();
      return fail("expected ',' or '}' in object");
    }
  }

  Status parseArray(Value &Out, int Depth) {
    ++Pos; // '['
    Out.K = Value::Kind::Array;
    skipWs();
    if (consume(']'))
      return Status::success();
    for (;;) {
      skipWs();
      Value V;
      if (Status St = parseValue(V, Depth + 1); !St.ok())
        return St;
      Out.Arr.push_back(std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Status::success();
      return fail("expected ',' or ']' in array");
    }
  }

  /// Appends \p Cp to \p Out as UTF-8.
  static void appendUtf8(std::string &Out, unsigned Cp) {
    if (Cp < 0x80) {
      Out += char(Cp);
    } else if (Cp < 0x800) {
      Out += char(0xC0 | (Cp >> 6));
      Out += char(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += char(0xE0 | (Cp >> 12));
      Out += char(0x80 | ((Cp >> 6) & 0x3F));
      Out += char(0x80 | (Cp & 0x3F));
    } else {
      Out += char(0xF0 | (Cp >> 18));
      Out += char(0x80 | ((Cp >> 12) & 0x3F));
      Out += char(0x80 | ((Cp >> 6) & 0x3F));
      Out += char(0x80 | (Cp & 0x3F));
    }
  }

  Status parseHex4(unsigned &Out) {
    if (Pos + 4 > S.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = S[Pos + I];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        D = unsigned(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        D = unsigned(C - 'A') + 10;
      else
        return fail("invalid \\u escape digit");
      Out = Out * 16 + D;
    }
    Pos += 4;
    return Status::success();
  }

  Status parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return Status::success();
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      ++Pos; // backslash
      if (Pos >= S.size())
        return fail("truncated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp;
        if (Status St = parseHex4(Cp); !St.ok())
          return St;
        // Surrogate pair: combine with a following \uDC00..\uDFFF.
        if (Cp >= 0xD800 && Cp <= 0xDBFF && Pos + 1 < S.size() &&
            S[Pos] == '\\' && S[Pos + 1] == 'u') {
          size_t Save = Pos;
          Pos += 2;
          unsigned Lo;
          if (Status St = parseHex4(Lo); !St.ok())
            return St;
          if (Lo >= 0xDC00 && Lo <= 0xDFFF)
            Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
          else
            Pos = Save; // not a low surrogate; leave it for the next loop
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  Status parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos == Start || (Pos == Start + 1 && S[Start] == '-'))
      return fail("invalid number");
    char *End = nullptr;
    std::string Tok = S.substr(Start, Pos - Start);
    double V = std::strtod(Tok.c_str(), &End);
    if (End == Tok.c_str() || *End != '\0')
      return fail("invalid number");
    Out.K = Value::Kind::Number;
    Out.Num = V;
    return Status::success();
  }

  const std::string &S;
  size_t Pos = 0;
};

Result<Value> parse(const std::string &Text) { return Parser(Text).run(); }

Result<Value> parseFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Result<Value>::error("json: could not open " + Path);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  Result<Value> R = parse(Text);
  if (!R.ok())
    return Result<Value>::error(R.message() + " in " + Path);
  return R;
}

void Writer::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (HasElement.empty())
    return;
  if (HasElement.back())
    Out += ',';
  HasElement.back() = true;
}

Writer &Writer::open(char C) {
  separate();
  Out += C;
  HasElement.push_back(false);
  return *this;
}

Writer &Writer::close(char C) {
  HasElement.pop_back();
  Out += C;
  return *this;
}

Writer &Writer::beginObject() { return open('{'); }
Writer &Writer::endObject() { return close('}'); }
Writer &Writer::beginArray() { return open('['); }
Writer &Writer::endArray() { return close(']'); }

Writer &Writer::key(std::string_view K) {
  separate();
  string(K);
  Out += ':';
  AfterKey = true;
  return *this;
}

Writer &Writer::value(std::string_view S) {
  separate();
  string(S);
  return *this;
}

Writer &Writer::value(bool B) {
  separate();
  Out += B ? "true" : "false";
  return *this;
}

Writer &Writer::value(int64_t V) {
  separate();
  Out += std::to_string(V);
  return *this;
}

Writer &Writer::value(uint64_t V) {
  separate();
  Out += std::to_string(V);
  return *this;
}

Writer &Writer::value(double V) {
  separate();
  if (!std::isfinite(V)) {
    Out += "null";
    return *this;
  }
  char Buf[32];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, R.ptr);
  return *this;
}

void Writer::string(std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xF];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

} // namespace ft::json
