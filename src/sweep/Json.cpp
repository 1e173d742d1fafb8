//===- Json.cpp - Minimal JSON values, parser and writer ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/Json.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace cats;

JsonValue JsonValue::array() {
  JsonValue V;
  V.ValueKind = Kind::Array;
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.ValueKind = Kind::Object;
  return V;
}

bool JsonValue::asBool() const {
  assert(isBool() && "not a bool");
  return BoolValue;
}

double JsonValue::asNumber() const {
  assert(isNumber() && "not a number");
  return NumberValue;
}

Expected<unsigned long long> cats::jsonCount(const JsonValue *V,
                                             const std::string &Field,
                                             unsigned long long Max) {
  using Ret = Expected<unsigned long long>;
  if (!V)
    return 0ull;
  if (!V->isNumber())
    return Ret::error(strFormat("'%s' is not a number", Field.c_str()));
  // The range test also rejects NaN; the floor test, fractions.
  const double N = V->asNumber();
  if (N >= 0 && N <= static_cast<double>(Max) && N == std::floor(N))
    return static_cast<unsigned long long>(N);
  return Ret::error(strFormat("'%s' is %s, not a count in [0, %llu]",
                              Field.c_str(), V->dump(0).c_str(), Max));
}

const std::string &JsonValue::asString() const {
  assert(isString() && "not a string");
  return StringValue;
}

const std::vector<JsonValue> &JsonValue::elements() const {
  assert(isArray() && "not an array");
  return Elements;
}

void JsonValue::push(JsonValue V) {
  assert(isArray() && "not an array");
  Elements.push_back(std::move(V));
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const {
  assert(isObject() && "not an object");
  return Members;
}

void JsonValue::set(const std::string &Key, JsonValue V) {
  assert(isObject() && "not an object");
  for (auto &[K, Existing] : Members)
    if (K == Key) {
      Existing = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[K, V] : Members)
    if (K == Key)
      return &V;
  return nullptr;
}

bool JsonValue::operator==(const JsonValue &Other) const {
  if (ValueKind != Other.ValueKind)
    return false;
  switch (ValueKind) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return BoolValue == Other.BoolValue;
  case Kind::Number:
    return NumberValue == Other.NumberValue;
  case Kind::String:
    return StringValue == Other.StringValue;
  case Kind::Array:
    return Elements == Other.Elements;
  case Kind::Object:
    return Members == Other.Members;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
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
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void appendNumber(std::string &Out, double N) {
  // Integral values (all the sweep counts) print without a decimal point;
  // everything else gets enough digits to round-trip.
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", N);
    Out += Buf;
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  Out += Buf;
}

} // namespace

std::string JsonValue::dump(unsigned Indent) const {
  std::string Out;
  // Recursive lambda over (value, current depth).
  std::function<void(const JsonValue &, unsigned)> Emit =
      [&](const JsonValue &V, unsigned Depth) {
        auto Newline = [&](unsigned D) {
          if (Indent == 0)
            return;
          Out += '\n';
          Out.append(static_cast<size_t>(Indent) * D, ' ');
        };
        switch (V.kind()) {
        case Kind::Null:
          Out += "null";
          break;
        case Kind::Bool:
          Out += V.BoolValue ? "true" : "false";
          break;
        case Kind::Number:
          appendNumber(Out, V.NumberValue);
          break;
        case Kind::String:
          appendEscaped(Out, V.StringValue);
          break;
        case Kind::Array: {
          if (V.Elements.empty()) {
            Out += "[]";
            break;
          }
          Out += '[';
          for (size_t I = 0; I < V.Elements.size(); ++I) {
            if (I)
              Out += ',';
            Newline(Depth + 1);
            Emit(V.Elements[I], Depth + 1);
          }
          Newline(Depth);
          Out += ']';
          break;
        }
        case Kind::Object: {
          if (V.Members.empty()) {
            Out += "{}";
            break;
          }
          Out += '{';
          for (size_t I = 0; I < V.Members.size(); ++I) {
            if (I)
              Out += ',';
            Newline(Depth + 1);
            appendEscaped(Out, V.Members[I].first);
            Out += Indent == 0 ? ":" : ": ";
            Emit(V.Members[I].second, Depth + 1);
          }
          Newline(Depth);
          Out += '}';
          break;
        }
        }
      };
  Emit(*this, 0);
  if (Indent != 0)
    Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  Expected<JsonValue> run() {
    auto V = parseValue();
    if (!V)
      return V;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return V;
  }

private:
  Expected<JsonValue> fail(const std::string &Why) {
    return Expected<JsonValue>::error("JSON error at offset " +
                                      std::to_string(Pos) + ": " + Why);
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(const char *W) {
    size_t Len = std::strlen(W);
    if (Text.compare(Pos, Len, W) == 0) {
      Pos += Len;
      return true;
    }
    return false;
  }

  Expected<JsonValue> parseValue() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"') {
      auto S = parseString();
      if (!S)
        return Expected<JsonValue>::error(S.message());
      return JsonValue(S.take());
    }
    if (consumeWord("null"))
      return JsonValue();
    if (consumeWord("true"))
      return JsonValue(true);
    if (consumeWord("false"))
      return JsonValue(false);
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    return fail(std::string("unexpected character '") + C + "'");
  }

  Expected<std::string> parseString() {
    assert(Text[Pos] == '"');
    ++Pos;
    std::string Out;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return Expected<std::string>::error("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += H - '0';
          else if (H >= 'a' && H <= 'f')
            Code += H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code += H - 'A' + 10;
          else
            return Expected<std::string>::error("bad \\u escape digit");
        }
        // UTF-8 encode (no surrogate-pair handling; the reports are ASCII).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return Expected<std::string>::error("unknown escape");
      }
    }
    return Expected<std::string>::error("unterminated string");
  }

  Expected<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    const std::string Tok = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double N = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size())
      return fail("malformed number '" + Tok + "'");
    return JsonValue(N);
  }

  Expected<JsonValue> parseArray() {
    ++Pos; // '['
    JsonValue Out = JsonValue::array();
    skipWs();
    if (consume(']'))
      return Out;
    while (true) {
      auto V = parseValue();
      if (!V)
        return V;
      Out.push(V.take());
      skipWs();
      if (consume(']'))
        return Out;
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  Expected<JsonValue> parseObject() {
    ++Pos; // '{'
    JsonValue Out = JsonValue::object();
    skipWs();
    if (consume('}'))
      return Out;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected string key in object");
      auto K = parseString();
      if (!K)
        return Expected<JsonValue>::error(K.message());
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      auto V = parseValue();
      if (!V)
        return V;
      Out.set(K.take(), V.take());
      skipWs();
      if (consume('}'))
        return Out;
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

Expected<JsonValue> JsonValue::parse(const std::string &Text) {
  return Parser(Text).run();
}
