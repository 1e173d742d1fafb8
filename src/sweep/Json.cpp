//===- Json.cpp - Minimal JSON values, parser and writer ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/Json.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

using namespace cats;

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

void JsonValue::push(JsonValue V) {
  std::get<Array>(Data).push_back(std::move(V));
}

void JsonValue::set(std::string Key, JsonValue V) {
  Object &Members = std::get<Object>(Data);
  for (auto &[K, Existing] : Members)
    if (K == Key) {
      Existing = std::move(V);
      return;
    }
  Members.emplace_back(std::move(Key), std::move(V));
}

JsonValue JsonValue::object(Object Members) {
  // Member indices by key, each run of equal keys in document order.
  // Walking the runs backwards hands each key's last value to its first
  // occurrence and drops the rest.
  std::vector<size_t> Order(Members.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Members[A].first < Members[B].first;
  });
  std::vector<bool> Drop(Members.size());
  for (size_t I = Order.size(); I-- > 1;)
    if (Members[Order[I]].first == Members[Order[I - 1]].first) {
      Members[Order[I - 1]].second = std::move(Members[Order[I]].second);
      Drop[Order[I]] = true;
    }
  Members.erase(std::remove_if(Members.begin(), Members.end(),
                               [&](const Object::value_type &M) {
                                 return Drop[&M - Members.data()];
                               }),
                Members.end());
  JsonValue V;
  V.Data = std::move(Members);
  return V;
}

void JsonValue::reserve(size_t N) {
  if (Array *A = std::get_if<Array>(&Data))
    A->reserve(N);
  else
    std::get<Object>(Data).reserve(N);
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (const Object *Members = std::get_if<Object>(&Data))
    for (const auto &[K, V] : *Members)
      if (K == Key)
        return &V;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

/// Counts the bytes of a rendering, so dump() can size its string once.
struct CountSink {
  size_t Size = 0;
  void put(char) { ++Size; }
  void put(const char *, size_t N) { Size += N; }
  void pad(size_t N) { Size += N; }
};

/// Writes a rendering into a buffer CountSink has sized.
struct WriteSink {
  char *Cursor;
  void put(char C) { *Cursor++ = C; }
  void put(const char *S, size_t N) {
    std::memcpy(Cursor, S, N);
    Cursor += N;
  }
  void pad(size_t N) {
    std::memset(Cursor, ' ', N);
    Cursor += N;
  }
};

/// Writes \p S quoted, passing each run of plain characters in one call.
template <typename Sink> void putEscaped(Sink &Out, const std::string &S) {
  Out.put('"');
  const char *Run = S.data();
  const char *const End = Run + S.size();
  for (const char *P = Run; P != End; ++P) {
    const unsigned char C = static_cast<unsigned char>(*P);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.put(Run, static_cast<size_t>(P - Run));
    Run = P + 1;
    switch (C) {
    case '"':
      Out.put("\\\"", 2);
      break;
    case '\\':
      Out.put("\\\\", 2);
      break;
    case '\n':
      Out.put("\\n", 2);
      break;
    case '\t':
      Out.put("\\t", 2);
      break;
    case '\r':
      Out.put("\\r", 2);
      break;
    default: {
      char Buf[8];
      Out.put(Buf, std::snprintf(Buf, sizeof(Buf), "\\u%04x", C));
    }
    }
  }
  Out.put(Run, static_cast<size_t>(End - Run));
  Out.put('"');
}

template <typename Sink> void putNumber(Sink &Out, double N) {
  // JSON has no spelling for infinities or NaN.
  if (!std::isfinite(N)) {
    Out.put("null", 4);
    return;
  }
  // Integral values (all the sweep counts) print without a decimal point;
  // everything else gets enough digits to round-trip.
  char Buf[40];
  const bool Integral = N == std::floor(N) && std::fabs(N) < 1e15;
  Out.put(Buf, std::snprintf(Buf, sizeof(Buf), Integral ? "%.0f" : "%.17g",
                             N));
}

/// The one layout walk behind dump(): sizing and writing both run it.
template <typename Sink>
void render(Sink &Out, const JsonValue &V, unsigned Indent, unsigned Depth) {
  auto Newline = [&](unsigned D) {
    if (Indent == 0)
      return;
    Out.put('\n');
    Out.pad(static_cast<size_t>(Indent) * D);
  };
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out.put("null", 4);
    break;
  case JsonValue::Kind::Bool:
    if (V.asBool())
      Out.put("true", 4);
    else
      Out.put("false", 5);
    break;
  case JsonValue::Kind::Number:
    putNumber(Out, V.asNumber());
    break;
  case JsonValue::Kind::String:
    putEscaped(Out, V.asString());
    break;
  case JsonValue::Kind::Array: {
    const JsonValue::Array &Elements = V.elements();
    if (Elements.empty()) {
      Out.put("[]", 2);
      break;
    }
    Out.put('[');
    for (size_t I = 0; I < Elements.size(); ++I) {
      if (I)
        Out.put(',');
      Newline(Depth + 1);
      render(Out, Elements[I], Indent, Depth + 1);
    }
    Newline(Depth);
    Out.put(']');
    break;
  }
  case JsonValue::Kind::Object: {
    const JsonValue::Object &Members = V.members();
    if (Members.empty()) {
      Out.put("{}", 2);
      break;
    }
    Out.put('{');
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out.put(',');
      Newline(Depth + 1);
      putEscaped(Out, Members[I].first);
      Out.put(": ", Indent == 0 ? 1 : 2);
      render(Out, Members[I].second, Indent, Depth + 1);
    }
    Newline(Depth);
    Out.put('}');
    break;
  }
  }
  if (Depth == 0 && Indent != 0)
    Out.put('\n');
}

} // namespace

std::string JsonValue::dump(unsigned Indent) const {
  CountSink Counter;
  render(Counter, *this, Indent, 0);
  std::string Out(Counter.Size, '\0');
  WriteSink Writer{Out.data()};
  render(Writer, *this, Indent, 0);
  assert(Writer.Cursor == Out.data() + Out.size() &&
         "sizing and writing walks disagree");
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
    auto V = parseValue(0);
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

  /// Parses the value at Pos, which sits inside \p Depth arrays/objects.
  Expected<JsonValue> parseValue(unsigned Depth) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if ((C == '{' || C == '[') && Depth == MaxJsonDepth)
      return fail("nesting deeper than " + std::to_string(MaxJsonDepth) +
                  " levels");
    if (C == '{')
      return parseObject(Depth + 1);
    if (C == '[')
      return parseArray(Depth + 1);
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
      // Copy the run up to the next quote or escape in one append.
      size_t Stop = Pos;
      while (Stop < Text.size() && Text[Stop] != '"' && Text[Stop] != '\\')
        ++Stop;
      if (Stop == Text.size())
        break;
      Out.append(Text, Pos, Stop - Pos);
      Pos = Stop + 1;
      if (Text[Stop] == '"')
        return Out;
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
    const size_t Start = Pos;
    consume('-');
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    // strtod reads the token in place; it must stop exactly at its end.
    char *End = nullptr;
    const double N = std::strtod(Text.c_str() + Start, &End);
    if (End == Text.c_str() + Pos && std::isfinite(N))
      return JsonValue(N);
    const std::string Tok = "'" + Text.substr(Start, Pos - Start) + "'";
    if (End != Text.c_str() + Pos)
      return fail("malformed number " + Tok);
    Pos = Start;
    return fail("number " + Tok + " overflows a double");
  }

  Expected<JsonValue> parseArray(unsigned Depth) {
    ++Pos; // '['
    JsonValue Out = JsonValue::array();
    skipWs();
    if (consume(']'))
      return Out;
    while (true) {
      auto V = parseValue(Depth);
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

  Expected<JsonValue> parseObject(unsigned Depth) {
    ++Pos; // '{'
    JsonValue::Object Members;
    skipWs();
    if (consume('}'))
      return JsonValue::object();
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
      auto V = parseValue(Depth);
      if (!V)
        return V;
      Members.emplace_back(K.take(), V.take());
      skipWs();
      if (consume('}'))
        return JsonValue::object(std::move(Members));
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
