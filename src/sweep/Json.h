//===- Json.h - Minimal JSON values, parser and writer --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the sweep reports: a value type
/// over null/bool/number/string/array/object, a recursive-descent parser,
/// and a deterministic pretty-printer. Objects preserve insertion order so
/// emitted reports read in schema order and round-trip byte-identically.
///
/// No external dependency; numbers are stored as double (integral values
/// print without a decimal point), which covers every count the sweep
/// reports carry.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_JSON_H
#define CATS_SWEEP_JSON_H

#include "support/Error.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cats {

/// One JSON value.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() : ValueKind(Kind::Null) {}
  JsonValue(bool B) : ValueKind(Kind::Bool), BoolValue(B) {}
  JsonValue(double N) : ValueKind(Kind::Number), NumberValue(N) {}
  JsonValue(int N) : ValueKind(Kind::Number), NumberValue(N) {}
  JsonValue(unsigned N) : ValueKind(Kind::Number), NumberValue(N) {}
  JsonValue(unsigned long long N)
      : ValueKind(Kind::Number), NumberValue(static_cast<double>(N)) {}
  JsonValue(std::string S)
      : ValueKind(Kind::String), StringValue(std::move(S)) {}
  JsonValue(const char *S) : ValueKind(Kind::String), StringValue(S) {}

  /// Creates an empty array / object.
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return ValueKind; }
  bool isNull() const { return ValueKind == Kind::Null; }
  bool isBool() const { return ValueKind == Kind::Bool; }
  bool isNumber() const { return ValueKind == Kind::Number; }
  bool isString() const { return ValueKind == Kind::String; }
  bool isArray() const { return ValueKind == Kind::Array; }
  bool isObject() const { return ValueKind == Kind::Object; }

  /// Scalar accessors; assert on kind mismatch.
  bool asBool() const;
  double asNumber() const;
  const std::string &asString() const;

  /// Array access.
  const std::vector<JsonValue> &elements() const;
  void push(JsonValue V);

  /// Object access. Members keep insertion order; set() replaces in place
  /// when the key exists.
  const std::vector<std::pair<std::string, JsonValue>> &members() const;
  void set(const std::string &Key, JsonValue V);

  /// The member value for \p Key, or nullptr (also on non-objects).
  const JsonValue *get(const std::string &Key) const;

  /// Renders the value. \p Indent > 0 pretty-prints with that step;
  /// 0 emits the compact single-line form. Output is deterministic and
  /// reparses to an equal value.
  std::string dump(unsigned Indent = 2) const;

  bool operator==(const JsonValue &Other) const;
  bool operator!=(const JsonValue &Other) const { return !(*this == Other); }

  /// Parses \p Text as one JSON document (trailing whitespace allowed).
  /// Errors carry a byte offset and reason.
  static Expected<JsonValue> parse(const std::string &Text);

private:
  Kind ValueKind;
  bool BoolValue = false;
  double NumberValue = 0;
  std::string StringValue;
  std::vector<JsonValue> Elements;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// The largest count a JSON number (an IEEE double) holds exactly: 2^53.
constexpr unsigned long long MaxJsonCount = 1ull << 53;

/// Reads \p V as a count: an integral number in [0, \p Max]. A null \p V
/// (an absent member) reads as 0. Anything else — a non-number, a
/// negative or fractional value, or one above \p Max — is an error naming
/// \p Field.
Expected<unsigned long long> jsonCount(const JsonValue *V,
                                       const std::string &Field,
                                       unsigned long long Max = MaxJsonCount);

/// Reads the count member \p Key of \p Obj into \p Out (0 when absent),
/// bounded by the range of \p T as well. On a bad count returns false and
/// sets \p Error as jsonCount would, so reads chain with ||.
template <typename T>
bool readCount(const JsonValue &Obj, const char *Key, T &Out,
               std::string &Error) {
  auto N = jsonCount(Obj.get(Key), Key,
                     std::min<unsigned long long>(
                         MaxJsonCount, std::numeric_limits<T>::max()));
  if (N)
    Out = static_cast<T>(*N);
  else
    Error = N.message();
  return static_cast<bool>(N);
}

} // namespace cats

#endif // CATS_SWEEP_JSON_H
