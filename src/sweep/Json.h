//===- Json.h - Minimal JSON values, parser and writer --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the sweep reports: a value type
/// over null/bool/number/string/array/object, a recursive-descent parser,
/// and a deterministic pretty-printer that writes into a string sized
/// exactly beforehand. Objects preserve insertion order so
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
#include <variant>
#include <vector>

namespace cats {

/// One JSON value: a variant over the six JSON kinds. A node is 40 bytes
/// (a std::string plus the index), so a report's tree of outcome keys
/// costs one node per key and the key's own heap chunk, nothing more.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  JsonValue(bool B) : Data(std::in_place_type<bool>, B) {}
  JsonValue(double N) : Data(std::in_place_type<double>, N) {}
  JsonValue(int N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(unsigned N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(unsigned long long N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(std::string S)
      : Data(std::in_place_type<std::string>, std::move(S)) {}
  JsonValue(const char *S) : Data(std::in_place_type<std::string>, S) {}

  /// Creates an empty array / object.
  static JsonValue array() { JsonValue V; V.Data = Array(); return V; }
  static JsonValue object() { JsonValue V; V.Data = Object(); return V; }
  /// Creates an object of \p Members, folding repeated keys as set() does:
  /// the first occurrence keeps its place and takes the last value. Runs
  /// in O(n log n), so no document makes parse() quadratic.
  static JsonValue object(Object Members);

  /// The variant's alternatives are declared in Kind order.
  Kind kind() const { return static_cast<Kind>(Data.index()); }
  bool isNull() const { return kind() == Kind::Null; }
  bool isBool() const { return kind() == Kind::Bool; }
  bool isNumber() const { return kind() == Kind::Number; }
  bool isString() const { return kind() == Kind::String; }
  bool isArray() const { return kind() == Kind::Array; }
  bool isObject() const { return kind() == Kind::Object; }

  /// Scalar accessors; throw std::bad_variant_access on kind mismatch.
  bool asBool() const { return std::get<bool>(Data); }
  double asNumber() const { return std::get<double>(Data); }
  const std::string &asString() const { return std::get<std::string>(Data); }

  /// Array access.
  const Array &elements() const { return std::get<Array>(Data); }
  void push(JsonValue V);

  /// Object access. Members keep insertion order; set() replaces in place
  /// when the key exists.
  const Object &members() const { return std::get<Object>(Data); }
  void set(std::string Key, JsonValue V);

  /// Reserves room for \p N elements of an array or members of an object.
  void reserve(size_t N);

  /// The member value for \p Key, or nullptr (also on non-objects).
  const JsonValue *get(const std::string &Key) const;

  /// Renders the value. \p Indent > 0 pretty-prints with that step;
  /// 0 emits the compact single-line form. Output is deterministic and
  /// reparses to an equal value; a non-finite number renders as null.
  std::string dump(unsigned Indent = 2) const;

  bool operator==(const JsonValue &Other) const { return Data == Other.Data; }
  bool operator!=(const JsonValue &Other) const { return !(*this == Other); }

  /// Parses \p Text as one JSON document (trailing whitespace allowed).
  /// Errors carry a byte offset and reason. Documents nested deeper than
  /// MaxJsonDepth and numbers beyond the range of a double are errors.
  static Expected<JsonValue> parse(const std::string &Text);

private:
  std::variant<std::monostate, bool, double, std::string, Array, Object> Data;
};

/// The deepest nesting of arrays and objects parse() accepts. Reports nest
/// 6 deep; the bound keeps a hostile document from exhausting the stack.
constexpr unsigned MaxJsonDepth = 256;

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
