#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

/// \file json.hpp
/// A minimal streaming JSON writer for machine-readable output (study
/// reports, serve responses, the benchmark's results), plus a small
/// recursive-descent parser (`json_parse`) producing a `JsonValue` tree for
/// the serve wire format (serve/wire.hpp). Both sit on the serve hot path,
/// so neither allocates per number or per escaped string.
///
/// Guarantees:
/// - Doubles are written as printf `%.17g` would write them (via
///   `std::to_chars(..., chars_format::general, 17)`, which the standard
///   defines that way), so they round-trip bit for bit; NaN and Inf are
///   written as `null`. Parsed doubles equal what `strtod` returns.
/// - An integral literal that fits std::int64_t parses exactly (is_int64());
///   a larger one becomes a double.
/// - `json_parse` rejects documents nested deeper than
///   `kJsonMaxDepth` arrays/objects instead of recursing without bound.
///
/// Node layout: a `JsonValue` keeps its kind, a union of the scalars
/// (bool, double, int64) and one `std::variant` holding the string, array
/// or object payload, so a number or bool carries no container state.

namespace maxev {

/// Deepest array/object nesting `json_parse` accepts. Wire, checkpoint and
/// Report documents stay below ten levels.
inline constexpr std::size_t kJsonMaxDepth = 512;

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  /// Keeps string literals from binding to value(bool).
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  /// Emit a JSON null.
  JsonWriter& null_value();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The serialized document. \pre every container has been closed.
  [[nodiscard]] const std::string& str() const;

  /// Write the document to a file; throws maxev::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void comma();
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<char> first_;  // per open container: no member emitted yet
  bool pending_key_ = false;  // a "key": was just emitted
};

/// Parsed JSON document node. Objects keep their members in an ordered map
/// (deterministic iteration); numbers remember whether the source literal
/// was an exact std::int64_t so picosecond timestamps survive untouched.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  /// True for numbers whose literal was integral and fits std::int64_t.
  [[nodiscard]] bool is_int64() const { return is_number() && exact_int_; }

  /// Checked accessors; throw maxev::Error naming the expected kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access. size() is 0 for non-arrays/objects.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& operator[](std::size_t i) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object access: find() returns nullptr when the key is absent, at()
  /// throws maxev::Error naming the missing key.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const;

  // Construction (used by the parser; handy for tests too).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue integer(std::int64_t i);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::map<std::string, JsonValue> members);

 private:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  Kind kind_ = Kind::kNull;
  bool exact_int_ = false;  // kNumber: int_ is active, else num_
  union {
    bool bool_;
    double num_;
    std::int64_t int_ = 0;
  };
  std::variant<std::monostate, std::string, Array, Object> data_;
};

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Throws maxev::Error with a byte offset on malformed input, and on arrays
/// or objects nested deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Serialize a JsonValue tree back to compact JSON text. Object members are
/// emitted in map order (alphabetical), so dump(parse(dump(v))) is stable.
[[nodiscard]] std::string json_dump(const JsonValue& v);

}  // namespace maxev
