#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file json.hpp
/// A minimal streaming JSON writer for machine-readable output (study
/// reports, serve responses, the benchmark's results), plus a small
/// recursive-descent parser (`json_parse`) producing a `JsonValue` tree for
/// the serve wire format (serve/wire.hpp). Handles nesting, comma placement
/// and string escaping; numbers are emitted with enough precision to
/// round-trip doubles, and integers that fit std::int64_t exactly survive
/// a parse round-trip without floating-point loss.

namespace maxev {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  /// Emit a JSON null.
  JsonWriter& null_value();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The serialized document. \pre every container has been closed.
  [[nodiscard]] const std::string& str() const;

  /// Write the document to a file; throws maxev::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void comma();

  std::string out_;
  std::vector<bool> first_;  // per open container: no member emitted yet
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
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool exact_int_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Throws maxev::Error with a byte offset on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Serialize a JsonValue tree back to compact JSON text. Object members are
/// emitted in map order (alphabetical), so dump(parse(dump(v))) is stable.
[[nodiscard]] std::string json_dump(const JsonValue& v);

}  // namespace maxev
