#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

/// \file json.hpp
/// A minimal streaming JSON writer for machine-readable output (study
/// reports, serve responses, the benchmark's results), plus one lexer, the
/// pull reader `JsonReader`, with two kinds of consumer: `json_parse`
/// builds a `JsonValue` tree from it (the serve wire format,
/// serve/wire.hpp), and the serve protocol decodes token-bearing requests
/// straight from it without a tree. All of it sits on the serve hot path,
/// so none of it allocates per number or per escaped string.
///
/// Guarantees:
/// - Doubles are written as printf `%.17g` would write them (via
///   `std::to_chars(..., chars_format::general, 17)`, which the standard
///   defines that way), so they round-trip bit for bit; NaN and Inf are
///   written as `null`. Parsed doubles equal what `strtod` returns.
/// - An integral literal that fits std::int64_t parses exactly (is_int64());
///   a larger one becomes a double.
/// - `JsonReader` (so `json_parse`) rejects documents nested deeper than
///   `kJsonMaxDepth` arrays/objects instead of recursing without bound, and
///   objects that repeat a key.
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
  /// A whole integer array `[v0,v1,...]` in one call: the same bytes as
  /// begin_array(), value() per element and end_array(), written with one
  /// reservation and no per-element separator state.
  JsonWriter& int64_array(std::span<const std::int64_t> v);

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

/// Pull reader over one JSON document: the library's only JSON grammar.
/// The caller asks for the kind of the next value and then reads it, enters
/// it, or skips it; `json_parse` is read_value() over the whole text.
/// Every grammar error throws maxev::Error as
/// `json_parse: <what> at offset <n>`, with the text and offset json_parse
/// reports, and a repeated object key fails once its value has been read,
/// at the offset just past that value.
///
/// Strings and keys come back as views that stay valid until the next call
/// on the reader. A caller that stops reading before the end of the
/// document (by throwing) skips the grammar checks of the rest.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value (leading whitespace skipped). Input that starts
  /// no object, array, string or literal reports kNumber, whose read then
  /// fails as the number grammar does.
  [[nodiscard]] JsonValue::Kind peek();

  /// Enter the object that peek() reported, then call next_key() until it
  /// returns false; read (or skip) one value after every true.
  void begin_object();
  [[nodiscard]] bool next_key(std::string_view& key);
  /// Enter the array that peek() reported, then call next_item() until it
  /// returns false; read (or skip) one value after every true.
  void begin_array();
  [[nodiscard]] bool next_item();

  /// A number: `exact` when the literal was integral and fits
  /// std::int64_t (then `i` holds it). `d` holds it as a double either way:
  /// what strtod returns, or `i` converted, with the sign of a `-0` kept.
  struct Number {
    bool exact = false;
    std::int64_t i = 0;
    double d = 0.0;
  };
  [[nodiscard]] Number read_number();
  [[nodiscard]] std::string_view read_string();
  [[nodiscard]] bool read_bool();
  void read_null();
  /// The next value as a tree.
  [[nodiscard]] JsonValue read_value();
  /// Read the next value, checking its grammar, and keep nothing.
  void skip_value();
  /// \pre every container is closed. Fails on trailing non-whitespace.
  void finish();

  /// Throw maxev::Error for \p what at the current offset.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  struct Frame {
    bool first = true;      // no member/item read yet
    bool repeated = false;  // the member being read repeats a key
    std::size_t keys = 0;   // this object's first slot in keys_
    /// Key index of an object past kLinearKeys members.
    std::unique_ptr<std::set<std::string, std::less<>>> index;
  };
  /// Members up to which a repeated key is found by a linear scan.
  static constexpr std::size_t kLinearKeys = 16;

  void skip_ws();
  char peek_char();
  void expect(char c);
  void open(bool object);
  /// open() after its bracket check, and read_number() after its
  /// whitespace skip: for callers already at the value's first byte.
  void open_here();
  [[nodiscard]] Number number_here();
  void close();
  /// read_value() of an object or an array, at its opening bracket.
  [[nodiscard]] JsonValue read_object_value();
  [[nodiscard]] JsonValue read_array_value();
  /// next_key(); \p track false leaves finding repeated keys to the caller
  /// (read_value(), whose tree indexes them anyway).
  [[nodiscard]] bool next_member(std::string_view& key, bool track);
  /// The string at the current offset; decoded into scratch_ when it has
  /// escapes, else a view of the input.
  [[nodiscard]] std::string_view parse_string();
  void append_unicode_escape(std::string& out);
  [[nodiscard]] bool repeats(std::string_view key);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<Frame> frames_;      // open containers, innermost last
  std::vector<std::string> keys_;  // keys of the open objects
  std::size_t n_keys_ = 0;         // slots of keys_ in use
  std::string scratch_;            // the last escaped string
};

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Throws maxev::Error with a byte offset on malformed input, and on arrays
/// or objects nested deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Serialize a JsonValue tree back to compact JSON text. Object members are
/// emitted in map order (alphabetical), so dump(parse(dump(v))) is stable.
[[nodiscard]] std::string json_dump(const JsonValue& v);

}  // namespace maxev
