#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <system_error>

#include "util/error.hpp"

namespace maxev {

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;  // value directly follows its "key":
    return;
  }
  if (first_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_ += ',';
  }
}

void JsonWriter::append_escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (first_.empty()) throw Error("JsonWriter: end_object with no container");
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (first_.empty()) throw Error("JsonWriter: end_array with no container");
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  append_escaped(k);
  out_ += ':';
  pending_key_ = true;  // the next value/container follows without a comma
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  append_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (std::isfinite(v)) {
    // Precision 17 in general format is printf's %.17g by definition.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out_.append(buf, r.ptr);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::int64_array(std::span<const std::int64_t> v) {
  comma();
  // Room for "[]" and, per element, a separator and the longest int64.
  constexpr std::size_t kMaxChars = 21;
  const std::size_t old = out_.size();
  out_.resize(old + 2 + v.size() * kMaxChars);
  char* p = out_.data() + old;
  *p++ = '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) *p++ = ',';
    p = std::to_chars(p, p + kMaxChars, v[i]).ptr;
  }
  *p++ = ']';
  out_.resize(static_cast<std::size_t>(p - out_.data()));
  return *this;
}

const std::string& JsonWriter::str() const {
  if (!first_.empty()) throw Error("JsonWriter: unclosed container");
  return out_;
}

void JsonWriter::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw Error("JsonWriter: cannot open '" + path + "'");
  f << str() << '\n';
  if (!f) throw Error("JsonWriter: write to '" + path + "' failed");
}

// ----------------------------------------------------------- JsonValue ----

namespace {

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw Error(std::string("JsonValue: expected ") + want + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (!is_number()) kind_error("number", kind_);
  return exact_int_ ? static_cast<double>(int_) : num_;
}

std::int64_t JsonValue::as_int64() const {
  if (!is_int64()) kind_error("integer", kind_);
  return int_;
}

std::uint64_t JsonValue::as_uint64() const {
  const std::int64_t v = as_int64();
  if (v < 0) throw Error("JsonValue: expected non-negative integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string", kind_);
  return std::get<std::string>(data_);
}

std::size_t JsonValue::size() const {
  if (is_array()) return std::get<Array>(data_).size();
  if (is_object()) return std::get<Object>(data_).size();
  return 0;
}

const JsonValue& JsonValue::operator[](std::size_t i) const {
  const Array& items = this->items();
  if (i >= items.size())
    throw Error("JsonValue: array index " + std::to_string(i) +
                " out of range (size " + std::to_string(items.size()) + ")");
  return items[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) kind_error("array", kind_);
  return std::get<Array>(data_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const Object& members = this->members();
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw Error("JsonValue: missing key '" + key + "'");
  return *v;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (!is_object()) kind_error("object", kind_);
  return std::get<Object>(data_);
}

JsonValue JsonValue::null() { return {}; }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.exact_int_ = true;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.data_.emplace<std::string>(std::move(s));
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.data_.emplace<Array>(std::move(items));
  return v;
}

JsonValue JsonValue::object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.data_.emplace<Object>(std::move(members));
  return v;
}

// ----------------------------------------------------------- JsonReader ----

void JsonReader::fail(const std::string& what) const {
  throw Error("json_parse: " + what + " at offset " + std::to_string(pos_));
}

inline void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

inline char JsonReader::peek_char() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (peek_char() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

JsonValue::Kind JsonReader::peek() {
  skip_ws();
  switch (peek_char()) {
    case '{': return JsonValue::Kind::kObject;
    case '[': return JsonValue::Kind::kArray;
    case '"': return JsonValue::Kind::kString;
    case 't':
    case 'f': return JsonValue::Kind::kBool;
    case 'n': return JsonValue::Kind::kNull;
    default: return JsonValue::Kind::kNumber;
  }
}

void JsonReader::open(bool object) {
  skip_ws();
  const char want = object ? '{' : '[';
  if (peek_char() != want) fail(std::string("expected '") + want + "'");
  open_here();
}

inline void JsonReader::open_here() {
  // Bounded nesting: a hostile line of brackets must fail in band, not
  // overflow the stack of a recursive consumer.
  if (frames_.size() == kJsonMaxDepth)
    fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
  ++pos_;
  frames_.emplace_back().keys = n_keys_;
}

inline void JsonReader::close() {
  n_keys_ = frames_.back().keys;
  frames_.pop_back();
}

void JsonReader::begin_object() { open(true); }

void JsonReader::begin_array() { open(false); }

bool JsonReader::next_key(std::string_view& key) {
  return next_member(key, true);
}

inline bool JsonReader::next_member(std::string_view& key, bool track) {
  Frame& f = frames_.back();
  // The previous member's value has been read: a repeated key fails here,
  // just past that value.
  if (f.repeated) fail("duplicate object key");
  skip_ws();
  const char c = peek_char();
  if (f.first) {
    f.first = false;
    if (c == '}') {
      ++pos_;
      close();
      return false;
    }
  } else {
    ++pos_;
    if (c == '}') {
      close();
      return false;
    }
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}'");
    }
    skip_ws();
  }
  if (track) {
    if (n_keys_ == keys_.size()) keys_.emplace_back();
    std::string& slot = keys_[n_keys_];
    slot.assign(parse_string());
    f.repeated = repeats(slot);
    ++n_keys_;
    key = slot;
  } else {
    key = parse_string();
  }
  skip_ws();
  expect(':');
  return true;
}

bool JsonReader::repeats(std::string_view key) {
  Frame& f = frames_.back();
  if (!f.index) {
    if (n_keys_ - f.keys < kLinearKeys) {
      for (std::size_t i = f.keys; i < n_keys_; ++i)
        if (keys_[i] == key) return true;
      return false;
    }
    // A wide object: index its keys instead of scanning them per member.
    f.index = std::make_unique<std::set<std::string, std::less<>>>(
        keys_.begin() + static_cast<std::ptrdiff_t>(f.keys),
        keys_.begin() + static_cast<std::ptrdiff_t>(n_keys_));
  }
  return !f.index->emplace(key).second;
}

bool JsonReader::next_item() {
  Frame& f = frames_.back();
  skip_ws();
  const char c = peek_char();
  if (f.first) {
    f.first = false;
    if (c != ']') return true;
    ++pos_;
    close();
    return false;
  }
  ++pos_;
  if (c == ',') return true;
  if (c == ']') {
    close();
    return false;
  }
  --pos_;
  fail("expected ',' or ']'");
}

std::string_view JsonReader::read_string() {
  skip_ws();
  return parse_string();
}

std::string_view JsonReader::parse_string() {
  if (peek_char() != '"') fail("expected string");
  ++pos_;
  bool copied = false;  // scratch_ holds the decoded prefix
  for (;;) {
    // Take each run of plain bytes whole: a string without escapes is a
    // view of the input.
    const std::size_t run = pos_;
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    if (!copied && pos_ < text_.size() && text_[pos_] == '"')
      return text_.substr(run, pos_++ - run);
    if (!copied) {
      scratch_.clear();
      copied = true;
    }
    scratch_.append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (c != '\\') fail("unescaped control character in string");
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': append_unicode_escape(scratch_); break;
      default: fail("invalid escape character");
    }
  }
}

void JsonReader::append_unicode_escape(std::string& out) {
  // The writer only emits \u00xx for control characters; decode the BMP
  // generally (UTF-8) and reject surrogates, which we never produce.
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned cp = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    cp <<= 4;
    if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
    else fail("invalid \\u escape digit");
  }
  if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

JsonReader::Number JsonReader::read_number() {
  skip_ws();
  return number_here();
}

inline JsonReader::Number JsonReader::number_here() {
  const auto digit_at = [this](std::size_t i) {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  };
  const std::size_t start = pos_;
  if (peek_char() == '-') ++pos_;
  if (!digit_at(pos_)) fail("invalid number");
  bool integral = true;
  while (digit_at(pos_)) ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    if (!digit_at(pos_)) fail("invalid number: digit required after '.'");
    while (digit_at(pos_)) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (!digit_at(pos_)) fail("invalid number: digit required in exponent");
    while (digit_at(pos_)) ++pos_;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  Number n;
  if (integral) {
    const auto r = std::from_chars(first, last, n.i);
    if (r.ec == std::errc() && r.ptr == last) {
      n.exact = true;
      n.d = n.i == 0 && *first == '-' ? -0.0 : static_cast<double>(n.i);
      return n;
    }
    // Falls through for out-of-range integers: keep them as doubles.
  }
  const auto r = std::from_chars(first, last, n.d);
  if (r.ec == std::errc::result_out_of_range)
    // Overflow or underflow: read the literal as strtod does (±HUGE_VAL,
    // zero or the nearest subnormal).
    n.d = std::strtod(std::string(first, last).c_str(), nullptr);
  else if (r.ec != std::errc() || r.ptr != last)
    fail("invalid number literal");
  return n;
}

bool JsonReader::read_bool() {
  skip_ws();
  for (const bool b : {true, false}) {
    const std::string_view lit = b ? "true" : "false";
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return b;
    }
  }
  fail("invalid literal");
}

void JsonReader::read_null() {
  skip_ws();
  if (text_.substr(pos_, 4) != "null") fail("invalid literal");
  pos_ += 4;
}

JsonValue JsonReader::read_object_value() {
  open_here();
  std::map<std::string, JsonValue> members;
  std::string_view key;
  while (next_member(key, false)) {
    std::string k(key);  // the view dies with the next read
    JsonValue v = read_value();
    // The tree is this object's key index: a repeated key fails just
    // past its value, where next_key() fails it.
    if (!members.emplace(std::move(k), std::move(v)).second)
      fail("duplicate object key");
  }
  return JsonValue::object(std::move(members));
}

JsonValue JsonReader::read_array_value() {
  open_here();
  std::vector<JsonValue> items;
  while (next_item()) items.push_back(read_value());
  return JsonValue::array(std::move(items));
}

JsonValue JsonReader::read_value() {
  skip_ws();
  switch (peek_char()) {
    case '{': return read_object_value();
    case '[': return read_array_value();
    case '"': return JsonValue::string(std::string(parse_string()));
    case 't':
    case 'f': return JsonValue::boolean(read_bool());
    case 'n': read_null(); return JsonValue::null();
    default: {
      const Number n = number_here();
      return n.exact ? JsonValue::integer(n.i) : JsonValue::number(n.d);
    }
  }
}

void JsonReader::skip_value() {
  std::string_view key;
  switch (peek()) {
    case JsonValue::Kind::kObject:
      begin_object();
      while (next_key(key)) skip_value();
      return;
    case JsonValue::Kind::kArray:
      begin_array();
      while (next_item()) skip_value();
      return;
    case JsonValue::Kind::kString: (void)read_string(); return;
    case JsonValue::Kind::kBool: (void)read_bool(); return;
    case JsonValue::Kind::kNull: read_null(); return;
    case JsonValue::Kind::kNumber: (void)read_number(); return;
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

JsonValue json_parse(std::string_view text) {
  JsonReader r(text);
  JsonValue v = r.read_value();
  r.finish();
  return v;
}

namespace {

void dump_into(const JsonValue& v, JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: w.null_value(); break;
    case JsonValue::Kind::kBool: w.value(v.as_bool()); break;
    case JsonValue::Kind::kNumber:
      if (v.is_int64())
        w.value(v.as_int64());
      else
        w.value(v.as_double());
      break;
    case JsonValue::Kind::kString: w.value(v.as_string()); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) dump_into(item, w);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        dump_into(member, w);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string json_dump(const JsonValue& v) {
  JsonWriter w;
  dump_into(v, w);
  return w.str();
}

}  // namespace maxev
