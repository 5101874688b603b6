/// \file test_decode.cpp
/// The one-pass serve decoder (serve/decode.hpp) against the path it
/// replaced. The reference is a test-local copy of that path: the former
/// recursive-descent json_parse building a tree, then the protocol's feed
/// walk (parse_tokens) and the restore walk over it. Seeded single-mutation
/// feed and restore lines go through Server::handle and through the
/// reference; both must give the same verdict, the same error text and the
/// same decoded tokens.
///
/// One difference is intended and counted: restore now checks token params
/// with the feed rule (an array of exactly four numbers), where the former
/// walk copied min(4, size) params and left the rest zero. The reference
/// walk applies that rule too.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "gen/didactic.hpp"
#include "serve/decode.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace maxev;
using FedToken = serve::Session::FedToken;

// ------------------------------------------------ the reference path ----

namespace reference {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json_parse: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool digit_at(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile line of brackets must fail in band,
        // not overflow the stack.
        if (depth_ == kJsonMaxDepth)
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
        ++depth_;
        JsonValue v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue v = parse_value();
      if (!members.emplace(std::move(key), std::move(v)).second)
        fail("duplicate object key");
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue::object(std::move(members));
      if (c != ',') { --pos_; fail("expected ',' or '}'"); }
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::array(std::move(items));
      if (c != ',') { --pos_; fail("expected ',' or ']'"); }
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      // Copy each run of plain bytes with one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape character");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
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

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
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
    if (integral) {
      std::int64_t i = 0;
      const auto r = std::from_chars(first, last, i);
      if (r.ec == std::errc() && r.ptr == last) return JsonValue::integer(i);
      // Falls through for out-of-range integers: keep them as doubles.
    }
    double d = 0.0;
    const auto r = std::from_chars(first, last, d);
    if (r.ec == std::errc::result_out_of_range)
      // Overflow or underflow: read the literal as strtod does (±HUGE_VAL,
      // zero or the nearest subnormal).
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    else if (r.ec != std::errc() || r.ptr != last)
      fail("invalid number literal");
    return JsonValue::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects currently open
};

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

model::TokenAttrs parse_token_attrs(const JsonValue& v) {
  model::TokenAttrs a;
  a.size = v.at("size").as_int64();
  const JsonValue& params = v.at("params");
  if (!params.is_array() || params.size() != a.params.size())
    throw serve::SessionError(
        "protocol: token attrs params must be an array of " +
        std::to_string(a.params.size()));
  for (std::size_t i = 0; i < a.params.size(); ++i)
    a.params[i] = params[i].as_double();
  return a;
}

std::vector<FedToken> parse_tokens(const JsonValue& req) {
  const JsonValue& arr = req.at("tokens");
  if (!arr.is_array())
    throw serve::SessionError("protocol: 'tokens' must be an array");
  std::vector<FedToken> tokens;
  tokens.reserve(arr.size());
  for (const JsonValue& t : arr.items()) {
    FedToken tok;
    tok.earliest_ps = t.at("earliest_ps").as_int64();
    if (const JsonValue* attrs = t.find("attrs"); attrs && !attrs->is_null())
      tok.attrs = parse_token_attrs(*attrs);
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

JsonValue stream_json(std::uint64_t source,
                      const std::vector<FedToken>& tokens) {
  std::vector<JsonValue> earliest;
  std::vector<JsonValue> attrs;
  for (const FedToken& t : tokens) {
    earliest.push_back(JsonValue::integer(t.earliest_ps));
    std::vector<JsonValue> params;
    for (const double p : t.attrs.params)
      params.push_back(JsonValue::number(p));
    attrs.push_back(JsonValue::object(
        {{"size", JsonValue::integer(t.attrs.size)},
         {"params", JsonValue::array(std::move(params))}}));
  }
  return JsonValue::object(
      {{"source", JsonValue::integer(static_cast<std::int64_t>(source))},
       {"earliest_ps", JsonValue::array(std::move(earliest))},
       {"attrs", JsonValue::array(std::move(attrs))}});
}

/// The former Server::handle for the verbs a corpus line can name, with
/// the server holding one session, "s" (\p fed is its twin).
class Server {
 public:
  explicit Server(std::string scenario) : scenario_(std::move(scenario)) {
    reset();
  }

  void reset() { fed_ = std::make_unique<serve::Session>(scenario_); }

  /// The error text, or nullopt when the line is accepted.
  std::optional<std::string> handle(std::string_view line) {
    tokens.clear();
    restored.reset();
    try {
      const JsonValue req = json_parse(line);
      const JsonValue* cmd = req.find("cmd");
      if (cmd == nullptr || !cmd->is_string())
        throw serve::SessionError("protocol: request needs a string 'cmd'");
      const std::string& verb = cmd->as_string();
      const JsonValue* s = req.find("session");
      if (s == nullptr || !s->is_string())
        throw serve::SessionError(
            "protocol: request needs a string 'session'");
      const std::string& name = s->as_string();
      if (verb == "restore") {
        if (name == "s")
          throw serve::SessionError("protocol: session '" + name +
                                    "' already exists");
        serve::Session::Options sopts;
        if (const JsonValue* me = req.find("max_events"))
          sopts.guards.max_events = me->as_uint64();
        if (const JsonValue* ei = req.find("expected_iterations"))
          sopts.expected_iterations =
              static_cast<std::size_t>(ei->as_uint64());
        restored = restore(req.at("checkpoint").as_string(), sopts);
        return std::nullopt;
      }
      if (name != "s")
        throw serve::SessionError("protocol: no session '" + name + "'");
      if (verb == "feed") {
        const std::size_t source =
            static_cast<std::size_t>(req.at("source").as_uint64());
        tokens = parse_tokens(req);
        fed_->feed(source, tokens);
        return std::nullopt;
      }
      throw serve::SessionError("protocol: unknown cmd '" + verb + "'");
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
  }

  /// Session "s"'s tokens fed to source 0.
  [[nodiscard]] std::uint64_t fed() const { return fed_->fed(0); }

  /// Tokens of the last accepted feed; session of the last accepted
  /// restore.
  std::vector<FedToken> tokens;
  std::unique_ptr<serve::Session> restored;
  /// Restore lines the params rule rejected.
  std::size_t params_rule = 0;

 private:
  /// The former Session::restore walk up to the feeds, with attrs read by
  /// the feed rule. The rest of the walk (replay, validation, cursors)
  /// is shared with the path under test, so it gets a document whose
  /// streams are exactly the ones walked here.
  std::unique_ptr<serve::Session> restore(std::string_view text,
                                          const serve::Session::Options& o) {
    JsonValue doc;
    try {
      doc = json_parse(text);
    } catch (const Error& e) {
      throw serve::SessionError(std::string("restore: ") + e.what());
    }
    if (!doc.is_object() || doc.find("maxev_checkpoint") == nullptr)
      throw serve::SessionError("restore: not a maxev_checkpoint document");
    if (!doc.at("maxev_checkpoint").is_int64() ||
        doc.at("maxev_checkpoint").as_int64() != serve::kWireVersion)
      throw serve::SessionError("restore: unsupported checkpoint version");

    serve::Session session(doc.at("scenario_json").as_string(), o);
    const JsonValue& streams = doc.at("streams");
    std::vector<JsonValue> walked;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const JsonValue& s = streams[i];
      const JsonValue& earliest = s.at("earliest_ps");
      const JsonValue& attrs = s.at("attrs");
      if (earliest.size() != attrs.size())
        throw serve::SessionError(
            "restore: stream token arrays disagree in length");
      std::vector<FedToken> toks(earliest.size());
      for (std::size_t k = 0; k < earliest.size(); ++k) {
        toks[k].earliest_ps = earliest[k].as_int64();
        try {
          toks[k].attrs = parse_token_attrs(attrs[k]);
        } catch (const serve::SessionError&) {
          ++params_rule;  // the former walk read min(4, size) params
          throw;
        }
      }
      const auto source = s.at("source").as_uint64();
      session.feed(static_cast<std::size_t>(source), toks);
      walked.push_back(stream_json(source, toks));
    }
    auto members = doc.members();
    members["streams"] = JsonValue::array(std::move(walked));
    return serve::Session::restore(json_dump(JsonValue::object(members)), o);
  }

  std::string scenario_;
  std::unique_ptr<serve::Session> fed_;
};

}  // namespace reference

// ------------------------------------------------------------- corpus ----

/// A JSON document as the corpus writes it: members keep their order and
/// may repeat, and scalars are literal text.
struct Node {
  enum class Kind { kScalar, kArray, kObject };
  Kind kind = Kind::kScalar;
  std::string text;                                // kScalar: the literal
  std::vector<std::pair<std::string, Node>> kids;  // items use no key
};

Node scalar(std::string text) {
  Node n;
  n.text = std::move(text);
  return n;
}

Node container(Node::Kind kind, std::vector<std::pair<std::string, Node>> kids) {
  Node n;
  n.kind = kind;
  n.kids = std::move(kids);
  return n;
}

std::string json_string(std::string_view s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

Node from_json(const JsonValue& v) {
  std::vector<std::pair<std::string, Node>> kids;
  if (v.is_array()) {
    for (const JsonValue& item : v.items()) kids.emplace_back("", from_json(item));
    return container(Node::Kind::kArray, std::move(kids));
  }
  if (v.is_object()) {
    for (const auto& [key, member] : v.members())
      kids.emplace_back(key, from_json(member));
    return container(Node::Kind::kObject, std::move(kids));
  }
  return scalar(json_dump(v));
}

/// Compact, or spaced the way Python's json.dumps writes.
void render(const Node& n, bool spaced, std::string& out) {
  if (n.kind == Node::Kind::kScalar) {
    out += n.text;
    return;
  }
  const bool object = n.kind == Node::Kind::kObject;
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < n.kids.size(); ++i) {
    if (i != 0) out += spaced ? ", " : ",";
    if (object) out += json_string(n.kids[i].first) + (spaced ? ": " : ":");
    render(n.kids[i].second, spaced, out);
  }
  out += object ? '}' : ']';
}

std::string render(const Node& n, bool spaced) {
  std::string out;
  render(n, spaced, out);
  return out;
}

void collect(Node& n, std::vector<Node*>& all) {
  all.push_back(&n);
  for (auto& kid : n.kids) collect(kid.second, all);
}

enum class Mutation {
  kNone,
  kFlip,        // one byte replaced
  kTruncate,    // the line cut short
  kReorder,     // an object's members shuffled
  kUnknown,     // an unknown member added
  kDuplicate,   // a member repeated
  kWrongType,   // a value replaced by one of another type
  kParams,      // 3 or 5 params
  kNullAttrs,   // attrs replaced by null
  kShapeThenGrammar,  // a wrong type, then the line cut short
  kCount
};

const char* const kLiterals[] = {R"("x")", "true", "false", "null", "1.5",
                                 "-7", "[]", "{}", "[1]", R"({"a":1})",
                                 "99999999999999999999", "0"};

/// Apply one structural mutation to \p doc; false when it has no site.
bool mutate_tree(Node& doc, Mutation m, Rng& rng) {
  std::vector<Node*> all;
  collect(doc, all);
  std::vector<Node*> sites;
  for (Node* n : all) {
    const bool object = n->kind == Node::Kind::kObject;
    bool attrs = false;  // an attrs object: it holds params
    for (const auto& kid : n->kids) attrs |= object && kid.first == "params";
    switch (m) {
      case Mutation::kReorder: if (object && n->kids.size() > 1) sites.push_back(n); break;
      case Mutation::kUnknown: if (object) sites.push_back(n); break;
      case Mutation::kDuplicate: if (object && !n->kids.empty()) sites.push_back(n); break;
      case Mutation::kWrongType:
      case Mutation::kShapeThenGrammar: if (n != &doc) sites.push_back(n); break;
      case Mutation::kParams:
        for (auto& kid : n->kids)
          if (object && kid.first == "params" &&
              kid.second.kind == Node::Kind::kArray)
            sites.push_back(&kid.second);
        break;
      case Mutation::kNullAttrs: if (attrs) sites.push_back(n); break;
      default: break;
    }
  }
  if (sites.empty()) return false;
  Node& n = *sites[rng.next_below(sites.size())];
  const auto at = [&](std::size_t size) {
    return n.kids.begin() + static_cast<std::ptrdiff_t>(rng.next_below(size));
  };
  switch (m) {
    case Mutation::kReorder:
      for (std::size_t i = n.kids.size() - 1; i > 0; --i)
        std::swap(n.kids[i], n.kids[rng.next_below(i + 1)]);
      break;
    case Mutation::kUnknown:
      n.kids.insert(at(n.kids.size() + 1),
                    {"zz" + std::to_string(rng.next_below(3)),
                     scalar(kLiterals[rng.next_below(std::size(kLiterals))])});
      break;
    case Mutation::kDuplicate: {
      auto copy = *at(n.kids.size());
      if (rng.chance(0.5))
        copy.second = scalar(kLiterals[rng.next_below(std::size(kLiterals))]);
      n.kids.insert(at(n.kids.size() + 1), std::move(copy));
      break;
    }
    case Mutation::kWrongType:
    case Mutation::kShapeThenGrammar:
      n = scalar(kLiterals[rng.next_below(std::size(kLiterals))]);
      break;
    case Mutation::kParams:
      if (rng.chance(0.5) && !n.kids.empty())
        n.kids.pop_back();
      else
        n.kids.emplace_back("", scalar("0.5"));
      break;
    case Mutation::kNullAttrs: n = scalar("null"); break;
    default: break;
  }
  return true;
}

/// One byte of \p text, outside [keep_lo, keep_hi) when \p avoid, replaced.
void flip(std::string& text, Rng& rng, std::size_t keep_lo,
          std::size_t keep_hi, bool avoid) {
  static constexpr char kBytes[] = "{}[],:\"\\ 0123456789-.eEtfnlrsua\x01";
  std::size_t pos = 0;
  do {
    pos = rng.next_below(text.size());
  } while (avoid && pos >= keep_lo && pos < keep_hi);
  text[pos] = kBytes[rng.next_below(sizeof kBytes - 1)];
}

/// The line of \p doc under mutation \p m; byte mutations avoid the span
/// of \p shielded (a large literal) most of the time.
std::string mutated(Node doc, Mutation m, Rng& rng,
                    const std::string& shielded = {}) {
  const bool spaced = rng.chance(0.5);
  switch (m) {
    case Mutation::kFlip:
    case Mutation::kTruncate: {
      std::string text = render(doc, spaced);
      const std::size_t lo = shielded.empty() ? 0 : text.find(shielded);
      const std::size_t hi = lo + shielded.size();
      const bool avoid = lo != std::string::npos && rng.chance(0.8);
      if (m == Mutation::kFlip) {
        flip(text, rng, lo, hi, avoid);
      } else {
        std::size_t cut = 0;
        do {
          cut = rng.next_below(text.size());
        } while (avoid && cut >= lo && cut < hi);
        text.resize(cut);
      }
      return text;
    }
    case Mutation::kShapeThenGrammar: {
      (void)mutate_tree(doc, m, rng);
      std::string text = render(doc, spaced);
      text.resize(text.size() - 1 - rng.next_below(2));  // close no more
      return text;
    }
    default:
      (void)mutate_tree(doc, m, rng);
      return render(doc, spaced);
  }
}

constexpr std::int64_t kEarliest = 5000;  // every corpus feed token's

/// A well-formed feed line of 1-3 tokens for session "s".
Node feed_doc(Rng& rng) {
  static const char* const kParams[] = {"1.5", "-2", "0.25", "3e-3", "7"};
  std::vector<std::pair<std::string, Node>> tokens;
  const std::size_t n = 1 + rng.next_below(3);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<std::pair<std::string, Node>> token = {
        {"earliest_ps", scalar(std::to_string(kEarliest))}};
    const double form = rng.uniform01();
    if (form < 0.1) {
      token.emplace_back("attrs", scalar("null"));
    } else if (form < 0.8) {
      std::vector<std::pair<std::string, Node>> params;
      for (int p = 0; p < 4; ++p)
        params.emplace_back("", scalar(kParams[rng.next_below(5)]));
      token.emplace_back(
          "attrs",
          container(Node::Kind::kObject,
                    {{"size", scalar(std::to_string(rng.next_below(900)))},
                     {"params", container(Node::Kind::kArray,
                                          std::move(params))}}));
    }  // else no attrs member
    tokens.emplace_back("", container(Node::Kind::kObject, std::move(token)));
  }
  return container(
      Node::Kind::kObject,
      {{"cmd", scalar(R"("feed")")},
       {"session", scalar(R"("s")")},
       {"source", scalar("0")},
       {"tokens", container(Node::Kind::kArray, std::move(tokens))}});
}

Node restore_doc(const std::string& checkpoint) {
  return container(Node::Kind::kObject,
                   {{"cmd", scalar(R"("restore")")},
                    {"session", scalar(R"("r")")},
                    {"checkpoint", scalar(json_string(checkpoint))}});
}

/// The didactic scenario, its source a stream declaring room for every
/// corpus feed between two resets.
std::string stream_scenario() {
  gen::DidacticConfig cfg;
  cfg.tokens = 4096;
  cfg.source_period = Duration::us(10);
  auto root = json_parse(serve::desc_to_json(gen::make_didactic(cfg))).members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  for (const JsonValue& src : d.at("sources").items()) {
    auto s = src.members();
    s["earliest"] = JsonValue::object({{"type", JsonValue::string("stream")}});
    s.erase("attrs");
    s.erase("gap");
    sources.push_back(JsonValue::object(std::move(s)));
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));
  return json_dump(JsonValue::object(std::move(root)));
}

std::string submit_line(const std::string& scenario) {
  JsonWriter w;
  w.begin_object()
      .field("cmd", "submit")
      .field("session", "s")
      .field("scenario_json", scenario)
      .end_object();
  return w.str();
}

/// A checkpoint of a session fed four tokens with varied params, polled.
std::string base_checkpoint(const std::string& scenario) {
  serve::Session session(scenario);
  std::vector<FedToken> tokens;
  for (std::int64_t k = 0; k < 4; ++k)
    tokens.push_back({k * 10'000'000, {100 + k, {1.5, -2.0 + k, 0.25, 3e-3}}});
  session.feed(0, tokens);
  (void)session.poll();
  return session.checkpoint();
}

bool same_tokens(const std::vector<FedToken>& a,
                 const std::vector<FedToken>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].earliest_ps != b[i].earliest_ps ||
        a[i].attrs.size != b[i].attrs.size ||
        std::memcmp(a[i].attrs.params.data(), b[i].attrs.params.data(),
                    sizeof a[i].attrs.params) != 0)
      return false;
  return true;
}

// -------------------------------------------------------------- tests ----

TEST(DecodeDifferentialTest, FeedAndRestoreLinesMatchTheTreeWalk) {
  const std::string scenario = stream_scenario();
  const std::string checkpoint = base_checkpoint(scenario);
  const Node checkpoint_doc = from_json(json_parse(checkpoint));
  const std::string scenario_literal = json_string(scenario);

  serve::Server server;
  reference::Server ref(scenario);
  ASSERT_TRUE(json_parse(server.handle(submit_line(scenario))).at("ok").as_bool());
  const auto reset = [&] {
    (void)server.handle(R"({"cmd":"close","session":"s"})");
    (void)server.handle(submit_line(scenario));
    ref.reset();
  };

  Rng rng(22);
  constexpr int kLines = 10'000;
  std::size_t mismatches = 0;
  std::size_t accepted = 0;
  std::vector<std::size_t> rejected(static_cast<std::size_t>(Mutation::kCount));
  const auto mismatch = [&](const std::string& line, const std::string& what) {
    if (++mismatches <= 5) ADD_FAILURE() << what << "\n  line: " << line;
  };
  for (int i = 0; i < kLines; ++i) {
    const auto m = static_cast<Mutation>(
        rng.next_below(static_cast<std::uint64_t>(Mutation::kCount)));
    const bool feed = i % 10 < 7;
    std::string line;
    if (feed) {
      line = mutated(feed_doc(rng), m, rng);
    } else if (rng.chance(0.85)) {
      // Mutate the checkpoint, then send it well-formed.
      Node doc = checkpoint_doc;
      const std::string inner = mutated(doc, m, rng, scenario_literal);
      line = render(restore_doc(inner), rng.chance(0.5));
    } else {
      line = mutated(restore_doc(checkpoint), m, rng);
    }

    const JsonValue reply = json_parse(server.handle(line));
    const std::optional<std::string> want = ref.handle(line);
    const bool ok = reply.at("ok").as_bool();
    if (ok != !want.has_value()) {
      mismatch(line, ok ? "accepted; the reference says " + *want
                        : "rejected (" + reply.at("error").as_string() +
                              "); the reference accepts");
      continue;
    }
    if (!ok) {
      ++rejected[static_cast<std::size_t>(m)];
      if (reply.at("error").as_string() != *want)
        mismatch(line, "error " + reply.at("error").as_string() +
                           "\n  want  " + *want);
      continue;
    }
    ++accepted;
    if (feed) {
      if (!same_tokens(serve::read_request(line).tokens, ref.tokens))
        mismatch(line, "decoded tokens differ");
      if (reply.at("fed").as_uint64() != ref.fed())
        mismatch(line, "fed counts differ");
      bool floor_moved = false;
      for (const FedToken& t : ref.tokens)
        floor_moved |= t.earliest_ps != kEarliest;
      if (floor_moved || i % 256 == 0) reset();
    } else {
      const std::string name = reply.at("session").as_string();
      JsonWriter w;
      w.begin_object().field("cmd", "checkpoint").field("session", name).end_object();
      const JsonValue ck = json_parse(server.handle(w.str()));
      if (ck.at("checkpoint").as_string() != ref.restored->checkpoint())
        mismatch(line, "restored sessions differ");
      JsonWriter c;
      c.begin_object().field("cmd", "close").field("session", name).end_object();
      (void)server.handle(c.str());
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The corpus reaches both verdicts and every mutation rejects something.
  EXPECT_GT(accepted, static_cast<std::size_t>(kLines / 10));
  for (std::size_t m = 1; m < rejected.size(); ++m) {
    if (m != static_cast<std::size_t>(Mutation::kReorder)) {
      EXPECT_GT(rejected[m], 0u) << "mutation " << m;
    }
  }
  EXPECT_GT(ref.params_rule, 0u);
}

}  // namespace
