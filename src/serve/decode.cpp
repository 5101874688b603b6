#include "serve/decode.hpp"

#include <map>
#include <string>
#include <utility>

namespace maxev::serve {

namespace {

using Kind = JsonValue::Kind;
using FedToken = Session::FedToken;

/// The walk's at(\p key) on an object without that member.
void check_present(Fault& f, bool present, const char* key) {
  if (!present) f.check([key] { (void)JsonValue::object({}).at(key); });
}

/// The walk's as_int64(): an integral literal that fits std::int64_t.
std::int64_t read_int64(JsonReader& r, Fault& f) {
  if (r.peek() == Kind::kNumber) {
    const JsonReader::Number n = r.read_number();
    if (n.exact) return n.i;
    f.check([&n] { (void)JsonValue::number(n.d).as_int64(); });
    return 0;
  }
  const JsonValue v = r.read_value();
  f.check([&v] { (void)v.as_int64(); });
  return 0;
}

/// The walk's as_double(): any number. A `-0` reads as -0.0, so a param
/// keeps its sign through checkpoint() and restore().
double read_double(JsonReader& r, Fault& f) {
  if (r.peek() == Kind::kNumber) return r.read_number().d;
  const JsonValue v = r.read_value();
  f.check([&v] { (void)v.as_double(); });
  return 0.0;
}

/// `params`: an array of exactly four numbers. The count is checked before
/// the numbers.
void read_params(JsonReader& r, model::TokenAttrs& a, Fault& f) {
  bool array = false;
  std::size_t n = 0;
  Fault items;
  if (r.peek() == Kind::kArray) {
    array = true;
    r.begin_array();
    for (; r.next_item(); ++n) {
      const double p = read_double(r, items);
      if (n < a.params.size()) a.params[n] = p;
    }
  } else {
    r.skip_value();
  }
  if (!array || n != a.params.size())
    f.check([&a] {
      throw SessionError("protocol: token attrs params must be an array of " +
                         std::to_string(a.params.size()));
    });
  f.take(items);
}

/// A token's attrs: `{"size": int, "params": [4 numbers]}`, extra members
/// ignored.
model::TokenAttrs read_token_attrs(JsonReader& r, Fault& f) {
  model::TokenAttrs a;
  if (r.peek() != Kind::kObject) {
    const JsonValue v = r.read_value();
    f.check([&v] { (void)v.at("size"); });
    return a;
  }
  bool has_size = false;
  bool has_params = false;
  Fault size;
  Fault params;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "size") {
      has_size = true;
      a.size = read_int64(r, size);
    } else if (key == "params") {
      has_params = true;
      read_params(r, a, params);
    } else {
      r.skip_value();
    }
  }
  check_present(f, has_size, "size");
  f.take(size);
  check_present(f, has_params, "params");
  f.take(params);
  return a;
}

/// A fed token: `{"earliest_ps": int, "attrs": attrs or null}`, attrs
/// optional, extra members ignored.
FedToken read_fed_token(JsonReader& r, Fault& f) {
  FedToken t;
  if (r.peek() != Kind::kObject) {
    const JsonValue v = r.read_value();
    f.check([&v] { (void)v.at("earliest_ps"); });
    return t;
  }
  bool has_earliest = false;
  Fault earliest;
  Fault attrs;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "earliest_ps") {
      has_earliest = true;
      t.earliest_ps = read_int64(r, earliest);
    } else if (key == "attrs") {
      if (r.peek() == Kind::kNull) {
        r.read_null();
        t.attrs = {};
      } else {
        t.attrs = read_token_attrs(r, attrs);
      }
    } else {
      r.skip_value();
    }
  }
  check_present(f, has_earliest, "earliest_ps");
  f.take(earliest);
  f.take(attrs);
  return t;
}

/// A feed request's `tokens`: an array of fed tokens. Tokens after the
/// first fault are only checked for grammar.
std::vector<FedToken> read_fed_tokens(JsonReader& r, Fault& f) {
  std::vector<FedToken> tokens;
  if (r.peek() != Kind::kArray) {
    r.skip_value();
    f.check([] { throw SessionError("protocol: 'tokens' must be an array"); });
    return tokens;
  }
  r.begin_array();
  while (r.next_item()) {
    if (f)
      r.skip_value();
    else
      tokens.push_back(read_fed_token(r, f));
  }
  return tokens;
}

/// One column (`earliest_ps` or `attrs`) of a checkpoint stream, as the
/// restore walk sees it: `size` is the tree's size() (an object counts its
/// members, a scalar 0), and `fault` is the first failed element, at
/// index `fault_at`.
struct Column {
  bool present = false;
  std::size_t size = 0;
  std::size_t fault_at = static_cast<std::size_t>(-1);
  Fault fault;
};

template <typename ReadItem>
Column read_column(JsonReader& r, ReadItem&& read_item) {
  Column c;
  c.present = true;
  if (r.peek() != Kind::kArray) {
    // The walk indexes it only when it has members, and then fails at 0.
    const JsonValue v = r.read_value();
    c.size = v.size();
    if (c.size != 0) {
      c.fault.check([&v] { (void)v.items(); });
      c.fault_at = 0;
    }
    return c;
  }
  r.begin_array();
  for (; r.next_item(); ++c.size) {
    if (c.fault) {
      r.skip_value();
      continue;
    }
    read_item(c.size, c.fault);
    if (c.fault) c.fault_at = c.size;
  }
  return c;
}

/// A checkpoint stream: `{"source": uint, "earliest_ps": [int...],
/// "attrs": [attrs...]}`, checked in the restore walk's order.
CheckpointStream read_stream(JsonReader& r) {
  CheckpointStream s;
  if (r.peek() != Kind::kObject) {
    const JsonValue v = r.read_value();
    s.fault.check([&v] { (void)v.at("earliest_ps"); });
    return s;
  }
  const auto token = [&s](std::size_t k) -> FedToken& {
    if (s.tokens.size() <= k) s.tokens.resize(k + 1);
    return s.tokens[k];
  };
  Column earliest;
  Column attrs;
  bool has_source = false;
  JsonValue source;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "earliest_ps") {
      earliest = read_column(r, [&](std::size_t k, Fault& f) {
        token(k).earliest_ps = read_int64(r, f);
      });
    } else if (key == "attrs") {
      attrs = read_column(r, [&](std::size_t k, Fault& f) {
        token(k).attrs = read_token_attrs(r, f);
      });
    } else if (key == "source") {
      has_source = true;
      source = r.read_value();
    } else {
      r.skip_value();
    }
  }
  check_present(s.fault, earliest.present, "earliest_ps");
  check_present(s.fault, attrs.present, "attrs");
  s.fault.check([&] {
    if (earliest.size != attrs.size)
      throw SessionError("restore: stream token arrays disagree in length");
  });
  // The walk reads element k of earliest_ps, then of attrs, k = 0, 1, ...
  const bool earliest_first = earliest.fault_at <= attrs.fault_at;
  s.fault.take(earliest_first ? earliest.fault : attrs.fault);
  s.fault.take(earliest_first ? attrs.fault : earliest.fault);
  check_present(s.fault, has_source, "source");
  s.fault.check([&] { s.source = static_cast<std::size_t>(source.as_uint64()); });
  return s;
}

void read_streams(JsonReader& r, Checkpoint& cp) {
  if (r.peek() != Kind::kArray) {
    // The walk indexes it only when it has members.
    const JsonValue v = r.read_value();
    if (v.size() != 0) cp.streams_fault.check([&v] { (void)v.items(); });
    return;
  }
  r.begin_array();
  while (r.next_item()) cp.streams.push_back(read_stream(r));
}

/// Read a whole document: member \p name of a top-level object goes to
/// \p decode (and maps to null in the tree), every other member, or the
/// whole document when it is not an object, to the returned tree.
template <typename Decode>
JsonValue read_document(JsonReader& r, std::string_view name,
                        Decode&& decode) {
  if (r.peek() != Kind::kObject) {
    JsonValue v = r.read_value();
    r.finish();
    return v;
  }
  std::map<std::string, JsonValue> members;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    std::string k(key);  // the view dies with the next read
    if (k == name) {
      decode();
      members.emplace(std::move(k), JsonValue());
    } else {
      JsonValue v = r.read_value();
      members.emplace(std::move(k), std::move(v));
    }
  }
  r.finish();
  return JsonValue::object(std::move(members));
}

}  // namespace

Request read_request(std::string_view line) {
  Request req;
  JsonReader r(line);
  req.fields = read_document(r, "tokens", [&] {
    req.tokens = read_fed_tokens(r, req.tokens_fault);
  });
  return req;
}

Checkpoint read_checkpoint(std::string_view text) {
  Checkpoint cp;
  JsonReader r(text);
  cp.fields = read_document(r, "streams", [&] { read_streams(r, cp); });
  return cp;
}

}  // namespace maxev::serve
