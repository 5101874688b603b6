#include "serve/wire.hpp"

#include <utility>

#include "model/load.hpp"
#include "tdg/ops.hpp"

namespace maxev::serve {

namespace {

// ------------------------------------------------------------ stubs ----

/// Deserialized `{"type": "opaque"}` spec: structurally present, throws
/// when the simulation actually evaluates it.
template <typename Ret>
struct OpaqueStub {
  std::shared_ptr<const std::string> what;
  template <typename... Args>
  Ret operator()(Args&&...) const {
    throw WireError("wire: opaque behavioural spec evaluated (" + *what +
                    "); rebuild the description with concrete specs");
  }
};

template <typename Ret>
OpaqueStub<Ret> opaque_stub(const std::string& where) {
  return OpaqueStub<Ret>{std::make_shared<const std::string>(where)};
}

// ------------------------------------------------------- spec writers ----

void write_load_spec(JsonWriter& w, const model::LoadFn& f) {
  // Classification is the opcode layer's (tdg::ops::classify_load): the
  // wire format and the engines' dispatch share one introspection
  // vocabulary, so "serializes concretely" and "runs without touching a
  // std::function" are the same property.
  w.begin_object();
  switch (tdg::ops::classify_load(f)) {
    case tdg::ops::Kind::kRateConstant:
      w.field("type", "constant")
          .field("ops", f.target<model::ConstantOpsFn>()->ops);
      break;
    case tdg::ops::Kind::kLinearOps: {
      const auto* l = f.target<model::LinearOpsFn>();
      w.field("type", "linear").field("base", l->base).field("per_unit",
                                                             l->per_unit);
      break;
    }
    case tdg::ops::Kind::kParamOps: {
      const auto* p = f.target<model::ParamOpsFn>();
      w.field("type", "param").field("base", p->base).field("scale", p->scale);
      w.field("index", static_cast<std::uint64_t>(p->param_index));
      break;
    }
    case tdg::ops::Kind::kCyclicOps: {
      w.field("type", "cyclic").key("table").begin_array();
      for (const std::int64_t v : f.target<model::CyclicOpsFn>()->table)
        w.value(v);
      w.end_array();
      break;
    }
    default:
      w.field("type", "opaque");
      break;
  }
  w.end_object();
}

void write_time_spec(JsonWriter& w,
                     const std::function<TimePoint(std::uint64_t)>& f) {
  w.begin_object();
  if (const auto* t = f.target<TableTimeFn>()) {
    w.field("type", "table").key("values_ps").begin_array();
    for (const std::int64_t v : *t->values_ps) w.value(v);
    w.end_array();
  } else if (const auto* p = f.target<PeriodicTimeFn>()) {
    w.field("type", "periodic")
        .field("offset_ps", p->offset_ps)
        .field("period_ps", p->period_ps);
  } else {
    w.field("type", "opaque");
  }
  w.end_object();
}

void write_duration_spec(JsonWriter& w,
                         const std::function<Duration(std::uint64_t)>& f) {
  if (!f) {
    w.null_value();
    return;
  }
  w.begin_object();
  if (const auto* c = f.target<ConstantDurationFn>()) {
    w.field("type", "constant").field("ps", c->ps);
  } else if (const auto* t = f.target<TableDurationFn>()) {
    w.field("type", "table").key("values_ps").begin_array();
    for (const std::int64_t v : *t->values_ps) w.value(v);
    w.end_array();
  } else {
    w.field("type", "opaque");
  }
  w.end_object();
}

void write_token_attrs(JsonWriter& w, const model::TokenAttrs& a) {
  w.begin_object().field("size", a.size).key("params").begin_array();
  for (const double p : a.params) w.value(p);
  w.end_array().end_object();
}

void write_attrs_spec(
    JsonWriter& w,
    const std::function<model::TokenAttrs(std::uint64_t)>& f) {
  w.begin_object();
  if (const auto* c = f.target<ConstantAttrsFn>()) {
    w.field("type", "constant").key("attrs");
    write_token_attrs(w, c->attrs);
  } else if (const auto* t = f.target<TableAttrsFn>()) {
    w.field("type", "table").key("table").begin_array();
    for (const model::TokenAttrs& a : *t->table) write_token_attrs(w, a);
    w.end_array();
  } else {
    w.field("type", "opaque");
  }
  w.end_object();
}

// ------------------------------------------------------- spec readers ----

[[noreturn]] void wire_fail(const std::string& where, const std::string& what) {
  throw WireError("wire: " + where + ": " + what);
}

const JsonValue& member(const JsonValue& obj, const std::string& key,
                        const std::string& where) {
  const JsonValue* v = obj.is_object() ? obj.find(key) : nullptr;
  if (v == nullptr) wire_fail(where, "missing member '" + key + "'");
  return *v;
}

std::string spec_type(const JsonValue& spec, const std::string& where) {
  if (!spec.is_object()) wire_fail(where, "spec must be an object");
  return member(spec, "type", where).as_string();
}

std::vector<std::int64_t> read_int64_array(const JsonValue& arr,
                                           const std::string& where) {
  if (!arr.is_array()) wire_fail(where, "expected an array");
  std::vector<std::int64_t> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) out.push_back(arr[i].as_int64());
  return out;
}

model::LoadFn read_load_spec(const JsonValue& spec, const std::string& where) {
  const std::string type = spec_type(spec, where);
  if (type == "constant")
    return model::constant_ops(member(spec, "ops", where).as_int64());
  if (type == "linear")
    return model::linear_ops(member(spec, "base", where).as_int64(),
                             member(spec, "per_unit", where).as_int64());
  if (type == "param")
    return model::param_ops(
        member(spec, "base", where).as_int64(),
        member(spec, "scale", where).as_double(),
        static_cast<std::size_t>(member(spec, "index", where).as_uint64()));
  if (type == "cyclic")
    return model::cyclic_ops(
        read_int64_array(member(spec, "table", where), where));
  if (type == "opaque") return opaque_stub<std::int64_t>(where);
  wire_fail(where, "unknown load spec type '" + type + "'");
}

std::function<TimePoint(std::uint64_t)> read_time_spec(
    const JsonValue& spec, const std::string& where) {
  const std::string type = spec_type(spec, where);
  if (type == "table")
    return TableTimeFn{std::make_shared<const std::vector<std::int64_t>>(
        read_int64_array(member(spec, "values_ps", where), where))};
  if (type == "periodic")
    return PeriodicTimeFn{member(spec, "offset_ps", where).as_int64(),
                          member(spec, "period_ps", where).as_int64()};
  if (type == "opaque") return opaque_stub<TimePoint>(where);
  wire_fail(where, "unknown time spec type '" + type + "'");
}

std::function<Duration(std::uint64_t)> read_duration_spec(
    const JsonValue& spec, const std::string& where) {
  if (spec.is_null()) return nullptr;
  const std::string type = spec_type(spec, where);
  if (type == "constant")
    return ConstantDurationFn{member(spec, "ps", where).as_int64()};
  if (type == "table")
    return TableDurationFn{std::make_shared<const std::vector<std::int64_t>>(
        read_int64_array(member(spec, "values_ps", where), where))};
  if (type == "opaque") return opaque_stub<Duration>(where);
  wire_fail(where, "unknown duration spec type '" + type + "'");
}

model::TokenAttrs read_token_attrs(const JsonValue& v,
                                   const std::string& where) {
  model::TokenAttrs a;
  a.size = member(v, "size", where).as_int64();
  const JsonValue& params = member(v, "params", where);
  if (!params.is_array() || params.size() != a.params.size())
    wire_fail(where, "attrs params must be an array of " +
                         std::to_string(a.params.size()));
  for (std::size_t i = 0; i < a.params.size(); ++i)
    a.params[i] = params[i].as_double();
  return a;
}

std::function<model::TokenAttrs(std::uint64_t)> read_attrs_spec(
    const JsonValue& spec, const std::string& where) {
  const std::string type = spec_type(spec, where);
  if (type == "constant")
    return ConstantAttrsFn{
        read_token_attrs(member(spec, "attrs", where), where)};
  if (type == "table") {
    const JsonValue& arr = member(spec, "table", where);
    if (!arr.is_array()) wire_fail(where, "attrs table must be an array");
    std::vector<model::TokenAttrs> table;
    table.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i)
      table.push_back(read_token_attrs(arr[i], where));
    return TableAttrsFn{std::make_shared<const std::vector<model::TokenAttrs>>(
        std::move(table))};
  }
  if (type == "opaque") return opaque_stub<model::TokenAttrs>(where);
  wire_fail(where, "unknown attrs spec type '" + type + "'");
}

void check_version(const JsonValue& doc, const char* envelope) {
  if (!doc.is_object())
    throw WireError(std::string("wire: ") + envelope +
                    " document must be a JSON object");
  const JsonValue* v = doc.find(envelope);
  if (v == nullptr)
    throw WireError(std::string("wire: not a ") + envelope +
                    " document (missing version member)");
  if (!v->is_int64() || v->as_int64() != kWireVersion)
    throw WireError(std::string("wire: unsupported ") + envelope +
                    " version (expected " + std::to_string(kWireVersion) +
                    ")");
}

}  // namespace

// ------------------------------------------------------ desc documents ----

std::string desc_to_json(const model::ArchitectureDesc& desc) {
  if (!desc.validated())
    throw WireError("desc_to_json: description must be validated");
  JsonWriter w;
  w.begin_object().field("maxev_wire", kWireVersion).key("desc").begin_object();

  w.key("resources").begin_array();
  for (const model::ResourceDesc& r : desc.resources()) {
    w.begin_object().field("name", r.name);
    w.field("policy", r.policy == model::ResourcePolicy::kSequentialCyclic
                          ? "sequential_cyclic"
                          : "concurrent");
    w.field("ops_per_second", r.ops_per_second).end_object();
  }
  w.end_array();

  w.key("channels").begin_array();
  for (const model::ChannelDesc& c : desc.channels()) {
    w.begin_object().field("name", c.name);
    w.field("kind",
            c.kind == model::ChannelKind::kRendezvous ? "rendezvous" : "fifo");
    if (c.kind == model::ChannelKind::kFifo)
      w.field("capacity", static_cast<std::uint64_t>(c.capacity));
    w.end_object();
  }
  w.end_array();

  w.key("functions").begin_array();
  for (const model::FunctionDesc& f : desc.functions()) {
    w.begin_object().field("name", f.name);
    w.field("resource", static_cast<std::int64_t>(f.resource));
    w.key("body").begin_array();
    for (const model::StatementDesc& s : f.body) {
      w.begin_object();
      switch (s.kind) {
        case model::StatementKind::kRead:
          w.field("kind", "read");
          w.field("channel", static_cast<std::int64_t>(s.channel));
          break;
        case model::StatementKind::kWrite:
          w.field("kind", "write");
          w.field("channel", static_cast<std::int64_t>(s.channel));
          break;
        case model::StatementKind::kExecute:
          w.field("kind", "execute").field("label", s.label);
          w.key("load");
          write_load_spec(w, s.load);
          break;
      }
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  w.key("sources").begin_array();
  for (const model::SourceDesc& s : desc.sources()) {
    w.begin_object().field("name", s.name);
    w.field("channel", static_cast<std::int64_t>(s.channel));
    w.field("count", s.count);
    w.key("earliest");
    write_time_spec(w, s.earliest);
    w.key("gap");
    write_duration_spec(w, s.gap);
    w.key("attrs");
    write_attrs_spec(w, s.attrs);
    w.end_object();
  }
  w.end_array();

  w.key("sinks").begin_array();
  for (const model::SinkDesc& s : desc.sinks()) {
    w.begin_object().field("name", s.name);
    w.field("channel", static_cast<std::int64_t>(s.channel));
    w.key("consume_delay");
    write_duration_spec(w, s.consume_delay);
    w.end_object();
  }
  w.end_array();

  w.end_object().end_object();
  return w.str();
}

model::ArchitectureDesc desc_from_json(const JsonValue& doc,
                                       StreamSourceFactory* streams) {
  check_version(doc, "maxev_wire");
  const JsonValue& d = member(doc, "desc", "document");
  model::ArchitectureDesc out;

  const JsonValue& resources = member(d, "resources", "desc");
  for (std::size_t i = 0; i < resources.size(); ++i) {
    const JsonValue& r = resources[i];
    const std::string where = "resources[" + std::to_string(i) + "]";
    const std::string policy = member(r, "policy", where).as_string();
    model::ResourcePolicy p;
    if (policy == "sequential_cyclic")
      p = model::ResourcePolicy::kSequentialCyclic;
    else if (policy == "concurrent")
      p = model::ResourcePolicy::kConcurrent;
    else
      wire_fail(where, "unknown policy '" + policy + "'");
    out.add_resource(member(r, "name", where).as_string(), p,
                     member(r, "ops_per_second", where).as_double());
  }

  const JsonValue& channels = member(d, "channels", "desc");
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const JsonValue& c = channels[i];
    const std::string where = "channels[" + std::to_string(i) + "]";
    const std::string kind = member(c, "kind", where).as_string();
    if (kind == "rendezvous") {
      out.add_rendezvous(member(c, "name", where).as_string());
    } else if (kind == "fifo") {
      out.add_fifo(member(c, "name", where).as_string(),
                   static_cast<std::size_t>(
                       member(c, "capacity", where).as_uint64()));
    } else {
      wire_fail(where, "unknown channel kind '" + kind + "'");
    }
  }

  const auto channel_id = [&channels](const JsonValue& v,
                                      const std::string& where) {
    const std::int64_t ch = v.as_int64();
    if (ch < 0 || static_cast<std::size_t>(ch) >= channels.size())
      wire_fail(where, "channel index " + std::to_string(ch) +
                           " out of range (have " +
                           std::to_string(channels.size()) + ")");
    return static_cast<model::ChannelId>(ch);
  };

  const JsonValue& functions = member(d, "functions", "desc");
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const JsonValue& f = functions[i];
    const std::string where = "functions[" + std::to_string(i) + "]";
    const std::int64_t res = member(f, "resource", where).as_int64();
    if (res < 0 || static_cast<std::size_t>(res) >= resources.size())
      wire_fail(where, "resource index " + std::to_string(res) +
                           " out of range");
    const model::FunctionId fid = out.add_function(
        member(f, "name", where).as_string(),
        static_cast<model::ResourceId>(res));
    const JsonValue& body = member(f, "body", where);
    for (std::size_t j = 0; j < body.size(); ++j) {
      const JsonValue& s = body[j];
      const std::string swhere = where + ".body[" + std::to_string(j) + "]";
      const std::string kind = member(s, "kind", swhere).as_string();
      if (kind == "read") {
        out.fn_read(fid, channel_id(member(s, "channel", swhere), swhere));
      } else if (kind == "write") {
        out.fn_write(fid, channel_id(member(s, "channel", swhere), swhere));
      } else if (kind == "execute") {
        out.fn_execute(fid, read_load_spec(member(s, "load", swhere), swhere));
        // Labels are derived ("<fn>.e<i>"); a mismatching explicit label
        // would silently change structural identity, so reject it.
        if (const JsonValue* label = s.find("label")) {
          const model::StatementDesc& added =
              out.functions()[static_cast<std::size_t>(fid)].body.back();
          if (label->as_string() != added.label)
            wire_fail(swhere, "label '" + label->as_string() +
                                  "' does not match the derived label '" +
                                  added.label + "'");
        }
      } else {
        wire_fail(swhere, "unknown statement kind '" + kind + "'");
      }
    }
  }

  const JsonValue& sources = member(d, "sources", "desc");
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const JsonValue& s = sources[i];
    const std::string where = "sources[" + std::to_string(i) + "]";
    const std::string name = member(s, "name", where).as_string();
    const std::uint64_t count = member(s, "count", where).as_uint64();
    const model::ChannelId ch =
        channel_id(member(s, "channel", where), where);
    const JsonValue& earliest = member(s, "earliest", where);
    if (spec_type(earliest, where) == "stream") {
      if (streams == nullptr)
        wire_fail(where,
                  "stream-typed source outside a session (no stream factory)");
      StreamSourceFactory::Fns fns =
          streams->make_stream_source(i, name, count);
      out.add_source(name, ch, count, std::move(fns.earliest),
                     std::move(fns.attrs));
    } else {
      out.add_source(name, ch, count, read_time_spec(earliest, where),
                     read_attrs_spec(member(s, "attrs", where), where),
                     read_duration_spec(member(s, "gap", where), where));
    }
  }

  const JsonValue& sinks = member(d, "sinks", "desc");
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    const JsonValue& s = sinks[i];
    const std::string where = "sinks[" + std::to_string(i) + "]";
    out.add_sink(member(s, "name", where).as_string(),
                 channel_id(member(s, "channel", where), where),
                 read_duration_spec(member(s, "consume_delay", where), where));
  }

  out.validate();
  return out;
}

model::ArchitectureDesc desc_from_json(std::string_view text,
                                       StreamSourceFactory* streams) {
  return desc_from_json(json_parse(text), streams);
}

namespace {

/// Binds every stream-typed source of a template to throwing stubs and
/// records which sources they are.
class StubStreams final : public StreamSourceFactory {
 public:
  explicit StubStreams(std::vector<std::size_t>& sources)
      : sources_(sources) {}

  Fns make_stream_source(std::size_t source_index, const std::string& name,
                         std::uint64_t) override {
    sources_.push_back(source_index);
    const auto what = std::make_shared<const std::string>(name);
    return Fns{[what](std::uint64_t) -> TimePoint { fail(*what); },
               [what](std::uint64_t) -> model::TokenAttrs { fail(*what); }};
  }

 private:
  [[noreturn]] static void fail(const std::string& name) {
    throw WireError("stream source '" + name +
                    "' of a shared scenario template evaluated; a session "
                    "binds its own streams");
  }

  std::vector<std::size_t>& sources_;
};

}  // namespace

TemplatePtr decode_template(std::string document) {
  auto out = std::make_shared<ScenarioTemplate>();
  StubStreams stubs(out->stream_sources);
  out->desc = model::share(desc_from_json(document, &stubs));
  out->document = std::move(document);
  return out;
}

}  // namespace maxev::serve
