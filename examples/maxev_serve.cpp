/// \file maxev_serve.cpp
/// Evaluation-as-a-service front-end (docs/DESIGN.md §13): multiplexes
/// serve::Session instances over a line-delimited JSON protocol on
/// stdin/stdout — one request object per line in, one response per line
/// out (serve/protocol.hpp documents the verbs). All sessions share one
/// program cache (serve::ProgramCache), keyed by description identity.
///
/// A second mode produces the reference the CI smoke test diffs streamed
/// results against:
///
///   maxev_serve --golden scenario.json tokens.json
///
/// runs the same scenario ONE-SHOT — stream sources replaced by full token
/// tables, evaluated directly on core::EquivalentModel without any session
/// machinery — and prints the complete traces in the poll-delta shape. The
/// paper's pinned horizon-resume contract says incremental serving must be
/// bit-identical to this.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "gen/didactic.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"

namespace {

using namespace maxev;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("maxev_serve: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

model::TokenAttrs parse_attrs(const JsonValue& v) {
  model::TokenAttrs a;
  a.size = v.at("size").as_int64();
  const JsonValue& params = v.at("params");
  for (std::size_t i = 0; i < a.params.size(); ++i)
    a.params[i] = params[i].as_double();
  return a;
}

/// Serves stream-typed sources from the full token tables of a tokens
/// document — the one-shot stand-in for incremental feeding.
class TableFactory final : public serve::StreamSourceFactory {
 public:
  explicit TableFactory(const JsonValue& tokens_doc) {
    for (const JsonValue& s : tokens_doc.at("streams").items()) {
      const auto source = static_cast<std::size_t>(s.at("source").as_uint64());
      Tables& t = by_source_[source];
      for (const JsonValue& tok : s.at("tokens").items()) {
        t.earliest_ps.push_back(tok.at("earliest_ps").as_int64());
        const JsonValue* attrs = tok.find("attrs");
        t.attrs.push_back(attrs != nullptr && !attrs->is_null()
                              ? parse_attrs(*attrs)
                              : model::TokenAttrs{});
      }
    }
  }

  Fns make_stream_source(std::size_t source_index, const std::string& name,
                         std::uint64_t count) override {
    const auto it = by_source_.find(source_index);
    if (it == by_source_.end())
      throw Error("maxev_serve: no tokens for stream source '" + name + "'");
    if (it->second.earliest_ps.size() != count)
      throw Error("maxev_serve: stream source '" + name + "' declares " +
                  std::to_string(count) + " tokens, tokens file has " +
                  std::to_string(it->second.earliest_ps.size()));
    auto earliest = std::make_shared<const std::vector<std::int64_t>>(
        it->second.earliest_ps);
    auto attrs =
        std::make_shared<const std::vector<model::TokenAttrs>>(it->second.attrs);
    return Fns{serve::TableTimeFn{std::move(earliest)},
               serve::TableAttrsFn{std::move(attrs)}};
  }

 private:
  struct Tables {
    std::vector<std::int64_t> earliest_ps;
    std::vector<model::TokenAttrs> attrs;
  };
  std::map<std::size_t, Tables> by_source_;
};

/// One-shot reference run: full traces in the poll-delta shape.
int run_golden(const std::string& scenario_path,
               const std::string& tokens_path) {
  const JsonValue scenario = json_parse(slurp(scenario_path));
  TableFactory factory(json_parse(slurp(tokens_path)));
  model::ArchitectureDesc desc = serve::desc_from_json(scenario, &factory);

  core::EquivalentModel model(desc, /*group=*/{});
  const model::ModelRuntime::Outcome out = model.run();

  JsonWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("completed", out.completed);
  w.field("now_ps", model.end_time().count());
  w.key("instants").begin_array();
  for (const auto& [name, series] : model.instants().all()) {
    w.begin_object();
    w.field("series", name);
    w.field("start_k", std::uint64_t{0});
    w.key("instants_ps").begin_array();
    for (const TimePoint t : series.values()) w.value(t.count());
    w.end_array().end_object();
  }
  w.end_array();
  w.key("usage").begin_array();
  for (const auto& [name, trace] : model.usage().all()) {
    w.begin_object();
    w.field("resource", name);
    w.field("start_index", std::uint64_t{0});
    w.key("starts_ps").begin_array();
    for (const TimePoint t : trace.starts()) w.value(t.count());
    w.end_array();
    w.key("ends_ps").begin_array();
    for (const TimePoint t : trace.ends()) w.value(t.count());
    w.end_array();
    w.key("ops").begin_array();
    for (const std::int64_t n : trace.ops()) w.value(n);
    w.end_array();
    w.key("labels").begin_array();
    for (const auto id : trace.label_ids()) w.value(trace.label(id));
    w.end_array().end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

/// Emit `{"scenario": ..., "tokens": ...}` for the paper's didactic
/// architecture with its source turned into a stream: the scenario document
/// declares `{"type":"stream"}` and the full token set (evaluated from the
/// generator's behavioural functions) moves into the tokens document. The
/// CI smoke test feeds the tokens incrementally and diffs against --golden.
int run_emit_demo() {
  gen::DidacticConfig cfg;
  cfg.tokens = 12;
  // Space the releases out so the stream watermark actually advances
  // between feed rounds (period 0 would block until fully fed).
  cfg.source_period = Duration::us(10);
  const model::ArchitectureDesc desc = gen::make_didactic(cfg);
  const JsonValue doc = json_parse(serve::desc_to_json(desc));

  auto root = doc.members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  std::vector<JsonValue> streams;
  const auto& src_descs = desc.sources();
  const auto& arr = d.at("sources").items();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    auto s = arr[i].members();
    s["earliest"] =
        JsonValue::object({{"type", JsonValue::string("stream")}});
    s.erase("attrs");  // stream sources get attrs per fed token
    s.erase("gap");
    sources.push_back(JsonValue::object(std::move(s)));

    std::vector<JsonValue> toks;
    for (std::uint64_t k = 0; k < src_descs[i].count; ++k) {
      const model::TokenAttrs a =
          src_descs[i].attrs ? src_descs[i].attrs(k) : model::TokenAttrs{};
      std::vector<JsonValue> params;
      for (const double p : a.params) params.push_back(JsonValue::number(p));
      toks.push_back(JsonValue::object(
          {{"earliest_ps",
            JsonValue::integer(src_descs[i].earliest(k).count())},
           {"attrs",
            JsonValue::object(
                {{"size", JsonValue::integer(a.size)},
                 {"params", JsonValue::array(std::move(params))}})}}));
    }
    streams.push_back(JsonValue::object(
        {{"source", JsonValue::integer(static_cast<std::int64_t>(i))},
         {"tokens", JsonValue::array(std::move(toks))}}));
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));

  const JsonValue out = JsonValue::object(
      {{"scenario", JsonValue::object(std::move(root))},
       {"tokens", JsonValue::object(
                      {{"streams", JsonValue::array(std::move(streams))}})}});
  std::cout << json_dump(out) << '\n';
  return 0;
}

int run_server() {
  serve::Server server;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.handle(line) << std::endl;  // flush: we are a pipe
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 4 && std::string(argv[1]) == "--golden")
      return run_golden(argv[2], argv[3]);
    if (argc == 2 && std::string(argv[1]) == "--emit-demo")
      return run_emit_demo();
    if (argc == 1) return run_server();
    std::fprintf(stderr,
                 "usage: %s                      serve stdin/stdout\n"
                 "       %s --golden S.json T.json   one-shot reference\n"
                 "       %s --emit-demo              demo scenario + tokens\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxev_serve: %s\n", e.what());
    return 1;
  }
}
