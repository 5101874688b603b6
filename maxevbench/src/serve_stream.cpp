/// \file serve_stream.cpp
/// A closed loop: one client drives one serve::Server through handle()
/// lines only. It opens sessions on stream-ified Table I Example 1 and
/// Example 4 documents, half each, feeds every session in rounds of feed
/// then poll, checkpoints and restores each one mid-stream, and closes it.
/// The poll deltas, reassembled, must be bit-identical to a one-shot run of
/// the same description.

#include <numeric>

#include "bench.hpp"
#include "gen/chains.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/json.hpp"

namespace maxevbench {

using namespace maxev;

namespace {

// Example 4 evaluates about 3.5 times the instances of Example 1 per token
// and returns 4 times the series; the token counts even out the work per
// poll, so poll latency is one population rather than two.
constexpr std::uint64_t kTokensEx1 = 2000;
constexpr std::uint64_t kTokensEx4 = 500;
constexpr std::size_t kSessions = 8;
constexpr std::size_t kRounds = 8;  // checkpoint + restore after round 4

/// One stream-ified document and the pieces of the request lines that
/// carry it.
struct Doc {
  study::Scenario reference;  ///< the description, run one-shot
  std::string scenario_json;  ///< its wire document, sources as streams
  /// [round] -> `"source":i,"tokens":[...]` bodies of that round's feeds
  std::vector<std::vector<std::string>> feeds;
};

Doc make_doc(std::size_t example, std::uint64_t tokens, std::uint64_t seed) {
  gen::ChainConfig cfg;
  cfg.blocks = example;
  cfg.block.tokens = tokens;
  cfg.block.seed = seed;
  cfg.block.source_period = Duration::us(10);  // streams need spacing
  Doc doc{study::Scenario("table1-ex" + std::to_string(example),
                          gen::make_chain(cfg)),
          {},
          std::vector<std::vector<std::string>>(kRounds)};
  const model::ArchitectureDesc& desc = doc.reference.desc();

  auto root = json_parse(serve::desc_to_json(desc)).members();
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
  doc.scenario_json = json_dump(JsonValue::object(std::move(root)));

  for (std::size_t i = 0; i < desc.sources().size(); ++i) {
    const model::SourceDesc& src = desc.sources()[i];
    for (std::size_t round = 0; round < kRounds; ++round) {
      JsonWriter w;
      w.begin_array();
      for (std::uint64_t k = src.count * round / kRounds;
           k < src.count * (round + 1) / kRounds; ++k) {
        const model::TokenAttrs a =
            src.attrs ? src.attrs(k) : model::TokenAttrs{};
        w.begin_object().field("earliest_ps", src.earliest(k).count());
        w.key("attrs").begin_object().field("size", a.size);
        w.key("params").begin_array();
        for (const double p : a.params) w.value(p);
        w.end_array().end_object().end_object();
      }
      w.end_array();
      doc.feeds[round].push_back(R"("source":)" + std::to_string(i) +
                                 R"(,"tokens":)" + w.str());
    }
  }
  return doc;
}

/// handle() latencies of one closed loop, by verb, plus poll sizes.
struct LoopStats {
  std::map<std::string, std::vector<double>> verb_s;
  double poll_bytes = 0.0;
  double serve_cache_hit_rate = 0.0;
};

/// Fold one poll delta into the session's reassembled traces.
void accumulate(Result& r, const JsonValue& delta, trace::InstantTraceSet& is,
                trace::UsageTraceSet& us, const std::string& session) {
  for (const JsonValue& s : delta.at("instants").items()) {
    trace::InstantSeries& series = is.series(s.at("series").as_string());
    r.check(series.size() == s.at("start_k").as_uint64(),
            session + ": poll delta is not contiguous");
    for (const JsonValue& t : s.at("instants_ps").items())
      series.push(TimePoint::at_ps(t.as_int64()));
  }
  for (const JsonValue& u : delta.at("usage").items()) {
    trace::UsageTrace& tr = us.trace(u.at("resource").as_string());
    r.check(tr.size() == u.at("start_index").as_uint64(),
            session + ": usage delta is not contiguous");
    const auto& starts = u.at("starts_ps").items();
    for (std::size_t i = 0; i < starts.size(); ++i)
      tr.push(TimePoint::at_ps(starts[i].as_int64()),
              TimePoint::at_ps(u.at("ends_ps").items()[i].as_int64()),
              u.at("ops").items()[i].as_int64(),
              tr.intern_label(u.at("labels").items()[i].as_string()));
  }
}

/// One closed loop over a fresh Server: submit every session, run the
/// feed/poll rounds across them, checkpoint + close + restore each after
/// half the rounds, poll to completion, close. Every response must be ok
/// and every session's reassembled traces must equal \p refs[doc].
LoopStats serve_loop(const std::vector<Doc>& docs,
                     const std::vector<const study::Model*>& refs, Tracer& t,
                     Replay& rp, Result& r) {
  LoopStats st;
  serve::Server server;
  const auto call = [&](const std::string& verb, const std::string& line) {
    const auto t0 = Clock::now();
    const std::string resp = t.span("serve", "Server::handle " + verb,
                                    [&] { return server.handle(line); });
    st.verb_s[verb].push_back(seconds_since(t0));
    if (verb == "poll") st.poll_bytes += static_cast<double>(resp.size());
    JsonValue v =
        t.span("util", "json_parse", [&] { return json_parse(resp); });
    const JsonValue* ok = v.find("ok");
    r.check(ok != nullptr && ok->as_bool(),
            verb + " failed: " + resp.substr(0, 200));
    return v;
  };
  const auto session_of = [](std::size_t i) { return "s" + std::to_string(i); };
  const auto request = [&](const char* verb, std::size_t i) {
    return std::string(R"({"cmd":")") + verb + R"(","session":")" +
           session_of(i) + "\"";
  };

  std::vector<trace::InstantTraceSet> instants(kSessions);
  std::vector<trace::UsageTraceSet> usage(kSessions);
  const auto poll = [&](std::size_t i) {
    const JsonValue delta = call("poll", request("poll", i) + "}");
    // The client's reassembly is JsonValue reads into trace::*::push.
    t.span("trace", "reassemble poll delta", [&] {
      accumulate(r, delta, instants[i], usage[i], session_of(i));
    });
    return delta;
  };

  for (std::size_t i = 0; i < kSessions; ++i)
    (void)call("submit", request("submit", i) + R"(,"scenario":)" +
                             docs[i % docs.size()].scenario_json + "}");
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      for (const std::string& body : docs[i % docs.size()].feeds[round])
        (void)call("feed", request("feed", i) + "," + body + "}");
      (void)poll(i);
    }
    if (round + 1 != kRounds / 2) continue;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const JsonValue ckpt =
          call("checkpoint", request("checkpoint", i) + "}");
      (void)call("close", request("close", i) + "}");
      JsonWriter w;
      w.begin_object()
          .field("cmd", "restore")
          .field("session", session_of(i))
          .field("checkpoint", ckpt.at("checkpoint").as_string())
          .end_object();
      (void)call("restore", w.str());
    }
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    const JsonValue last = poll(i);
    r.check(last.at("completed").as_bool(), session_of(i) + ": not completed");
    (void)call("close", request("close", i) + "}");
    const study::Model& ref = *refs[i % docs.size()];
    rp.compare(ref.instants(), ref.usage(), instants[i], usage[i],
               session_of(i) + " streamed vs one-shot");
  }
  const serve::ProgramCache::Stats cs = server.cache().stats();
  if (cs.hits + cs.misses > 0)
    st.serve_cache_hit_rate = static_cast<double>(cs.hits) /
                              static_cast<double>(cs.hits + cs.misses);
  return st;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean_ms(const LoopStats& st, const std::string& verb) {
  const auto it = st.verb_s.find(verb);
  if (it == st.verb_s.end() || it->second.empty()) return 0.0;
  return 1e3 * sum(it->second) / static_cast<double>(it->second.size());
}

void measure(const Args& args, const std::vector<Doc>& docs, Result& r) {
  std::vector<study::Scenario> references;
  for (const Doc& d : docs) references.push_back(d.reference);
  std::uint64_t fed = 0;
  for (std::size_t i = 0; i < kSessions; ++i)
    fed += docs[i % docs.size()].reference.desc().total_source_tokens();

  // Each round runs the one-shot references, then one closed loop whose
  // streamed traces are checked against the equivalent references.
  const study::Backend base = study::Backend::baseline();
  const study::Backend eq = study::Backend::equivalent();
  const study::Backend ad = study::Backend::adaptive();
  Samples setup, loops, answer;
  Tracer off(false);
  Replay rp(off, r);
  bool first = true;
  measure_rounds(args, 1, [&] {
    std::vector<std::unique_ptr<study::Model>> eq_refs;
    std::vector<const study::Model*> refs;
    for (const study::Scenario& s : references) {
      const auto b = rp.run(base, s, {}, Regime::kAperiodic);
      eq_refs.push_back(rp.run(eq, s, {}, Regime::kAperiodic));
      const auto a = rp.run(ad, s, {}, Regime::kAperiodic);
      refs.push_back(eq_refs.back().get());
      if (!first) continue;
      check_same_traces(r, *b, *eq_refs.back(), s.name() + "/equivalent");
      check_same_traces(r, *b, *a, s.name() + "/adaptive");
    }
    first = false;
    const LoopStats st = serve_loop(docs, refs, off, rp, r);
    double loop_s = 0.0;
    for (const auto& [verb, secs] : st.verb_s)
      if (verb != "submit") loop_s += sum(secs);
    const double submit_s = sum(st.verb_s.at("submit"));
    setup.add(submit_s);
    loops.add(loop_s);
    answer.add(submit_s + loop_s);
  });

  r.metric("setup_s", setup.fast(), "s");
  r.metric("baseline_tokens_per_s", rp.tokens_per_s(base, references),
           "tokens/s");
  r.metric("equivalent_tokens_per_s",
           static_cast<double>(fed) / loops.fast(), "tokens/s");
  r.metric("adaptive_tokens_per_s", rp.tokens_per_s(ad, references),
           "tokens/s");
  r.metric("answer_wall_s", answer.fast(), "s");
}

void replay(const std::vector<Doc>& docs, Tracer& t, Replay& rp, Result& r,
            std::vector<double>& poll_ms) {
  std::vector<std::unique_ptr<study::Model>> refs;
  std::vector<study::Scenario> references;
  for (const Doc& d : docs) {
    const study::Scenario& s = d.reference;
    const auto base =
        rp.run(study::Backend::baseline(), s, {}, Regime::kAperiodic);
    refs.push_back(
        rp.run(study::Backend::equivalent(), s, {}, Regime::kAperiodic));
    const auto ad =
        rp.run(study::Backend::adaptive(), s, {}, Regime::kAperiodic);
    rp.compare(*base, *refs.back(), s.name() + "/equivalent");
    rp.compare(*base, *ad, s.name() + "/adaptive");
    references.push_back(s);
  }
  std::vector<const study::Model*> ref_ptrs;
  for (const auto& m : refs) ref_ptrs.push_back(m.get());
  const LoopStats st = serve_loop(docs, ref_ptrs, t, rp, r);
  compile_layer(t, r, references, references);

  for (const double s : st.verb_s.at("poll")) poll_ms.push_back(s * 1e3);
  const double polls = static_cast<double>(st.verb_s.at("poll").size());
  r.metric("serve.submit_ms", mean_ms(st, "submit"), "ms");
  r.metric("serve.feed_ms", mean_ms(st, "feed"), "ms");
  r.metric("serve.checkpoint_ms", mean_ms(st, "checkpoint"), "ms");
  r.metric("serve.restore_ms", mean_ms(st, "restore"), "ms");
  r.metric("serve.response_kb", st.poll_bytes / polls / 1e3, "kB");
  r.metric("serve.cache_hit_rate", st.serve_cache_hit_rate, "ratio");
}

}  // namespace

void serve_stream(const Args& args, Result& r) {
  const std::vector<Doc> docs = {make_doc(1, kTokensEx1, args.seed),
                                 make_doc(4, kTokensEx4, args.seed)};
  if (!args.trace) return measure(args, docs, r);
  std::vector<double> poll_ms;  // of every replay, traced or not
  run_traced(args, r, [&](Tracer& t, Replay& rp) {
    replay(docs, t, rp, r, poll_ms);
  });
  r.metric("serve.poll_p50_ms", quantile(poll_ms, 0.5), "ms");
  r.metric("serve.poll_p99_ms", quantile(poll_ms, 0.99), "ms");
}

}  // namespace maxevbench
