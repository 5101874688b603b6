/// \file test_serve.cpp
/// The serve subsystem (docs/DESIGN.md §13): wire-format round-trips,
/// the program cache, streaming sessions with
/// checkpoint/restore, and the line protocol. The load-bearing claims:
/// a description survives serialization structurally intact, incremental
/// feeding is bit-identical to a one-shot run, and a restored checkpoint
/// continues exactly where the original left off.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/equivalent_model.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "model/desc.hpp"
#include "serve/program_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "study/study.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/json.hpp"

namespace {

using namespace maxev;

// ------------------------------------------------------------- helpers ----

gen::DidacticConfig small_didactic() {
  gen::DidacticConfig cfg;
  cfg.tokens = 9;
  // A spaced-out source: with the default period of 0 every token releases
  // at the origin and the stream watermark (earliest[fed-1] - 1ps) stays
  // negative until the source is fully fed — nothing would stream.
  cfg.source_period = Duration::us(10);
  return cfg;
}

/// The didactic scenario with its source turned into a stream: the wire
/// document declares `{"type":"stream"}` and the caller feeds the tokens.
std::string streamified_didactic(const gen::DidacticConfig& cfg) {
  const JsonValue doc =
      json_parse(serve::desc_to_json(gen::make_didactic(cfg)));
  auto root = doc.members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  for (const JsonValue& src : d.at("sources").items()) {
    auto s = src.members();
    s["earliest"] =
        JsonValue::object({{"type", JsonValue::string("stream")}});
    s.erase("attrs");
    s.erase("gap");
    sources.push_back(JsonValue::object(std::move(s)));
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));
  return json_dump(JsonValue::object(std::move(root)));
}

/// \p scenario_json with every source declaring \p count tokens.
std::string with_source_count(const std::string& scenario_json, double count) {
  auto root = json_parse(scenario_json).members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  for (const JsonValue& src : d.at("sources").items()) {
    auto s = src.members();
    s["count"] = JsonValue::number(count);
    sources.push_back(JsonValue::object(std::move(s)));
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));
  return json_dump(JsonValue::object(std::move(root)));
}

/// The full token set of the didactic source, straight from the
/// generator's behavioural functions.
std::vector<serve::Session::FedToken> didactic_tokens(
    const gen::DidacticConfig& cfg) {
  const model::ArchitectureDesc desc = gen::make_didactic(cfg);
  const model::SourceDesc& src = desc.sources().front();
  std::vector<serve::Session::FedToken> tokens;
  for (std::uint64_t k = 0; k < src.count; ++k)
    tokens.push_back({src.earliest(k).count(), src.attrs(k)});
  return tokens;
}

/// One-shot reference run of the same didactic configuration.
struct OneShot {
  std::unique_ptr<core::EquivalentModel> model;
  explicit OneShot(const gen::DidacticConfig& cfg)
      : OneShot(gen::make_didactic(cfg)) {}
  explicit OneShot(const model::ArchitectureDesc& desc)
      : model(std::make_unique<core::EquivalentModel>(desc,
                                                      std::vector<bool>{})) {
    const auto out = model->run();
    EXPECT_TRUE(out.completed);
  }
};

/// Serves stream source 0 of a scenario document from a token table.
class TokenTable final : public serve::StreamSourceFactory {
 public:
  explicit TokenTable(const std::vector<serve::Session::FedToken>& tokens) {
    for (const serve::Session::FedToken& t : tokens) {
      earliest_ps_.push_back(t.earliest_ps);
      attrs_.push_back(t.attrs);
    }
  }

  Fns make_stream_source(std::size_t, const std::string&,
                         std::uint64_t) override {
    return Fns{serve::TableTimeFn{std::make_shared<const std::vector<
                   std::int64_t>>(earliest_ps_)},
               serve::TableAttrsFn{std::make_shared<
                   const std::vector<model::TokenAttrs>>(attrs_)}};
  }

 private:
  std::vector<std::int64_t> earliest_ps_;
  std::vector<model::TokenAttrs> attrs_;
};

/// One-shot reference run of a stream \p scenario document whose source
/// releases exactly \p tokens.
OneShot table_run(const std::string& scenario,
                  const std::vector<serve::Session::FedToken>& tokens) {
  TokenTable table(tokens);
  return OneShot(serve::desc_from_json(scenario, &table));
}

void expect_matches_one_shot(const serve::Session& session,
                             const OneShot& ref) {
  const auto instant_diff =
      trace::compare_instants(ref.model->instants(), session.model().instants());
  EXPECT_FALSE(instant_diff.has_value()) << *instant_diff;
  const auto usage_diff =
      trace::compare_usage(ref.model->usage(), session.model().usage());
  EXPECT_FALSE(usage_diff.has_value()) << *usage_diff;
  EXPECT_EQ(session.model().end_time().count(),
            ref.model->end_time().count());
}

// ------------------------------------------------------ wire: descs ----

TEST(WireDescTest, DidacticRoundTripIsStructurallyEqual) {
  const model::ArchitectureDesc a = gen::make_didactic(small_didactic());
  const model::ArchitectureDesc b =
      serve::desc_from_json(serve::desc_to_json(a));
  EXPECT_TRUE(model::structurally_equal(a, b));
}

TEST(WireDescTest, DumpLoadDumpIsByteIdentical) {
  const std::string doc1 =
      serve::desc_to_json(gen::make_didactic(small_didactic()));
  const std::string doc2 =
      serve::desc_to_json(serve::desc_from_json(doc1));
  EXPECT_EQ(doc1, doc2);
}

TEST(WireDescTest, RandomArchitecturesRoundTripAcrossSeeds) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 4;
  cfg.multi_rate_producer_probability = 0.4;  // multi-rate bundles too
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const model::ArchitectureDesc a =
        gen::make_random_architecture(seed, cfg);
    const std::string doc1 = serve::desc_to_json(a);
    const model::ArchitectureDesc b = serve::desc_from_json(doc1);
    EXPECT_TRUE(model::structurally_equal(a, b)) << "seed " << seed;
    EXPECT_EQ(doc1, serve::desc_to_json(b)) << "seed " << seed;
  }
}

TEST(WireDescTest, RejectsWrongVersionAndMissingMembers) {
  EXPECT_THROW((void)serve::desc_from_json(R"({"desc":{}})"),
               serve::WireError);
  EXPECT_THROW(
      (void)serve::desc_from_json(R"({"maxev_wire":99,"desc":{}})"),
      serve::WireError);
  EXPECT_THROW((void)serve::desc_from_json(R"({"maxev_wire":1})"),
               serve::WireError);
}

TEST(WireDescTest, OpaqueLoadRoundTripsStructurallyButStubThrows) {
  // A hand-written lambda load cannot be introspected: it serializes as
  // {"type":"opaque"} and loads back as a stub that throws when called.
  model::ArchitectureDesc d;
  const auto r = d.add_resource("cpu", model::ResourcePolicy::kConcurrent,
                                1e9);
  const auto ch = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, ch);
  d.fn_execute(f, [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size * 3;
  });
  d.fn_write(f, out);
  d.add_source("src", ch, 2,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink", out);
  d.validate();

  const model::ArchitectureDesc back =
      serve::desc_from_json(serve::desc_to_json(d));
  EXPECT_TRUE(model::structurally_equal(d, back));
  const model::LoadFn& load = back.functions()[0].body[1].load;
  EXPECT_THROW((void)load(model::TokenAttrs{}, 0), serve::WireError);
}

TEST(WireDescTest, StreamSourceRequiresFactory) {
  const std::string doc = streamified_didactic(small_didactic());
  EXPECT_THROW((void)serve::desc_from_json(doc), serve::WireError);
}

// ------------------------------------------------------ program cache ----

TEST(ProgramCacheTest, CountsHitsAndMisses) {
  serve::ProgramCache cache(4);
  const model::DescPtr desc =
      model::share(gen::make_didactic(small_didactic()));
  const auto key = core::CompiledKey::make(desc, {}, true, 0);
  bool hit = true;
  const core::CompiledPtr first = cache.get(key, &hit);
  EXPECT_FALSE(hit);
  const core::CompiledPtr second = cache.get(key, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ProgramCacheTest, CanonicalizesEmptyGroupToAllFunctions) {
  serve::ProgramCache cache(4);
  const model::DescPtr desc =
      model::share(gen::make_didactic(small_didactic()));
  (void)cache.get(core::CompiledKey::make(desc, {}, true, 0));
  const std::vector<bool> all(desc->functions().size(), true);
  bool hit = false;
  (void)cache.get(core::CompiledKey::make(desc, all, true, 0), &hit);
  EXPECT_TRUE(hit);  // the empty-group shorthand unifies with all-true
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ProgramCacheTest, EqualButDistinctDescriptionsDoNotShare) {
  // A compiled program embeds the description's opaque workload functions,
  // so structural equality is not enough: only the same DescPtr shares.
  serve::ProgramCache cache(4);
  const model::DescPtr a = model::share(gen::make_didactic({}));
  const model::DescPtr b = model::share(gen::make_didactic({}));
  ASSERT_TRUE(model::structurally_equal(*a, *b));
  bool hit = true;
  (void)cache.get(core::CompiledKey::make(a, {}, true, 0), &hit);
  EXPECT_FALSE(hit);
  (void)cache.get(core::CompiledKey::make(b, {}, true, 0), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ProgramCacheTest, EvictsLeastRecentlyUsed) {
  serve::ProgramCache cache(2);
  auto desc_of = [](std::uint64_t tokens) {
    gen::DidacticConfig cfg;
    cfg.tokens = tokens;
    return model::share(gen::make_didactic(cfg));
  };
  const model::DescPtr a = desc_of(3), b = desc_of(4), c = desc_of(5);
  const auto key = [](const model::DescPtr& d) {
    return core::CompiledKey::make(d, {}, true, 0);
  };
  (void)cache.get(key(a));
  (void)cache.get(key(b));
  (void)cache.get(key(a));  // a is now most recently used
  (void)cache.get(key(c));  // evicts b
  EXPECT_TRUE(cache.contains(key(a)));
  EXPECT_FALSE(cache.contains(key(b)));
  EXPECT_TRUE(cache.contains(key(c)));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

// ------------------------------------------------------------ session ----

TEST(SessionTest, PollBeforeAnyFeedIsBlocked) {
  serve::Session session(streamified_didactic(small_didactic()));
  const serve::Session::Delta d = session.poll();
  EXPECT_TRUE(d.blocked);
  EXPECT_FALSE(d.completed);
  EXPECT_TRUE(d.instants.empty());
}

TEST(SessionTest, IncrementalFeedIsBitIdenticalToOneShot) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  ASSERT_EQ(tokens.size(), 9u);

  serve::Session session(streamified_didactic(cfg));
  ASSERT_TRUE(session.is_stream_source(0));
  // Three feed/poll rounds of 3 tokens each, then a completing poll.
  for (std::size_t round = 0; round < 3; ++round) {
    session.feed(0, {tokens.begin() + 3 * round,
                     tokens.begin() + 3 * (round + 1)});
    const serve::Session::Delta d = session.poll();
    EXPECT_FALSE(d.blocked);
  }
  const serve::Session::Delta final_delta = session.poll();
  EXPECT_TRUE(final_delta.completed);
  EXPECT_TRUE(session.completed());

  expect_matches_one_shot(session, OneShot(cfg));
}

TEST(SessionTest, DeltasAreCursorsOverTheFullTraces) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));

  std::map<std::string, std::vector<std::int64_t>> accumulated;
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    session.feed(0, {tokens[k]});
    for (const auto& sd : session.poll().instants) {
      auto& arr = accumulated[sd.series];
      ASSERT_EQ(sd.start_k, arr.size()) << sd.series;
      arr.insert(arr.end(), sd.instants_ps.begin(), sd.instants_ps.end());
    }
  }
  for (const auto& sd : session.poll().instants) {
    auto& arr = accumulated[sd.series];
    ASSERT_EQ(sd.start_k, arr.size()) << sd.series;
    arr.insert(arr.end(), sd.instants_ps.begin(), sd.instants_ps.end());
  }

  for (const auto& [name, series] : session.model().instants().all()) {
    const auto it = accumulated.find(name);
    ASSERT_NE(it, accumulated.end()) << name;
    ASSERT_EQ(it->second.size(), series.size()) << name;
    for (std::size_t k = 0; k < series.size(); ++k)
      EXPECT_EQ(it->second[k], series.at(k).count()) << name << "[" << k << "]";
  }
}

TEST(SessionTest, FeedValidatesProtocol) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));

  EXPECT_THROW(session.feed(7, {tokens[0]}), serve::SessionError);
  session.feed(0, {tokens[0], tokens[1]});
  // Regressing earliest instants violates source monotonicity.
  EXPECT_THROW(session.feed(0, {{tokens[1].earliest_ps - 1, {}}}),
               serve::SessionError);
  // Overfeeding past the declared count.
  std::vector<serve::Session::FedToken> rest(tokens.begin() + 2,
                                             tokens.end());
  rest.push_back({tokens.back().earliest_ps + 1, {}});
  EXPECT_THROW(session.feed(0, rest), serve::SessionError);
  EXPECT_EQ(session.fed(0), 2u);
}

TEST(SessionTest, CheckpointRestoreContinuesBitIdentical) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);

  serve::Session original(streamified_didactic(cfg));
  original.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)original.poll();

  const std::string ckpt = original.checkpoint();
  std::unique_ptr<serve::Session> restored = serve::Session::restore(ckpt);
  EXPECT_EQ(restored->fed(0), 4u);

  // Drive BOTH sessions through the same remaining rounds: every delta
  // must be identical, and both must land exactly on the one-shot traces.
  auto drive = [&](serve::Session& s) {
    std::vector<serve::Session::Delta> deltas;
    s.feed(0, {tokens.begin() + 4, tokens.begin() + 7});
    deltas.push_back(s.poll());
    s.feed(0, {tokens.begin() + 7, tokens.end()});
    deltas.push_back(s.poll());
    return deltas;
  };
  const auto da = drive(original);
  const auto db = drive(*restored);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].now_ps, db[i].now_ps);
    ASSERT_EQ(da[i].instants.size(), db[i].instants.size());
    for (std::size_t j = 0; j < da[i].instants.size(); ++j) {
      EXPECT_EQ(da[i].instants[j].series, db[i].instants[j].series);
      EXPECT_EQ(da[i].instants[j].start_k, db[i].instants[j].start_k);
      EXPECT_EQ(da[i].instants[j].instants_ps, db[i].instants[j].instants_ps);
    }
  }
  EXPECT_TRUE(original.completed());
  EXPECT_TRUE(restored->completed());

  const OneShot ref(cfg);
  expect_matches_one_shot(original, ref);
  expect_matches_one_shot(*restored, ref);
}

TEST(SessionTest, RestoreRejectsTamperedCheckpoint) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();

  const JsonValue doc = json_parse(session.checkpoint());
  auto members = doc.members();
  members["now_ps"] = JsonValue::integer(members.at("now_ps").as_int64() + 1);
  EXPECT_THROW(
      (void)serve::Session::restore(json_dump(JsonValue::object(members))),
      serve::SessionError);
}

// Restore reads token attrs by the feed rule: params is an array of
// exactly four numbers. A checkpoint token with 3 params used to restore
// with a silent zero, one with 5 was cut to 4, and "params": 7 restored as
// all zeros.
TEST(SessionTest, RestoreRejectsTokensWithoutFourParams) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();
  const JsonValue doc = json_parse(session.checkpoint());

  const auto with_params = [&doc](JsonValue params) {
    auto members = doc.members();
    auto stream = members.at("streams")[0].members();
    std::vector<JsonValue> attrs = stream.at("attrs").items();
    auto token = attrs[1].members();
    token["params"] = std::move(params);
    attrs[1] = JsonValue::object(std::move(token));
    stream["attrs"] = JsonValue::array(std::move(attrs));
    members["streams"] =
        JsonValue::array({JsonValue::object(std::move(stream))});
    return json_dump(JsonValue::object(std::move(members)));
  };
  const auto halves = [](std::size_t n) {
    return JsonValue::array(std::vector<JsonValue>(n, JsonValue::number(0.5)));
  };
  EXPECT_EQ(serve::Session::restore(with_params(halves(4)))->fed(0), 4u);
  for (const JsonValue& params : {halves(3), halves(5), JsonValue::integer(7)}) {
    try {
      (void)serve::Session::restore(with_params(params));
      ADD_FAILURE() << "restored params " << json_dump(params);
    } catch (const serve::SessionError& e) {
      EXPECT_EQ(std::string(e.what()),
                "protocol: token attrs params must be an array of 4");
    }
  }
}

// Every checkpointed param must restore as fed. A non-finite param (a
// checkpoint writes it as null) is refused at feed, feeding nothing; -0.0
// keeps its sign (`-0` used to read back as the integer 0).
TEST(SessionTest, ParamsSurviveCheckpointAndRestore) {
  const gen::DidacticConfig cfg = small_didactic();
  std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<serve::Session::FedToken> batch(tokens.begin(),
                                                tokens.begin() + 2);
    batch[1].attrs.params[2] = bad;
    EXPECT_THROW(session.feed(0, batch), serve::SessionError);
    EXPECT_EQ(session.fed(0), 0u);
  }
  tokens[1].attrs.params[0] = -0.0;
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();
  const std::string ckpt = session.checkpoint();
  EXPECT_EQ(serve::Session::restore(ckpt)->checkpoint(), ckpt);
}

// Restore checks the checkpointed progress against the fed tokens before
// replaying it: an advance past their stream watermark, or a completed
// run with a stream not fully fed, is a restore error, not a replay that
// fails on an unfed token.
TEST(SessionTest, RestoreRejectsProgressTheFedTokensCannotReach) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();
  const JsonValue doc = json_parse(session.checkpoint());
  ASSERT_EQ(doc.at("advanced_ps").as_int64(), tokens[3].earliest_ps - 1);

  const auto expect_rejected = [&doc](const std::string& key, JsonValue v,
                                      const std::string& what) {
    auto members = doc.members();
    members[key] = std::move(v);
    try {
      (void)serve::Session::restore(json_dump(JsonValue::object(members)));
      ADD_FAILURE() << "restored with " << key << " tampered";
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind(what, 0), 0u) << e.what();
    }
  };
  expect_rejected("advanced_ps", JsonValue::integer(tokens[3].earliest_ps),
                  "restore: advanced_ps " +
                      std::to_string(tokens[3].earliest_ps) +
                      " is past the stream watermark");
  expect_rejected("completed", JsonValue::boolean(true),
                  "restore: the checkpoint is completed but stream source "
                  "'F0' is fed 4 of 9 tokens");
}

TEST(SessionTest, CheckpointRefusesWhileGuardStopped) {
  serve::Session::Options opts;
  opts.guards.max_events = 1;  // trips immediately
  const gen::DidacticConfig cfg = small_didactic();
  serve::Session session(streamified_didactic(cfg), opts);
  session.feed(0, didactic_tokens(cfg));
  const serve::Session::Delta d = session.poll();
  EXPECT_TRUE(sim::is_guard_stop(d.stop));
  EXPECT_THROW((void)session.checkpoint(), serve::SessionError);
}

TEST(SessionTest, SessionsShareACompileCache) {
  serve::ProgramCache cache(4);
  serve::Session::Options opts;
  opts.compiled = &cache;
  const std::string scenario = streamified_didactic(small_didactic());
  serve::Session a(scenario, opts);
  serve::Session b(scenario, opts);
  const auto stats = cache.stats();
  // Two sessions parse the same text into distinct descriptions: pointer
  // identity keeps them separate entries (the behavioural-sharing rule).
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
}

// Sessions on one template share its decode and its compiled program and
// bind only their own streams: twins fed different tokens, interleaved,
// each match their own one-shot run bit for bit, and so does a restore of
// one twin taken while the other is still live.
TEST(SessionTest, TwinsOnOneTemplateMatchTheirOwnOneShotRuns) {
  gen::DidacticConfig cfg_b = small_didactic();
  cfg_b.seed = 7;
  const std::string scenario = streamified_didactic(small_didactic());
  ASSERT_EQ(scenario, streamified_didactic(cfg_b));
  const std::vector<serve::Session::FedToken> ta =
      didactic_tokens(small_didactic());
  std::vector<serve::Session::FedToken> tb = didactic_tokens(cfg_b);
  for (serve::Session::FedToken& t : tb) t.earliest_ps += 3'000'000;
  ASSERT_NE(ta[0].attrs.size, tb[0].attrs.size);

  serve::ProgramCache cache(8);
  serve::Session::Options opts;
  opts.compiled = &cache;
  const serve::TemplatePtr tmpl = cache.scenario(scenario);
  serve::Session a(tmpl, opts);
  serve::Session b(tmpl, opts);
  EXPECT_EQ(&a.model().compiled(), &b.model().compiled());
  EXPECT_NE(&a.desc(), tmpl->desc.get());
  EXPECT_NE(&a.desc(), &b.desc());

  a.feed(0, {ta.begin(), ta.begin() + 3});
  b.feed(0, {tb.begin(), tb.begin() + 5});
  (void)a.poll();
  (void)b.poll();
  const std::unique_ptr<serve::Session> restored =
      serve::Session::restore(a.checkpoint(), opts, &cache);
  EXPECT_EQ(&restored->model().compiled(), &b.model().compiled());
  for (serve::Session* s : {&a, restored.get(), &b}) {
    const auto& tokens = s == &b ? tb : ta;
    s->feed(0, {tokens.begin() + static_cast<std::ptrdiff_t>(s->fed(0)),
                tokens.end()});
    EXPECT_TRUE(s->poll().completed);
  }
  const serve::ProgramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);

  const OneShot ref_a = table_run(scenario, ta);
  expect_matches_one_shot(a, ref_a);
  expect_matches_one_shot(*restored, ref_a);
  expect_matches_one_shot(b, table_run(scenario, tb));
  // The template never served a token: its stubs still throw.
  EXPECT_THROW((void)tmpl->desc->sources()[0].earliest(0), serve::WireError);
  EXPECT_THROW((void)tmpl->desc->sources()[0].attrs(0), serve::WireError);
}

// ----------------------------------------------------------- protocol ----

/// A `submit` request line for \p session.
std::string submit_line(const std::string& session,
                        const std::string& scenario) {
  JsonWriter w;
  w.begin_object()
      .field("cmd", "submit")
      .field("session", session)
      .field("scenario_json", scenario)
      .end_object();
  return w.str();
}

/// A `feed` request line: tokens [lo, hi) to source 0 of \p session.
std::string feed_line(const std::string& session,
                      const std::vector<serve::Session::FedToken>& tokens,
                      std::size_t lo, std::size_t hi) {
  JsonWriter w;
  w.begin_object()
      .field("cmd", "feed")
      .field("session", session)
      .field("source", std::uint64_t{0});
  w.key("tokens").begin_array();
  for (std::size_t k = lo; k < hi; ++k) {
    w.begin_object().field("earliest_ps", tokens[k].earliest_ps);
    w.key("attrs").begin_object().field("size", tokens[k].attrs.size);
    w.key("params").begin_array();
    for (const double p : tokens[k].attrs.params) w.value(p);
    w.end_array().end_object().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

TEST(ProtocolTest, ServesFeedPollCheckpointRestoreClose) {
  serve::Server server;
  const std::string scenario = streamified_didactic(small_didactic());
  const std::vector<serve::Session::FedToken> tokens =
      didactic_tokens(small_didactic());

  auto request = [&](const std::string& line) {
    return json_parse(server.handle(line));
  };

  const std::string submit = submit_line("s", scenario);
  const JsonValue sub = request(submit);
  ASSERT_TRUE(sub.at("ok").as_bool()) << server.handle(submit);
  ASSERT_EQ(sub.at("stream_sources").size(), 1u);

  ASSERT_TRUE(request(feed_line("s", tokens, 0, 5)).at("ok").as_bool());
  ASSERT_TRUE(request(R"({"cmd":"poll","session":"s"})").at("ok").as_bool());

  const JsonValue ckpt = request(R"({"cmd":"checkpoint","session":"s"})");
  ASSERT_TRUE(ckpt.at("ok").as_bool());
  ASSERT_TRUE(request(R"({"cmd":"close","session":"s"})").at("ok").as_bool());
  EXPECT_EQ(server.session_count(), 0u);

  JsonWriter restore;
  restore.begin_object()
      .field("cmd", "restore")
      .field("session", "s")
      .field("checkpoint", ckpt.at("checkpoint").as_string())
      .end_object();
  ASSERT_TRUE(request(restore.str()).at("ok").as_bool());

  ASSERT_TRUE(
      request(feed_line("s", tokens, 5, tokens.size())).at("ok").as_bool());
  const JsonValue last = request(R"({"cmd":"poll","session":"s"})");
  ASSERT_TRUE(last.at("ok").as_bool());
  EXPECT_TRUE(last.at("completed").as_bool());

  const JsonValue stats = request(R"({"cmd":"stats"})");
  EXPECT_EQ(stats.at("sessions").as_uint64(), 1u);
  EXPECT_GE(stats.at("cache").at("misses").as_uint64(), 1u);
}

// A stream source is fed incrementally, so its declared token count may be
// anything. Observation sinks pre-size for at most trace::kMaxReserve
// entries: a session declaring 1e13 tokens submits and streams exactly
// like one declaring the 12 it is fed.
TEST(ProtocolTest, HugeDeclaredCountStreamsLikeAFittingOne) {
  gen::DidacticConfig cfg = small_didactic();
  cfg.tokens = 12;
  const std::string fitting = streamified_didactic(cfg);
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Server server;

  const std::string fitting_reply =
      server.handle(submit_line("fitting", fitting));
  const std::string huge_reply =
      server.handle(submit_line("huge", with_source_count(fitting, 1e13)));
  EXPECT_TRUE(json_parse(fitting_reply).at("ok").as_bool()) << fitting_reply;
  ASSERT_TRUE(json_parse(huge_reply).at("ok").as_bool()) << huge_reply;

  for (const char* session : {"fitting", "huge"})
    ASSERT_TRUE(json_parse(server.handle(feed_line(session, tokens, 0, 6)))
                    .at("ok")
                    .as_bool());
  const std::string fitting_poll =
      server.handle(R"({"cmd":"poll","session":"fitting"})");
  const std::string huge_poll =
      server.handle(R"({"cmd":"poll","session":"huge"})");
  EXPECT_TRUE(json_parse(fitting_poll).at("ok").as_bool()) << fitting_poll;
  EXPECT_FALSE(json_parse(fitting_poll).at("instants").items().empty());
  EXPECT_EQ(fitting_poll, huge_poll);
}

TEST(ProtocolTest, ErrorsAreReportedInBandNeverThrown) {
  serve::Server server;
  EXPECT_FALSE(json_parse(server.handle("not json")).at("ok").as_bool());
  EXPECT_FALSE(json_parse(server.handle(R"({"cmd":"frobnicate","session":"x"})"))
                   .at("ok")
                   .as_bool());
  EXPECT_FALSE(json_parse(server.handle(R"({"cmd":"poll","session":"nope"})"))
                   .at("ok")
                   .as_bool());
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ProtocolTest, DeeplyNestedLineFailsInBandAndServingContinues) {
  serve::Server server;
  const JsonValue reply =
      json_parse(server.handle(std::string(std::size_t{1} << 20, '[')));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("nesting deeper than"),
            std::string::npos);
  const JsonValue stats = json_parse(server.handle(R"({"cmd":"stats"})"));
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("sessions").as_uint64(), 0u);
}

/// \p v written with every object's members in reverse order and spaced
/// the way Python's json.dumps writes.
std::string reversed_spaced(const JsonValue& v) {
  if (v.is_array()) {
    std::string out = "[";
    for (const JsonValue& item : v.items())
      out += (out.size() > 1 ? ", " : "") + reversed_spaced(item);
    return out + "]";
  }
  if (!v.is_object()) return json_dump(v);
  std::string out = "{";
  const auto& members = v.members();
  for (auto it = members.rbegin(); it != members.rend(); ++it)
    out += (out.size() > 1 ? ", " : "") + json_dump(JsonValue::string(it->first)) +
           ": " + reversed_spaced(it->second);
  return out + "}";
}

/// A `submit` request line carrying \p scenario_text as a `scenario`
/// object, verbatim.
std::string submit_object_line(const std::string& session,
                               const std::string& scenario_text) {
  return R"({"cmd": "submit", "session": )" +
         json_dump(JsonValue::string(session)) +
         R"(, "scenario": )" + scenario_text + "}";
}

// The server shares by document identity: copies of one `scenario` object
// that differ only in whitespace or member order share one decoded
// template and one compiled program; documents that differ do not.
TEST(ProtocolTest, IdenticalDocumentsShareOneTemplateAndProgram) {
  serve::Server server;
  const std::string scenario = streamified_didactic(small_didactic());
  const std::string other = with_source_count(scenario, 10);
  const auto submit = [&server](const std::string& line) {
    const std::string reply = server.handle(line);
    EXPECT_TRUE(json_parse(reply).at("ok").as_bool()) << reply;
  };
  const auto expect_cache = [&server](std::uint64_t misses,
                                      std::uint64_t hits) {
    const serve::ProgramCache::Stats s = server.cache().stats();
    EXPECT_EQ(s.misses, misses);
    EXPECT_EQ(s.hits, hits);
  };

  submit(submit_object_line("a", scenario));
  expect_cache(1, 0);
  submit(submit_object_line("b", reversed_spaced(json_parse(scenario))));
  expect_cache(1, 1);
  submit(submit_line("c", scenario));  // the same bytes as a string
  expect_cache(1, 2);
  submit(submit_object_line("d", other));
  expect_cache(2, 2);
  submit(submit_line("e", reversed_spaced(json_parse(scenario))));
  expect_cache(3, 2);  // a string is its bytes: no canonical form
}

// The benchmark's serve loop in small: two documents, four sessions each,
// every session checkpointed, closed and restored mid-stream. Each
// document is decoded and compiled once: 16 compiled lookups, 2 misses.
TEST(ProtocolTest, ServeStreamShapedScriptCompilesEachDocumentOnce) {
  gen::DidacticConfig limited = small_didactic();
  limited.p2_limited_concurrency = true;
  const std::vector<std::string> docs = {
      streamified_didactic(small_didactic()), streamified_didactic(limited)};
  ASSERT_NE(docs[0], docs[1]);
  const std::vector<serve::Session::FedToken> tokens =
      didactic_tokens(small_didactic());
  serve::Server server;
  const auto request = [&server](const std::string& line) {
    const std::string reply = server.handle(line);
    const JsonValue v = json_parse(reply);
    EXPECT_TRUE(v.at("ok").as_bool()) << reply;
    return v;
  };
  const auto verb = [](const char* cmd, const std::string& session) {
    JsonWriter w;
    w.begin_object().field("cmd", cmd).field("session", session).end_object();
    return w.str();
  };
  constexpr std::size_t kSessions = 8;
  const auto name = [](std::size_t i) { return "s" + std::to_string(i); };
  for (std::size_t i = 0; i < kSessions; ++i)
    (void)request(submit_object_line(name(i), docs[i % 2]));
  for (std::size_t i = 0; i < kSessions; ++i) {
    (void)request(feed_line(name(i), tokens, 0, 4));
    (void)request(verb("poll", name(i)));
    const JsonValue ckpt = request(verb("checkpoint", name(i)));
    (void)request(verb("close", name(i)));
    JsonWriter w;
    w.begin_object()
        .field("cmd", "restore")
        .field("session", name(i))
        .field("checkpoint", ckpt.at("checkpoint").as_string())
        .end_object();
    (void)request(w.str());
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    (void)request(feed_line(name(i), tokens, 4, tokens.size()));
    EXPECT_TRUE(request(verb("poll", name(i))).at("completed").as_bool());
  }
  const JsonValue stats = request(R"({"cmd":"stats"})");
  EXPECT_EQ(stats.at("cache").at("misses").as_uint64(), 2u);
  EXPECT_EQ(stats.at("cache").at("hits").as_uint64(), 14u);
}

// A param literal that overflows to infinity fails the feed in band: a
// checkpoint could not carry it.
TEST(ProtocolTest, NonFiniteParamFailsTheFeedInBand) {
  serve::Server server;
  const std::string scenario = streamified_didactic(small_didactic());
  ASSERT_TRUE(json_parse(server.handle(submit_line("s", scenario)))
                  .at("ok")
                  .as_bool());
  const JsonValue reply = json_parse(server.handle(
      R"({"cmd":"feed","session":"s","source":0,"tokens":[)"
      R"({"earliest_ps":0,"attrs":{"size":1,"params":[1e400,2,3,4]}}]})"));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("must be finite"),
            std::string::npos);
  const JsonValue ckpt =
      json_parse(server.handle(R"({"cmd":"checkpoint","session":"s"})"));
  ASSERT_TRUE(ckpt.at("ok").as_bool());
  EXPECT_EQ(serve::Session::restore(ckpt.at("checkpoint").as_string())->fed(0),
            0u);
}

// ------------------------------------------------- study integration ----

TEST(StudyCacheTest, RepetitionsHitTheSharedCache) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  study::Study st;
  st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.repetitions = 3;
  const study::Report rep = st.run(opts);
  const study::Cell& eq = rep.at("didactic", "equivalent");
  // Rep 0 compiles, reps 1..2 reuse the artifact.
  EXPECT_EQ(eq.cache_misses, 1);
  EXPECT_EQ(eq.cache_hits, 2);
  EXPECT_EQ(rep.at("didactic", "baseline").cache_hits, 0);
}

TEST(StudyCacheTest, SharedDescriptionsHitAcrossScenarios) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  const model::DescPtr desc = model::share(gen::make_didactic(cfg));
  study::Study st;
  st.add(study::Scenario("a", desc));
  st.add(study::Scenario("b", desc));  // same DescPtr: shareable
  st.add(study::Backend::equivalent());
  const study::Report rep = st.run();
  EXPECT_EQ(rep.at("a", "equivalent").cache_misses, 1);
  EXPECT_EQ(rep.at("b", "equivalent").cache_misses, 0);
  EXPECT_EQ(rep.at("b", "equivalent").cache_hits, 1);
}

TEST(StudyCacheTest, CacheOffLeavesSentinels) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  study::Study st;
  st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.program_cache = false;
  const study::Report rep = st.run(opts);
  EXPECT_EQ(rep.at("didactic", "equivalent").cache_hits, -1);
  EXPECT_EQ(rep.at("didactic", "equivalent").cache_misses, -1);
}

TEST(StudyCacheTest, ReportsAreIdenticalAtEveryThreadCount) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  auto run_at = [&](int threads) {
    study::Study st;
    st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
    st.add(study::Backend::baseline());
    st.add(study::Backend::equivalent());
    study::StudyOptions opts;
    opts.threads = threads;
    study::Report rep = st.run(opts);
    for (study::Cell& c : rep.cells) {
      c.metrics.wall_seconds = 0.0;
      c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
    }
    return rep.to_json();
  };
  EXPECT_EQ(run_at(1), run_at(4));
}

}  // namespace
