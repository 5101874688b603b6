#include <gtest/gtest.h>

#include <algorithm>

#include "gen/didactic.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "model/load.hpp"
#include "util/error.hpp"

namespace maxev::model {
namespace {

using namespace maxev::literals;

TokenAttrs attrs_of_size(std::int64_t size) {
  TokenAttrs a;
  a.size = size;
  return a;
}

// ---------------------------------------------------------------------------
// Load expressions
// ---------------------------------------------------------------------------

TEST(LoadTest, ConstantOps) {
  const LoadFn f = constant_ops(500);
  EXPECT_EQ(f(attrs_of_size(10), 0), 500);
  EXPECT_EQ(f(attrs_of_size(99), 7), 500);
  EXPECT_THROW(constant_ops(-1), DescriptionError);
}

TEST(LoadTest, LinearOps) {
  const LoadFn f = linear_ops(100, 3);
  EXPECT_EQ(f(attrs_of_size(10), 0), 130);
  EXPECT_EQ(f(attrs_of_size(0), 0), 100);
}

TEST(LoadTest, ParamOps) {
  TokenAttrs a;
  a.params[1] = 4.0;
  EXPECT_EQ(param_ops(10, 2.5, 1)(a, 0), 20);
  EXPECT_THROW(param_ops(0, 1.0, 9), DescriptionError);
}

TEST(LoadTest, CyclicOps) {
  const LoadFn f = cyclic_ops({10, 20, 30});
  EXPECT_EQ(f({}, 0), 10);
  EXPECT_EQ(f({}, 4), 20);
  EXPECT_THROW(cyclic_ops({}), DescriptionError);
}

TEST(ResourceTest, DurationForOps) {
  ResourceDesc r{"P", ResourcePolicy::kConcurrent, 1e9};  // 1 op / ns
  EXPECT_EQ(r.duration_for(1000), 1_us);
  EXPECT_EQ(r.duration_for(0), Duration::ps(0));
  EXPECT_EQ(r.duration_for(-5), Duration::ps(0));
  // 1e12 ops/s => 1 op = 1 ps: handy for exact hand calculations.
  ResourceDesc ps_res{"Q", ResourcePolicy::kConcurrent, 1e12};
  EXPECT_EQ(ps_res.duration_for(7), Duration::ps(7));
}

// ---------------------------------------------------------------------------
// Description validation
// ---------------------------------------------------------------------------

ArchitectureDesc minimal_desc() {
  ArchitectureDesc d;
  const auto r = d.add_resource("P", ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("F", r);
  d.fn_read(f, in);
  d.fn_execute(f, constant_ops(100));
  d.fn_write(f, out);
  d.add_source("src", in, 10,
               [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t) { return TokenAttrs{}; });
  d.add_sink("snk", out);
  return d;
}

TEST(DescTest, MinimalValidates) {
  ArchitectureDesc d = minimal_desc();
  d.validate();
  EXPECT_TRUE(d.validated());
  EXPECT_EQ(d.total_source_tokens(), 10u);
  const auto& ep = d.endpoints(0);
  EXPECT_TRUE(ep.written_by_source());
  EXPECT_EQ(ep.reader_fn, 0);
}

TEST(DescTest, TwoWritersRejected) {
  ArchitectureDesc d = minimal_desc();
  const auto f2 = d.add_function("F2", 0);
  d.fn_read(f2, 1);   // read "out" (ok: currently only the sink reads it)...
  d.fn_write(f2, 0);  // ...but "in" already has the source as writer
  EXPECT_THROW(d.validate(), DescriptionError);
}

TEST(DescTest, TwoReadersRejected) {
  ArchitectureDesc d = minimal_desc();
  d.add_sink("snk2", 0);  // "in" already read by F
  EXPECT_THROW(d.validate(), DescriptionError);
}

TEST(DescTest, UnconnectedChannelRejected) {
  ArchitectureDesc d = minimal_desc();
  d.add_rendezvous("dangling");
  EXPECT_THROW(d.validate(), DescriptionError);
}

TEST(DescTest, EmptyFunctionRejected) {
  ArchitectureDesc d = minimal_desc();
  d.add_function("empty", 0);
  EXPECT_THROW(d.validate(), DescriptionError);
}

TEST(DescTest, BadIdsRejectedEagerly) {
  ArchitectureDesc d;
  EXPECT_THROW(d.add_function("F", 0), DescriptionError);  // no resources
  const auto r = d.add_resource("P", ResourcePolicy::kConcurrent, 1e9);
  EXPECT_THROW(d.add_resource("bad", ResourcePolicy::kConcurrent, 0.0),
               DescriptionError);
  const auto f = d.add_function("F", r);
  EXPECT_THROW(d.fn_read(f, 42), DescriptionError);
  EXPECT_THROW(d.fn_execute(f, nullptr), DescriptionError);
  EXPECT_THROW(d.add_fifo("f", 0), DescriptionError);
}

TEST(DescTest, ScheduleFollowsMappingOrder) {
  ArchitectureDesc d;
  const auto p = d.add_resource("P", ResourcePolicy::kSequentialCyclic, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto mid = d.add_rendezvous("mid");
  const auto out = d.add_rendezvous("out");
  const auto fa = d.add_function("A", p);
  const auto fb = d.add_function("B", p);
  d.fn_read(fa, in);
  d.fn_write(fa, mid);
  d.fn_read(fb, mid);
  d.fn_write(fb, out);
  d.add_source("s", in, 1, [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t) { return TokenAttrs{}; });
  d.add_sink("k", out);
  d.validate();
  EXPECT_EQ(d.schedule(p), (std::vector<FunctionId>{fa, fb}));
  EXPECT_EQ(d.schedule_position(fb), 1u);
}

TEST(DescTest, ExecuteLabelsAreUnique) {
  ArchitectureDesc d = minimal_desc();
  d.fn_execute(0, constant_ops(1));
  EXPECT_EQ(d.functions()[0].body[1].label, "F.e0");
  EXPECT_EQ(d.functions()[0].body[3].label, "F.e1");
}

// ---------------------------------------------------------------------------
// Baseline execution: hand-computed instants for the didactic example.
//
// Constant loads, 1e12 ops/s on both resources (1 op = 1 ps):
//   Ti1 = 5, Tj1 = 3, Ti2 = 4, Ti3 = 6, Tj3 = 2, Ti4 = 7 (ps)
// Source: u(k) = max(k * 4 ps, completion of offer k-1).
// Expected values follow the paper's equations (1)-(6).
// ---------------------------------------------------------------------------

ArchitectureDesc didactic_constant_loads(std::uint64_t tokens) {
  ArchitectureDesc d;
  const auto p1 = d.add_resource("P1", ResourcePolicy::kSequentialCyclic, 1e12);
  const auto p2 = d.add_resource("P2", ResourcePolicy::kConcurrent, 1e12);
  const auto m1 = d.add_rendezvous("M1");
  const auto m2 = d.add_rendezvous("M2");
  const auto m3 = d.add_rendezvous("M3");
  const auto m4 = d.add_rendezvous("M4");
  const auto m5 = d.add_rendezvous("M5");
  const auto m6 = d.add_rendezvous("M6");
  const auto f1 = d.add_function("F1", p1);
  const auto f2 = d.add_function("F2", p1);
  const auto f3 = d.add_function("F3", p2);
  const auto f4 = d.add_function("F4", p2);
  d.fn_read(f1, m1);
  d.fn_execute(f1, constant_ops(5));
  d.fn_write(f1, m2);
  d.fn_execute(f1, constant_ops(3));
  d.fn_write(f1, m3);
  d.fn_read(f2, m3);
  d.fn_execute(f2, constant_ops(4));
  d.fn_write(f2, m4);
  d.fn_read(f3, m2);
  d.fn_execute(f3, constant_ops(6));
  d.fn_read(f3, m4);
  d.fn_execute(f3, constant_ops(2));
  d.fn_write(f3, m5);
  d.fn_read(f4, m5);
  d.fn_execute(f4, constant_ops(7));
  d.fn_write(f4, m6);
  d.add_source("F0", m1, tokens,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(4 * k));
               },
               [](std::uint64_t) { return TokenAttrs{}; });
  d.add_sink("env", m6);
  d.validate();
  return d;
}

/// The paper's equations (1)-(6) evaluated directly, with the source rule
/// u(k) = max(4k, xM1(k-1)) and pre-history 0.
struct HandComputed {
  std::vector<std::int64_t> m1, m2, m3, m4, m5, m6;
  explicit HandComputed(std::size_t n) {
    std::int64_t pm1 = 0, pm4 = 0, pm5 = 0, pm6 = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t u = std::max<std::int64_t>(4 * k, pm1);
      const std::int64_t x1 = std::max(u, pm4);
      const std::int64_t x2 = std::max(x1 + 5, pm5);
      const std::int64_t x3 = std::max(x2 + 3, pm4);
      const std::int64_t x4 = std::max({x3 + 4, x2 + 6, pm5});
      const std::int64_t x5 = std::max(x4 + 2, pm6);
      const std::int64_t x6 = x5 + 7;
      m1.push_back(x1);
      m2.push_back(x2);
      m3.push_back(x3);
      m4.push_back(x4);
      m5.push_back(x5);
      m6.push_back(x6);
      pm1 = x1;
      pm4 = x4;
      pm5 = x5;
      pm6 = x6;
    }
  }
};

TEST(BaselineTest, DidacticInstantsMatchPaperEquations) {
  const std::size_t n = 50;
  ArchitectureDesc d = didactic_constant_loads(n);
  ModelRuntime rt(d);
  const auto outcome = rt.run();
  ASSERT_TRUE(outcome.completed) << outcome.stall_report;

  const HandComputed expected(n);
  const char* names[] = {"M1", "M2", "M3", "M4", "M5", "M6"};
  const std::vector<std::int64_t>* cols[] = {&expected.m1, &expected.m2,
                                             &expected.m3, &expected.m4,
                                             &expected.m5, &expected.m6};
  for (int c = 0; c < 6; ++c) {
    const trace::InstantSeries* s = rt.instants().find(names[c]);
    ASSERT_NE(s, nullptr) << names[c];
    ASSERT_EQ(s->size(), n) << names[c];
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(s->values()[k].count(), (*cols[c])[k])
          << names[c] << " at k=" << k;
    }
  }
}

TEST(BaselineTest, DidacticUsageIntervalsMatchDurations) {
  ArchitectureDesc d = didactic_constant_loads(10);
  ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  const trace::UsageTrace* p1 = rt.usage().find("P1");
  ASSERT_NE(p1, nullptr);
  // F1 contributes 2 intervals (5 ps, 3 ps) and F2 one (4 ps) per iteration.
  EXPECT_EQ(p1->size(), 30u);
  EXPECT_EQ(p1->busy_time().count(), 10 * (5 + 3 + 4));
  const trace::UsageTrace* p2 = rt.usage().find("P2");
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->busy_time().count(), 10 * (6 + 2 + 7));
}

TEST(BaselineTest, SequentialResourceNeverOverlaps) {
  gen::DidacticConfig cfg;
  cfg.tokens = 200;
  ArchitectureDesc d = gen::make_didactic(cfg);
  ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  const trace::UsageTrace* p1 = rt.usage().find("P1");
  ASSERT_NE(p1, nullptr);
  trace::UsageTrace sorted = *p1;
  sorted.sort();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted.intervals()[i - 1].end.count(),
              sorted.intervals()[i].start.count())
        << "overlap at interval " << i;
  }
}

TEST(BaselineTest, PeriodicSourceRespectsEarliest) {
  gen::DidacticConfig cfg;
  cfg.tokens = 20;
  cfg.source_period = 1_ms;  // far slower than the pipeline
  ArchitectureDesc d = gen::make_didactic(cfg);
  ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  const trace::InstantSeries* m1 = rt.instants().find("M1");
  ASSERT_NE(m1, nullptr);
  for (std::size_t k = 0; k < m1->size(); ++k) {
    EXPECT_EQ(m1->values()[k].count(),
              static_cast<std::int64_t>(k) * (1_ms).count());
  }
}

TEST(BaselineTest, StallReportedWhenSinkMissingTokens) {
  // A slow sink with a time horizon: the run is cut short and reported
  // incomplete (not a stall in the error sense, but not completed either).
  ArchitectureDesc d = minimal_desc();
  d.validate();
  ModelRuntime rt(d);
  const auto outcome = rt.run(TimePoint::origin());  // zero-time horizon
  EXPECT_FALSE(outcome.completed);
  EXPECT_FALSE(outcome.idle);
}

TEST(BaselineTest, RelationEventsCountAllTransfers) {
  ArchitectureDesc d = didactic_constant_loads(10);
  ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  // 6 rendezvous channels x 10 tokens.
  EXPECT_EQ(rt.relation_events(), 60u);
  EXPECT_EQ(rt.sink_received(0), 10u);
}

TEST(BaselineTest, UnvalidatedDescRejected) {
  ArchitectureDesc d = minimal_desc();
  EXPECT_THROW(ModelRuntime rt(d), DescriptionError);
}

// ----------------------------------------- Structural equality contract

TEST(StructuralEqualityTest, EqualDescriptionsHashAndCompareEqual) {
  const ArchitectureDesc a = gen::make_didactic({});
  const ArchitectureDesc b = gen::make_didactic({});
  EXPECT_TRUE(structurally_equal(a, b));
  EXPECT_TRUE(structurally_equal(a, a));
}

TEST(StructuralEqualityTest, StructuralDifferencesAreDetected) {
  const ArchitectureDesc base = gen::make_didactic({});

  gen::DidacticConfig tokens_cfg;
  tokens_cfg.tokens = 7;  // source token counts ARE structural
  const ArchitectureDesc tokens = gen::make_didactic(tokens_cfg);
  EXPECT_FALSE(structurally_equal(base, tokens));

  gen::DidacticConfig sched_cfg;
  sched_cfg.p2_limited_concurrency = true;  // a resource policy change
  const ArchitectureDesc sched = gen::make_didactic(sched_cfg);
  EXPECT_FALSE(structurally_equal(base, sched));
}

TEST(StructuralEqualityTest, OpaqueWorkloadsAreOutsideTheSurface) {
  // Two descriptions that differ ONLY in their execute-load expressions
  // are structurally equal: the std::function members are not comparable,
  // which is exactly why batching additionally requires shared ownership
  // (docs/DESIGN.md §10).
  const auto build = [](std::int64_t ops) {
    ArchitectureDesc d;
    const ResourceId r =
        d.add_resource("P", ResourcePolicy::kSequentialCyclic, 1e9);
    const ChannelId in = d.add_rendezvous("in");
    const ChannelId out = d.add_rendezvous("out");
    const FunctionId f = d.add_function("F", r);
    d.fn_read(f, in);
    d.fn_execute(f, constant_ops(ops));
    d.fn_write(f, out);
    d.add_source("src", in, 5, [](std::uint64_t k) {
      return TimePoint::origin() + Duration::us(static_cast<std::int64_t>(k));
    }, [](std::uint64_t) { return TokenAttrs{}; });
    d.add_sink("snk", out);
    d.validate();
    return d;
  };
  const ArchitectureDesc light = build(100);
  const ArchitectureDesc heavy = build(100000);
  EXPECT_TRUE(structurally_equal(light, heavy));
}

TEST(BaselineTest, P2LimitedConcurrencyVariantRuns) {
  gen::DidacticConfig cfg;
  cfg.tokens = 100;
  cfg.p2_limited_concurrency = true;
  ArchitectureDesc d = gen::make_didactic(cfg);
  ModelRuntime rt(d);
  const auto outcome = rt.run();
  ASSERT_TRUE(outcome.completed) << outcome.stall_report;
  // With P2 sequential too, F3/F4 never overlap.
  trace::UsageTrace p2 = *rt.usage().find("P2");
  p2.sort();
  for (std::size_t i = 1; i < p2.size(); ++i)
    EXPECT_LE(p2.intervals()[i - 1].end.count(),
              p2.intervals()[i].start.count());
}

}  // namespace
}  // namespace maxev::model
