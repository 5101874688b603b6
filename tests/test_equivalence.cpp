#include <gtest/gtest.h>

#include "core/equivalent_model.hpp"
#include "gen/chains.hpp"
#include "gen/didactic.hpp"
#include "gen/padded.hpp"
#include "gen/random_arch.hpp"
#include "model/baseline.hpp"
#include "study/experiment.hpp"
#include "util/error.hpp"

/// The paper's accuracy claim, Section IV: "Evolution instants of both
/// models have been compared and, as expected, remain the same." These
/// tests check bit-exact equality of every relation's instant sequence and
/// every resource's busy-interval trace between the event-driven baseline
/// and the equivalent model, across architectures, workloads and
/// environment behaviours — plus the speed direction (fewer kernel events).

namespace maxev::core {
namespace {

using namespace maxev::literals;
using study::ExperimentOptions;
using study::run_comparison;

void expect_equivalent(const model::ArchitectureDesc& desc,
                       ExperimentOptions opts = {},
                       const char* context = "") {
  opts.repetitions = 1;
  const Comparison cmp = run_comparison(desc, opts);
  EXPECT_TRUE(cmp.baseline.completed) << context;
  EXPECT_TRUE(cmp.equivalent.completed) << context;
  EXPECT_EQ(cmp.instant_mismatch, std::nullopt) << context;
  EXPECT_EQ(cmp.usage_mismatch, std::nullopt) << context;
  EXPECT_EQ(cmp.baseline.sim_end, cmp.equivalent.sim_end) << context;
}

TEST(EquivalenceTest, DidacticSelfTimedSource) {
  gen::DidacticConfig cfg;
  cfg.tokens = 500;
  expect_equivalent(gen::make_didactic(cfg), {}, "didactic self-timed");
}

TEST(EquivalenceTest, DidacticPeriodicSource) {
  gen::DidacticConfig cfg;
  cfg.tokens = 500;
  cfg.source_period = 10_us;
  expect_equivalent(gen::make_didactic(cfg), {}, "didactic periodic");
}

TEST(EquivalenceTest, DidacticFastPeriodicSourceBacklogs) {
  gen::DidacticConfig cfg;
  cfg.tokens = 500;
  cfg.source_period = Duration::ns(100);  // faster than the pipeline
  expect_equivalent(gen::make_didactic(cfg), {}, "didactic backlogged");
}

TEST(EquivalenceTest, DidacticLimitedConcurrencyP2) {
  gen::DidacticConfig cfg;
  cfg.tokens = 500;
  cfg.p2_limited_concurrency = true;
  expect_equivalent(gen::make_didactic(cfg), {}, "didactic P2 sequential");
}

TEST(EquivalenceTest, DidacticUnfoldedGraph) {
  gen::DidacticConfig cfg;
  cfg.tokens = 300;
  ExperimentOptions opts;
  opts.fold = false;  // raw per-statement graph must agree too
  expect_equivalent(gen::make_didactic(cfg), opts, "didactic raw graph");
}

TEST(EquivalenceTest, DidacticPaddedGraph) {
  gen::DidacticConfig cfg;
  cfg.tokens = 300;
  ExperimentOptions opts;
  opts.pad_nodes = 100;  // padding must not change any instant
  expect_equivalent(gen::make_didactic(cfg), opts, "didactic padded");
}

TEST(EquivalenceTest, Table1Chains) {
  for (std::size_t ex = 1; ex <= 4; ++ex) {
    model::ArchitectureDesc d = gen::make_table1_example(ex, 200);
    expect_equivalent(d, {}, ("chain example " + std::to_string(ex)).c_str());
  }
}

TEST(EquivalenceTest, PipelinesOfAllFig5Sizes) {
  for (std::size_t x : {6u, 10u, 20u, 30u}) {
    gen::PipelineConfig cfg;
    cfg.x_size = x;
    cfg.tokens = 200;
    expect_equivalent(gen::make_pipeline(cfg), {},
                      ("pipeline x=" + std::to_string(x)).c_str());
  }
}

TEST(EquivalenceTest, SharedProcessorPipeline) {
  gen::PipelineConfig cfg;
  cfg.x_size = 8;
  cfg.tokens = 200;
  cfg.shared_processor = true;
  expect_equivalent(gen::make_pipeline(cfg), {}, "shared-processor pipeline");
}

TEST(EquivalenceTest, PartialGroupAbstraction) {
  // Abstract only F3/F4; F1/F2 and the source remain simulated processes.
  gen::DidacticConfig cfg;
  cfg.tokens = 300;
  model::ArchitectureDesc d = gen::make_didactic(cfg);
  ExperimentOptions opts;
  opts.group.assign(d.functions().size(), false);
  opts.group[2] = opts.group[3] = true;
  expect_equivalent(d, opts, "partial group F3+F4");
}

TEST(EquivalenceTest, PartialGroupOtherHalf) {
  gen::DidacticConfig cfg;
  cfg.tokens = 300;
  model::ArchitectureDesc d = gen::make_didactic(cfg);
  ExperimentOptions opts;
  opts.group.assign(d.functions().size(), false);
  opts.group[0] = opts.group[1] = true;  // F1, F2 (all of P1)
  expect_equivalent(d, opts, "partial group F1+F2");
}

// A single-function group with a slow environment: output completions lag
// behind the next input offers, exercising deferred gated-input resolution
// and the actual-completion history feedback.
TEST(EquivalenceTest, SlowSinkBackPressureWithDeferredGating) {
  model::ArchitectureDesc d;
  const auto r = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("F", r);
  d.fn_read(f, in);
  d.fn_execute(f, model::linear_ops(100, 1));
  d.fn_write(f, out);
  d.add_source("s", in, 200,
               [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t k) {
                 model::TokenAttrs a;
                 a.size = static_cast<std::int64_t>((k * 7919) % 1000);
                 return a;
               });
  // Sink much slower than the function: sustained back-pressure.
  d.add_sink("k", out, [](std::uint64_t) { return 5_us; });
  d.validate();
  expect_equivalent(d, {}, "slow sink back-pressure");
}

TEST(EquivalenceTest, BurstySinkBackPressure) {
  // Two functions on one sequential processor, a sink that stalls on every
  // 10th token: exercises actual-completion feedback under bursts.
  model::ArchitectureDesc b;
  const auto r = b.add_resource("P", model::ResourcePolicy::kSequentialCyclic, 1e9);
  const auto in = b.add_rendezvous("in");
  const auto mid = b.add_rendezvous("mid");
  const auto out = b.add_rendezvous("out");
  const auto f1 = b.add_function("A", r);
  b.fn_read(f1, in);
  b.fn_execute(f1, model::linear_ops(200, 2));
  b.fn_write(f1, mid);
  const auto f2 = b.add_function("B", r);
  b.fn_read(f2, mid);
  b.fn_execute(f2, model::linear_ops(300, 1));
  b.fn_write(f2, out);
  b.add_source("s", in, 300, [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t k) {
                 model::TokenAttrs a;
                 a.size = static_cast<std::int64_t>((k * 131) % 500);
                 return a;
               });
  b.add_sink("k", out, [](std::uint64_t k) {
    return k % 10 == 0 ? 20_us : Duration::ps(0);
  });
  b.validate();
  expect_equivalent(b, {}, "bursty sink");
}

TEST(EquivalenceTest, FifoBoundariesThroughPartialGroup) {
  // source -> A --fifo--> B -> sink, abstracting only B: the fifo is an
  // input boundary (virtual reader); abstracting only A makes it an output
  // boundary (live write-completion feedback).
  model::ArchitectureDesc d;
  const auto r1 = d.add_resource("R1", model::ResourcePolicy::kConcurrent, 1e9);
  const auto r2 = d.add_resource("R2", model::ResourcePolicy::kConcurrent, 2e9);
  const auto in = d.add_rendezvous("in");
  const auto q = d.add_fifo("q", 2);
  const auto out = d.add_rendezvous("out");
  const auto fa = d.add_function("A", r1);
  d.fn_read(fa, in);
  d.fn_execute(fa, model::linear_ops(500, 1));
  d.fn_write(fa, q);
  const auto fb = d.add_function("B", r2);
  d.fn_read(fb, q);
  d.fn_execute(fb, model::linear_ops(900, 2));
  d.fn_write(fb, out);
  d.add_source("s", in, 250, [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t k) {
                 model::TokenAttrs a;
                 a.size = static_cast<std::int64_t>((k * 271) % 800);
                 return a;
               });
  d.add_sink("k", out);
  d.validate();

  ExperimentOptions only_b;
  only_b.group.assign(d.functions().size(), false);
  only_b.group[fb] = true;
  expect_equivalent(d, only_b, "fifo input boundary");

  ExperimentOptions only_a;
  only_a.group.assign(d.functions().size(), false);
  only_a.group[fa] = true;
  expect_equivalent(d, only_a, "fifo output boundary");

  expect_equivalent(d, {}, "fifo internal");
}

TEST(EquivalenceTest, EventCountShrinks) {
  gen::DidacticConfig cfg;
  cfg.tokens = 1000;
  ExperimentOptions opts;
  opts.repetitions = 1;
  const Comparison cmp = run_comparison(gen::make_didactic(cfg), opts);
  ASSERT_TRUE(cmp.accurate());
  // The whole point: fewer relation events and fewer kernel events.
  EXPECT_GT(cmp.event_ratio, 2.0);
  EXPECT_GT(cmp.kernel_event_ratio, 1.5);
  EXPECT_LT(cmp.equivalent.resumes, cmp.baseline.resumes);
  EXPECT_EQ(cmp.graph_paper_nodes, 10u);
}

TEST(EquivalenceTest, MultiInputGroupFromTwoSources) {
  model::ArchitectureDesc d;
  const auto r = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in0 = d.add_rendezvous("in0");
  const auto in1 = d.add_rendezvous("in1");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("J", r);
  d.fn_read(f, in0);
  d.fn_execute(f, model::linear_ops(100, 1));
  d.fn_read(f, in1);
  d.fn_execute(f, model::linear_ops(50, 2));
  d.fn_write(f, out);
  auto attrs0 = [](std::uint64_t k) {
    model::TokenAttrs a;
    a.size = static_cast<std::int64_t>((k * 17) % 300);
    return a;
  };
  auto attrs1 = [](std::uint64_t k) {
    model::TokenAttrs a;
    a.size = static_cast<std::int64_t>((k * 23) % 500);
    return a;
  };
  d.add_source("s0", in0, 200,
               [](std::uint64_t k) {
                 return TimePoint::origin() + Duration::ns(800) * static_cast<std::int64_t>(k);
               },
               attrs0);
  d.add_source("s1", in1, 200,
               [](std::uint64_t k) {
                 return TimePoint::origin() + Duration::ns(1300) * static_cast<std::int64_t>(k);
               },
               attrs1);
  d.add_sink("k", out);
  d.validate();
  expect_equivalent(d, {}, "two-source join");
}

// ---------------------------------------------------------------------------
// The randomized property sweep: architectures x workloads x environments.
// ---------------------------------------------------------------------------

class RandomEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEquivalenceTest, BaselineAndEquivalentAgree) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 60;
  model::ArchitectureDesc d = gen::make_random_architecture(GetParam(), cfg);
  expect_equivalent(d, {}, ("seed " + std::to_string(GetParam())).c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 41));

class RandomPartialGroupTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPartialGroupTest, AbstractingOneResourceAgrees) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 50;
  model::ArchitectureDesc d = gen::make_random_architecture(GetParam(), cfg);
  // Abstract the functions of the first resource that has any.
  std::vector<bool> group(d.functions().size(), false);
  bool any = false;
  for (model::ResourceId r = 0;
       r < static_cast<model::ResourceId>(d.resources().size()) && !any; ++r) {
    const auto& sched = d.schedule(r);
    if (sched.empty()) continue;
    for (auto f : sched) group[f] = true;
    any = true;
  }
  if (!any) GTEST_SKIP();
  ExperimentOptions opts;
  opts.group = group;
  expect_equivalent(d, opts, ("partial seed " + std::to_string(GetParam())).c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPartialGroupTest,
                         ::testing::Range<std::uint64_t>(100, 120));

// Multi-rate producers: r sources emit r tokens per consumer iteration
// through bounded FIFOs (gen::RandomArchConfig::multi_rate_producer_*).
// Exercises FIFO input boundaries written by sources and several reads per
// function body — instants must still be bit-identical.

class MultiRateEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiRateEquivalenceTest, BaselineAndEquivalentAgree) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 50;
  cfg.multi_rate_producer_probability = 1.0;
  model::ArchitectureDesc d = gen::make_random_architecture(GetParam(), cfg);
  expect_equivalent(d, {},
                    ("multi-rate seed " + std::to_string(GetParam())).c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiRateEquivalenceTest,
                         ::testing::Range<std::uint64_t>(500, 525));

class MultiRatePartialGroupTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiRatePartialGroupTest, AbstractingTheConcurrentResourceAgrees) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  cfg.multi_rate_producer_probability = 1.0;
  model::ArchitectureDesc d = gen::make_random_architecture(GetParam(), cfg);
  // Abstract the concurrent resource R0 — always home to the multi-rate
  // consumer, so its bundle FIFOs become input boundaries of the group.
  std::vector<bool> group(d.functions().size(), false);
  bool any = false;
  for (auto f : d.schedule(0)) {
    group[f] = true;
    any = true;
  }
  if (!any) GTEST_SKIP();
  ExperimentOptions opts;
  opts.group = group;
  expect_equivalent(
      d, opts,
      ("multi-rate partial seed " + std::to_string(GetParam())).c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiRatePartialGroupTest,
                         ::testing::Range<std::uint64_t>(600, 615));

}  // namespace
}  // namespace maxev::core
