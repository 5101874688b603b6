#include <gtest/gtest.h>

#include "core/equivalent_model.hpp"
#include "core/metrics.hpp"
#include "gen/didactic.hpp"
#include "study/experiment.hpp"
#include "util/error.hpp"

namespace maxev::core {
namespace {

using namespace maxev::literals;
using study::ExperimentOptions;
using study::run_comparison;
using study::measure_baseline;

TEST(EquivalentModelTest, InternalChannelsAreNotConstructed) {
  gen::DidacticConfig cfg;
  cfg.tokens = 10;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  EquivalentModel eq(d, {});
  // M1 (input) and M6 (output) exist; M2..M5 are internal and saved.
  EXPECT_NE(eq.runtime().channel(0), nullptr);  // M1
  EXPECT_EQ(eq.runtime().channel(1), nullptr);  // M2
  EXPECT_EQ(eq.runtime().channel(2), nullptr);  // M3
  EXPECT_EQ(eq.runtime().channel(3), nullptr);  // M4
  EXPECT_EQ(eq.runtime().channel(4), nullptr);  // M5
  EXPECT_NE(eq.runtime().channel(5), nullptr);  // M6
}

TEST(EquivalentModelTest, InternalInstantsStillRecorded) {
  gen::DidacticConfig cfg;
  cfg.tokens = 25;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  EquivalentModel eq(d, {});
  ASSERT_TRUE(eq.run().completed);
  for (const char* ch : {"M1", "M2", "M3", "M4", "M5", "M6"}) {
    const trace::InstantSeries* s = eq.instants().find(ch);
    ASSERT_NE(s, nullptr) << ch;
    EXPECT_EQ(s->size(), 25u) << ch;
    EXPECT_TRUE(s->is_monotone()) << ch;
  }
}

TEST(EquivalentModelTest, ObserveOffRecordsNothing) {
  gen::DidacticConfig cfg;
  cfg.tokens = 10;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  EquivalentModel::Options opts;
  opts.observe = false;
  EquivalentModel eq(d, {}, opts);
  ASSERT_TRUE(eq.run().completed);
  EXPECT_EQ(eq.instants().total_instants(), 0u);
  EXPECT_EQ(eq.usage().all().size(), 0u);
}

TEST(EquivalentModelTest, SimEndMatchesBaselineExactly) {
  gen::DidacticConfig cfg;
  cfg.tokens = 100;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  model::ModelRuntime baseline(d);
  ASSERT_TRUE(baseline.run().completed);
  EquivalentModel eq(d, {});
  ASSERT_TRUE(eq.run().completed);
  EXPECT_EQ(baseline.end_time(), eq.end_time());
}

TEST(EquivalentModelTest, EngineCostCountersPopulated) {
  gen::DidacticConfig cfg;
  cfg.tokens = 50;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  EquivalentModel eq(d, {});
  ASSERT_TRUE(eq.run().completed);
  // 6 computed instants per iteration (u is external).
  EXPECT_EQ(eq.engine().instances_computed(), 50u * 6u);
  EXPECT_GE(eq.engine().arc_terms_evaluated(), 50u * 9u);
}

TEST(EquivalentModelTest, GroupSplittingSequentialResourceRejected) {
  const model::ArchitectureDesc d = gen::make_didactic({});
  std::vector<bool> group(d.functions().size(), false);
  group[1] = true;  // F2 alone: splits P1
  EXPECT_THROW(EquivalentModel(d, group), DescriptionError);
}

TEST(EquivalentModelTest, TimeHorizonStopsEarly) {
  gen::DidacticConfig cfg;
  cfg.tokens = 1000;
  cfg.source_period = 1_us;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  EquivalentModel eq(d, {});
  const auto outcome = eq.run(TimePoint::origin() + 10_us);
  EXPECT_FALSE(outcome.idle);
  EXPECT_FALSE(outcome.completed);
  EXPECT_LE(eq.end_time(), TimePoint::origin() + 10_us);
}

TEST(ExperimentTest, MetricsAreConsistent) {
  gen::DidacticConfig cfg;
  cfg.tokens = 200;
  ExperimentOptions opts;
  opts.repetitions = 2;
  const Comparison cmp = run_comparison(gen::make_didactic(cfg), opts);
  EXPECT_TRUE(cmp.accurate());
  EXPECT_GT(cmp.baseline.wall_seconds, 0.0);
  EXPECT_GT(cmp.equivalent.wall_seconds, 0.0);
  EXPECT_NEAR(cmp.event_ratio,
              static_cast<double>(cmp.baseline.relation_events) /
                  static_cast<double>(cmp.equivalent.relation_events),
              1e-9);
  EXPECT_EQ(cmp.baseline.relation_events, 200u * 6u);
  EXPECT_EQ(cmp.equivalent.relation_events, 200u * 2u);
  EXPECT_FALSE(cmp.to_string().empty());
  EXPECT_FALSE(cmp.baseline.to_string().empty());
}

TEST(ExperimentTest, BadRepetitionsRejected) {
  ExperimentOptions opts;
  opts.repetitions = 0;
  EXPECT_THROW(run_comparison(gen::make_didactic({}), opts), Error);
}

TEST(ExperimentTest, ObserveOffSkipsComparison) {
  gen::DidacticConfig cfg;
  cfg.tokens = 50;
  ExperimentOptions opts;
  opts.repetitions = 1;
  opts.observe = false;
  const Comparison cmp = run_comparison(gen::make_didactic(cfg), opts);
  EXPECT_TRUE(cmp.accurate());  // vacuous: no traces recorded or compared
  EXPECT_EQ(cmp.instant_mismatch, std::nullopt);
}

TEST(ExperimentTest, SyntheticEventOverheadSlowsBothModels) {
  gen::DidacticConfig cfg;
  cfg.tokens = 200;
  const model::ArchitectureDesc d = gen::make_didactic(cfg);
  ExperimentOptions fast;
  // The median of three runs per model: one slow run on a loaded host
  // must not decide the wall-clock comparisons below.
  fast.repetitions = 3;
  fast.observe = false;
  ExperimentOptions heavy = fast;
  // Wide margin: the spin-wait must dominate scheduler noise under a loaded
  // parallel ctest run, or the wall-clock comparisons below flake.
  heavy.event_overhead_ns = 5000.0;
  const Comparison a = run_comparison(d, fast);
  const Comparison b = run_comparison(d, heavy);
  EXPECT_GT(b.baseline.wall_seconds, a.baseline.wall_seconds);
  // With dominant event cost the speed-up approaches the event ratio.
  EXPECT_GT(b.speedup, 2.0);
}

TEST(ExperimentTest, MeasureBaselineAlone) {
  gen::DidacticConfig cfg;
  cfg.tokens = 100;
  const RunMetrics m = measure_baseline(gen::make_didactic(cfg), 2);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.relation_events, 600u);
  EXPECT_GT(m.kernel_events, 0u);
}

}  // namespace
}  // namespace maxev::core
