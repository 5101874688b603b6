#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "merged_reference.hpp"
#include "model/baseline.hpp"
#include "study/study.hpp"
#include "tdg/builder.hpp"
#include "tdg/engine.hpp"
#include "util/error.hpp"

/// The batched multi-instance path (docs/DESIGN.md §9): composed scenarios
/// whose instances share one description run as the lanes of one
/// tdg::Engine — one compiled program, one shared frame arena, iteration
/// fronts drained at timestep boundaries. The property under test is the
/// paper's accuracy claim lifted to the batch: every instance's traces stay
/// bit-identical to its solo run, to the isolated merged-graph path and to
/// the event-driven baseline, across random architectures, multi-rate
/// producer bundles, and the LTE case study.

namespace maxev::study {
namespace {

using namespace maxev::literals;

/// N same-description instances composed into one scenario. Shares ONE
/// DescPtr, so the result is batch-eligible.
Scenario compose_clones(const model::DescPtr& desc, std::size_t n,
                        std::vector<bool> group = {}) {
  std::vector<Scenario> parts;
  for (std::size_t i = 0; i < n; ++i) {
    Scenario s("inst" + std::to_string(i), desc);
    if (!group.empty()) s.with_group(group);
    parts.push_back(std::move(s));
  }
  return compose("clones", parts);
}

/// True when the whole composition is ONE equal-structure sub-batch.
bool one_batch(const Scenario& s) {
  return s.batch_groups().size() == 1 &&
         s.batch_groups()[0].members.size() == s.instances().size();
}

/// The homogeneous sub-batch layout over \p base: member i occupies block
/// [i * n, (i + 1) * n) of every merged table.
core::EquivalentModel::GroupSpec clone_spec(
    const model::DescPtr& base, const std::vector<std::string>& names) {
  core::EquivalentModel::GroupSpec spec;
  spec.base = base;
  spec.names = names;
  for (std::size_t i = 0; i < names.size(); ++i)
    spec.spans.push_back({i * base->functions().size(),
                          i * base->channels().size(),
                          i * base->resources().size(),
                          i * base->sources().size(),
                          i * base->sinks().size()});
  return spec;
}

/// Every instance of the composed run must match the solo run of the
/// shared description bit for bit (instants in order; usage as sorted
/// multisets, the suite-wide usage comparison convention), and the whole
/// run must match the composed baseline.
void expect_clones_match_solo(const Scenario& composed,
                              const model::DescPtr& desc,
                              std::vector<bool> group = {},
                              const char* context = "") {
  RunConfig rc;
  auto whole = Backend::equivalent().instantiate(composed, rc);
  ASSERT_TRUE(whole->run().completed) << context;
  expect_matches_baseline(composed, *whole, context);

  Scenario solo_scenario("solo", desc);
  if (!group.empty()) solo_scenario.with_group(std::move(group));
  auto solo = Backend::equivalent().instantiate(solo_scenario);
  ASSERT_TRUE(solo->run().completed) << context;

  trace::UsageTraceSet solo_usage = solo->usage();
  solo_usage.sort_all();
  for (const Instance& inst : composed.instances()) {
    const trace::InstantTraceSet extracted =
        instance_instants(whole->instants(), inst.name);
    EXPECT_EQ(trace::compare_instants(solo->instants(), extracted),
              std::nullopt)
        << context << " " << inst.name;
    EXPECT_EQ(trace::compare_instants(extracted, solo->instants()),
              std::nullopt)
        << context << " " << inst.name;

    trace::UsageTraceSet extracted_usage =
        instance_usage(whole->usage(), inst.name);
    extracted_usage.sort_all();
    EXPECT_EQ(trace::compare_usage(solo_usage, extracted_usage), std::nullopt)
        << context << " " << inst.name;
  }
}

/// The batched (drained by \p threads workers) and the isolated
/// (merged-graph reference) composed runs must produce identical full
/// trace sets and identical completion times, and the batched run must
/// match the composed baseline.
void expect_batched_matches_isolated(const Scenario& composed,
                                     const char* context = "",
                                     int threads = 1) {
  RunConfig batched_rc;
  batched_rc.threads = threads;
  auto batched = Backend::equivalent().instantiate(composed, batched_rc);
  auto isolated = merged_reference(composed);
  ASSERT_TRUE(batched->run().completed) << context;
  ASSERT_TRUE(isolated->run().completed) << context;
  expect_matches_baseline(composed, *batched, context);

  EXPECT_EQ(trace::compare_instants(isolated->instants(), batched->instants()),
            std::nullopt)
      << context;
  EXPECT_EQ(trace::compare_instants(batched->instants(), isolated->instants()),
            std::nullopt)
      << context;
  trace::UsageTraceSet a = isolated->usage();
  trace::UsageTraceSet b = batched->usage();
  a.sort_all();
  b.sort_all();
  EXPECT_EQ(trace::compare_usage(a, b), std::nullopt) << context;
  EXPECT_EQ(batched->end_time(), isolated->end_time()) << context;
  EXPECT_EQ(batched->relation_events(), isolated->relation_events()) << context;
  // Same computation, counted per (node, iteration, instance) either way.
  EXPECT_EQ(batched->instances_computed(), isolated->instances_computed())
      << context;
}

// ------------------------------------------------------------ Eligibility

TEST(BatchEligibilityTest, SharedDescriptionIsBatchable) {
  const auto desc = model::share(gen::make_didactic({}));
  const Scenario c = compose_clones(desc, 3);
  ASSERT_TRUE(one_batch(c));
  EXPECT_EQ(c.batch_groups()[0].base, desc);
}

TEST(BatchEligibilityTest, DistinctDescriptionsAreNot) {
  std::vector<Scenario> parts;
  parts.emplace_back("a", gen::make_didactic({}));
  parts.emplace_back("b", gen::make_didactic({}));  // equal but not shared
  EXPECT_FALSE(one_batch(compose("pair", parts)));
}

TEST(BatchEligibilityTest, DisagreeingGroupsAreNot) {
  const auto desc = model::share(gen::make_didactic({}));
  std::vector<Scenario> parts;
  parts.emplace_back("a", desc);
  Scenario b("b", desc);
  std::vector<bool> group(desc->functions().size(), false);
  group[0] = group[1] = true;
  b.with_group(group);
  parts.push_back(b);
  EXPECT_FALSE(one_batch(compose("mixed", parts)));

  // The same restriction on every instance keeps the batch eligible.
  std::vector<Scenario> uniform;
  uniform.push_back(Scenario("a", desc).with_group(group));
  uniform.push_back(Scenario("b", desc).with_group(group));
  EXPECT_TRUE(one_batch(compose("uniform", uniform)));
}

TEST(BatchEligibilityTest, PlainScenarioIsNot) {
  EXPECT_FALSE(one_batch(Scenario("solo", gen::make_didactic({}))));
}

// A batched model compiles the base program once: the reported graph shape
// is the per-instance graph, not the N-fold merged one.
TEST(BatchEligibilityTest, BatchedModelCompilesTheBaseProgram) {
  const auto desc = model::share(gen::make_didactic({}));
  const Scenario composed = compose_clones(desc, 4);

  auto solo = Backend::equivalent().instantiate(Scenario("solo", desc));
  auto batched = Backend::equivalent().instantiate(composed);
  auto isolated = merged_reference(composed);

  EXPECT_EQ(batched->graph_shape().nodes, solo->graph_shape().nodes);
  EXPECT_EQ(isolated->compiled_shape().nodes, 4 * solo->graph_shape().nodes);
}

// ------------------------------------------------- Bit-identical instants

TEST(BatchIdentityTest, DidacticClonesMatchSolo) {
  gen::DidacticConfig cfg;
  cfg.tokens = 60;
  const auto desc = model::share(gen::make_didactic(cfg));
  for (std::size_t n : {2u, 3u, 8u}) {
    const Scenario composed = compose_clones(desc, n);
    ASSERT_TRUE(one_batch(composed));
    expect_clones_match_solo(composed, desc, {},
                             ("didactic x" + std::to_string(n)).c_str());
  }
}

TEST(BatchIdentityTest, DidacticClonesMatchIsolatedAndBaseline) {
  gen::DidacticConfig cfg;
  cfg.tokens = 40;
  const auto desc = model::share(gen::make_didactic(cfg));
  const Scenario composed = compose_clones(desc, 5);
  expect_batched_matches_isolated(composed, "didactic x5");

  // And the composed baseline agrees with the batched equivalent model —
  // the paper's accuracy criterion on the whole composed system.
  auto base = Backend::baseline().instantiate(composed);
  auto eq = Backend::equivalent().instantiate(composed);
  ASSERT_TRUE(base->run().completed);
  ASSERT_TRUE(eq->run().completed);
  EXPECT_EQ(trace::compare_instants(base->instants(), eq->instants()),
            std::nullopt);
}

TEST(BatchIdentityTest, PartialGroupClonesMatchSolo) {
  gen::DidacticConfig cfg;
  cfg.tokens = 40;
  const auto desc = model::share(gen::make_didactic(cfg));
  std::vector<bool> group(desc->functions().size(), false);
  group[2] = group[3] = true;  // abstract F3+F4 only; F1/F2 stay simulated
  const Scenario composed = compose_clones(desc, 3, group);
  ASSERT_TRUE(one_batch(composed));
  expect_clones_match_solo(composed, desc, group, "partial group x3");
  expect_batched_matches_isolated(composed, "partial group x3");
}

// The property sweep: random feed-forward architectures with FIFOs, slow
// sinks, periodic sources, second sources and multi-rate producer bundles.
TEST(BatchIdentityTest, RandomArchSweep) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 30;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto desc =
        model::share(gen::make_random_architecture(seed, cfg));
    const Scenario composed = compose_clones(desc, 4);
    ASSERT_TRUE(one_batch(composed));
    const std::string ctx = "random seed " + std::to_string(seed);
    expect_clones_match_solo(composed, desc, {}, ctx.c_str());
    expect_batched_matches_isolated(composed, ctx.c_str());
  }
}

// The acceptance workload: >= 4 LTE receivers (8 here) sharing one
// description, every instance bit-identical to the solo receiver.
TEST(BatchIdentityTest, EightLteReceiversMatchSolo) {
  lte::ReceiverConfig cfg;
  cfg.symbols = 3 * lte::kSymbolsPerSubframe;
  cfg.seed = 77;
  const auto desc = model::share(lte::make_receiver(cfg));
  const Scenario composed = compose_clones(desc, 8);
  ASSERT_TRUE(one_batch(composed));
  expect_clones_match_solo(composed, desc, {}, "lte x8");
  expect_batched_matches_isolated(composed, "lte x8");
}

TEST(BatchIdentityTest, DeterministicAcrossRuns) {
  gen::DidacticConfig cfg;
  cfg.tokens = 50;
  const auto desc = model::share(gen::make_didactic(cfg));
  const Scenario composed = compose_clones(desc, 4);
  auto r1 = Backend::equivalent().instantiate(composed);
  auto r2 = Backend::equivalent().instantiate(composed);
  ASSERT_TRUE(r1->run().completed);
  ASSERT_TRUE(r2->run().completed);
  EXPECT_EQ(trace::compare_instants(r1->instants(), r2->instants()),
            std::nullopt);
  EXPECT_EQ(r1->kernel_stats().events_scheduled,
            r2->kernel_stats().events_scheduled);
  EXPECT_EQ(r1->end_time(), r2->end_time());
}

TEST(BatchIdentityTest, ObserveOffRecordsNothing) {
  const auto desc = model::share(gen::make_didactic({}));
  const Scenario composed = compose_clones(desc, 3);
  RunConfig rc;
  rc.observe = false;
  auto m = Backend::equivalent().instantiate(composed, rc);
  ASSERT_TRUE(m->run().completed);
  EXPECT_EQ(m->instants().total_instants(), 0u);
  EXPECT_EQ(m->usage().all().size(), 0u);
}

TEST(BatchIdentityTest, HorizonCutAndResume) {
  gen::DidacticConfig cfg;
  cfg.tokens = 200;
  const auto desc = model::share(gen::make_didactic(cfg));
  const Scenario composed = compose_clones(desc, 3);
  auto m = Backend::equivalent().instantiate(composed);
  const Outcome cut = m->run(TimePoint::origin() + 50_us);
  EXPECT_FALSE(cut.completed);
  EXPECT_TRUE(m->run().completed);  // same resume contract as every backend
}

// ---------------------------------------------------- Engine front widths

// Identically-configured instances move in lock step: fronts collect the
// whole batch, so computed / fronts approaches the batch width.
TEST(BatchEngineTest, LockSteppedClonesFormWideFronts) {
  gen::DidacticConfig cfg;
  cfg.tokens = 50;
  const auto base = model::share(gen::make_didactic(cfg));
  std::vector<Scenario> parts;
  for (int i = 0; i < 8; ++i)
    parts.emplace_back("i" + std::to_string(i), base);
  const Scenario composed = compose("c8", parts);

  std::vector<std::string> names;
  for (const Instance& inst : composed.instances()) names.push_back(inst.name);
  core::EquivalentModel m(composed.desc_ptr(), {}, {},
                          {clone_spec(base, names)});
  ASSERT_TRUE(m.run().completed);
  ASSERT_GT(m.engine(0).fronts_drained(), 0u);
  const double width =
      static_cast<double>(m.engine(0).instances_computed()) /
      static_cast<double>(m.engine(0).fronts_drained());
  EXPECT_GT(width, 4.0);  // near 8 in practice; > 4 guards the mechanism
  EXPECT_EQ(m.engine(0).width(), 8u);
}

// ------------------------------------------- Heterogeneous sub-batches

/// Per-instance traces of a mixed composition must match each instance's
/// solo run of ITS OWN description bit for bit (docs/DESIGN.md §10).
void expect_instances_match_their_solos(
    const Scenario& composed,
    const std::vector<model::DescPtr>& descs_by_instance,
    const char* context = "") {
  RunConfig rc;
  auto whole = Backend::equivalent().instantiate(composed, rc);
  ASSERT_TRUE(whole->run().completed) << context;

  for (std::size_t i = 0; i < composed.instances().size(); ++i) {
    const Instance& inst = composed.instances()[i];
    auto solo =
        Backend::equivalent().instantiate(Scenario("solo", descs_by_instance[i]));
    ASSERT_TRUE(solo->run().completed) << context << " " << inst.name;

    const trace::InstantTraceSet extracted =
        instance_instants(whole->instants(), inst.name);
    EXPECT_EQ(trace::compare_instants(solo->instants(), extracted),
              std::nullopt)
        << context << " " << inst.name;
    EXPECT_EQ(trace::compare_instants(extracted, solo->instants()),
              std::nullopt)
        << context << " " << inst.name;

    trace::UsageTraceSet solo_usage = solo->usage();
    solo_usage.sort_all();
    trace::UsageTraceSet extracted_usage =
        instance_usage(whole->usage(), inst.name);
    extracted_usage.sort_all();
    EXPECT_EQ(trace::compare_usage(solo_usage, extracted_usage), std::nullopt)
        << context << " " << inst.name;
  }
}

TEST(HeterogeneousBatchTest, MixedCompositionFormsSubBatches) {
  gen::DidacticConfig ca;
  ca.tokens = 30;
  gen::DidacticConfig cb;
  cb.tokens = 45;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  const auto c = model::share(gen::make_didactic({}));

  // Interleaved on purpose: sub-batch members must not need contiguous
  // merged-table blocks (per-instance spans, not N-fold strides).
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("b0", b);
  parts.emplace_back("a1", a);
  parts.emplace_back("b1", b);
  parts.emplace_back("c0", c);  // singleton: isolated remainder
  parts.emplace_back("a2", a);
  const Scenario mixed = compose("mixed", parts);

  EXPECT_FALSE(one_batch(mixed));  // not ONE equal-structure batch
  EXPECT_FALSE(mixed.batch_groups().empty());
  ASSERT_EQ(mixed.batch_groups().size(), 2u);
  EXPECT_EQ(mixed.batch_groups()[0].base, a);
  EXPECT_EQ(mixed.batch_groups()[0].members,
            (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_EQ(mixed.batch_groups()[1].base, b);
  EXPECT_EQ(mixed.batch_groups()[1].members, (std::vector<std::size_t>{1, 3}));
}

TEST(HeterogeneousBatchTest, EmptyAndExplicitAllTrueGroupsShareASubBatch) {
  // "Abstract everything" can be spelled as an empty group or as explicit
  // all-true flags; the sub-batch key normalizes, so both spellings of the
  // same request batch together.
  const auto desc = model::share(gen::make_didactic({}));
  std::vector<Scenario> parts;
  parts.emplace_back("a", desc);  // empty group
  Scenario b("b", desc);
  b.with_group(std::vector<bool>(desc->functions().size(), true));
  parts.push_back(std::move(b));
  const Scenario c = compose("norm", parts);
  ASSERT_EQ(c.batch_groups().size(), 1u);
  EXPECT_EQ(c.batch_groups()[0].members.size(), 2u);
  EXPECT_TRUE(one_batch(c));
}

TEST(HeterogeneousBatchTest, EqualButDistinctDescriptionsStaySeparate) {
  // Structurally equal, but distinct objects: the opaque workloads cannot
  // be proven identical, so no sub-batch forms (docs/DESIGN.md §10).
  const auto a = model::share(gen::make_didactic({}));
  const auto b = model::share(gen::make_didactic({}));
  ASSERT_TRUE(model::structurally_equal(*a, *b));
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("b0", b);
  const Scenario pair = compose("pair", parts);
  EXPECT_TRUE(pair.batch_groups().empty());
  // The zero-group backend run still matches the merged-graph reference.
  expect_batched_matches_isolated(pair, "equal-but-distinct pair");
}

TEST(HeterogeneousBatchTest, MixedDidacticMatchesSolosAndIsolated) {
  gen::DidacticConfig ca;
  ca.tokens = 40;
  gen::DidacticConfig cb;
  cb.tokens = 25;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));

  std::vector<Scenario> parts;
  std::vector<model::DescPtr> descs;
  for (const char* n : {"a0", "a1", "a2"}) {
    parts.emplace_back(n, a);
    descs.push_back(a);
  }
  for (const char* n : {"b0", "b1"}) {
    parts.emplace_back(n, b);
    descs.push_back(b);
  }
  const Scenario mixed = compose("mixed32", parts);
  ASSERT_EQ(mixed.batch_groups().size(), 2u);

  expect_instances_match_their_solos(mixed, descs, "mixed didactic 3+2");
  expect_batched_matches_isolated(mixed, "mixed didactic 3+2");
}

TEST(HeterogeneousBatchTest, SubBatchesPlusRemainderMatchIsolated) {
  // Two sub-batches AND a genuine remainder (a singleton, which runs on
  // the merged width-1 engine) in one kernel.
  gen::DidacticConfig ca;
  ca.tokens = 35;
  gen::DidacticConfig cb;
  cb.tokens = 20;
  gen::DidacticConfig cc;
  cc.tokens = 15;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  const auto c = model::share(gen::make_didactic(cc));

  std::vector<Scenario> parts;
  std::vector<model::DescPtr> descs;
  parts.emplace_back("a0", a);
  descs.push_back(a);
  parts.emplace_back("c0", c);
  descs.push_back(c);
  parts.emplace_back("b0", b);
  descs.push_back(b);
  parts.emplace_back("a1", a);
  descs.push_back(a);
  parts.emplace_back("b1", b);
  descs.push_back(b);
  const Scenario mixed = compose("mixed221", parts);
  ASSERT_EQ(mixed.batch_groups().size(), 2u);

  expect_instances_match_their_solos(mixed, descs, "2+2+1 remainder");
  expect_batched_matches_isolated(mixed, "2+2+1 remainder");
}

TEST(HeterogeneousBatchTest, RandomArchPairsMatchSolos) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 25;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto a =
        model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    std::vector<Scenario> parts;
    std::vector<model::DescPtr> descs;
    parts.emplace_back("a0", a);
    descs.push_back(a);
    parts.emplace_back("b0", b);
    descs.push_back(b);
    parts.emplace_back("a1", a);
    descs.push_back(a);
    parts.emplace_back("b1", b);
    descs.push_back(b);
    const Scenario mixed = compose("rmix", parts);
    const std::string ctx = "random pair seed " + std::to_string(seed);
    expect_instances_match_their_solos(mixed, descs, ctx.c_str());
    expect_batched_matches_isolated(mixed, ctx.c_str());
  }
}

// The acceptance workload: 4+4 LTE receivers of two carrier variants
// (different parameters, hence different workloads) in one kernel, every
// equal-structure quad on its own shared program.
TEST(HeterogeneousBatchTest, FourPlusFourLteVariantsMatchSolos) {
  lte::ReceiverConfig c1;
  c1.symbols = 2 * lte::kSymbolsPerSubframe;
  c1.seed = 7;
  lte::ReceiverConfig c2;
  c2.symbols = 3 * lte::kSymbolsPerSubframe;
  c2.seed = 8;
  c2.dsp_ops_per_second = 9e9;  // a differently-sized platform
  const auto rx1 = model::share(lte::make_receiver(c1));
  const auto rx2 = model::share(lte::make_receiver(c2));

  std::vector<Scenario> parts;
  std::vector<model::DescPtr> descs;
  for (int i = 0; i < 4; ++i) {
    parts.emplace_back("cc0rx" + std::to_string(i), rx1);
    descs.push_back(rx1);
    parts.emplace_back("cc1rx" + std::to_string(i), rx2);
    descs.push_back(rx2);
  }
  const Scenario mixed = compose("ca44", parts);
  ASSERT_FALSE(one_batch(mixed));
  ASSERT_EQ(mixed.batch_groups().size(), 2u);
  ASSERT_EQ(mixed.batch_groups()[0].members.size(), 4u);
  ASSERT_EQ(mixed.batch_groups()[1].members.size(), 4u);

  expect_instances_match_their_solos(mixed, descs, "lte 4+4");
  expect_batched_matches_isolated(mixed, "lte 4+4");
}

TEST(HeterogeneousBatchTest, MixedDeterministicAcrossRuns) {
  gen::DidacticConfig ca;
  ca.tokens = 40;
  gen::DidacticConfig cb;
  cb.tokens = 30;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("a1", a);
  parts.emplace_back("b0", b);
  parts.emplace_back("b1", b);
  const Scenario mixed = compose("dmix", parts);

  auto r1 = Backend::equivalent().instantiate(mixed);
  auto r2 = Backend::equivalent().instantiate(mixed);
  ASSERT_TRUE(r1->run().completed);
  ASSERT_TRUE(r2->run().completed);
  EXPECT_EQ(trace::compare_instants(r1->instants(), r2->instants()),
            std::nullopt);
  EXPECT_EQ(r1->kernel_stats().events_scheduled,
            r2->kernel_stats().events_scheduled);
  EXPECT_EQ(r1->kernel_stats().inline_resumes,
            r2->kernel_stats().inline_resumes);
  EXPECT_EQ(r1->end_time(), r2->end_time());
}

TEST(HeterogeneousBatchTest, MixedHorizonCutAndResume) {
  gen::DidacticConfig ca;
  ca.tokens = 150;
  gen::DidacticConfig cb;
  cb.tokens = 200;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("a1", a);
  parts.emplace_back("b0", b);
  parts.emplace_back("b1", b);
  const Scenario mixed = compose("hmix", parts);
  auto m = Backend::equivalent().instantiate(mixed);
  const Outcome cut = m->run(TimePoint::origin() + 50_us);
  EXPECT_FALSE(cut.completed);
  EXPECT_TRUE(m->run().completed);  // same resume contract as every backend

  // The resumed run's traces still match a one-shot run of the same
  // scenario (the cut is invisible in the observables).
  auto whole = Backend::equivalent().instantiate(mixed);
  ASSERT_TRUE(whole->run().completed);
  EXPECT_EQ(trace::compare_instants(whole->instants(), m->instants()),
            std::nullopt);
}

TEST(HeterogeneousBatchTest, PerGroupPadRunsEqualWorkAcrossLegs) {
  // pad_nodes is per instance on every leg: the grouped path pads each
  // sub-batch base (evaluated per member) and the remainder per leftover
  // instance, the isolated path pads the merged graph N-fold. Padding is
  // semantically inert, so traces agree; this pins the accounting wiring.
  gen::DidacticConfig ca;
  ca.tokens = 25;
  gen::DidacticConfig cb;
  cb.tokens = 15;
  gen::DidacticConfig cc;
  cc.tokens = 10;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  const auto c = model::share(gen::make_didactic(cc));
  constexpr std::size_t kPad = 24;
  std::vector<Scenario> parts;
  for (const char* n : {"a0", "a1"})
    parts.push_back(Scenario(n, a).with_pad_nodes(kPad));
  for (const char* n : {"b0", "b1"})
    parts.push_back(Scenario(n, b).with_pad_nodes(kPad));
  parts.push_back(Scenario("c0", c).with_pad_nodes(kPad));  // remainder
  const Scenario mixed = compose("pmix", parts);
  ASSERT_EQ(mixed.batch_groups().size(), 2u);

  RunConfig batched_rc;
  auto batched = Backend::equivalent().instantiate(mixed, batched_rc);
  auto isolated = merged_reference(mixed);
  ASSERT_TRUE(batched->run().completed);
  ASSERT_TRUE(isolated->run().completed);
  EXPECT_EQ(trace::compare_instants(isolated->instants(), batched->instants()),
            std::nullopt);
  EXPECT_EQ(batched->end_time(), isolated->end_time());

  // Node accounting: the didactic graph has one per-instance shape S
  // whatever the token count, so the grouped legs compile
  // (S + pad) + (S + pad) + (S + pad)   [two group bases + the remainder]
  // while the isolated leg compiles 5 instances and pads 5-fold.
  auto solo = Backend::equivalent().instantiate(Scenario("solo", a));
  const std::size_t s_nodes = solo->graph_shape().nodes;
  EXPECT_EQ(batched->graph_shape().nodes, 3 * (s_nodes + kPad));
  EXPECT_EQ(isolated->compiled_shape().nodes, 5 * s_nodes + 5 * kPad);
}

// The inline-resume fast path: gated inputs whose completion is already
// computable are answered synchronously at the offer (Engine::resolve_now),
// so the batched run schedules no more kernel events than
// the merged path, which always answers inline — the per-token queued-
// resume gap of the deferred engine is closed.
TEST(HeterogeneousBatchTest, InlineResumeClosesTheKernelEventGap) {
  gen::DidacticConfig cfg;
  cfg.tokens = 60;
  const auto desc = model::share(gen::make_didactic(cfg));
  const Scenario composed = compose_clones(desc, 4);
  RunConfig batched_rc;
  auto batched = Backend::equivalent().instantiate(composed, batched_rc);
  auto isolated = merged_reference(composed);
  ASSERT_TRUE(batched->run().completed);
  ASSERT_TRUE(isolated->run().completed);
  EXPECT_LE(batched->kernel_stats().events_scheduled,
            isolated->kernel_stats().events_scheduled);
}

// ------------------------------------------------- Vector drain widths

// Full uniform fronts drain as one mp::Scalar loop over the contiguous lane
// (docs/DESIGN.md §14). The widths walk the lane loop (2, 4, 5, 7, 8) and
// width 1, whose every front is full; every width must reproduce the solo
// run, the merged graph and the baseline.
TEST(VectorDrainTest, LaneWidthInvariance) {
  gen::DidacticConfig cfg;
  cfg.tokens = 40;
  const auto desc = model::share(gen::make_didactic(cfg));
  for (const std::size_t n : {1u, 2u, 4u, 5u, 7u, 8u}) {
    const Scenario composed = compose_clones(desc, n);
    const std::string ctx = "didactic width " + std::to_string(n);
    expect_clones_match_solo(composed, desc, {}, ctx.c_str());
    expect_batched_matches_isolated(composed, ctx.c_str());
  }
}

TEST(VectorDrainTest, RandomArchWidths) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 30;
  cfg.multi_rate_producer_probability = 0.4;
  for (const std::uint64_t seed : {3ull, 11ull, 19ull}) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    for (const std::size_t n : {2u, 5u, 8u}) {
      const Scenario composed = compose_clones(desc, n);
      const std::string ctx =
          "seed " + std::to_string(seed) + " width " + std::to_string(n);
      expect_clones_match_solo(composed, desc, {}, ctx.c_str());
      expect_batched_matches_isolated(composed, ctx.c_str());
    }
  }
}

TEST(VectorDrainTest, ComposesWithGroupThreads) {
  // Stacked levers: two equal-structure sub-batches drained by worker
  // threads, each sub-batch's uniform fronts going through the lane loop.
  // Traces must stay those of the merged graph.
  gen::DidacticConfig ca;
  ca.tokens = 40;
  gen::DidacticConfig cb;
  cb.tokens = 30;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  std::vector<Scenario> parts;
  for (int i = 0; i < 4; ++i) {
    parts.emplace_back("a" + std::to_string(i), a);
    parts.emplace_back("b" + std::to_string(i), b);
  }
  const Scenario mixed = compose("ab44", parts);
  ASSERT_EQ(mixed.batch_groups().size(), 2u);
  for (const int threads : {2, 8}) {
    const std::string ctx = "ab44 threads " + std::to_string(threads);
    expect_batched_matches_isolated(mixed, ctx.c_str(), threads);
  }
}

// A full uniform front computes every lane from its own feeds (clone
// compositions feed identical lanes, so only a direct engine shows a lane
// mix-up). One lane's ⊗ overflowing throws the per-lane path's
// OverflowError and publishes no lane of the front: no instance may
// observe a value its batch siblings don't have.
TEST(BatchEngineTest, UniformFrontOverflowPublishesNoLane) {
  tdg::GraphBuilder b;
  b.input("u").instant("a").instant("b");
  b.arc("u", "a").fixed(Duration::ns(1));
  b.arc("a", "b").fixed(Duration::ns(2));
  tdg::Graph g = b.take();
  g.freeze();

  tdg::Engine::Options opts;
  opts.instances.resize(4);  // full-width uniform fronts

  // Control: distinct finite feeds, each lane computed from its own.
  tdg::Engine ok(g, opts);
  for (std::size_t inst = 0; inst < 4; ++inst)
    ok.set_external(inst, 0, 0,
                    TimePoint::at_ps(10 * static_cast<std::int64_t>(inst)));
  EXPECT_TRUE(ok.flush());
  for (std::size_t inst = 0; inst < 4; ++inst) {
    const std::int64_t u = 10 * static_cast<std::int64_t>(inst);
    EXPECT_EQ(ok.value(inst, 1, 0), TimePoint::at_ps(u + 1000));
    EXPECT_EQ(ok.value(inst, 2, 0), TimePoint::at_ps(u + 3000));
  }
  EXPECT_EQ(ok.instances_computed(), 8u);

  tdg::Engine eng(g, opts);
  for (std::size_t inst = 0; inst < 4; ++inst) {
    const std::int64_t ps =
        inst == 2 ? std::numeric_limits<std::int64_t>::max() - 10
                  : 10 * static_cast<std::int64_t>(inst);
    eng.set_external(inst, 0, 0, TimePoint::at_ps(ps));
  }
  try {
    (void)eng.flush();
    FAIL() << "expected OverflowError";
  } catch (const OverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("max-plus otimes overflow"),
              std::string::npos)
        << e.what();
  }
  for (std::size_t inst = 0; inst < 4; ++inst) {
    for (const tdg::NodeId n : {1, 2}) {
      EXPECT_EQ(eng.value(inst, n, 0), std::nullopt)
          << "inst " << inst << " node " << n;
    }
  }
  EXPECT_EQ(eng.instances_computed(), 0u);
}

/// A guard that throws unwinds out of flush(); later feeds must still
/// propagate on the next flush.
TEST(BatchEngineTest, DrainRecoversAfterThrowingGuard) {
  tdg::GraphBuilder b;
  b.input("u").instant("a");
  b.arc("u", "a").fixed(Duration::ns(1));
  b.arc("u", "a").fixed(Duration::ns(5)).when(
      [](const model::TokenAttrs&, std::uint64_t k) {
        if (k == 0) throw Error("guard failure at k = 0");
        return true;
      });
  tdg::Graph g = b.take();
  g.freeze();
  tdg::Engine::Options opts;
  opts.instances.resize(1);
  tdg::Engine eng(g, opts);
  const tdg::NodeId u = g.find("u"), a = g.find("a");
  eng.set_attrs(0, 0, 0, {});
  eng.set_external(0, u, 0, TimePoint::at_ps(0));
  EXPECT_THROW((void)eng.flush(), Error);
  EXPECT_EQ(eng.value(0, a, 0), std::nullopt);
  eng.set_attrs(0, 0, 1, {});
  eng.set_external(0, u, 1, TimePoint::at_ps(100));
  EXPECT_TRUE(eng.flush());
  EXPECT_EQ(eng.value(0, a, 1), TimePoint::at_ps(5100));
  EXPECT_EQ(eng.instances_computed(), 1u);
}

/// An instance index at or past the width names no lane: feeds and retain
/// floors reject it, queries report nothing, and no other lane is touched.
TEST(EngineLaneTest, OutOfRangeInstanceRejected) {
  tdg::GraphBuilder b;
  b.input("u").instant("a");
  b.arc("u", "a").fixed(Duration::ns(1));
  tdg::Graph g = b.take();
  g.freeze();
  tdg::Engine::Options opts;
  opts.instances.resize(2);
  tdg::Engine eng(g, opts);
  const tdg::NodeId u = g.find("u"), a = g.find("a");

  EXPECT_THROW(eng.set_external(2, u, 0, TimePoint::at_ps(0)), Error);
  EXPECT_THROW(eng.set_attrs(2, 0, 0, {}), Error);
  EXPECT_THROW(eng.set_retain_floor(2, 5), Error);
  EXPECT_THROW(eng.on_known(2, a, [](std::uint64_t, TimePoint) {}), Error);
  EXPECT_FALSE(eng.has_work());

  eng.set_attrs(1, 0, 0, {});
  eng.set_external(1, u, 0, TimePoint::at_ps(7));
  EXPECT_TRUE(eng.flush());
  EXPECT_EQ(eng.value(1, a, 0), TimePoint::at_ps(1007));
  EXPECT_EQ(eng.value(0, a, 0), std::nullopt);  // lane 0 was never fed
  EXPECT_EQ(eng.value(2, a, 0), std::nullopt);
  EXPECT_EQ(eng.scalar_value(2, a, 0), std::nullopt);
  EXPECT_EQ(eng.resolve_now(2, a, 0), std::nullopt);
  EXPECT_FALSE(eng.attrs_of(2, 0, 0).has_value());
  EXPECT_TRUE(eng.attrs_of(1, 0, 0).has_value());
  EXPECT_EQ(eng.instances_computed(), 1u);
}

TEST(BatchEngineTest, MergedDescriptionMismatchRejected) {
  const auto base = model::share(gen::make_didactic({}));
  gen::DidacticConfig other_cfg;
  other_cfg.tokens = 7;
  const auto other = model::share(gen::make_didactic(other_cfg));
  std::vector<Scenario> parts;
  parts.emplace_back("a", base);
  parts.emplace_back("b", base);
  const Scenario composed = compose("c", parts);
  // An extra member of the right base: its span runs past the merged
  // tables, and the check must fire before anything is wired.
  EXPECT_THROW(core::EquivalentModel(composed.desc_ptr(), {}, {},
                                     {clone_spec(base, {"a", "b", "c"})}),
               DescriptionError);
  // Same table *sizes* but different content (token counts differ): the
  // structural replication check must still reject the wrong base.
  EXPECT_THROW(core::EquivalentModel(composed.desc_ptr(), {}, {},
                                     {clone_spec(other, {"a", "b"})}),
               DescriptionError);
  // And the right base passes.
  EXPECT_NO_THROW(core::EquivalentModel(composed.desc_ptr(), {}, {},
                                        {clone_spec(base, {"a", "b"})}));
}

}  // namespace
}  // namespace maxev::study
