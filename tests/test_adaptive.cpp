#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "model/desc.hpp"
#include "model/load.hpp"
#include "model/shaping.hpp"
#include "study/adaptive.hpp"
#include "study/study.hpp"
#include "tdg/export.hpp"

/// The adaptive backend (docs/DESIGN.md §15): the periodicity detector's
/// firing contract, the certify-then-fast-forward pass's bit-identity
/// against the equivalent reference, refusal/re-entry around regime
/// changes, and the Report fidelity columns (golden files). The governing
/// property is the same as everywhere else in this repo: whatever the
/// detector decides, the observable traces must equal the reference's —
/// extrapolation is allowed only when it is invisible.

namespace maxev {
namespace {

using study::AdaptiveModel;
using study::AdaptiveOptions;
using study::Backend;
using study::PeriodDetector;
using study::RunConfig;
using study::Scenario;

// ---------------------------------------------------------------- detector

PeriodDetector::Options det_opts(std::uint32_t max_period,
                                 std::uint32_t stable_periods) {
  PeriodDetector::Options o;
  o.max_period = max_period;
  o.stable_periods = stable_periods;
  return o;
}

TEST(PeriodDetectorTest, NeverFiresBeforeKStableIterations) {
  // Exactly periodic from the first frame (P = 1, Λ = {100, 70}). With
  // K = 3 the third identical delta lands with frame 3, so the detector
  // must stay silent through frame 2 and fire exactly at K + 1 frames.
  PeriodDetector det(2, det_opts(8, 3));
  for (std::int64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(det.stable().has_value(), j >= 4) << "after " << j << " frames";
    det.observe({100 * j, 70 * j});
  }
  const auto d = det.stable();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->period, 1u);
  EXPECT_EQ(d->lambda, (std::vector<std::int64_t>{100, 70}));
  EXPECT_EQ(det.observed(), 8u);
}

TEST(PeriodDetectorTest, SmallestStablePeriodWinsOnAlternatingDeltas) {
  // Increments alternate +10 / +30: no P = 1 regularity ever, but the
  // two-step deltas are the constant {40, 40} — the detector must report
  // the minimal vector period 2 with Λ = v(j) − v(j−2).
  PeriodDetector det(2, det_opts(8, 3));
  std::int64_t v = 0;
  std::vector<std::int64_t> values;
  for (int j = 0; j < 12; ++j) {
    det.observe({v, v + 5});
    values.push_back(v);
    v += (j % 2 == 0) ? 10 : 30;
  }
  const auto d = det.stable();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->period, 2u);
  EXPECT_EQ(d->lambda, (std::vector<std::int64_t>{40, 40}));
  // P = 1 never accumulates: consecutive deltas always differ, so its
  // count is stuck at the single just-seen delta.
  EXPECT_LT(det.stable_count(1), 3u);
  EXPECT_GE(det.stable_count(2), 3u);
}

TEST(PeriodDetectorTest, AperiodicSeriesNeverFires) {
  PeriodDetector det(1, det_opts(8, 3));
  std::int64_t v = 0;
  for (std::int64_t j = 0; j < 50; ++j) {
    v += 100 + (j * j) % 17;  // strictly monotone, never periodic mod 8
    det.observe({v});
    EXPECT_FALSE(det.stable().has_value()) << "after frame " << j;
  }
}

TEST(PeriodDetectorTest, EpsilonFramePoisonsEveryCandidate) {
  PeriodDetector det(1, det_opts(4, 3));
  std::int64_t v = 0;
  for (int j = 0; j < 5; ++j) det.observe({v += 10});
  ASSERT_TRUE(det.stable().has_value());
  det.observe({v += 10}, /*any_eps=*/true);
  EXPECT_FALSE(det.stable().has_value());
  // Stability rebuilds only from post-ε frames: K fresh deltas needed.
  for (int j = 0; j < 4; ++j) {
    det.observe({v += 10});
    EXPECT_EQ(det.stable().has_value(), j == 3) << "post-eps frame " << j;
  }
}

TEST(PeriodDetectorTest, ReentersAfterMidRunPerturbation) {
  // Periodic, then a one-off jump, then periodic again with the same rate:
  // the jump must break stability (no firing across it), and the detector
  // must re-converge within K + 1 frames of the regime settling.
  PeriodDetector det(1, det_opts(4, 3));
  std::int64_t v = 0;
  for (int j = 0; j < 6; ++j) det.observe({v += 10});
  ASSERT_TRUE(det.stable().has_value());
  det.observe({v += 500});  // perturbation: delta 500, count resets
  EXPECT_FALSE(det.stable().has_value());
  // Within K frames of the regime settling, the true P = 1 rate is the
  // smallest stable period again. (A jump-spanning window can transiently
  // alias as a longer period on the way — certification, not the
  // detector, is the correctness guard — so only the endpoint is pinned.)
  for (int j = 0; j < 3; ++j) det.observe({v += 10});
  const auto d = det.stable();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->period, 1u);
  EXPECT_EQ(d->lambda, (std::vector<std::int64_t>{10}));
}

TEST(PeriodDetectorTest, ResetDiscardsRegularityButKeepsCounting) {
  PeriodDetector det(1, det_opts(4, 2));
  std::int64_t v = 0;
  for (int j = 0; j < 5; ++j) det.observe({v += 10});
  ASSERT_TRUE(det.stable().has_value());
  const std::uint64_t seen = det.observed();
  det.reset();
  EXPECT_FALSE(det.stable().has_value());
  EXPECT_EQ(det.observed(), seen);  // frame clock is not rewound
  for (int j = 0; j < 3; ++j) det.observe({v += 10});
  EXPECT_TRUE(det.stable().has_value());
}

// ------------------------------------------------------------- run helpers

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// A minimal strictly periodic chain: src (1 µs grid, constant attrs) ->
/// f (constant load) -> sink. Periodic from the very first token, so the
/// adaptive backend must always certify and extrapolate.
model::ArchitectureDesc periodic_chain(std::uint64_t tokens) {
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, in);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  d.add_source("src", in, tokens, model::PeriodicTimeFn{0, 1'000'000},
               model::ConstantAttrsFn{});
  d.add_sink("sink", out);
  d.validate();
  return d;
}

gen::RandomArchConfig steady_cfg(std::uint64_t tokens) {
  gen::RandomArchConfig cfg;
  cfg.tokens = tokens;
  cfg.steady_shaping = true;
  cfg.periodic_source_probability = 1.0;
  cfg.fifo_probability = 0.0;  // FIFO boundaries structurally refuse
  return cfg;
}

std::unique_ptr<study::Model> run_backend(const Backend& b, const Scenario& s,
                                          int threads = 1) {
  RunConfig rc;
  rc.threads = threads;
  auto m = b.instantiate(s, rc);
  EXPECT_TRUE(m->run().completed);
  return m;
}

/// The adaptive contract: every *observation* equals the reference's —
/// instants both directions, sorted usage, completion time. Kernel
/// counters are exempt by design: a fast-forwarded run stops its kernel
/// early, that is the whole point.
void expect_same_traces(const study::Model& ref, const study::Model& got,
                        const std::string& ctx) {
  EXPECT_EQ(trace::compare_instants(ref.instants(), got.instants()),
            std::nullopt)
      << ctx;
  EXPECT_EQ(trace::compare_instants(got.instants(), ref.instants()),
            std::nullopt)
      << ctx;
  trace::UsageTraceSet ru = ref.usage();
  trace::UsageTraceSet gu = got.usage();
  ru.sort_all();
  gu.sort_all();
  EXPECT_EQ(trace::compare_usage(ru, gu), std::nullopt) << ctx;
  EXPECT_EQ(ref.end_time(), got.end_time()) << ctx;
}

Scenario clones(const model::DescPtr& desc, std::size_t n) {
  std::vector<Scenario> parts;
  for (std::size_t i = 0; i < n; ++i)
    parts.emplace_back("inst" + std::to_string(i), desc);
  return study::compose("clones", parts);
}

// --------------------------------------------------------- model: exactness

TEST(AdaptiveModelTest, PeriodicFromT0ExtrapolatesBitIdentically) {
  const auto desc = model::share(periodic_chain(200));
  const Scenario s("chain", desc);
  const auto ref = run_backend(Backend::equivalent(), s);
  const auto ad = run_backend(Backend::adaptive(), s);
  expect_same_traces(*ref, *ad, "periodic chain");

  const auto st = ad->adaptive_stats();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->extrapolated);
  EXPECT_EQ(st->max_error_ps, 0);  // exact certification, zero tolerance
  EXPECT_EQ(st->detected_period, 1u);
  EXPECT_GT(st->extrapolated_iterations, 0u);
  EXPECT_EQ(st->detected_at + st->extrapolated_iterations, 200u);
  // The analytic cross-check agrees with the source period.
  EXPECT_NEAR(st->analytic_ratio_ps, 1'000'000.0, 1.0);
}

TEST(AdaptiveModelTest, LteFixedFrameExtrapolatesTheSubframePeriod) {
  lte::ReceiverConfig cfg;
  cfg.symbols = 30 * lte::kSymbolsPerSubframe;
  lte::FrameParams frame;
  frame.n_prb = 50;
  frame.modulation = lte::Modulation::kQam64;
  frame.code_rate = 0.75;
  cfg.fixed_frame = frame;
  const auto desc = model::share(lte::make_receiver(cfg));
  const Scenario s("rx", desc);

  const auto ref = run_backend(Backend::equivalent(), s);
  const auto ad = run_backend(Backend::adaptive(), s);
  expect_same_traces(*ref, *ad, "lte fixed frame");

  const auto st = ad->adaptive_stats();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->extrapolated);
  EXPECT_EQ(st->max_error_ps, 0);
  // The minimal vector period of a 14-symbol subframe divides 14.
  ASSERT_GT(st->detected_period, 0u);
  EXPECT_EQ(14u % st->detected_period, 0u);
}

TEST(AdaptiveModelTest, PaddedLteReceiverCrossCheckIsTheThroughputBound) {
  // The benchmark's composed-LTE shape: a carrier-aggregation variant
  // (fixed frame) padded with 100 pass-through nodes. The fast-forward
  // stays exact, and its analytic cross-check is the exact maximum cycle
  // ratio of the same compiled graph over the same sample.
  constexpr std::uint64_t kSymbols = 30 * lte::kSymbolsPerSubframe;
  constexpr std::size_t kPad = 100;
  for (const lte::CarrierVariant& v :
       lte::carrier_aggregation_variants(2, kSymbols, 1)) {
    const auto desc = model::share(lte::make_receiver(v.config));
    Scenario s(v.name, desc);
    s.with_pad_nodes(kPad);
    const auto ref = run_backend(Backend::equivalent(), s);
    const auto ad = run_backend(Backend::adaptive(), s);
    expect_same_traces(*ref, *ad, v.name);

    const auto st = ad->adaptive_stats();
    ASSERT_TRUE(st.has_value()) << v.name;
    EXPECT_TRUE(st->extrapolated) << v.name;
    EXPECT_EQ(st->max_error_ps, 0) << v.name;

    const core::CompiledPtr c = core::compile_abstraction(
        core::CompiledKey::make(desc, {}, true, kPad));
    const mp::CycleRatioResult bound = tdg::throughput_bound(
        c->graph,
        [&desc](model::SourceId src, std::uint64_t k) {
          const auto& fn = desc->sources()[static_cast<std::size_t>(src)].attrs;
          return fn ? fn(k) : model::TokenAttrs{};
        },
        64);
    ASSERT_TRUE(bound.has_cycle) << v.name;
    EXPECT_GT(bound.max_ratio, 0.0) << v.name;
    EXPECT_EQ(st->analytic_ratio_ps, bound.max_ratio) << v.name;
  }
}

TEST(AdaptiveModelTest, MinIterationsFloorsDetection) {
  const auto desc = model::share(periodic_chain(60));
  AdaptiveOptions opts;
  opts.min_iterations = 60;  // the floor is never reached before completion
  const Scenario s("chain", desc);
  const auto ref = run_backend(Backend::equivalent(), s);
  const auto ad = run_backend(Backend::adaptive(opts), s);
  expect_same_traces(*ref, *ad, "min_iterations floor");
  ASSERT_TRUE(ad->adaptive_stats().has_value());
  EXPECT_FALSE(ad->adaptive_stats()->extrapolated);
}

TEST(AdaptiveModelTest, HorizonRunsNeverFastForward) {
  const auto desc = model::share(periodic_chain(100));
  const Scenario s("chain", desc);
  const auto ref = run_backend(Backend::equivalent(), s);

  auto ad = Backend::adaptive().instantiate(s);
  const auto mid = ad->run(TimePoint::at_ps(20'000'000));  // 20 of 100 µs
  EXPECT_FALSE(mid.completed);
  ASSERT_TRUE(ad->adaptive_stats().has_value());
  EXPECT_FALSE(ad->adaptive_stats()->extrapolated);
  // Resuming without a horizon completes — and may fast-forward — but the
  // published traces still equal the reference's.
  EXPECT_TRUE(ad->run().completed);
  expect_same_traces(*ref, *ad, "resume after horizon");
}

// ----------------------------------------------------- model: differential

TEST(AdaptiveSweepTest, SteadyWorkloadsMatchReferenceBitForBit) {
  const gen::RandomArchConfig cfg = steady_cfg(60);
  int extrapolated = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario s("solo", desc);
    const std::string ctx = "seed " + std::to_string(seed);
    const auto ref = run_backend(Backend::equivalent(), s);
    const auto ad = run_backend(Backend::adaptive(), s);
    expect_same_traces(*ref, *ad, ctx);
    const auto st = ad->adaptive_stats();
    ASSERT_TRUE(st.has_value()) << ctx;
    if (st->extrapolated) {
      ++extrapolated;
      EXPECT_EQ(st->max_error_ps, 0) << ctx;
      EXPECT_GT(st->detected_period, 0u) << ctx;
    }
  }
  // The sweep must not pass vacuously: most steady seeds extrapolate.
  EXPECT_GE(extrapolated, 13);
}

TEST(AdaptiveSweepTest, GeneralWorkloadsFallBackExactly) {
  // Opaque closures, FIFOs, multi-rate producer bundles: whatever the
  // detector or certifier does (mostly refuse), the traces must equal the
  // reference's.
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario s("solo", desc);
    const std::string ctx = "general seed " + std::to_string(seed);
    const auto ref = run_backend(Backend::equivalent(), s);
    const auto ad = run_backend(Backend::adaptive(), s);
    expect_same_traces(*ref, *ad, ctx);
  }
}

TEST(AdaptiveSweepTest, WarmupThenPeriodicStaysWithinTheBound) {
  gen::RandomArchConfig cfg = steady_cfg(120);
  cfg.warmup_tokens = 20;
  int extrapolated = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario s("warmup", desc);
    const std::string ctx = "warmup seed " + std::to_string(seed);
    const auto ref = run_backend(Backend::equivalent(), s);
    const auto ad = run_backend(Backend::adaptive(), s);
    expect_same_traces(*ref, *ad, ctx);
    const auto st = ad->adaptive_stats();
    ASSERT_TRUE(st.has_value()) << ctx;
    if (st->extrapolated) {
      ++extrapolated;
      // Zero tolerance: any engaged fast-forward is provably exact, and
      // the reported bound says so.
      EXPECT_EQ(st->max_error_ps, 0) << ctx;
    }
  }
  EXPECT_GE(extrapolated, 5);
}

TEST(AdaptiveSweepTest, ComposedGroupsDeterministicAcrossThreads) {
  const gen::RandomArchConfig cfg = steady_cfg(50);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario composed = clones(desc, 3);
    ASSERT_EQ(composed.batch_groups().size(), 1u);
    const std::string ctx = "composed seed " + std::to_string(seed);
    const auto ref = run_backend(Backend::equivalent(), composed);
    for (const int threads : {1, 2, 8}) {
      const auto ad = run_backend(Backend::adaptive(), composed, threads);
      expect_same_traces(*ref, *ad,
                         ctx + " t" + std::to_string(threads));
    }
  }
}

// ------------------------------------------------- model: refusal/re-entry

TEST(AdaptiveModelTest, RateSwitchRefusesThenReenters) {
  // A source that releases every 1 µs for 30 tokens, then every 3 µs: the
  // early detection certifies against the table, sees the switch ahead,
  // and refuses; after the switch the new regime certifies and the run
  // fast-forwards — still bit-identical.
  const std::uint64_t tokens = 80;
  auto values = std::make_shared<std::vector<std::int64_t>>();
  std::int64_t t = 0;
  for (std::uint64_t k = 0; k < tokens; ++k) {
    t += k < 30 ? 1'000'000 : 3'000'000;
    values->push_back(t);
  }
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, in);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  d.add_source("src", in, tokens, model::TableTimeFn{std::move(values)},
               model::ConstantAttrsFn{});
  d.add_sink("sink", out);
  d.validate();

  const Scenario s("rate-switch", model::share(std::move(d)));
  const auto ref = run_backend(Backend::equivalent(), s);
  const auto ad = run_backend(Backend::adaptive(), s);
  expect_same_traces(*ref, *ad, "rate switch");

  const auto st = ad->adaptive_stats();
  ASSERT_TRUE(st.has_value());
  EXPECT_GE(st->refusals, 1u);
  EXPECT_FALSE(st->last_refusal.empty());
  EXPECT_TRUE(st->extrapolated);
  EXPECT_GE(st->detected_at, 30u);  // re-entry happened past the switch
  EXPECT_EQ(st->max_error_ps, 0);
}

TEST(AdaptiveModelTest, RegimeNotificationResetsTheDetector) {
  const Scenario s("chain", model::share(periodic_chain(20)));
  AdaptiveModel m(s, RunConfig{}, AdaptiveOptions{});
  EXPECT_EQ(m.stats().regime_resets, 0u);
  m.equivalent().runtime().notify_regime_change();
  EXPECT_EQ(m.stats().regime_resets, 1u);
  m.equivalent().runtime().notify_regime_change();
  EXPECT_EQ(m.stats().regime_resets, 2u);
}

// ------------------------------------------------------------ study plumbing

TEST(AdaptiveStudyTest, StudyFillsTheFidelityColumns) {
  study::Study st;
  st.add(Scenario("chain", periodic_chain(120)));
  st.add(Backend::equivalent());
  st.add(Backend::adaptive());
  const study::Report rep = st.run();

  const study::Cell& ad = rep.at("chain", "adaptive");
  EXPECT_FALSE(ad.failed);
  ASSERT_TRUE(ad.errors.has_value());
  EXPECT_TRUE(ad.errors->exact());
  EXPECT_EQ(ad.fidelity, "extrapolated");
  EXPECT_GT(ad.extrapolated_iterations, 0);
  EXPECT_EQ(ad.max_error_ps, 0);

  // The reference cell stays adaptive-less; the writers still emit the
  // columns because one cell in the report has them.
  const study::Cell& eq = rep.at("chain", "equivalent");
  EXPECT_TRUE(eq.fidelity.empty());
  EXPECT_EQ(eq.extrapolated_iterations, -1);
  const std::string path = ::testing::TempDir() + "maxev_adaptive_study.csv";
  rep.write_csv(path);
  const std::string csv = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(csv.find(",fidelity,extrapolated_iterations,max_error_ps,"),
            std::string::npos);
  EXPECT_NE(csv.find("extrapolated"), std::string::npos);
}

// ------------------------------------------------------------ report golden

/// A hand-built two-cell report (reference + adaptive) with every
/// wall-clock-dependent field zeroed, so the documents are byte-stable.
study::Report handmade_report() {
  study::Report r;
  r.scenarios = {"s"};
  r.backends = {"equivalent", "adaptive"};
  r.reference_backend = "equivalent";

  study::Cell ref;
  ref.scenario = "s";
  ref.backend = "equivalent";
  ref.is_reference = true;
  ref.metrics.completed = true;
  ref.speedup_vs_reference = 1.0;
  ref.event_ratio_vs_reference = 1.0;
  ref.kernel_event_ratio_vs_reference = 1.0;
  r.cells.push_back(ref);

  study::Cell c;
  c.scenario = "s";
  c.backend = "adaptive";
  c.metrics.completed = true;
  c.errors = study::ErrorStats{};  // exact
  c.fidelity = "extrapolated";
  c.extrapolated_iterations = 42;
  c.max_error_ps = 0;
  r.cells.push_back(c);
  return r;
}

TEST(AdaptiveReportTest, CsvGoldenWithFidelityColumns) {
  const std::string path = ::testing::TempDir() + "maxev_adaptive_golden.csv";
  handmade_report().write_csv(path);
  const std::string expected =
      "scenario,backend,reference,completed,wall_seconds,kernel_events,"
      "resumes,relation_events,instances_computed,arc_terms,sim_end_ps,"
      "graph_nodes,graph_paper_nodes,graph_arcs,speedup_vs_ref,"
      "event_ratio_vs_ref,kernel_event_ratio_vs_ref,exact,max_abs_error_s,"
      "mean_abs_error_s,cache_hits,cache_misses,fidelity,"
      "extrapolated_iterations,max_error_ps,status,error\n"
      "s,equivalent,1,1,0,0,0,0,0,0,0,0,0,0,1,1,1,,,,,,,,,ok,\n"
      "s,adaptive,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,,,extrapolated,42,0,"
      "ok,\n";
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

TEST(AdaptiveReportTest, JsonGoldenWithFidelityFields) {
  const std::string expected =
      R"({"scenarios":["s"],"backends":["equivalent","adaptive"],)"
      R"("reference":"equivalent","cells":[{"scenario":"s",)"
      R"("backend":"equivalent","reference":true,"completed":true,)"
      R"("wall_seconds":0,"kernel_events":0,"resumes":0,)"
      R"("relation_events":0,"instances_computed":0,"arc_terms":0,)"
      R"("sim_end_ps":0,"graph_nodes":0,"graph_paper_nodes":0,)"
      R"("graph_arcs":0,"speedup_vs_ref":1,"event_ratio_vs_ref":1,)"
      R"("kernel_event_ratio_vs_ref":1,"cache_hits":null,"cache_misses":null,)"
      R"("fidelity":null,"extrapolated_iterations":null,"max_error_ps":null,)"
      R"("status":"ok"},{"scenario":"s",)"
      R"("backend":"adaptive","reference":false,"completed":true,)"
      R"("wall_seconds":0,"kernel_events":0,"resumes":0,)"
      R"("relation_events":0,"instances_computed":0,"arc_terms":0,)"
      R"("sim_end_ps":0,"graph_nodes":0,"graph_paper_nodes":0,)"
      R"("graph_arcs":0,"speedup_vs_ref":0,"event_ratio_vs_ref":0,)"
      R"("kernel_event_ratio_vs_ref":0,"cache_hits":null,"cache_misses":null,)"
      R"("fidelity":"extrapolated",)"
      R"("extrapolated_iterations":42,"max_error_ps":0,)"
      R"("errors":{"exact":true,"max_abs_seconds":0,"mean_abs_seconds":0,)"
      R"("instants_compared":0},"status":"ok"}]})";
  EXPECT_EQ(handmade_report().to_json(), expected);
}

}  // namespace
}  // namespace maxev
