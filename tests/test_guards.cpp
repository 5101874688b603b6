#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "core/lt_runner.hpp"
#include "gen/didactic.hpp"
#include "maxplus/scalar.hpp"
#include "model/baseline.hpp"
#include "sim/kernel.hpp"
#include "study/study.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

/// Run guards (event budget, wall-clock deadline, cooperative
/// cancellation), structured stall diagnostics, per-cell failure isolation
/// and the context-prefixing error helper (docs/DESIGN.md §12).

namespace maxev {
namespace {

using namespace maxev::literals;

// ---------------------------------------------------------------- kernel --

TEST(RunGuardsTest, BudgetStopsAndResumes) {
  sim::Kernel k;
  int steps = 0;
  k.spawn("ticker", [&]() -> sim::Process {
    for (int i = 0; i < 100; ++i) {
      co_await k.delay(Duration::ns(1));
      ++steps;
    }
  });

  sim::RunGuards g;
  g.max_events = 10;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(), sim::StopReason::kBudget);
  EXPECT_EQ(k.last_stop(), sim::StopReason::kBudget);
  EXPECT_EQ(k.events_dispatched(), 10u);
  EXPECT_LT(steps, 100);

  // The tripped run left queue and coroutines intact: raising the
  // (cumulative) budget resumes exactly where it stopped.
  g.max_events = 1000;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(), sim::StopReason::kIdle);
  EXPECT_EQ(k.last_stop(), sim::StopReason::kIdle);
  EXPECT_EQ(steps, 100);
}

TEST(RunGuardsTest, CancellationStopsBeforeAnyDispatch) {
  sim::Kernel k;
  int steps = 0;
  k.spawn("ticker", [&]() -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      co_await k.delay(Duration::ns(1));
      ++steps;
    }
  });

  util::CancelToken cancel;
  cancel.request_cancel();
  sim::RunGuards g;
  g.cancel = &cancel;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(), sim::StopReason::kCancelled);
  EXPECT_EQ(k.events_dispatched(), 0u);
  EXPECT_EQ(steps, 0);

  cancel.reset();
  EXPECT_EQ(k.run(), sim::StopReason::kIdle);
  EXPECT_EQ(steps, 10);
}

TEST(RunGuardsTest, CancellationFromInsideARunStops) {
  sim::Kernel k;
  util::CancelToken cancel;
  int steps = 0;
  k.spawn("ticker", [&]() -> sim::Process {
    for (int i = 0; i < 100; ++i) {
      co_await k.delay(Duration::ns(1));
      if (++steps == 5) cancel.request_cancel();
    }
  });
  sim::RunGuards g;
  g.cancel = &cancel;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(), sim::StopReason::kCancelled);
  EXPECT_EQ(steps, 5);
}

TEST(RunGuardsTest, DeadlineStopsAnEndlessRun) {
  sim::Kernel k;
  k.spawn("spin", [&k]() -> sim::Process {
    for (;;) co_await k.delay(Duration::ps(1));
  });
  sim::RunGuards g;
  g.deadline = std::chrono::milliseconds(5);
  // Backstop: a broken deadline check fails the assertion below as
  // kBudget instead of hanging the test forever.
  g.max_events = 50'000'000;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(), sim::StopReason::kDeadline);
}

TEST(RunGuardsTest, BudgetBoundsASameInstantSpin) {
  // Event-granular budgets cut livelocks a horizon cannot: all these
  // events happen at one simulated instant, so time never advances.
  sim::Kernel k;
  std::function<void()> spin = [&] { k.schedule_call(k.now(), spin); };
  k.schedule_call(TimePoint::origin(), spin);
  sim::RunGuards g;
  g.max_events = 1000;
  k.set_run_guards(g);
  EXPECT_EQ(k.run(TimePoint::at_ps(10)), sim::StopReason::kBudget);
  EXPECT_EQ(k.events_dispatched(), 1000u);
}

// ------------------------------------------------------------- lt runner --

TEST(RunGuardsTest, LtRunnerDistinguishesHorizonFromBudget) {
  gen::DidacticConfig cfg;
  cfg.tokens = 200;
  const auto d = gen::make_didactic(cfg);

  core::LooselyTimedModel lt(d, 10_us);
  model::ModelRuntime::Outcome out = lt.run(TimePoint::at_ps(1));
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stop, sim::StopReason::kTimeLimit);
  EXPECT_FALSE(sim::is_guard_stop(out.stop));
  out = lt.run();  // resume past the horizon
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.stop, sim::StopReason::kIdle);

  core::LooselyTimedModel capped(d, 10_us);
  sim::RunGuards g;
  g.max_events = 5;
  capped.kernel().set_run_guards(g);
  out = capped.run();
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stop, sim::StopReason::kBudget);
  EXPECT_EQ(out.diagnostics.stop, sim::StopReason::kBudget);
  EXPECT_NE(out.stall_report.find("event budget exhausted"),
            std::string::npos);
  EXPECT_NE(out.stall_report.find("loosely-timed"), std::string::npos);
}

// ------------------------------------------------------------ diagnostics --

/// A join over two rendezvous inputs whose sources disagree on the token
/// count: once the short source runs dry the join blocks reading forever —
/// a genuine stall in every execution style.
model::ArchitectureDesc stalling_desc() {
  model::ArchitectureDesc d;
  const auto p = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto a = d.add_rendezvous("A");
  const auto b = d.add_rendezvous("B");
  const auto out = d.add_rendezvous("OUT");
  const auto f = d.add_function("join", p);
  d.fn_read(f, a);
  d.fn_read(f, b);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  const auto earliest = [](std::uint64_t k) {
    return TimePoint::at_ps(static_cast<std::int64_t>(k) * 1000);
  };
  const auto attrs = [](std::uint64_t) { return model::TokenAttrs{}; };
  d.add_source("srcA", a, 5, earliest, attrs);
  d.add_source("srcB", b, 3, earliest, attrs);
  d.add_sink("sink", out);
  d.validate();
  return d;
}

TEST(StallDiagnosticsTest, BaselineStallNamesParkedProcesses) {
  model::ModelRuntime rt(stalling_desc());
  const model::ModelRuntime::Outcome out = rt.run();
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.idle);
  EXPECT_EQ(out.diagnostics.stop, sim::StopReason::kIdle);
  EXPECT_GT(out.diagnostics.events_processed, 0u);
  ASSERT_FALSE(out.diagnostics.parked_processes.empty());
  bool join_parked = false;
  for (const std::string& name : out.diagnostics.parked_processes)
    join_parked = join_parked || name == "join";
  EXPECT_TRUE(join_parked);
  EXPECT_NE(out.diagnostics.detail.find("sources finished"),
            std::string::npos);
  EXPECT_NE(out.diagnostics.summary().find("parked processes"),
            std::string::npos);
}

TEST(StallDiagnosticsTest, EquivalentStallNamesUnresolvedGates) {
  core::EquivalentModel eq(stalling_desc(), {});
  const model::ModelRuntime::Outcome out = eq.run();
  EXPECT_FALSE(out.completed);
  // The short source's gated offer parked with no computed completion.
  EXPECT_FALSE(out.diagnostics.unresolved_gates.empty());
  for (const std::string& gate : out.diagnostics.unresolved_gates)
    EXPECT_NE(gate.find("@k="), std::string::npos);
}

// A batched composition reports the parked gates of every abstraction it
// runs: each sub-batch member's (named "<member>/<node>") and the isolated
// remainder's (its merged node names, as the merged path names them).
TEST(StallDiagnosticsTest, BatchedStallNamesRemainderGates) {
  const model::DescPtr shared = model::share(stalling_desc());
  std::vector<study::Scenario> parts;
  parts.emplace_back("g0", shared);
  parts.emplace_back("g1", shared);
  parts.emplace_back("r0", stalling_desc());  // alone: isolated remainder
  const study::Scenario composed = study::compose("stall3", parts);
  ASSERT_EQ(composed.batch_groups().size(), 1u);

  auto eq = study::Backend::equivalent().instantiate(composed);
  const model::ModelRuntime::Outcome out = eq->run();
  EXPECT_FALSE(out.completed);
  const std::vector<std::string>& gates = out.diagnostics.unresolved_gates;
  const auto has = [&gates](const std::string& gate) {
    return std::find(gates.begin(), gates.end(), gate) != gates.end();
  };
  EXPECT_TRUE(has("g0/u:A@k=4")) << out.diagnostics.summary();
  EXPECT_TRUE(has("g1/u:A@k=4")) << out.diagnostics.summary();
  EXPECT_TRUE(has("u:r0/A@k=4")) << out.diagnostics.summary();
}

// -------------------------------------------------- per-cell isolation ----

/// Workload that throws mid-run: token k=2's load query fails.
model::ArchitectureDesc throwing_desc() {
  model::ArchitectureDesc d;
  const auto p = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto a = d.add_rendezvous("A");
  const auto out = d.add_rendezvous("OUT");
  const auto f = d.add_function("work", p);
  d.fn_read(f, a);
  d.fn_execute(f, [](const model::TokenAttrs&, std::uint64_t k) -> std::int64_t {
    if (k == 2) throw std::runtime_error("boom");
    return 1000;
  });
  d.fn_write(f, out);
  const auto earliest = [](std::uint64_t k) {
    return TimePoint::at_ps(static_cast<std::int64_t>(k) * 1000);
  };
  const auto attrs = [](std::uint64_t) { return model::TokenAttrs{}; };
  d.add_source("src", a, 5, earliest, attrs);
  d.add_sink("sink", out);
  d.validate();
  return d;
}

study::Study acceptance_study() {
  gen::DidacticConfig big;
  big.tokens = 5000;
  study::Study st;
  st.add(study::Scenario("stall", stalling_desc()));
  st.add(study::Scenario("burn", gen::make_didactic(big)));
  st.add(study::Scenario("throw", throwing_desc()));
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());
  return st;
}

TEST(FailureIsolationTest, MatrixCompletesWithEveryFailureReported) {
  const study::Study st = acceptance_study();
  study::StudyOptions opts;
  opts.isolate_failures = true;
  opts.max_events = 500;  // trips in 'burn' long before 5000 tokens drain
  const study::Report rep = st.run(opts);
  ASSERT_EQ(rep.cells.size(), 6u);

  for (const study::Cell& c : rep.cells) {
    EXPECT_TRUE(c.failed) << c.scenario << "/" << c.backend;
    // Satellite: every failure names its cell.
    EXPECT_NE(c.error.find("scenario '" + c.scenario + "'"),
              std::string::npos)
        << c.error;
    EXPECT_NE(c.error.find("backend '" + c.backend + "'"), std::string::npos);
    EXPECT_NE(c.error.find("rep 0"), std::string::npos);
  }

  const study::Cell& stall = rep.at("stall", "baseline");
  ASSERT_NE(stall.diagnostics, nullptr);
  EXPECT_EQ(stall.diagnostics->stop, sim::StopReason::kIdle);
  EXPECT_FALSE(stall.diagnostics->parked_processes.empty());
  EXPECT_NE(stall.error.find("stalled"), std::string::npos);

  const study::Cell& stall_eq = rep.at("stall", "equivalent");
  ASSERT_NE(stall_eq.diagnostics, nullptr);
  EXPECT_FALSE(stall_eq.diagnostics->unresolved_gates.empty());

  const study::Cell& burn = rep.at("burn", "baseline");
  ASSERT_NE(burn.diagnostics, nullptr);
  EXPECT_EQ(burn.diagnostics->stop, sim::StopReason::kBudget);
  EXPECT_EQ(burn.diagnostics->events_processed, 500u);
  EXPECT_NE(burn.error.find("event budget exhausted"), std::string::npos);

  EXPECT_NE(rep.at("throw", "baseline").error.find("boom"),
            std::string::npos);
  EXPECT_NE(rep.at("throw", "equivalent").error.find("boom"),
            std::string::npos);

  // Failed reference cells disable the scenario's comparisons: ratios stay
  // at their unknown defaults.
  EXPECT_EQ(stall_eq.speedup_vs_reference, 0.0);
  EXPECT_FALSE(stall_eq.errors.has_value());

  // Report renderings flag the failures.
  EXPECT_NE(rep.to_string().find("FAILED"), std::string::npos);
  EXPECT_NE(rep.to_json().find("\"status\":\"failed\""), std::string::npos);
}

TEST(FailureIsolationTest, ReportIsByteIdenticalAtAnyThreadCount) {
  const study::Study st = acceptance_study();
  study::StudyOptions opts;
  opts.isolate_failures = true;
  opts.max_events = 500;
  opts.threads = 1;
  const std::string json1 = st.run(opts).to_json();
  opts.threads = 2;
  const std::string json2 = st.run(opts).to_json();
  opts.threads = 8;
  const std::string json8 = st.run(opts).to_json();
  // Every cell fails deterministically (stall/budget/throw), so the whole
  // document — wall times included — is byte-stable across thread counts.
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1, json8);
  EXPECT_NE(json1.find("\"status\":\"failed\""), std::string::npos);
}

TEST(FailureIsolationTest, WithoutIsolationTheFirstFailureThrows) {
  const study::Study st = acceptance_study();
  study::StudyOptions opts;
  opts.max_events = 500;
  EXPECT_THROW((void)st.run(opts), SimulationError);
}

TEST(FailureIsolationTest, CancelledStudyReportsEveryCellCancelled) {
  const study::Study st = acceptance_study();
  util::CancelToken cancel;
  cancel.request_cancel();
  study::StudyOptions opts;
  opts.isolate_failures = true;
  opts.cancel = &cancel;
  const study::Report rep = st.run(opts);
  for (const study::Cell& c : rep.cells) {
    EXPECT_TRUE(c.failed);
    EXPECT_NE(c.error.find("cancelled"), std::string::npos) << c.error;
  }
}

// ------------------------------------------------------------- overflow ----

TEST(OverflowTest, ScalarOtimesThrowsOutOfLine) {
  const mp::Scalar huge = mp::Scalar::of(std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW((void)(huge * mp::Scalar::of(1)), OverflowError);
  EXPECT_NO_THROW((void)(huge * mp::Scalar::eps()));  // ε absorbs
}

/// Offer instants near the top of the 64-bit picosecond range: the first
/// computed completion u ⊗ d overflows. Equivalent backend only — the
/// baseline would hit undefined TimePoint arithmetic instead of the
/// algebra's checked ⊗.
model::ArchitectureDesc overflowing_desc() {
  model::ArchitectureDesc d;
  const auto p = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto a = d.add_rendezvous("A");
  const auto out = d.add_rendezvous("OUT");
  const auto f = d.add_function("work", p);
  d.fn_read(f, a);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  const auto earliest = [](std::uint64_t) {
    return TimePoint::at_ps(std::numeric_limits<std::int64_t>::max() - 1000);
  };
  const auto attrs = [](std::uint64_t) { return model::TokenAttrs{}; };
  d.add_source("src", a, 3, earliest, attrs);
  d.add_sink("sink", out);
  d.validate();
  return d;
}

TEST(OverflowTest, PropagatesTypedThroughAStudyCell) {
  study::Study st;
  st.add(study::Scenario("overflow", overflowing_desc()));
  st.add(study::Backend::equivalent());

  // Without isolation the concrete type survives the context wrapping.
  EXPECT_THROW((void)st.run({}), OverflowError);

  study::StudyOptions opts;
  opts.isolate_failures = true;
  const study::Report rep = st.run(opts);
  const study::Cell& c = rep.at("overflow", "equivalent");
  EXPECT_TRUE(c.failed);
  EXPECT_NE(c.error.find("otimes overflow"), std::string::npos) << c.error;
  EXPECT_NE(c.error.find("scenario 'overflow'"), std::string::npos);
}

// -------------------------------------------------------- error context ----

TEST(ErrorContextTest, RethrowWithContextPreservesTypesAndDiagnostics) {
  try {
    try {
      throw OverflowError("ovf");
    } catch (...) {
      rethrow_with_context("ctx");
    }
  } catch (const OverflowError& e) {
    EXPECT_STREQ(e.what(), "ctx: ovf");
  }

  const auto diag = std::make_shared<const sim::RunDiagnostics>();
  try {
    try {
      throw SimulationError("stall", diag);
    } catch (...) {
      rethrow_with_context("ctx");
    }
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(), "ctx: stall");
    EXPECT_EQ(e.diagnostics(), diag);
  }

  try {
    try {
      throw std::runtime_error("raw");
    } catch (...) {
      rethrow_with_context("ctx");
    }
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "ctx: raw");
  }
}

}  // namespace
}  // namespace maxev
