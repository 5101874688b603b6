#include <gtest/gtest.h>

#include <new>
#include <string>

#include "gen/didactic.hpp"
#include "model/baseline.hpp"
#include "model/load.hpp"
#include "model/shaping.hpp"
#include "sim/kernel.hpp"
#include "study/study.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

/// The fault-injection harness (util/fault.hpp, -DMAXEV_FAULTS=ON):
/// deterministic mid-flight throws at the cataloged points, pinning the
/// exception-safety contract of docs/DESIGN.md §12 — injected faults
/// surface as ordinary maxev errors, nothing hangs, every object stays
/// destructible, and a disarmed process is indistinguishable from a
/// normal build.

namespace maxev {
namespace {

#if !defined(MAXEV_FAULTS)

TEST(FaultInjectionTest, RequiresFaultsBuild) {
  GTEST_SKIP() << "fault points compiled out; rebuild with -DMAXEV_FAULTS=ON";
}

#else

using util::FaultInjector;

model::ArchitectureDesc small_didactic(std::uint64_t tokens = 25) {
  gen::DidacticConfig cfg;
  cfg.tokens = tokens;
  return gen::make_didactic(cfg);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::reset(); }
  void TearDown() override { FaultInjector::reset(); }
};

TEST_F(FaultInjectionTest, NthHitTriggersOnceThenDisarms) {
  model::ModelRuntime rt(small_didactic());
  FaultInjector::arm("kernel.dispatch", 5);
  EXPECT_TRUE(FaultInjector::active());
  EXPECT_THROW((void)rt.run(), util::FaultInjectedError);
  EXPECT_EQ(FaultInjector::hits("kernel.dispatch"), 5u);
  // One-shot: the point disarmed itself when it fired...
  EXPECT_FALSE(FaultInjector::active());
  // ...and the kernel stays runnable and destructible. The event in
  // flight at the throw was abandoned (poisoned-or-reusable: no hang, no
  // leak — completion is not promised), so only quiescence is asserted.
  EXPECT_NO_THROW((void)rt.run());
}

TEST_F(FaultInjectionTest, DisarmedPointNeverFires) {
  FaultInjector::arm("kernel.dispatch", 1);
  FaultInjector::disarm("kernel.dispatch");
  EXPECT_FALSE(FaultInjector::active());
  model::ModelRuntime rt(small_didactic());
  EXPECT_TRUE(rt.run().completed);
}

TEST_F(FaultInjectionTest, SeededArmIsReproducible) {
  FaultInjector::arm_seeded("kernel.dispatch", 42, 100);
  model::ModelRuntime rt(small_didactic());
  EXPECT_THROW((void)rt.run(), util::FaultInjectedError);
  const std::uint64_t first = FaultInjector::hits("kernel.dispatch");
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 100u);

  FaultInjector::reset();
  FaultInjector::arm_seeded("kernel.dispatch", 42, 100);
  model::ModelRuntime again(small_didactic());
  EXPECT_THROW((void)again.run(), util::FaultInjectedError);
  EXPECT_EQ(FaultInjector::hits("kernel.dispatch"), first);
}

TEST_F(FaultInjectionTest, AllocationFailureDrillAtTraceAppend) {
  model::ModelRuntime rt(small_didactic());
  FaultInjector::arm("trace.append", 1, FaultInjector::Kind::kBadAlloc);
  // The bad_alloc surfaces inside a process, so the kernel wraps it with
  // the process name like any organic exception.
  EXPECT_THROW((void)rt.run(), SimulationError);
  EXPECT_GE(FaultInjector::hits("trace.append"), 1u);
}

TEST_F(FaultInjectionTest, StudyIsolatesAnInjectedEngineFault) {
  study::Study st;
  st.add(study::Scenario("didactic", small_didactic()));
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.isolate_failures = true;

  FaultInjector::arm("engine.flush", 1);
  const study::Report rep = st.run(opts);
  const study::Cell& cell = rep.at("didactic", "equivalent");
  EXPECT_TRUE(cell.failed);
  EXPECT_NE(cell.error.find("injected fault at 'engine.flush'"),
            std::string::npos)
      << cell.error;
  EXPECT_NE(cell.error.find("scenario 'didactic'"), std::string::npos);

  // Nothing global was poisoned: with the injector quiet, a fresh run of
  // the same study completes exactly.
  FaultInjector::reset();
  const study::Report ok = st.run(opts);
  EXPECT_FALSE(ok.at("didactic", "equivalent").failed);
}

TEST_F(FaultInjectionTest, PoolFaultPropagatesFromAParallelStudy) {
  study::Study st;
  st.add(study::Scenario("didactic", small_didactic()));
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.threads = 2;

  // The crew's phase start is study infrastructure, not a cell: it fails the
  // matrix even with isolation on.
  opts.isolate_failures = true;
  FaultInjector::arm("pool.parallel_for", 1);
  EXPECT_THROW((void)st.run(opts), util::FaultInjectedError);

  FaultInjector::reset();
  const study::Report rep = st.run(opts);
  EXPECT_FALSE(rep.at("didactic", "equivalent").failed);
}

TEST_F(FaultInjectionTest, AdaptiveFastForwardFaultFallsBackToSimulation) {
  // adaptive.fastforward sits in study::AdaptiveModel's commit, after
  // certification and staging but before the first trace is extended. A
  // fault there must publish nothing: the model permanently falls back to
  // full simulation and still produces the reference traces exactly
  // (docs/DESIGN.md §15's all-or-nothing cut-over).
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, in);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  d.add_source("src", in, 120, model::PeriodicTimeFn{0, 1'000'000},
               model::ConstantAttrsFn{});
  d.add_sink("sink", out);
  d.validate();
  const study::Scenario s("chain", std::move(d));

  auto ref = study::Backend::equivalent().instantiate(s);
  ASSERT_TRUE(ref->run().completed);

  // Sanity: with the injector quiet this workload extrapolates.
  auto clean = study::Backend::adaptive().instantiate(s);
  ASSERT_TRUE(clean->run().completed);
  ASSERT_TRUE(clean->adaptive_stats().has_value());
  ASSERT_TRUE(clean->adaptive_stats()->extrapolated);

  FaultInjector::arm("adaptive.fastforward", 1);
  auto m = study::Backend::adaptive().instantiate(s);
  study::Outcome oc;
  EXPECT_NO_THROW(oc = m->run());
  EXPECT_TRUE(oc.completed);
  EXPECT_EQ(FaultInjector::hits("adaptive.fastforward"), 1u);
  const auto st = m->adaptive_stats();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->extrapolated);  // the failed cut-over disabled itself

  // No partial instants were published: the fully simulated traces equal
  // the reference's in both directions, as does the completion time.
  EXPECT_EQ(trace::compare_instants(ref->instants(), m->instants()),
            std::nullopt);
  EXPECT_EQ(trace::compare_instants(m->instants(), ref->instants()),
            std::nullopt);
  trace::UsageTraceSet ru = ref->usage();
  trace::UsageTraceSet mu = m->usage();
  ru.sort_all();
  mu.sort_all();
  EXPECT_EQ(trace::compare_usage(ru, mu), std::nullopt);
  EXPECT_EQ(ref->end_time(), m->end_time());
}

TEST_F(FaultInjectionTest, GuardedRerunAfterFaultIsBounded) {
  // A model that faulted mid-run may have lost in-flight events; a
  // guarded re-run must still terminate (budget) instead of spinning.
  model::ModelRuntime rt(small_didactic(2000));
  FaultInjector::arm("kernel.dispatch", 50);
  EXPECT_THROW((void)rt.run(), util::FaultInjectedError);
  sim::RunGuards g;
  g.max_events = 10'000;
  rt.kernel().set_run_guards(g);
  EXPECT_NO_THROW((void)rt.run());
  EXPECT_TRUE(rt.kernel().last_stop() == sim::StopReason::kIdle ||
              rt.kernel().last_stop() == sim::StopReason::kBudget);
}

#endif  // MAXEV_FAULTS

}  // namespace
}  // namespace maxev
