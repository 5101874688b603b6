#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "maxplus/scalar.hpp"
#include "tdg/builder.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/export.hpp"
#include "tdg/graph.hpp"
#include "tdg/simplify.hpp"
#include "util/error.hpp"

namespace maxev::tdg {
namespace {

using namespace maxev::literals;

TimePoint at(std::int64_t ps) { return TimePoint::at_ps(ps); }

// ---------------------------------------------------------------------------
// Graph structure
// ---------------------------------------------------------------------------

TEST(GraphTest, FreezeComputesTopoOrder) {
  GraphBuilder b;
  b.input("u").instant("a").instant("b");
  b.arc("u", "a");
  b.arc("a", "b").fixed(1_ns);
  Graph g = b.take();
  g.freeze();
  EXPECT_EQ(g.topo_order(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(g.max_lag(), 0u);
  EXPECT_EQ(g.in_arcs(2).size(), 1u);
  EXPECT_EQ(g.out_arcs(0).size(), 1u);
}

TEST(GraphTest, ZeroLagCycleRejectedWithNames) {
  GraphBuilder b;
  b.instant("a").instant("b");
  b.arc("a", "b");
  b.arc("b", "a");
  Graph g = b.take();
  try {
    g.freeze();
    FAIL() << "expected DescriptionError";
  } catch (const DescriptionError& e) {
    EXPECT_NE(std::string(e.what()).find("a"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("b"), std::string::npos);
  }
}

TEST(GraphTest, LaggedCycleIsFine) {
  GraphBuilder b;
  b.input("u").instant("a");
  b.arc("u", "a");
  b.arc("a", "a").lag(1).fixed(1_ns);
  Graph g = b.take();
  g.freeze();
  EXPECT_EQ(g.max_lag(), 1u);
}

TEST(GraphTest, PaperNodeCountAddsHistoryRefs) {
  GraphBuilder b;
  b.input("u").instant("a").instant("c");
  b.arc("u", "a");
  b.arc("a", "c");
  b.arc("a", "c").lag(1);
  b.arc("a", "c").lag(2);
  b.arc("c", "a").lag(1);
  Graph g = b.take();
  // 3 live + distinct history refs {(a,1),(a,2),(c,1)}.
  EXPECT_EQ(g.paper_node_count(), 6u);
}

TEST(GraphTest, BadArcEndpointRejected) {
  Graph g;
  g.add_node({"a", NodeKind::kInstant, model::kInvalidId, false, {}});
  EXPECT_THROW(g.add_arc({0, 5, 0, {}, 0, nullptr}), DescriptionError);
}

TEST(GraphTest, ExecSegmentWithoutDescRejected) {
  Graph g;  // no ArchitectureDesc
  g.add_node({"a", NodeKind::kInstant, model::kInvalidId, false, {}});
  g.add_node({"b", NodeKind::kInstant, model::kInvalidId, false, {}});
  Arc a{0, 1, 0, {Segment{Duration{}, model::constant_ops(5), 0, "x"}}, 0,
        nullptr};
  EXPECT_THROW(g.add_arc(std::move(a)), DescriptionError);
}

TEST(GraphTest, MutationAfterFreezeRejected) {
  GraphBuilder b;
  b.input("u");
  Graph g = b.take();
  g.freeze();
  EXPECT_THROW(g.add_node({"x", NodeKind::kInstant, -1, false, {}}),
               DescriptionError);
}

// ---------------------------------------------------------------------------
// Engine on hand-built graphs
// ---------------------------------------------------------------------------

// Single-instance runs drive lane 0 and drain after every feed — the eager
// policy of core::SoloLane.
void feed(Engine& e, NodeId n, std::uint64_t k, TimePoint t) {
  e.set_external(0, n, k, t);
  e.flush();
}

void feed_attrs(Engine& e, model::SourceId s, std::uint64_t k,
                const model::TokenAttrs& attrs) {
  e.set_attrs(0, s, k, attrs);
  e.flush();
}

Engine::Options sinks(trace::InstantTraceSet* instants,
                      trace::UsageTraceSet* usage) {
  Engine::Options opts;
  opts.instances[0].instant_sink = instants;
  opts.instances[0].usage_sink = usage;
  return opts;
}

/// y(k) = max(u(k) + 5ns, y(k-1) + 2ns)  [pre-history origin]
Graph feedback_graph() {
  GraphBuilder b;
  b.input("u");
  b.output("y");
  b.arc("u", "y").fixed(5_ns);
  b.arc("y", "y").lag(1).fixed(2_ns);
  Graph g = b.take();
  g.freeze();
  return g;
}

TEST(EngineTest, ComputesRecurrenceWithHistory) {
  Graph g = feedback_graph();
  Engine e(g);
  const NodeId u = g.find("u"), y = g.find("y");
  feed(e, u, 0, at(0));
  EXPECT_EQ(e.value(0, y, 0), at(5000));  // max(0+5ns, origin+2ns)
  feed(e, u, 1, at(1000));
  EXPECT_EQ(e.value(0, y, 1), at(7000));  // max(1ns+5ns, 5ns+2ns)
  feed(e, u, 2, at(100000));
  EXPECT_EQ(e.value(0, y, 2), at(105000));
  EXPECT_EQ(e.instances_computed(), 3u);
}

TEST(EngineTest, PrehistoryIsOrigin) {
  // Node whose only dependency is its own previous value + 3ns: at k=0 the
  // history is the simulation origin, so value = 3ns.
  GraphBuilder b;
  b.input("u").instant("a");
  b.arc("a", "a").lag(1).fixed(3_ns);
  b.arc("u", "a").fixed(0_ns);
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  feed(e, g.find("u"), 0, at(0));
  EXPECT_EQ(e.value(0, g.find("a"), 0), at(3000));
}

TEST(EngineTest, OutOfOrderInputsBlockUntilReady) {
  // Two inputs joining into one instant.
  GraphBuilder b;
  b.input("u1").input("u2").instant("j");
  b.arc("u1", "j").fixed(1_ns);
  b.arc("u2", "j").fixed(2_ns);
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  const NodeId j = g.find("j");
  feed(e, g.find("u1"), 0, at(100));
  EXPECT_FALSE(e.value(0, j, 0).has_value());  // u2 still unknown
  feed(e, g.find("u2"), 0, at(50));
  EXPECT_EQ(e.value(0, j, 0), at(2050));  // max(100+1000, 50+2000)
}

TEST(EngineTest, PipelinedIterations) {
  // Iteration k+1 computable before iteration k's external actual arrives.
  GraphBuilder b;
  b.input("u").instant("a").external("act").instant("tail");
  b.arc("u", "a").fixed(1_ns);
  b.arc("act", "tail");        // tail(k) = actual(k)
  b.arc("tail", "a").lag(2);   // a(k) also waits for tail(k-2)
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  const NodeId a = g.find("a");
  feed(e, g.find("u"), 0, at(0));
  feed(e, g.find("u"), 1, at(10));
  EXPECT_EQ(e.value(0, a, 0), at(1000));
  EXPECT_EQ(e.value(0, a, 1), at(1010));  // lag-2 still pre-history
  feed(e, g.find("u"), 2, at(20));
  EXPECT_FALSE(e.value(0, a, 2).has_value());  // needs tail(0) = actual(0)
  feed(e, g.find("act"), 0, at(500000));
  EXPECT_EQ(e.value(0, a, 2), at(500000));
}

TEST(EngineTest, GuardedArcContributesNothingWhenFalse) {
  GraphBuilder b;
  b.input("u").instant("a");
  b.arc("u", "a").fixed(10_ns);
  b.arc("u", "a").fixed(1000_ns).when(
      [](const model::TokenAttrs& at, std::uint64_t) { return at.size > 5; });
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  model::TokenAttrs small;
  small.size = 1;
  feed_attrs(e, 0, 0, small);
  feed(e, g.find("u"), 0, at(0));
  EXPECT_EQ(e.value(0, g.find("a"), 0), at(10'000));
  model::TokenAttrs big;
  big.size = 100;
  feed_attrs(e, 0, 1, big);
  feed(e, g.find("u"), 1, at(0));
  EXPECT_EQ(e.value(0, g.find("a"), 1), at(1'000'000));
}

TEST(EngineTest, AttrsGateDataDependentWeights) {
  model::ArchitectureDesc d;
  d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e12);
  GraphBuilder b(&d);
  b.input("u").instant("a");
  b.arc("u", "a").exec(0, model::linear_ops(0, 1), "w");
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  feed(e, g.find("u"), 0, at(0));
  // Attrs not yet known: the instant must not be computed.
  EXPECT_FALSE(e.value(0, g.find("a"), 0).has_value());
  model::TokenAttrs attrs;
  attrs.size = 42;
  feed_attrs(e, 0, 0, attrs);
  EXPECT_EQ(e.value(0, g.find("a"), 0), at(42));
}

TEST(EngineTest, ObservationEmittedAtComputedPositions) {
  model::ArchitectureDesc d;
  d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e12);
  trace::UsageTraceSet usage;
  GraphBuilder b(&d);
  b.input("u").instant("a");
  b.arc("u", "a")
      .fixed(Duration::ps(10))
      .exec(0, model::constant_ops(7), "F.e0");
  Graph g = b.take();
  g.freeze();
  Engine e(g, sinks(nullptr, &usage));
  feed_attrs(e, 0, 0, {});
  feed(e, g.find("u"), 0, at(100));
  const trace::UsageTrace* p = usage.find("P");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->size(), 1u);
  EXPECT_EQ(p->intervals()[0].start, at(110));  // after the fixed prefix
  EXPECT_EQ(p->intervals()[0].end, at(117));
  EXPECT_EQ(p->intervals()[0].ops, 7);
  EXPECT_EQ(p->intervals()[0].label, "F.e0");
}

TEST(EngineTest, InstantRecordingInIterationOrder) {
  trace::InstantTraceSet instants;
  GraphBuilder b;
  b.input("u");
  b.instant("a", "chanA");
  b.arc("u", "a").fixed(1_ns);
  Graph g = b.take();
  g.freeze();
  Engine e(g, sinks(&instants, nullptr));
  for (int k = 0; k < 5; ++k)
    feed(e, g.find("u"), static_cast<std::uint64_t>(k), at(k * 100));
  const trace::InstantSeries* s = instants.find("chanA");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 5u);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(s->values()[static_cast<std::size_t>(k)], at(k * 100 + 1000));
}

TEST(EngineTest, DoubleExternalFeedThrows) {
  Graph g = feedback_graph();
  Engine e(g);
  feed(e, g.find("u"), 0, at(0));
  EXPECT_THROW(feed(e, g.find("u"), 0, at(1)), Error);
}

TEST(EngineTest, SetExternalOnComputedNodeThrows) {
  Graph g = feedback_graph();
  Engine e(g);
  EXPECT_THROW(feed(e, g.find("y"), 0, at(0)), Error);
}

TEST(EngineTest, RetainFloorEnablesPruning) {
  Graph g = feedback_graph();
  Engine e(g);
  for (std::uint64_t k = 0; k < 100; ++k) {
    feed(e, g.find("u"), k, at(static_cast<std::int64_t>(k) * 10));
    e.set_retain_floor(0, k + 1);
  }
  // Old frames are pruned: querying them reports unknown, and feeding an
  // already-pruned iteration is an error.
  EXPECT_FALSE(e.value(0, g.find("y"), 0).has_value());
  EXPECT_TRUE(e.value(0, g.find("y"), 99).has_value());
}

TEST(EngineTest, OnKnownCallbackFires) {
  Graph g = feedback_graph();
  Engine e(g);
  std::vector<std::pair<std::uint64_t, std::int64_t>> seen;
  e.on_known(0, g.find("y"), [&](std::uint64_t k, TimePoint t) {
    seen.emplace_back(k, t.count());
  });
  feed(e, g.find("u"), 0, at(0));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_EQ(seen[0].second, 5000);
}

/// Diamond a → {b, c} → d with a lag-1 feedback d → c, a guarded arc c → d
/// (taken when size > 5) and a tail e. The (node, k) order in which
/// on_known fires is the engine's evaluation order, pinned as observed.
TEST(EngineTest, CallbackOrderUnchanged) {
  GraphBuilder b;
  b.input("u").instant("a").instant("b").instant("c").instant("d");
  b.output("e");
  b.arc("u", "a").fixed(1_ns);
  b.arc("a", "b").fixed(2_ns);
  b.arc("a", "c").fixed(3_ns);
  b.arc("b", "d").fixed(1_ns);
  b.arc("c", "d");
  b.arc("c", "d").fixed(10_ns).when(
      [](const model::TokenAttrs& at, std::uint64_t) { return at.size > 5; });
  b.arc("d", "c").lag(1).fixed(1_ns);
  b.arc("d", "e").fixed(1_ns);
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  std::vector<std::pair<NodeId, std::uint64_t>> seen;
  // b carries no callback, so the chain through it runs without one.
  for (const char* name : {"a", "c", "d", "e"}) {
    const NodeId n = g.find(name);
    e.on_known(0, n, [&, n](std::uint64_t k, TimePoint) {
      seen.emplace_back(n, k);
      // A nested feed from inside the drain only enqueues.
      if (n == g.find("e") && k == 1) feed(e, g.find("u"), 4, at(40));
    });
  }
  model::TokenAttrs small;
  small.size = 1;
  model::TokenAttrs big;
  big.size = 100;
  for (std::uint64_t k = 0; k < 3; ++k)
    feed(e, g.find("u"), k, at(static_cast<std::int64_t>(k) * 10));
  feed_attrs(e, 0, 2, big);
  feed_attrs(e, 0, 0, small);
  feed_attrs(e, 0, 1, big);
  feed_attrs(e, 0, 4, small);
  feed_attrs(e, 0, 3, small);
  feed(e, g.find("u"), 3, at(30));

  const NodeId a = g.find("a"), c = g.find("c"), d = g.find("d"),
               t = g.find("e");
  const std::vector<std::pair<NodeId, std::uint64_t>> expected = {
      {a, 0}, {c, 0}, {a, 1}, {a, 2}, {d, 0}, {t, 0}, {c, 1},
      {d, 1}, {t, 1}, {a, 4}, {c, 2}, {d, 2}, {t, 2}, {a, 3},
      {c, 3}, {d, 3}, {t, 3}, {c, 4}, {d, 4}, {t, 4}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(e.instances_computed(), 25u);
}

/// A callback on a mid-chain node raises the retain floor while the chain is
/// being evaluated; frames are reclaimed once the drain has finished, and
/// the chain continues across the lag-1 arc b → c into the next frame.
/// Every value must match a run that never prunes.
TEST(EngineTest, RetainFloorRaisedInCallbackMidChain) {
  GraphBuilder b;
  b.input("u");
  b.instant("a").instant("b");
  b.instant("c", "chanC").instant("d", "chanD").instant("x", "chanX");
  b.arc("u", "a").fixed(1_ns).when(
      [](const model::TokenAttrs&, std::uint64_t) { return true; });
  b.arc("a", "b").fixed(2_ns);
  b.arc("b", "c").lag(1).fixed(3_ns);
  b.arc("b", "x").fixed(5_ns);
  b.arc("c", "d").fixed(4_ns);
  Graph g = b.take();
  g.freeze();
  constexpr std::uint64_t kIters = 20;

  const auto run = [&](Engine& e) {
    for (std::uint64_t k = 0; k < kIters; ++k)
      feed(e, g.find("u"), k, at(static_cast<std::int64_t>(k) * 7000));
    for (std::uint64_t k = 0; k < kIters; ++k) feed_attrs(e, 0, k, {});
  };

  Engine ref(g);
  run(ref);

  trace::InstantTraceSet instants;
  Engine e(g, sinks(&instants, nullptr));
  std::vector<TimePoint> b_values;
  e.on_known(0, g.find("b"), [&](std::uint64_t k, TimePoint t) {
    b_values.push_back(t);
    e.set_retain_floor(0, k + 1);
  });
  run(e);

  EXPECT_FALSE(e.value(0, g.find("a"), 0).has_value());  // pruned mid-run
  EXPECT_EQ(e.instances_computed(), ref.instances_computed());
  EXPECT_EQ(e.arc_terms_evaluated(), ref.arc_terms_evaluated());
  ASSERT_EQ(b_values.size(), kIters);
  for (std::uint64_t k = 0; k < kIters; ++k)
    EXPECT_EQ(b_values[k], ref.value(0, g.find("b"), k)) << "k=" << k;
  for (const auto& [name, series] :
       {std::pair{"c", "chanC"}, {"d", "chanD"}, {"x", "chanX"}}) {
    const trace::InstantSeries* s = instants.find(series);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_EQ(s->size(), kIters) << name;
    for (std::uint64_t k = 0; k < kIters; ++k)
      EXPECT_EQ(s->values()[k], ref.value(0, g.find(name), k))
          << name << " k=" << k;
  }
}

/// The last dependent a(k) makes ready is c(k + 1), reached through a lag-1
/// out-arc: evaluation continues in the next frame, not in a's.
TEST(EngineTest, LaggedDependentHeldAcrossFrames) {
  GraphBuilder b;
  b.input("u").instant("a").instant("b").instant("c");
  b.arc("u", "a").fixed(1_ns);
  b.arc("a", "b").fixed(2_ns);
  b.arc("a", "c").lag(1).fixed(5_ns);
  b.arc("u", "c");
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  const NodeId u = g.find("u"), a = g.find("a"), bb = g.find("b"),
               c = g.find("c");
  feed(e, u, 1, at(100));
  EXPECT_EQ(e.value(0, a, 1), at(1100));
  EXPECT_FALSE(e.value(0, c, 1).has_value());  // waits for a(0)
  feed(e, u, 0, at(0));
  EXPECT_EQ(e.value(0, a, 0), at(1000));
  EXPECT_EQ(e.value(0, bb, 0), at(3000));
  EXPECT_EQ(e.value(0, c, 0), at(5000));  // max(u(0), origin + 5ns)
  EXPECT_EQ(e.value(0, c, 1), at(6000));  // max(u(1), a(0) + 5ns)
  EXPECT_EQ(e.value(0, bb, 1), at(3100));
  EXPECT_EQ(e.instances_computed(), 6u);
  EXPECT_EQ(e.completed_iterations(), 2u);
}

/// A guard that throws unwinds out of the drain; later feeds must still
/// propagate.
TEST(EngineTest, DrainRecoversAfterThrowingGuard) {
  GraphBuilder b;
  b.input("u").instant("a");
  b.arc("u", "a").fixed(1_ns);
  b.arc("u", "a").fixed(5_ns).when(
      [](const model::TokenAttrs&, std::uint64_t k) {
        if (k == 0) throw Error("guard failure at k = 0");
        return true;
      });
  Graph g = b.take();
  g.freeze();
  Engine e(g);
  const NodeId u = g.find("u"), a = g.find("a");
  feed_attrs(e, 0, 0, {});
  EXPECT_THROW(feed(e, u, 0, at(0)), Error);
  EXPECT_FALSE(e.value(0, a, 0).has_value());
  feed_attrs(e, 0, 1, {});
  feed(e, u, 1, at(100));
  EXPECT_EQ(e.value(0, a, 1), at(5100));
  EXPECT_EQ(e.instances_computed(), 1u);
}

/// Inside an on_known callback the drain is running: a feed only enqueues
/// (the running drain computes it), flush() is a no-op, and a raised retain
/// floor reclaims no frame until the drain has finished.
TEST(EngineTest, FeedAndFlushInsideCallbackOnlyEnqueue) {
  GraphBuilder b;
  b.input("u").instant("a").instant("b");
  b.arc("u", "a").fixed(1_ns);
  b.arc("a", "b").fixed(2_ns);
  b.arc("b", "b").lag(1).fixed(1_ns);
  Graph g = b.take();
  g.freeze();
  const NodeId u = g.find("u"), a = g.find("a"), bb = g.find("b");
  constexpr std::uint64_t kIters = 30;

  Engine e(g);
  std::vector<std::uint64_t> seen;
  e.on_known(0, bb, [&](std::uint64_t k, TimePoint) {
    seen.push_back(k);
    e.set_retain_floor(0, k + 1);
    EXPECT_FALSE(e.flush()) << "k=" << k;
    // Frame 0 outlives every floor raise while the drain runs.
    EXPECT_EQ(e.value(0, a, 0), at(1000)) << "k=" << k;
    if (k + 1 == kIters) return;
    e.set_external(0, u, k + 1, at(static_cast<std::int64_t>(k + 1) * 10));
    EXPECT_TRUE(e.has_work()) << "k=" << k;
    EXPECT_FALSE(e.value(0, a, k + 1).has_value()) << "k=" << k;
  });
  e.set_external(0, u, 0, at(0));
  EXPECT_TRUE(e.flush());  // one drain runs the whole cascade

  ASSERT_EQ(seen.size(), kIters);
  EXPECT_FALSE(e.has_work());
  EXPECT_FALSE(e.value(0, a, 0).has_value());  // reclaimed after the drain
  Engine ref(g);
  for (std::uint64_t k = 0; k < kIters; ++k)
    feed(ref, u, k, at(static_cast<std::int64_t>(k) * 10));
  EXPECT_EQ(e.value(0, bb, kIters - 1), ref.value(0, bb, kIters - 1));
  EXPECT_EQ(e.instances_computed(), ref.instances_computed());
}

TEST(EngineTest, UnfrozenGraphRejected) {
  Graph g;
  EXPECT_THROW(Engine e(g), DescriptionError);
}

// ---------------------------------------------------------------------------
// Simplification and padding
// ---------------------------------------------------------------------------

Graph chain_with_completions() {
  GraphBuilder b;
  b.input("u");
  b.instant("x1");
  Graph g = b.take();
  const NodeId c1 = g.add_node({"c1", NodeKind::kCompletion, -1, false, {}});
  const NodeId c2 = g.add_node({"c2", NodeKind::kCompletion, -1, false, {}});
  const NodeId x1 = g.find("x1");
  g.add_arc({g.find("u"), c1, 0, {Segment{2_ns, nullptr, -1, {}}}, 0, nullptr});
  g.add_arc({c1, c2, 0, {Segment{3_ns, nullptr, -1, {}}}, 0, nullptr});
  g.add_arc({c2, x1, 0, {}, 0, nullptr});
  return g;
}

TEST(SimplifyTest, FoldCollapsesPassThroughChain) {
  Graph g = chain_with_completions();
  Graph folded = fold_pass_through(g);
  EXPECT_EQ(folded.node_count(), 2u);  // u and x1
  EXPECT_EQ(folded.arc_count(), 1u);
  folded.freeze();
  Engine e(folded);
  feed(e, folded.find("u"), 0, at(0));
  EXPECT_EQ(e.value(0, folded.find("x1"), 0), at(5000));  // 2ns + 3ns composed
}

TEST(SimplifyTest, FoldPreservesSemantics) {
  Graph raw = chain_with_completions();
  Graph copy = chain_with_completions();
  Graph folded = fold_pass_through(copy);
  raw.freeze();
  folded.freeze();
  Engine er(raw), ef(folded);
  for (std::uint64_t k = 0; k < 10; ++k) {
    const TimePoint u = at(static_cast<std::int64_t>(k) * 777);
    feed(er, raw.find("u"), k, u);
    feed(ef, folded.find("u"), k, u);
    EXPECT_EQ(er.value(0, raw.find("x1"), k), ef.value(0, folded.find("x1"), k));
  }
  EXPECT_LT(ef.instances_computed(), er.instances_computed());
}

TEST(SimplifyTest, FoldKeepsNodesWithLaggedOutArcs) {
  GraphBuilder b;
  b.input("u").instant("x");
  Graph g = b.take();
  const NodeId c = g.add_node({"c", NodeKind::kCompletion, -1, false, {}});
  g.add_arc({g.find("u"), c, 0, {Segment{1_ns, nullptr, -1, {}}}, 0, nullptr});
  g.add_arc({c, g.find("x"), 1, {}, 0, nullptr});  // lagged out-arc
  Graph folded = fold_pass_through(g);
  EXPECT_EQ(folded.node_count(), 3u);  // cannot fold c
}

TEST(SimplifyTest, PadAddsExactNodeCountPreservingValues) {
  Graph base = feedback_graph();  // frozen; rebuild unfrozen copy
  GraphBuilder b;
  b.input("u").output("y");
  b.arc("u", "y").fixed(5_ns);
  b.arc("y", "y").lag(1).fixed(2_ns);
  Graph unfrozen = b.take();
  Graph padded = pad_graph(unfrozen, 37);
  EXPECT_EQ(padded.node_count(), 2u + 37u);
  padded.freeze();
  Engine ep(padded);
  Engine eb(base);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const TimePoint u = at(static_cast<std::int64_t>(k) * 333);
    feed(ep, padded.find("u"), k, u);
    feed(eb, base.find("u"), k, u);
    EXPECT_EQ(ep.value(0, padded.find("y"), k), eb.value(0, base.find("y"), k));
  }
  // The padded engine does strictly more work — that is its purpose.
  EXPECT_GT(ep.instances_computed(), eb.instances_computed());
}

TEST(SimplifyTest, PadRejectsArclessGraph) {
  GraphBuilder b;
  b.input("u");
  Graph g = b.take();
  EXPECT_THROW(pad_graph(g, 3), DescriptionError);
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST(ExportTest, DotContainsNodesAndHistoryStyle) {
  Graph g = feedback_graph();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph tdg"), std::string::npos);
  EXPECT_NE(dot.find("label=\"u\""), std::string::npos);
  EXPECT_NE(dot.find("(k-1)"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(ExportTest, LinearSystemMatchesEngine) {
  Graph g = feedback_graph();
  Engine e(g);
  auto ex = to_linear_system(
      g, [](model::SourceId, std::uint64_t) { return model::TokenAttrs{}; });
  ASSERT_EQ(ex.input_nodes.size(), 1u);
  ASSERT_EQ(ex.output_nodes.size(), 1u);
  for (std::uint64_t k = 0; k < 25; ++k) {
    const TimePoint u = at(static_cast<std::int64_t>(k * k) * 100);
    feed(e, g.find("u"), k, u);
    mp::Vector uv(1);
    uv[0] = mp::Scalar::from_time(u);
    const auto step = ex.system.step(uv);
    ASSERT_TRUE(e.value(0, g.find("y"), k).has_value());
    EXPECT_EQ(step.y[0].value(), e.value(0, g.find("y"), k)->count())
        << "k=" << k;
  }
}

TEST(ExportTest, ThroughputBoundFindsFeedbackCycle) {
  Graph g = feedback_graph();
  const auto r = throughput_bound(
      g, [](model::SourceId, std::uint64_t) { return model::TokenAttrs{}; });
  ASSERT_TRUE(r.has_cycle);
  EXPECT_NEAR(r.max_ratio, (2_ns).count(), 1.0);  // y->y lag-1 self-loop
}

/// to_ratio_graph as a per-arc, per-sample loop: the construction the
/// sampled one must reproduce bit for bit.
RatioGraph naive_ratio_graph(const Graph& g, const AttrsProvider& attrs,
                             std::uint64_t sample_iterations) {
  RatioGraph out;
  out.nodes = g.node_count();
  for (const Arc& a : g.arcs()) {
    double mean = 0.0;
    std::uint64_t used = 0;
    for (std::uint64_t k = 0; k < sample_iterations; ++k) {
      const model::TokenAttrs at =
          attrs ? attrs(a.attr_source, k) : model::TokenAttrs{};
      if (a.guard && !a.guard(at, k)) continue;
      mean += static_cast<double>(g.arc_weight(a, at, k).count());
      ++used;
    }
    if (used == 0) continue;
    mean /= static_cast<double>(used);
    out.arcs.push_back({static_cast<std::size_t>(a.src),
                        static_cast<std::size_t>(a.dst), mean, a.lag});
  }
  return out;
}

/// Frozen copy of \p g's derived graph with guards added: every third arc
/// is on for two iterations in three (phase set by the token size), and
/// every seventh is never on.
Graph guarded_copy(const Graph& g) {
  Graph out(g.desc());
  for (const Node& n : g.nodes()) out.add_node(n);
  for (std::size_t i = 0; i < g.arc_count(); ++i) {
    Arc a = g.arcs()[i];
    if (i % 3 == 1)
      a.guard = [](const model::TokenAttrs& at, std::uint64_t k) {
        return (k + static_cast<std::uint64_t>(at.size)) % 3 != 0;
      };
    if (i % 7 == 5)
      a.guard = [](const model::TokenAttrs&, std::uint64_t) { return false; };
    out.add_arc(std::move(a));
  }
  out.freeze();
  return out;
}

void expect_bit_identical(const RatioGraph& got, const RatioGraph& ref,
                          const std::string& ctx) {
  ASSERT_EQ(got.nodes, ref.nodes) << ctx;
  ASSERT_EQ(got.arcs.size(), ref.arcs.size()) << ctx;
  for (std::size_t i = 0; i < ref.arcs.size(); ++i) {
    EXPECT_EQ(got.arcs[i].src, ref.arcs[i].src) << ctx << " arc " << i;
    EXPECT_EQ(got.arcs[i].dst, ref.arcs[i].dst) << ctx << " arc " << i;
    EXPECT_EQ(got.arcs[i].lag, ref.arcs[i].lag) << ctx << " arc " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.arcs[i].weight),
              std::bit_cast<std::uint64_t>(ref.arcs[i].weight))
        << ctx << " arc " << i;
  }
}

/// The sampled to_ratio_graph against the naive loop, on the derived graph
/// of \p desc and on a guarded copy, over several sample lengths.
void check_ratio_graph(const model::ArchitectureDesc& desc,
                       const std::string& ctx) {
  Graph g = derive_full_tdg(desc).graph;
  g.freeze();
  const Graph guarded = guarded_copy(g);
  const AttrsProvider attrs = [&desc](model::SourceId s, std::uint64_t k) {
    const auto& fn = desc.sources()[static_cast<std::size_t>(s)].attrs;
    return fn ? fn(k) : model::TokenAttrs{};
  };
  for (const std::uint64_t samples : {1u, 7u, 64u}) {
    const std::string at = ctx + " samples " + std::to_string(samples);
    expect_bit_identical(to_ratio_graph(g, attrs, samples),
                         naive_ratio_graph(g, attrs, samples), at);
    expect_bit_identical(to_ratio_graph(guarded, attrs, samples),
                         naive_ratio_graph(guarded, attrs, samples),
                         at + " guarded");
  }
  expect_bit_identical(to_ratio_graph(guarded, nullptr, 16),
                       naive_ratio_graph(guarded, nullptr, 16),
                       ctx + " no attrs");
}

TEST(ExportTest, RatioGraphMatchesPerArcSampling) {
  lte::ReceiverConfig varying;  // frame parameters change every subframe
  varying.symbols = 200;
  check_ratio_graph(lte::make_receiver(varying), "lte varying");
  lte::ReceiverConfig fixed = varying;
  fixed.fixed_frame = lte::FrameParams{};
  check_ratio_graph(lte::make_receiver(fixed), "lte fixed");
  gen::RandomArchConfig cfg;
  cfg.tokens = 64;
  cfg.second_source_probability = 0.5;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    check_ratio_graph(gen::make_random_architecture(seed, cfg),
                      "random seed " + std::to_string(seed));
}

}  // namespace
}  // namespace maxev::tdg
