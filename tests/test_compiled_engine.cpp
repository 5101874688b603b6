#include <gtest/gtest.h>

#include <vector>

#include "gen/random_arch.hpp"
#include "study/experiment.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/simplify.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// The compiled execution representation (tdg::Engine's CSR/SoA program,
/// docs/DESIGN.md §7) must be an invisible optimization: across random
/// architectures, (a) the equivalent model still reproduces the baseline's
/// instant and usage traces bit-exactly, and (b) the engine's observable
/// behaviour — traces, values and cost counters — is invariant to frame
/// pruning (set_retain_floor) and to the arrival order of token attributes
/// relative to external instants.

namespace maxev::tdg {
namespace {

struct ReplayResult {
  trace::InstantTraceSet instants;
  trace::UsageTraceSet usage;
  std::vector<std::int64_t> offers;  // output offer instants, per (output, k)
  std::uint64_t computed = 0;
  std::uint64_t arc_terms = 0;
};

/// Drive a standalone engine over the derived full-group TDG with
/// deterministic synthetic external feeds. \p attrs_first feeds token
/// attributes before the external instants of each iteration (the reverse
/// models attrs arriving late); \p prune raises the retain floor every
/// iteration (smallest legal window) instead of retaining everything.
void replay(const model::ArchitectureDesc& desc, bool attrs_first, bool prune,
            std::uint64_t tokens, ReplayResult& rr) {
  DerivedTdg derived = derive_full_tdg(desc);
  Graph g = fold_pass_through(derived.graph);
  g.freeze();

  Engine::Options opts;
  opts.instances[0].instant_sink = &rr.instants;
  opts.instances[0].usage_sink = &rr.usage;
  opts.expected_iterations = tokens;
  Engine eng(g, opts);

  struct Feed {
    NodeId node = kNoNode;
    std::int64_t period_ps = 0;
    model::SourceId provenance = 0;
  };
  std::vector<Feed> feeds;
  for (std::size_t i = 0; i < derived.inputs.size(); ++i) {
    const BoundaryInput& bi = derived.inputs[i];
    const std::string& name = bi.fifo ? bi.xw_node : bi.u_node;
    const NodeId n = g.find(name);
    EXPECT_NE(n, kNoNode) << "input node " << name;
    feeds.push_back({n, 1'700'000 + static_cast<std::int64_t>(i) * 311'000,
                     bi.provenance});
  }
  struct Out {
    NodeId offer = kNoNode;
    NodeId actual = kNoNode;
    NodeId xr_actual = kNoNode;
  };
  std::vector<Out> outs;
  for (const BoundaryOutput& bo : derived.outputs) {
    Out o;
    o.offer = g.find(bo.offer_node);
    EXPECT_NE(o.offer, kNoNode);
    if (!bo.actual_node.empty()) o.actual = g.find(bo.actual_node);
    if (!bo.xr_actual_node.empty()) o.xr_actual = g.find(bo.xr_actual_node);
    if (o.actual == o.offer) o.actual = kNoNode;
    outs.push_back(o);
  }

  for (std::uint64_t k = 0; k < tokens; ++k) {
    const auto feed_attrs = [&] {
      for (model::SourceId s = 0;
           s < static_cast<model::SourceId>(desc.sources().size()); ++s) {
        eng.set_attrs(0, s, k,
                      desc.sources()[static_cast<std::size_t>(s)].attrs(k));
        eng.flush();
      }
    };
    const auto feed_externals = [&] {
      for (const Feed& f : feeds) {
        eng.set_external(
            0, f.node, k,
            TimePoint::at_ps(static_cast<std::int64_t>(k) * f.period_ps));
        eng.flush();
      }
    };
    if (attrs_first) {
      feed_attrs();
      feed_externals();
    } else {
      feed_externals();
      feed_attrs();
    }

    // Every output offer is now determined; feed back synthetic "actual"
    // completions (a slow environment) so history arcs stay exercised.
    for (const Out& o : outs) {
      const auto y = eng.value(0, o.offer, k);
      ASSERT_TRUE(y.has_value()) << "offer not computed at k=" << k;
      rr.offers.push_back(y->count());
      TimePoint actual_t = *y + Duration::ns(5 + static_cast<std::int64_t>(k % 7));
      if (o.actual != kNoNode) eng.set_external(0, o.actual, k, actual_t);
      if (o.xr_actual != kNoNode)
        eng.set_external(0, o.xr_actual, k, actual_t + Duration::ns(3));
      eng.flush();
    }
    if (prune) eng.set_retain_floor(0, k + 1);
  }
  rr.computed = eng.instances_computed();
  rr.arc_terms = eng.arc_terms_evaluated();
}

class CompiledEngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledEngineProperty, BaselineTracesReproduced) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  const model::ArchitectureDesc desc =
      gen::make_random_architecture(GetParam(), cfg);
  study::ExperimentOptions opts;
  opts.repetitions = 1;
  const core::Comparison cmp = study::run_comparison(desc, opts);
  EXPECT_TRUE(cmp.baseline.completed);
  EXPECT_TRUE(cmp.equivalent.completed);
  EXPECT_EQ(cmp.instant_mismatch, std::nullopt) << "seed " << GetParam();
  EXPECT_EQ(cmp.usage_mismatch, std::nullopt) << "seed " << GetParam();
}

TEST_P(CompiledEngineProperty, InvariantUnderPruningAndAttrArrivalOrder) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  const model::ArchitectureDesc desc =
      gen::make_random_architecture(GetParam(), cfg);

  ReplayResult ref;
  replay(desc, /*attrs_first=*/true, /*prune=*/false, cfg.tokens, ref);
  EXPECT_GT(ref.computed, 0u);
  for (const bool attrs_first : {true, false}) {
    for (const bool prune : {true, false}) {
      if (attrs_first && !prune) continue;  // the reference itself
      ReplayResult var;
      replay(desc, attrs_first, prune, cfg.tokens, var);
      const std::string ctx = std::string("seed ") +
                              std::to_string(GetParam()) +
                              (attrs_first ? " attrs-first" : " attrs-late") +
                              (prune ? " prune" : " retain");

      // Bit-identical observation traces in both directions.
      EXPECT_EQ(trace::compare_instants(ref.instants, var.instants),
                std::nullopt) << ctx;
      EXPECT_EQ(trace::compare_instants(var.instants, ref.instants),
                std::nullopt) << ctx;
      trace::UsageTraceSet a = ref.usage;
      trace::UsageTraceSet b = var.usage;
      a.sort_all();
      b.sort_all();
      EXPECT_EQ(trace::compare_usage(a, b), std::nullopt) << ctx;
      EXPECT_EQ(trace::compare_usage(b, a), std::nullopt) << ctx;

      // Identical boundary outputs and cost counters: the representation
      // switch and the drive order must not change what (or how much) the
      // engine computes.
      EXPECT_EQ(ref.offers, var.offers) << ctx;
      EXPECT_EQ(ref.computed, var.computed) << ctx;
      EXPECT_EQ(ref.arc_terms, var.arc_terms) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEngineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace maxev::tdg
