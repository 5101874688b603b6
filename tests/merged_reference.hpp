#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/equivalent_model.hpp"
#include "study/backend.hpp"
#include "study/scenario.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file merged_reference.hpp
/// The reference executors of the composed-run suites.
///  * merged_reference(): the zero-group core::EquivalentModel over a
///    composed scenario's merged description — every instance's
///    abstraction on one width-1 tdg::Engine, the graph padded pad × N
///    (ScenarioOptions::pad_nodes is per instance). Built directly, not
///    through a study::Backend, so it stays independent of the backend's
///    grouping; it is the executor whose counts (instances, relation
///    events, kernel events) a sub-batched run must reproduce.
///  * expect_matches_baseline(): the paper's oracle, the event-driven
///    baseline of the same scenario, which no engine refactoring touches.

namespace maxev {

inline std::unique_ptr<core::EquivalentModel> merged_reference(
    const study::Scenario& composed) {
  core::EquivalentModel::Options opts;
  opts.fold = composed.options().fold;
  opts.pad_nodes =
      composed.options().pad_nodes * composed.instances().size();
  opts.expected_iterations = composed.options().expected_iterations;
  return std::make_unique<core::EquivalentModel>(
      composed.desc_ptr(), composed.options().group, opts);
}

/// \p got (a completed run of \p scenario) must reproduce the baseline's
/// instants in both directions and its usage as sorted multisets.
inline void expect_matches_baseline(const study::Scenario& scenario,
                                    const study::Model& got,
                                    const std::string& context) {
  auto base = study::Backend::baseline().instantiate(scenario);
  ASSERT_TRUE(base->run().completed) << context;
  EXPECT_EQ(trace::compare_instants(base->instants(), got.instants()),
            std::nullopt)
      << context << " vs baseline";
  EXPECT_EQ(trace::compare_instants(got.instants(), base->instants()),
            std::nullopt)
      << context << " vs baseline";
  trace::UsageTraceSet bu = base->usage();
  trace::UsageTraceSet gu = got.usage();
  bu.sort_all();
  gu.sort_all();
  EXPECT_EQ(trace::compare_usage(bu, gu), std::nullopt)
      << context << " vs baseline";
}

}  // namespace maxev
