#pragma once

#include <memory>

#include "core/equivalent_model.hpp"
#include "study/scenario.hpp"

/// \file merged_reference.hpp
/// The reference executor of the composed-run suites: the zero-group
/// core::EquivalentModel over a composed scenario's merged description —
/// every instance's abstraction on one inline tdg::Engine, the graph padded
/// pad × N (ScenarioOptions::pad_nodes is per instance). Sub-batched runs
/// must reproduce its traces bit for bit. Built directly, not through a
/// study::Backend, so it stays independent of the backend's grouping.

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

}  // namespace maxev
