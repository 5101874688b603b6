#pragma once

#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "model/desc.hpp"

/// \file experiment.hpp
/// The validation protocol of paper Section IV: "comparing simulation speed
/// and accuracy among architecture models captured with and without the
/// proposed modeling approach".
///
/// run_comparison() executes the event-driven baseline and the equivalent
/// model on the same description, measures wall-clock medians over
/// repetitions, computes the event ratio and speed-up, and checks that
/// evolution instants and resource-usage traces are identical.
///
/// Both functions are thin wrappers over study::Study (src/study/study.hpp):
/// a comparison is a two-backend study with the baseline as reference. Use
/// the study API directly for wider matrices — more backends, many
/// scenarios, multi-instance composition.

namespace maxev::study {

struct ExperimentOptions {
  /// Abstraction group (empty = abstract every function).
  std::vector<bool> group;
  /// Fold pass-through nodes (see tdg/simplify.hpp).
  bool fold = true;
  /// Padding nodes for computation-complexity sweeps (Fig. 5).
  std::size_t pad_nodes = 0;
  /// Wall-clock repetitions; the median is reported.
  int repetitions = 3;
  /// Record observation traces during the measured runs. When false, the
  /// runs measure pure simulation speed and compare_traces is ignored.
  bool observe = true;
  /// Compare instant and usage traces (accuracy check).
  bool compare_traces = true;
  /// Require both models to reach completion.
  bool require_completion = true;
  /// Wall-clock nanoseconds of synthetic per-event cost applied to *both*
  /// kernels (event-cost sensitivity; 0 = this library's native cost).
  double event_overhead_ns = 0.0;
};

/// Run one measured run of the baseline model only.
[[nodiscard]] core::RunMetrics measure_baseline(
    const model::ArchitectureDesc& desc, int repetitions = 3);

/// Run the full paired comparison.
[[nodiscard]] core::Comparison run_comparison(
    const model::ArchitectureDesc& desc, const ExperimentOptions& opts = {});

}  // namespace maxev::study
