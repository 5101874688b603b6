#pragma once

#include <cstddef>
#include <vector>

/// \file cycle_ratio.hpp
/// Maximum cycle ratio analysis for timed event graphs.
///
/// In a (max,+) recurrence the steady-state growth rate of the instants —
/// the reciprocal of the architecture's throughput — is the maximum over all
/// dependency cycles of (sum of durations on the cycle) / (sum of iteration
/// lags on the cycle). This generalizes the (max,+) matrix eigenvalue to
/// graphs whose history arcs carry arbitrary lags.
///
/// We compute it exactly, as the ratio W/L of a critical cycle, by Howard
/// policy iteration (Cochet-Terrasson et al.'s multichain form) over the
/// arcs inside the strongly connected components that hold a lagged arc.
/// Each iteration is linear in those arcs and few are needed in practice;
/// a zero-lag cycle is found by a linear topological sort first. Consumers:
/// tdg::throughput_bound (ablation bench, examples) and the adaptive
/// backend's analytic cross-check (AdaptiveStats::analytic_ratio_ps).

namespace maxev::mp {

/// One arc of the analysis graph. Weights are in picoseconds (double to
/// allow mean-duration analysis of stochastic workloads).
struct RatioArc {
  std::size_t src = 0;
  std::size_t dst = 0;
  double weight = 0.0;  ///< total duration along the arc
  unsigned lag = 0;     ///< iteration-index displacement (0 = same k)
};

/// Result of the analysis.
struct CycleRatioResult {
  /// Maximum cycle ratio in picoseconds per iteration; this is the minimum
  /// steady-state period the architecture can sustain.
  double max_ratio = 0.0;
  /// False when the graph has no cycle containing a lag (pure feed-forward:
  /// throughput limited only by the input rate) or when λ <= 0; max_ratio
  /// is then 0.
  bool has_cycle = false;
};

/// Compute the maximum cycle ratio of the given arc set over \p node_count
/// nodes. A zero-lag positive-weight cycle makes every λ infeasible; this is
/// a malformed instant system and throws maxev::DescriptionError. An arc
/// endpoint out of range or a non-finite weight throws maxev::Error, as
/// does policy iteration hitting its iteration cap (no value is returned
/// then).
[[nodiscard]] CycleRatioResult max_cycle_ratio(std::size_t node_count,
                                               const std::vector<RatioArc>& arcs);

}  // namespace maxev::mp
