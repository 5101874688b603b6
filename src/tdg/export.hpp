#pragma once

#include <functional>
#include <string>
#include <vector>

#include "maxplus/cycle_ratio.hpp"
#include "maxplus/linear_system.hpp"
#include "model/token.hpp"
#include "tdg/graph.hpp"

/// \file export.hpp
/// Views of a temporal dependency graph in other formalisms:
///  * Graphviz DOT, for documentation and debugging;
///  * the paper's matrix form (equations (7)-(10)) as an mp::LinearSystem —
///    used by the test suite to cross-validate the graph engine against
///    plain (max,+) matrix algebra;
///  * a cycle-ratio analysis graph, giving the architecture's analytic
///    steady-state throughput bound (ablation benchmark, adaptive backend
///    cross-check).

namespace maxev::tdg {

/// Render the graph in Graphviz DOT. History (lag >= 1) arcs are dashed and
/// annotated "k-<lag>"; execute segments show their labels.
[[nodiscard]] std::string to_dot(const Graph& g);

/// Attribute provider for matrix extraction: attrs of source s at iteration
/// k (must agree with what the engine receives at run time).
using AttrsProvider =
    std::function<model::TokenAttrs(model::SourceId, std::uint64_t)>;

/// Result of matrix extraction: the system plus the state/input orderings.
struct ExtractedSystem {
  mp::LinearSystem system;
  std::vector<NodeId> state_nodes;   ///< state vector order
  std::vector<NodeId> input_nodes;   ///< input vector order
  std::vector<NodeId> output_nodes;  ///< output vector order
};

/// Extract X(k) = ⊕_i A(k,i) X(k-i) ⊕ B(k,0) U(k), Y(k) = C X(k) from the
/// graph. State nodes are all non-input nodes; outputs are the kOutput
/// nodes. Guards evaluate inside the k-varying matrices. The system is
/// configured with pre-history e (the engine's simulation-origin
/// convention). \pre g.frozen()
[[nodiscard]] ExtractedSystem to_linear_system(const Graph& g,
                                               AttrsProvider attrs);

/// The cycle-ratio analysis graph: mean arc durations sampled over
/// iterations [0, sample_iterations) with the given attribute provider
/// (arcs guarded off at every sampled k are dropped). The provider is
/// called once per (source, k) for every source an arc reads; a guard-free,
/// execute-free arc is evaluated once. Consumed by mp::max_cycle_ratio
/// through throughput_bound and by the adaptive backend's analytic
/// cross-check (AdaptiveStats::analytic_ratio_ps).
struct RatioGraph {
  std::size_t nodes = 0;
  std::vector<mp::RatioArc> arcs;
};

/// \pre g.frozen(), sample_iterations >= 1
[[nodiscard]] RatioGraph to_ratio_graph(const Graph& g,
                                        const AttrsProvider& attrs,
                                        std::uint64_t sample_iterations = 64);

/// Build the cycle-ratio analysis graph using mean arc durations sampled
/// over iterations [0, sample_iterations) with the given attribute
/// provider. The maximum cycle ratio bounds the steady-state input period
/// below which the architecture saturates.
[[nodiscard]] mp::CycleRatioResult throughput_bound(
    const Graph& g, const AttrsProvider& attrs,
    std::uint64_t sample_iterations = 64);

}  // namespace maxev::tdg
