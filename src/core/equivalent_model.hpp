#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/boundary.hpp"
#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/graph.hpp"

/// \file equivalent_model.hpp
/// The equivalent executable model (paper Sections III-A and IV, Fig. 4).
///
/// A group of architecture functions is replaced, as seen by the simulation
/// kernel, by:
///  * a *Reception* side: boundary input channels run in gated-reader mode —
///    each offer u(k) triggers ComputeInstant() (the TDG engine), and the
///    input rendezvous is completed at the *computed* instant x_in(k), so
///    producers observe exactly the back-pressure of the abstracted
///    processes;
///  * a *Emission* process per boundary output: output token k is offered at
///    the computed instant y(k); the actual completion instant (possibly
///    later, if the environment is slow) is fed back into the engine's
///    history, so environment back-pressure propagates into iteration k+1
///    exactly as in the event-driven model.
///
/// Both sides are one core::Boundary over the inline tdg::Engine — the
/// same protocol component the batched model (batch_equivalent_model.hpp)
/// wires per sub-batch member and for its isolated remainder.
///
/// All internal channels of the group are never constructed: their events
/// are the events the method saves. Their instants, and the busy intervals
/// of every execute statement, are still recorded — computed, not simulated
/// — which is the paper's accuracy claim.

namespace maxev::core {

class EquivalentModel {
 public:
  struct Options {
    /// Fold pass-through completion nodes (paper's Fig. 3 compact form).
    bool fold = true;
    /// Insert this many pass-through padding nodes (Fig. 5 sweeps).
    std::size_t pad_nodes = 0;
    /// Record instant/usage traces ("observation time"). Disable for pure
    /// simulation-speed measurements.
    bool observe = true;
    /// Capacity hint for the observation sinks: expected iteration count.
    /// 0 = derive from the description (total source tokens).
    std::size_t expected_iterations = 0;
    /// Source of the compiled abstraction (derive + fold + pad + freeze +
    /// Program::compile). Null = compile here; a serve::ProgramCache makes
    /// repeated constructions of the same abstraction reuse one artifact.
    CompiledProvider* compiled = nullptr;
  };

  /// Abstract the functions marked in \p group (empty = all functions).
  /// Shares ownership of the description with the caller (the study layer
  /// hands the same description to several backends without copies).
  EquivalentModel(model::DescPtr desc, std::vector<bool> group);
  EquivalentModel(model::DescPtr desc, std::vector<bool> group, Options opts);
  /// Convenience overloads for single-model runs: copy the description
  /// into shared ownership (one validated copy at construction; safe with
  /// temporaries). Deliberately kept: tests, benches and examples build
  /// descriptions ad hoc and run one model — a copy there is simpler and
  /// harmless. Use the model::DescPtr overloads wherever one description
  /// feeds several models (the study layer always does).
  EquivalentModel(const model::ArchitectureDesc& desc, std::vector<bool> group);
  EquivalentModel(const model::ArchitectureDesc& desc, std::vector<bool> group,
                  Options opts);

  EquivalentModel(const EquivalentModel&) = delete;
  EquivalentModel& operator=(const EquivalentModel&) = delete;

  /// Run to completion (or horizon). Same outcome semantics as the baseline.
  model::ModelRuntime::Outcome run(
      std::optional<TimePoint> until = std::nullopt);

  [[nodiscard]] model::ModelRuntime& runtime() { return *runtime_; }
  [[nodiscard]] const tdg::Graph& graph() const { return compiled_->graph; }
  [[nodiscard]] const tdg::Engine& engine() const { return *engine_; }
  /// Mutable engine access for cooperating observers (the adaptive backend
  /// raises the retain margin and snapshots history windows).
  [[nodiscard]] tdg::Engine& engine_mut() { return *engine_; }
  /// The compiled abstraction backing this model: frozen graph, program and
  /// boundary metadata (the adaptive certifier walks inputs/outputs).
  [[nodiscard]] const CompiledAbstraction& compiled() const {
    return *compiled_;
  }
  [[nodiscard]] const model::DescPtr& desc_ptr() const { return desc_; }
  /// The normalized abstraction group (empty = all functions).
  [[nodiscard]] const std::vector<bool>& group() const { return group_; }
  [[nodiscard]] const trace::InstantTraceSet& instants() const {
    return runtime_->instants();
  }
  [[nodiscard]] const trace::UsageTraceSet& usage() const {
    return runtime_->usage();
  }
  [[nodiscard]] std::uint64_t relation_events() const {
    return runtime_->relation_events();
  }
  [[nodiscard]] const sim::KernelStats& kernel_stats() const {
    return runtime_->kernel_stats();
  }
  [[nodiscard]] TimePoint end_time() const { return runtime_->end_time(); }

 private:
  model::DescPtr desc_;
  std::vector<bool> group_;
  CompiledPtr compiled_;  ///< frozen graph + program + boundary metadata
  std::optional<Boundary<SoloLane>> boundary_;  ///< reception + emission
  std::unique_ptr<model::ModelRuntime> runtime_;
  std::unique_ptr<tdg::Engine> engine_;
};

}  // namespace maxev::core
