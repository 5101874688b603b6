#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/graph.hpp"

/// \file equivalent_model.hpp
/// The equivalent executable model (paper Sections III-A and IV, Fig. 4;
/// docs/DESIGN.md §9–§11).
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
/// Both sides are one core::Boundary per abstraction. All internal channels
/// of the group are never constructed: their events are the events the
/// method saves. Their instants, and the busy intervals of every execute
/// statement, are still recorded — computed, not simulated — which is the
/// paper's accuracy claim.
///
/// One model::ModelRuntime over the description simulates sources, sinks
/// and every function outside the abstraction. The abstracted functions
/// are evaluated by:
///  * zero or more *sub-batches* (GroupSpec): instances of a composed
///    description (study::compose) that share one base description. The
///    base TDG is compiled once and evaluated for every member by one
///    tdg::Engine lane each, with one Boundary<BatchLane> per member at
///    its merged-table span. Iteration fronts drain at timestep boundaries
///    (sim::Kernel::set_timestep_hook), optionally on worker threads;
///  * the *inline remainder*: the description's TDG restricted to the
///    remaining abstracted functions, evaluated by one width-1 tdg::Engine
///    behind one eager Boundary<SoloLane>.
///
/// A plain scenario is the zero-group case: runtime + Engine + one
/// Boundary<SoloLane>, with no timestep hook and no drain crew, so the
/// kernel keeps its hook-less run loop.

namespace maxev::util {
class Crew;
}  // namespace maxev::util

namespace maxev::core {

class EquivalentModel {
 public:
  /// Begin offsets of one sub-batch member's entity blocks in the
  /// description's tables (the sizes are the group base's table sizes).
  struct InstanceSpan {
    std::size_t fn = 0, ch = 0, res = 0, src = 0, sink = 0;
  };

  /// One equal-structure sub-batch: a shared base description, the
  /// abstraction group over its functions, and the member instances.
  /// The description's slice at every member's span must replicate the
  /// base structurally (model::structurally_equal's surface, names carrying
  /// the "<member>/" prefix) — validated at construction. The behavioural
  /// (std::function) identity of the members' workloads cannot be checked
  /// here; the study layer guarantees it by handing every member the SAME
  /// model::DescPtr (docs/DESIGN.md §10 grouping rules).
  struct GroupSpec {
    model::DescPtr base;
    /// Base-level abstraction group; empty = abstract every function.
    std::vector<bool> group;
    std::vector<std::string> names;  ///< member names (trace prefixes)
    std::vector<InstanceSpan> spans; ///< parallel to names
  };

  struct Options {
    /// Fold pass-through completion nodes (paper's Fig. 3 compact form).
    bool fold = true;
    /// Pass-through padding nodes per instance (Fig. 5 sweeps). Each
    /// sub-batch's base graph gains this many (evaluated once per member);
    /// the inline remainder graph gains remainder_instances times this
    /// many — so every leg of a composition runs the same padded work.
    std::size_t pad_nodes = 0;
    /// Instances the inline remainder spans (padding accounting only).
    std::size_t remainder_instances = 1;
    /// Record instant/usage traces ("observation time"). Disable for pure
    /// simulation-speed measurements.
    bool observe = true;
    /// Capacity hint for the observation sinks: expected iteration count
    /// per instance. 0 = derive from each graph's description (total
    /// source tokens).
    std::size_t expected_iterations = 0;
    /// Worker threads draining the sub-batch engines between timestep
    /// barriers (docs/DESIGN.md §11): the compute phase runs each group's
    /// flush on its own worker with callbacks deferred, then a serial
    /// publish phase fires them in group order — bit-identical to the
    /// serial drain. 1 = serial (also used when there are < 2 groups);
    /// 0 = one per hardware thread; negative values are rejected.
    int threads = 1;
    /// Source of the compiled abstractions (derive + fold + pad + freeze +
    /// Program::compile). Null = compile here; a serve::ProgramCache makes
    /// repeated constructions of the same abstraction reuse one artifact.
    CompiledProvider* compiled = nullptr;
  };

  /// Abstract the functions marked in \p group on the inline engine and
  /// every sub-batch of \p groups on its multi-lane engine. \p group is
  /// description-level; flags inside a sub-batch member's function block
  /// are ignored (the member's GroupSpec::group governs them), and empty
  /// = every function outside the sub-batches. With sub-batches, a
  /// remainder that abstracts no function builds no inline engine.
  /// Shares ownership of the description with the caller (the study layer
  /// hands the same description to several backends without copies).
  /// \throws maxev::DescriptionError when any member's slice is not a
  ///         structural replication of its group's base, or spans overlap.
  /// \throws maxev::Error when Options::threads is negative.
  EquivalentModel(model::DescPtr desc, std::vector<bool> group);
  EquivalentModel(model::DescPtr desc, std::vector<bool> group, Options opts,
                  std::vector<GroupSpec> groups = {});
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
  /// Out of line: crew_ holds a forward-declared util::Crew.
  ~EquivalentModel();

  /// Run to completion (or horizon). Same outcome semantics as the baseline.
  model::ModelRuntime::Outcome run(
      std::optional<TimePoint> until = std::nullopt);

  [[nodiscard]] model::ModelRuntime& runtime() { return *runtime_; }
  [[nodiscard]] const model::DescPtr& desc_ptr() const { return desc_; }
  /// The normalized inline-remainder group (description-sized).
  [[nodiscard]] const std::vector<bool>& group() const { return group_; }

  /// \name The inline remainder
  /// Present in every zero-group model; with sub-batches only when the
  /// remainder abstracts a function.
  /// @{
  [[nodiscard]] const tdg::Graph& graph() const { return compiled_->graph; }
  [[nodiscard]] const tdg::Engine& engine() const { return *engine_; }
  /// Mutable engine access for cooperating observers (the adaptive backend
  /// raises the retain margin and snapshots history windows).
  [[nodiscard]] tdg::Engine& engine_mut() { return *engine_; }
  /// The compiled abstraction backing the inline engine: frozen graph,
  /// program and boundary metadata (the adaptive certifier walks
  /// inputs/outputs).
  [[nodiscard]] const CompiledAbstraction& compiled() const {
    return *compiled_;
  }
  /// @}

  /// Sub-batch \p g's engine (one lane per member).
  [[nodiscard]] const tdg::Engine& engine(std::size_t g) const {
    return *groups_[g].engine;
  }

  /// \name Aggregate cost counters / compiled shape (groups + remainder)
  /// @{
  [[nodiscard]] std::uint64_t instances_computed() const;
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const;
  /// Summed over every compiled graph: the per-group base graphs plus the
  /// remainder graph — the memory-resident program size, NOT the N-fold
  /// merged graph a zero-group model of the same composition compiles.
  struct CompiledShape {
    std::size_t nodes = 0;
    std::size_t paper_nodes = 0;
    std::size_t arcs = 0;
  };
  [[nodiscard]] CompiledShape compiled_shape() const;
  /// @}

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
  /// One equal-structure sub-batch at run time.
  struct Group {
    model::DescPtr base;
    std::vector<bool> gflags;  // base-level, expanded
    std::vector<std::string> names;
    std::vector<InstanceSpan> spans;
    CompiledPtr compiled;  ///< frozen base graph + program + boundaries
    std::unique_ptr<tdg::Engine> engine;
    /// One boundary per member, on the member's engine lane.
    std::vector<std::unique_ptr<Boundary<BatchLane>>> boundaries;
  };

  void build_group(Group& grp, const Options& opts);
  void build_remainder(const Options& opts);
  void install_drain(int threads);

  model::DescPtr desc_;
  std::vector<bool> group_;
  std::vector<Group> groups_;
  CompiledPtr compiled_;  ///< the inline remainder's abstraction
  std::unique_ptr<tdg::Engine> engine_;
  std::optional<Boundary<SoloLane>> boundary_;  ///< reception + emission
  std::unique_ptr<model::ModelRuntime> runtime_;
  /// Per-group "flush did work" flags of one parallel drain (char, not
  /// bool: vector<bool> packs bits and adjacent writes would race).
  std::vector<char> drained_;
  /// One group's flush_deferred, the crew's body at every parallel drain.
  std::function<void(std::size_t)> drain_body_;
  /// Present only when Options::threads enables the parallel drain.
  /// Declared after everything its workers touch, so it joins them first.
  std::unique_ptr<util::Crew> crew_;
};

}  // namespace maxev::core
