#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "tdg/batch_engine.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/graph.hpp"

/// \file batch_equivalent_model.hpp
/// The batched multi-instance equivalent model (docs/DESIGN.md §9–§10).
///
/// A composed scenario (study::compose) runs N instances in one simulation
/// kernel. Instances sharing one architecture description form an
/// *equal-structure sub-batch*: the TDG of that shared base description is
/// derived and compiled once (one tdg::Program) and evaluated for every
/// member through one tdg::BatchEngine — a shared frame arena with
/// contiguous per-node instance lanes, iteration fronts drained at
/// timestep boundaries (sim::Kernel::set_timestep_hook). A heterogeneous
/// composition carries SEVERAL such sub-batches side by side (the
/// carrier-aggregation case: 4+4 receivers of two variants), plus an
/// *isolated remainder* — instances whose description nobody else shares —
/// evaluated by one inline tdg::Engine over the merged description's TDG
/// restricted to their functions, exactly the graph the isolated merged
/// path would build for them. All of it runs inside ONE kernel over ONE
/// merged model::ModelRuntime.
///
/// The simulated side is byte-for-byte the merged path: the same
/// model::ModelRuntime over the merged description simulates sources,
/// sinks and non-abstracted functions, so kernel behaviour — and with it
/// every per-instance trace — stays bit-identical to both the merged
/// equivalent model and the N solo runs. The boundary protocol (gated
/// reception, emission processes, virtual FIFO readers, retain floors,
/// parked-gate diagnostics) is core::Boundary, the same component
/// core::EquivalentModel uses:
///  * each group member gets one Boundary over its BatchEngine lane
///    (BatchLane), placed at the member's merged-table span and naming its
///    parked gates "<member>/<node>@k=<k>". Its retain floor is per
///    member; the group's shared arena reclaims a frame once every member
///    has moved past it;
///  * the isolated remainder gets one Boundary over its inline engine
///    (SoloLane), exactly as the merged equivalent model wires it.
///
/// Merged-id ↔ base-id translation is per *instance span*: each member
/// records the begin offsets of its entity blocks in the merged tables
/// (study::Instance), so groups of unequal size can interleave with the
/// remainder in any composition order.

namespace maxev::util {
class ThreadPool;
}  // namespace maxev::util

namespace maxev::core {

class BatchEquivalentModel {
 public:
  /// Begin offsets of one member instance's entity blocks in the merged
  /// description's tables (the sizes are the group base's table sizes).
  struct InstanceSpan {
    std::size_t fn = 0, ch = 0, res = 0, src = 0, sink = 0;
  };

  /// One equal-structure sub-batch: a shared base description, the
  /// abstraction group over its functions, and the member instances.
  /// The merged slice at every member's span must replicate the base
  /// structurally (model::structurally_equal's surface, names carrying the
  /// "<member>/" prefix) — validated at construction. The behavioural
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
    /// Pass-through padding nodes *per instance* (Fig. 5 sweeps): each
    /// group's base graph gains this many (evaluated once per member) and
    /// the isolated remainder graph gains isolated_instances times this
    /// many — so every leg of a mixed composition runs the same padded
    /// work as the fully-isolated merged path, which pads N-fold.
    std::size_t pad_nodes = 0;
    /// Record instant/usage traces ("observation time").
    bool observe = true;
    /// Capacity hint for the observation sinks: expected iteration count
    /// per instance. 0 = derive from each group's base description.
    std::size_t expected_iterations = 0;
    /// Merged-level function flags of the *isolated remainder*: functions
    /// of instances outside every group that the equivalent model
    /// abstracts. Empty = no remainder; everything outside the groups is
    /// simulated.
    std::vector<bool> isolated_group;
    /// Number of remainder instances (pad_nodes accounting only).
    std::size_t isolated_instances = 0;
    /// Worker threads draining the per-group engines between timestep
    /// barriers (docs/DESIGN.md §11): the compute phase runs each group's
    /// flush on its own worker with callbacks deferred, then a serial
    /// publish phase fires them in group order — bit-identical to the
    /// serial drain. 1 = serial (also used when there are < 2 groups);
    /// 0 = one per hardware thread.
    int threads = 1;
    /// Source of the compiled abstractions (per-group base graphs and the
    /// isolated remainder). Null = compile here; a serve::ProgramCache
    /// deduplicates across study cells and composed sub-batches.
    CompiledProvider* compiled = nullptr;
  };

  /// Grouped construction: \p groups equal-structure sub-batches (each
  /// with >= 1 member) over the \p merged description, remainder per
  /// Options::isolated_group.
  /// \throws maxev::DescriptionError when any member's merged slice is not
  ///         a structural replication of its group's base.
  BatchEquivalentModel(model::DescPtr merged, std::vector<GroupSpec> groups,
                       Options opts);

  BatchEquivalentModel(const BatchEquivalentModel&) = delete;
  BatchEquivalentModel& operator=(const BatchEquivalentModel&) = delete;
  /// Out of line: pool_ holds a forward-declared util::ThreadPool.
  ~BatchEquivalentModel();

  /// Run to completion (or horizon). Same outcome semantics as the merged
  /// equivalent model.
  model::ModelRuntime::Outcome run(
      std::optional<TimePoint> until = std::nullopt);

  [[nodiscard]] model::ModelRuntime& runtime() { return *runtime_; }
  /// Number of equal-structure sub-batches.
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  /// Per-group accessors.
  [[nodiscard]] const tdg::Graph& graph(std::size_t g) const {
    return groups_[g].compiled->graph;
  }
  [[nodiscard]] const tdg::BatchEngine& engine(std::size_t g) const {
    return *groups_[g].engine;
  }
  /// The isolated remainder's inline engine; null when there is none.
  [[nodiscard]] const tdg::Engine* isolated_engine() const {
    return iso_engine_.get();
  }

  /// \name Aggregate cost counters / compiled shape (groups + remainder)
  /// @{
  [[nodiscard]] std::uint64_t instances_computed() const;
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const;
  /// Summed over every compiled graph: the per-group base graphs plus the
  /// remainder graph — the memory-resident program size, NOT the N-fold
  /// merged graph the isolated path would compile.
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
    std::vector<bool> gflags;            // base-level, expanded
    std::vector<std::string> names;
    std::vector<InstanceSpan> spans;
    CompiledPtr compiled;  ///< frozen base graph + program + boundaries
    std::unique_ptr<tdg::BatchEngine> engine;
    /// One boundary per member, on the member's engine lane.
    std::vector<std::unique_ptr<Boundary<BatchLane>>> boundaries;
  };

  void build_group(std::size_t g, const Options& opts);
  void build_isolated(const Options& opts);

  model::DescPtr desc_;  // merged (runtime side)
  std::vector<Group> groups_;
  CompiledPtr iso_compiled_;
  std::unique_ptr<tdg::Engine> iso_engine_;
  std::optional<Boundary<SoloLane>> iso_boundary_;
  std::unique_ptr<model::ModelRuntime> runtime_;
  /// Present only when Options::threads enables the parallel drain.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Per-group "flush did work" flags of one hook invocation (char, not
  /// bool: vector<bool> packs bits and adjacent writes would race).
  std::vector<char> drained_;
};

}  // namespace maxev::core
