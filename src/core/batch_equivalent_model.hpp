#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "sim/event.hpp"
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
/// equivalent model and the N solo runs. Boundary wiring (gated reception,
/// emission processes, virtual FIFO readers) deliberately *mirrors*
/// core::EquivalentModel per instance instead of sharing code with it —
/// the sides index different engines (solo vs batch lane) and the accuracy
/// claim rests on all of them implementing the same boundary protocol: any
/// change to that protocol in equivalent_model.cpp must be mirrored here
/// (the bit-identity suite in tests/test_batch_engine.cpp catches
/// divergence). The remaining behavioural differences of the batched side:
///  * a gated input offer is answered inline when its completion instant
///    is already computable (tdg::BatchEngine::resolve_now — the
///    inline-resume fast path, docs/DESIGN.md §10); otherwise it parks and
///    the timestep boundary resolves it at the same simulated instant,
///    resuming the writer without a queue round-trip when the computed
///    instant is the current one (sim::Kernel::resume_now);
///  * retain floors are tracked per member instance; a group's shared
///    arena reclaims a frame once every member has moved past it.
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

  /// Homogeneous convenience (the PR-4 shape): the merged description is
  /// an N-fold replication of \p base; instance i occupies block
  /// [i*n, (i+1)*n) of every table.
  BatchEquivalentModel(model::DescPtr merged, model::DescPtr base,
                       std::vector<std::string> instance_names,
                       std::vector<bool> group);
  BatchEquivalentModel(model::DescPtr merged, model::DescPtr base,
                       std::vector<std::string> instance_names,
                       std::vector<bool> group, Options opts);

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
  /// The first group's base graph / engine — the whole model's, for the
  /// homogeneous single-group case the convenience constructors build.
  [[nodiscard]] const tdg::Graph& graph() const {
    return groups_[0].compiled->graph;
  }
  [[nodiscard]] const tdg::BatchEngine& engine() const {
    return *groups_[0].engine;
  }
  /// Per-group accessors (grouped construction).
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
  /// Boundary state of one group member's input/output, mirroring
  /// core::EquivalentModel's wiring with the member's batch lane and
  /// merged-table span attached.
  struct InputState {
    tdg::BoundaryInput meta;              // base-description ids/names
    std::size_t grp = 0;                  // sub-batch
    std::size_t inst = 0;                 // lane within the sub-batch
    model::SourceId src_base = 0;         // member's source-span begin
    model::ChannelId merged_channel = model::kInvalidId;
    tdg::NodeId u = tdg::kNoNode;
    tdg::NodeId x = tdg::kNoNode;
    tdg::NodeId xw = tdg::kNoNode;
    tdg::NodeId xr = tdg::kNoNode;
    std::uint64_t next_k = 0;
    bool parked = false;
    std::uint64_t parked_k = 0;
    std::uint64_t consumed = 0;
    std::unique_ptr<sim::Event> ready;
  };

  struct OutputState {
    tdg::BoundaryOutput meta;
    std::size_t grp = 0;
    std::size_t inst = 0;
    model::SourceId src_base = 0;
    model::ChannelId merged_channel = model::kInvalidId;
    tdg::NodeId offer = tdg::kNoNode;
    tdg::NodeId actual = tdg::kNoNode;
    tdg::NodeId xr_actual = tdg::kNoNode;
    std::uint64_t emitted = 0;
    std::unique_ptr<sim::Event> ready;
  };

  /// One equal-structure sub-batch at run time.
  struct Group {
    model::DescPtr base;
    std::vector<bool> gflags;            // base-level, expanded
    std::vector<std::string> names;
    std::vector<InstanceSpan> spans;
    CompiledPtr compiled;  ///< frozen base graph + program + boundaries
    std::unique_ptr<tdg::BatchEngine> engine;
    std::size_t in_begin = 0, n_in = 0;    // per-member strides in inputs_
    std::size_t out_begin = 0, n_out = 0;  // per-member strides in outputs_
  };

  /// Isolated-remainder boundary state (inline tdg::Engine, merged ids —
  /// the EquivalentModel wiring verbatim).
  struct IsoInputState {
    tdg::BoundaryInput meta;
    tdg::NodeId u = tdg::kNoNode;
    tdg::NodeId x = tdg::kNoNode;
    tdg::NodeId xw = tdg::kNoNode;
    tdg::NodeId xr = tdg::kNoNode;
    std::uint64_t next_k = 0;
    bool parked = false;
    std::uint64_t parked_k = 0;
    std::uint64_t consumed = 0;
    std::unique_ptr<sim::Event> ready;
  };

  struct IsoOutputState {
    tdg::BoundaryOutput meta;
    tdg::NodeId offer = tdg::kNoNode;
    tdg::NodeId actual = tdg::kNoNode;
    tdg::NodeId xr_actual = tdg::kNoNode;
    std::uint64_t emitted = 0;
    std::unique_ptr<sim::Event> ready;
  };

  void build_group(std::size_t g, const Options& opts);
  void build_isolated(const Options& opts);
  void wire_input(std::size_t idx);
  void wire_output(std::size_t idx);
  sim::Process emission_proc(std::size_t idx);
  sim::Process virtual_fifo_reader_proc(std::size_t idx);
  void raise_retain_floor(std::size_t grp, std::size_t inst);
  void wire_iso_input(std::size_t idx);
  void wire_iso_output(std::size_t idx);
  sim::Process iso_emission_proc(std::size_t idx);
  sim::Process iso_virtual_fifo_reader_proc(std::size_t idx);
  void raise_iso_retain_floor();

  model::DescPtr desc_;  // merged (runtime side)
  std::vector<Group> groups_;
  std::vector<InputState> inputs_;    // group-major, then member-major
  std::vector<OutputState> outputs_;
  CompiledPtr iso_compiled_;
  std::unique_ptr<tdg::Engine> iso_engine_;
  std::vector<IsoInputState> iso_inputs_;
  std::vector<IsoOutputState> iso_outputs_;
  std::unique_ptr<model::ModelRuntime> runtime_;
  /// Present only when Options::threads enables the parallel drain.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Per-group "flush did work" flags of one hook invocation (char, not
  /// bool: vector<bool> packs bits and adjacent writes would race).
  std::vector<char> drained_;
};

}  // namespace maxev::core
