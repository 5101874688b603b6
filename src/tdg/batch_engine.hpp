#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "maxplus/scalar.hpp"
#include "model/token.hpp"
#include "tdg/graph.hpp"
#include "tdg/program.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file batch_engine.hpp
/// Batched multi-instance execution of one temporal dependency graph
/// (docs/DESIGN.md §9).
///
/// A composed study (study::compose) runs N scenario instances in one
/// simulation kernel. When every instance shares the same architecture
/// description, their temporal dependency graphs are identical — only the
/// external feeds (offers, actual completions, token attributes) differ.
/// BatchEngine exploits that: it compiles the *base* graph once into a
/// tdg::Program and evaluates all N instances against that single program,
/// instead of walking an N-times-larger merged program instance by
/// instance.
///
/// Memory layout — one shared frame arena. Every per-iteration column
/// (value, known, pending) holds `node_count * N` entries; node slot n of
/// instance i lives at index `n * N + i`, so the N per-instance values of
/// one node form one contiguous *lane*. An instance's base offset within
/// every slot is its batch index. Fixed-weight propagation over a full
/// lane is a tight loop over contiguous memory (the vectorizable case);
/// guard/execute arcs fall back to per-instance evaluation against the
/// instance's own token attributes.
///
/// Iteration fronts — deferred drains. Unlike tdg::Engine, the set_*
/// feeds never propagate immediately: they enqueue work, and flush()
/// drains it. The intended driver (core::EquivalentModel) calls
/// flush() from the kernel's timestep hook, i.e. once per simulated
/// instant, after *every* instance's feeds for that instant have arrived.
/// Ready instances of the same (node, k) then collect into one front that
/// is computed in a single pass over the shared arc tables — with N
/// identically-configured instances the hot loop runs N-wide instead of
/// being re-entered N times. Per-instance results are bit-identical to N
/// solo tdg::Engine runs: values do not depend on drain order, instant
/// series are flushed in iteration order, and per-instance usage traces
/// are disjoint sinks.

namespace maxev::tdg {

class BatchEngine {
 public:
  /// Per-instance observation routing: where instance i's computed
  /// instants and busy intervals go, and under which namespace.
  struct InstanceSinks {
    /// Prefix for every series/resource/label name of this instance,
    /// e.g. "rx0/" — matching the namespacing study::compose() applies to
    /// the merged description, so composed trace sets look identical
    /// whether produced by the merged engine or the batch engine.
    std::string scope;
    /// Destination for computed channel instants; null = not recorded.
    trace::InstantTraceSet* instant_sink = nullptr;
    /// Destination for execute-segment busy intervals; null = not recorded.
    trace::UsageTraceSet* usage_sink = nullptr;
  };

  struct Options {
    /// One entry per instance; the batch width is instances.size() (>= 1).
    std::vector<InstanceSinks> instances;
    /// Expected iteration count (tokens) per instance. When non-zero,
    /// every instance's instant series and usage traces are pre-sized at
    /// construction, exactly as tdg::Engine::Options::expected_iterations
    /// does for a solo run.
    std::size_t expected_iterations = 0;
  };

  /// Compile \p g once and prepare the shared arena for the batch — the
  /// resulting program is the one copy every instance lane evaluates.
  /// \pre g.frozen(); opts.instances is non-empty
  BatchEngine(const Graph& g, Options opts);
  /// Reuse an already-compiled program for \p g (a cached
  /// core::CompiledAbstraction): skips Program::compile(). \p precompiled
  /// must have been compiled from exactly \p g; copied by value.
  BatchEngine(const Graph& g, const Program& precompiled, Options opts);

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Batch width N.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Feed an externally determined instant of instance \p inst (an input
  /// offer for kInput nodes, an actual boundary completion for kExternal
  /// nodes). The value is recorded and dependents are unlocked
  /// immediately, but nothing is *computed* until flush() — feeds of the
  /// same simulated instant accumulate into one front.
  void set_external(std::size_t inst, NodeId n, std::uint64_t k,
                    TimePoint value);

  /// Provide the token attributes of source \p s for iteration \p k of
  /// instance \p inst. Deferred like set_external. Idempotent per
  /// (inst, s, k).
  void set_attrs(std::size_t inst, model::SourceId s, std::uint64_t k,
                 const model::TokenAttrs& attrs);

  /// Drain every pending iteration front (compute all instances that
  /// became ready, cascading until quiescence), then reclaim dead frames.
  /// Returns true when at least one instance was computed — the kernel's
  /// timestep hook uses this to know whether new events may have been
  /// scheduled.
  bool flush();

  /// True when a ready front awaits the next flush(), i.e. flush() would
  /// compute at least one instance.
  [[nodiscard]] bool has_work() const { return !worklist_.empty(); }

  /// flush() with on_known callbacks *captured* instead of fired: computed
  /// values, instant series and usage traces are written as usual (all of
  /// them private to this engine's instances), but the callbacks — which
  /// reach into the simulation kernel (event notifies, gated-rendezvous
  /// resolution) — are recorded in drain order for a later fire_deferred().
  /// This is the compute phase of the parallel per-group drain
  /// (docs/DESIGN.md §11): several engines may flush_deferred()
  /// concurrently because nothing they touch is shared; the kernel-facing
  /// side effects are then replayed serially. Values are identical to
  /// flush() — fronts are drain-order independent — and per-engine
  /// callback order is identical too, since the single-threaded drain
  /// inside the engine is unchanged.
  bool flush_deferred();

  /// Fire the callbacks captured by flush_deferred(), in capture (drain)
  /// order, on the calling thread. Callbacks may feed this or any other
  /// engine (set_external via channel hooks) and resume simulation
  /// processes inline; such feeds enqueue new fronts for the next flush,
  /// exactly as they would mid-drain on the serial path. Returns true when
  /// at least one callback fired.
  bool fire_deferred();

  /// The inline-resume fast path (docs/DESIGN.md §10): if (inst, n, k) is
  /// not yet known but every prerequisite is (its pending count reached
  /// zero — the lane sits in a ready front awaiting the next flush()),
  /// compute it NOW, out of band, and return the finite value. Dependents
  /// are unlocked as usual (they join the deferred fronts); the computed
  /// value is identical to what the next flush() would have produced —
  /// front values are drain-order independent — so only the *latency* of
  /// the answer changes. Returns the value when (inst, n, k) is already
  /// known, std::nullopt when it is still blocked on an unknown input or
  /// the value is ε. Used by the gated-input reception path to answer a
  /// rendezvous offer synchronously instead of parking it until the
  /// timestep boundary.
  [[nodiscard]] std::optional<TimePoint> resolve_now(std::size_t inst,
                                                     NodeId n, std::uint64_t k);

  /// Value of (inst, n, k) if already computed/fed *and finite*. Instances
  /// suppressed by guards (ε) report std::nullopt as well. Feeds since the
  /// last flush() are visible for externally fed nodes only.
  [[nodiscard]] std::optional<TimePoint> value(std::size_t inst, NodeId n,
                                               std::uint64_t k) const;

  /// Token attributes of (inst, s, k), if set and retained.
  [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
      std::size_t inst, model::SourceId s, std::uint64_t k) const;

  /// Keep iterations >= \p k of instance \p inst alive. A shared frame is
  /// reclaimed only when *every* instance has moved past it (the arena's
  /// retain floor is the minimum over instances). Monotone per instance.
  void set_retain_floor(std::size_t inst, std::uint64_t k);

  /// Register a callback fired whenever (inst, n, k) becomes known with a
  /// finite value. One callback per (instance, node).
  void on_known(std::size_t inst, NodeId n,
                std::function<void(std::uint64_t, TimePoint)> cb);

  /// \name Cost counters (whole batch)
  /// @{
  /// Instances computed across all lanes — comparable to the merged
  /// engine's count for the same composed run.
  [[nodiscard]] std::uint64_t instances_computed() const { return computed_; }
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const { return arc_terms_; }
  /// Fronts drained: worklist pops. computed / fronts is the average
  /// front width — N on fully lock-stepped batches, ~1 on divergent ones.
  [[nodiscard]] std::uint64_t fronts_drained() const { return fronts_; }
  /// @}

  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  /// One shared frame: every column interleaves the batch instance-minor
  /// (index = slot * width_ + instance).
  struct Frame {
    /// Computed instants in struct-of-arrays form (docs/DESIGN.md §14):
    /// finite picosecond payload and a one-byte ε flag per lane element,
    /// so lane rows are plain contiguous integers. A (payload, flag)
    /// pair is only ever read behind a known[] check, exactly as the old
    /// mp::Scalar column was.
    std::vector<std::int64_t> value_ps;   // n_nodes * width
    std::vector<std::uint8_t> value_eps;  // n_nodes * width
    std::vector<std::uint8_t> known;      // n_nodes * width
    std::vector<std::int32_t> pending;    // n_nodes * width
    /// Ready-front bitmask per node: bit i of word block n*words_ set =
    /// instance i of node n is ready but not yet computed. A node is on
    /// the worklist iff its block is non-zero.
    std::vector<std::uint64_t> ready;     // n_nodes * words
    std::vector<std::uint8_t> attr_known; // n_sources * width
    std::vector<model::TokenAttrs> attrs; // n_sources * width
    std::size_t known_count = 0;          // across all lanes
  };

  [[nodiscard]] std::size_t lane(std::size_t slot, std::size_t inst) const {
    return slot * width_ + inst;
  }

  /// SoA value column accessors (lane index l = slot * width_ + inst).
  [[nodiscard]] static mp::Scalar frame_value(const Frame& f, std::size_t l) {
    return f.value_eps[l] != 0 ? mp::Scalar::eps()
                               : mp::Scalar::of(f.value_ps[l]);
  }
  static void set_frame_value(Frame& f, std::size_t l, mp::Scalar v) {
    const bool e = v.is_eps();
    f.value_eps[l] = e ? 1 : 0;
    f.value_ps[l] = e ? 0 : v.value();
  }

  void init_from_program();
  void bind_sinks();
  Frame& ensure_frame(std::uint64_t k);
  void init_frame(Frame& f, std::uint64_t k);
  [[nodiscard]] Frame* frame_at(std::uint64_t k);
  [[nodiscard]] const Frame* frame_at(std::uint64_t k) const;

  /// Mark (inst, n, k) ready (pending hit zero): set its front bit and
  /// enqueue the node when its front was empty.
  void mark_ready(Frame& f, NodeId n, std::uint64_t k, std::size_t inst);
  void decrement(Frame& f, NodeId n, std::uint64_t k, std::size_t inst);
  /// Compute every ready instance of (n, k) in one pass (the front).
  void compute_front(NodeId n, std::uint64_t k);
  /// Publish a completed full uniform front: bulk known-marking, per-lane
  /// observers, batched dependent resolution (values must already sit in
  /// the node's row).
  void finish_uniform_front(Frame& f, NodeId n, std::uint64_t k);
  /// Compute one instance the scalar way (guards/execute segments, or a
  /// partial front).
  [[nodiscard]] mp::Scalar compute_one(Frame& f, NodeId n, std::uint64_t k,
                                       std::size_t inst);
  void mark_known(Frame& f, NodeId n, std::uint64_t k, std::size_t inst,
                  mp::Scalar v);
  /// Fire or (in deferred mode) capture the lane's on_known callback.
  void emit_callback(std::size_t l, std::uint64_t k, mp::Scalar v);
  void resolve_dependents(Frame& f, NodeId n, std::uint64_t k,
                          std::size_t inst);
  void flush_instants(NodeId n, std::size_t inst);
  void drain();
  void prune();

  const Graph* graph_;
  Options opts_;
  std::size_t width_ = 1;      ///< batch width N
  std::size_t words_ = 1;      ///< ceil(width / 64) front-mask words per node
  std::size_t n_nodes_ = 0;
  std::size_t n_sources_ = 1;

  Program prog_;
  /// static_pending tiled across the batch: frame init is one memcpy.
  std::vector<std::int32_t> pending_template_;
  /// Nodes whose every in-arc is guard-free pure delay: a full front
  /// computes as a tight lane loop over the shared arc slots.
  std::vector<std::uint8_t> uniform_;

  std::deque<Frame> frames_;
  std::vector<Frame*> frame_ptrs_;  // deque elements are address-stable
  std::vector<Frame> frame_pool_;   // recycled frames (hot path: no allocs)
  std::uint64_t base_k_ = 0;

  std::vector<std::pair<NodeId, std::uint64_t>> worklist_;
  bool draining_ = false;

  /// Deferred-callback state (flush_deferred / fire_deferred).
  struct PendingCallback {
    std::size_t lane = 0;
    std::uint64_t k = 0;
    TimePoint t;
  };
  bool defer_callbacks_ = false;
  std::vector<PendingCallback> deferred_;

  // Per-(node, instance) observation/callback state, lane-indexed like the
  // frame columns.
  std::vector<std::uint8_t> node_flags_;  // kRecords | kHasCallback
  /// Per node: any lane has flags (lets full fronts skip per-lane checks).
  std::vector<std::uint8_t> node_observed_;
  std::vector<std::function<void(std::uint64_t, TimePoint)>> callbacks_;
  std::vector<std::uint64_t> next_flush_;
  std::vector<trace::InstantSeries*> record_series_;
  // Per-(op, instance) usage sinks, lane-indexed (op * width + instance).
  std::vector<trace::UsageTrace*> op_trace_;
  std::vector<std::int32_t> op_label_;

  std::vector<std::uint64_t> retain_floor_;  // per instance
  std::vector<std::uint64_t> mask_scratch_;  // front mask snapshot (words_)

  std::uint64_t computed_ = 0;
  std::uint64_t arc_terms_ = 0;
  std::uint64_t fronts_ = 0;
};

}  // namespace maxev::tdg
