#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "maxplus/scalar.hpp"
#include "model/token.hpp"
#include "tdg/graph.hpp"
#include "tdg/program.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file engine.hpp
/// The ComputeInstant() machine (paper Section III-C / IV), for one model
/// instance or for N composed instances of one graph at once
/// (docs/DESIGN.md §7, §9).
///
/// The engine evaluates the temporal dependency graph incrementally, in zero
/// simulated time: whenever an external value arrives — an input offer u(k),
/// or the actual completion instant of a boundary output — every instant
/// that becomes determined is computed by propagation. Iterations pipeline:
/// iteration k+1 can start (and largely complete) while an output of
/// iteration k still waits for a slow environment, exactly as the simulated
/// processes would.
///
/// Instances are identified by (node, k). A value is computed exactly once:
///
///   value(n, k) = ⊕ over in-arcs a with guard true of
///                 value(a.src, k - a.lag) ⊗ weight_a(k)
///
/// with value(·, k<0) = e (simulation origin; see graph.hpp). Instants of
/// internal channels are recorded to the instant sink in iteration order;
/// execute segments emit busy intervals to the usage sink at their computed
/// positions — this is the paper's "observation time": full-resolution
/// resource usage with no simulator involvement.
///
/// Construction *compiles* the frozen graph into a flat, cache-friendly
/// tdg::Program (docs/DESIGN.md §7), or reuses a cached one. The propagation
/// hot path never touches the Graph object, a map, or a string.
///
/// Lanes. The engine evaluates its program for `width()` instances at once
/// — a composed study's members that share one description (study::compose)
/// run as the lanes of one engine; a plain scenario is width 1. Every
/// per-iteration column holds `node_count * width` entries; node slot n of
/// instance i lives at index `n * width + i`, so the per-instance values of
/// one node form one contiguous lane row. A node whose in-arcs are all
/// guard-free pure delays computes a full row as one loop over the shared
/// arc slots (the uniform front); guard/execute arcs evaluate per instance
/// against the instance's own token attributes.
///
/// Feeds enqueue, flush() drains. The set_* feeds record the value and
/// resolve its dependents' pending counts, but compute nothing: flush()
/// drains every ready (node, k) front — all ready lanes of one node and
/// iteration in one pass — cascading until quiescence, then reclaims dead
/// frames. The eager single-instance policy (compute after every feed) is
/// core::SoloLane's; the composed model flushes from the kernel's timestep
/// hook, after every instance's feeds of one simulated instant have
/// arrived. Values do not depend on drain order, instant series are flushed
/// in iteration order and per-instance usage sinks are disjoint, so every
/// lane is bit-identical to the same instance run alone.
///
/// Re-entrancy. on_known callbacks run inside the drain and may feed this
/// engine again, raise a retain floor or call flush(): feeds only enqueue
/// (the running drain picks them up), flush() is a no-op, and no frame is
/// reclaimed until the drain has finished.

namespace maxev::tdg {

class Engine {
 public:
  /// Per-instance observation routing: where instance i's computed
  /// instants and busy intervals go, and under which namespace.
  struct InstanceSinks {
    /// Prefix for every series/resource/label name of this instance,
    /// e.g. "rx0/" — matching the namespacing study::compose() applies to
    /// the merged description, so composed trace sets look identical
    /// whichever engine produced them. Empty for a plain scenario.
    std::string scope;
    /// Destination for computed channel instants (nodes with a non-empty
    /// record_series name); null = not recorded.
    trace::InstantTraceSet* instant_sink = nullptr;
    /// Destination for execute-segment busy intervals ("observation
    /// time"); null = not recorded.
    trace::UsageTraceSet* usage_sink = nullptr;
  };

  struct Options {
    /// One entry per instance; the width is instances.size() (>= 1).
    std::vector<InstanceSinks> instances = std::vector<InstanceSinks>(1);
    /// Expected iteration count (tokens) per instance. When non-zero,
    /// every instance's instant series and usage traces are pre-sized at
    /// construction (series to this count, usage traces to
    /// observed-ops-per-iteration × this count) so observation-on runs do
    /// not reallocate mid-flight. 0 = no pre-sizing.
    std::size_t expected_iterations = 0;
  };

  /// One instance, no observation sinks.
  /// \pre g.frozen()
  explicit Engine(const Graph& g) : Engine(g, Options{}) {}
  /// Compile \p g once and prepare the frame arena for every lane.
  /// \pre g.frozen(); opts.instances is non-empty
  Engine(const Graph& g, Options opts);
  /// Reuse an already-compiled program for \p g (a cached
  /// core::CompiledAbstraction): skips Program::compile(). \p precompiled
  /// must have been compiled from exactly \p g; it is copied by value so the
  /// hot path keeps fixed-offset member access.
  Engine(const Graph& g, const Program& precompiled, Options opts);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Number of instance lanes.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Feed an externally determined instant of instance \p inst: an input
  /// offer (kInput nodes) or an actual boundary completion (kExternal
  /// nodes). Dependents are unlocked at once; nothing is computed before
  /// the next flush(). Each (inst, node, k) may be fed exactly once.
  /// \throws maxev::Error for a computed node, a repeated feed, a pruned
  ///         iteration or \p inst >= width().
  void set_external(std::size_t inst, NodeId n, std::uint64_t k,
                    TimePoint value);

  /// Provide the token attributes of source \p s for iteration \p k of
  /// instance \p inst (required before any data-dependent weight of that
  /// iteration can be evaluated). Deferred like set_external; idempotent per
  /// (inst, s, k). \throws maxev::Error for a bad source or instance.
  void set_attrs(std::size_t inst, model::SourceId s, std::uint64_t k,
                 const model::TokenAttrs& attrs);

  /// Drain every ready front (compute all instances that became ready,
  /// cascading until quiescence), then reclaim dead frames. Returns true
  /// when at least one front was drained — the kernel's timestep hook uses
  /// this to know whether new events may have been scheduled. A no-op
  /// returning false while a drain is running (a call from an on_known
  /// callback): the running drain computes whatever the callback enqueued.
  bool flush() {
    if (draining_) return false;  // the running drain picks up new work
    const bool work = !worklist_.empty();
    if (work) drain_worklist();
    prune_if_due();
    return work;
  }

  /// True when a ready front awaits the next flush().
  [[nodiscard]] bool has_work() const { return !worklist_.empty(); }

  /// flush() with on_known callbacks *captured* instead of fired: computed
  /// values, instant series and usage traces are written as usual (all of
  /// them private to this engine's instances), but the callbacks — which
  /// reach into the simulation kernel (event notifies, gated-rendezvous
  /// resolution) — are recorded in drain order for a later fire_deferred().
  /// This is the compute phase of the parallel per-group drain
  /// (docs/DESIGN.md §11): several engines may flush_deferred()
  /// concurrently because nothing they touch is shared; the kernel-facing
  /// side effects are then replayed serially. Values and the per-engine
  /// callback order are identical to flush().
  bool flush_deferred();

  /// Fire the callbacks captured by flush_deferred(), in capture (drain)
  /// order, on the calling thread. Callbacks may feed this or any other
  /// engine and resume simulation processes inline; such feeds enqueue new
  /// fronts for the next flush. Returns true when at least one callback
  /// fired.
  bool fire_deferred();

  /// The inline-resume fast path (docs/DESIGN.md §10): if (inst, n, k) is
  /// not yet known but every prerequisite is (it sits in a ready front
  /// awaiting the next flush()), compute it NOW, out of band, and return
  /// the finite value. Dependents are unlocked as usual; the value is
  /// identical to what the next flush() would have produced, so only the
  /// *latency* of the answer changes. Returns the value when (inst, n, k)
  /// is already known; std::nullopt when it is still blocked, ε, or
  /// \p inst >= width().
  [[nodiscard]] std::optional<TimePoint> resolve_now(std::size_t inst,
                                                     NodeId n, std::uint64_t k);

  /// Value of (inst, n, k) if already computed or fed *and finite*.
  /// Instances suppressed by guards (ε) report std::nullopt as well, as do
  /// pruned iterations and \p inst >= width().
  [[nodiscard]] std::optional<TimePoint> value(std::size_t inst, NodeId n,
                                               std::uint64_t k) const;

  /// Raw max-plus scalar of (inst, n, k): distinguishes a determined-but-ε
  /// value (guard-suppressed) from an undetermined or pruned one
  /// (std::nullopt). The adaptive backend's periodicity detector reads
  /// frames through this.
  [[nodiscard]] std::optional<mp::Scalar> scalar_value(std::size_t inst,
                                                       NodeId n,
                                                       std::uint64_t k) const;

  /// Dense row of all node values at iteration \p k, or nullptr unless the
  /// frame is retained and every node is determined. The per-iteration
  /// detector feed reads this instead of node_count() scalar_value calls;
  /// the pointer is invalidated by the next engine mutation.
  /// \throws maxev::Error at width() > 1 (lane rows interleave instances).
  [[nodiscard]] const mp::Scalar* complete_row(std::uint64_t k) const;

  /// Token attributes of (inst, s, k), if set and retained.
  [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
      std::size_t inst, model::SourceId s, std::uint64_t k) const;

  /// Keep iterations >= \p k of instance \p inst alive: external consumers
  /// (the equivalent model's emission processes) still read their values.
  /// A frame is reclaimed only when *every* instance has moved past it.
  /// Monotone per instance; defaults to 0 (retain everything until raised).
  /// \throws maxev::Error for \p inst >= width().
  void set_retain_floor(std::size_t inst, std::uint64_t k);

  /// Additionally keep \p frames fully-known iterations *below* the retain
  /// floor alive. The adaptive backend needs a trailing history window (the
  /// detector's stability window plus the fast-forward seed) that the
  /// emission processes' floor raises would otherwise reclaim. Monotone.
  void set_retain_margin(std::uint64_t frames);

  /// Number of leading iterations that are fully determined in every lane:
  /// the largest c such that every instance of every iteration k < c is
  /// known (ε counts as determined). Iterations at and above c may still be
  /// partially known — the pipeline frontier is ragged. Inline: the
  /// adaptive backend polls this at every kernel timestep, and the common
  /// no-progress call is one load and compare off the cursor.
  [[nodiscard]] std::uint64_t completed_iterations() const {
    // Frames below base_k_ were only reclaimed once fully known (prune()'s
    // droppable check), so the scan can start at the window base.
    std::uint64_t c = complete_scan_ > base_k_ ? complete_scan_ : base_k_;
    const std::uint64_t limit = base_k_ + frame_ptrs_.size();
    while (c < limit) {
      const Frame* f = frame_ptrs_[c - base_k_];
      if (f->known_count != lanes_) break;
      ++c;
    }
    complete_scan_ = c;
    return c;
  }

  /// A contiguous window of fully-known frames, extracted for re-seeding a
  /// fresh engine (the adaptive fast-forward's verification run,
  /// docs/DESIGN.md §15).
  struct HistoryWindow {
    std::uint64_t first_k = 0;
    std::size_t n_nodes = 0;
    std::size_t n_sources = 0;
    std::vector<mp::Scalar> values;          ///< frame-major, n_nodes each
    std::vector<model::TokenAttrs> attrs;    ///< frame-major, n_sources each
    std::vector<std::uint8_t> attr_known;    ///< frame-major, n_sources each
    [[nodiscard]] std::size_t frames() const {
      return n_nodes == 0 ? 0 : values.size() / n_nodes;
    }
  };

  /// Copy frames [first_k, first_k + count) out of the live window. Every
  /// frame must be resident and fully known; \throws maxev::Error otherwise
  /// (raise the retain margin to guarantee residency) and at width() > 1.
  [[nodiscard]] HistoryWindow snapshot(std::uint64_t first_k,
                                       std::uint64_t count) const;

  /// Seed a *fresh* width-1 engine (no frames touched yet) with a window
  /// captured by snapshot(): the engine behaves as if iterations before
  /// first_k + count had been computed with exactly those values, and
  /// evaluation continues from there. The window must span at least the
  /// graph's max lag so later computations never reach past it. Seeded
  /// history is not re-flushed into the observation sinks.
  /// \throws maxev::Error at width() > 1.
  void seed_history(const HistoryWindow& window);

  /// Register a callback fired whenever (inst, n, k) becomes known with a
  /// finite value (computed or fed). One callback per (instance, node).
  void on_known(std::size_t inst, NodeId n,
                std::function<void(std::uint64_t, TimePoint)> cb);

  /// \name Cost counters (Fig. 5's computation-complexity axis; whole engine)
  /// @{
  /// Instances computed across all lanes — comparable to a merged-graph
  /// engine's count for the same composed run.
  [[nodiscard]] std::uint64_t instances_computed() const { return computed_; }
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const { return arc_terms_; }
  /// Fronts drained. computed / fronts is the average front width — the
  /// width on fully lock-stepped lanes, ~1 on divergent ones.
  [[nodiscard]] std::uint64_t fronts_drained() const { return fronts_; }
  /// @}

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  /// The compiled program (read-only): the adaptive certifier inspects its
  /// guard/load side tables.
  [[nodiscard]] const Program& program() const { return prog_; }

 private:
  /// Frame::pending of a known instance (computed or fed).
  static constexpr std::int32_t kKnown =
      std::numeric_limits<std::int32_t>::min();

  /// One iteration's frame; every lane column is indexed
  /// slot * width_ + instance.
  struct Frame {
    std::vector<mp::Scalar> value;      // n_nodes * width
    /// Unresolved prerequisites per lane: one per in-arc whose source
    /// instance is not yet known, plus one per attr-needing in-arc whose
    /// source attributes are not yet set. A lane is ready exactly when its
    /// count reaches zero (dependency counting: every arc is processed once
    /// per iteration). kKnown once the instance is known; externally fed
    /// nodes start at -1 and never reach zero.
    std::vector<std::int32_t> pending;  // n_nodes * width
    /// Per node: (node, k) awaits the drain. Empty at width 1, where a
    /// front becomes ready exactly once.
    std::vector<std::uint8_t> queued;   // n_nodes (width > 1)
    std::vector<std::uint8_t> attr_known;  // n_sources * width
    std::vector<model::TokenAttrs> attrs;  // n_sources * width
    std::size_t known_count = 0;           // across all lanes
  };

  /// A ready front (node, k); node < 0 = none.
  struct Ready {
    NodeId node = -1;
    std::uint64_t k = 0;
  };

  // The per-lane functions are written once and compiled twice: kSolo =
  // true is the width-1 instantiation, where every lane index is the node
  // slot and every lane loop runs once, so the compiler folds the lane
  // arithmetic away. drain() and the feeds pick the instantiation from
  // width_. At width 1 a front is a single lane, so drain() runs each
  // popped entry as a chain of lane steps (compute_chain) and the
  // multi-lane front machinery (compute_front, the queued marks, uniform
  // rows) stays off that path: the measured difference is a few percent
  // end to end on execute-arc workloads.
  template <bool kSolo>
  [[nodiscard]] std::size_t lane(std::size_t slot, std::size_t inst) const {
    return kSolo ? slot : slot * width_ + inst;
  }
  template <bool kSolo>
  [[nodiscard]] std::size_t lanes_per_node() const {
    return kSolo ? 1 : width_;
  }

  void init_from_program();
  void bind_sinks();
  Frame& ensure_frame(std::uint64_t k);
  template <bool kSolo>
  void init_frame(Frame& f, std::uint64_t k);
  [[nodiscard]] Frame* frame_at(std::uint64_t k);
  [[nodiscard]] const Frame* frame_at(std::uint64_t k) const;
  void check_inst(std::size_t inst, const char* what) const;
  [[noreturn]] void throw_bad_inst(std::size_t inst, const char* what) const;

  // Propagation is dependency counting over a LIFO worklist of fronts. The
  // functions that resolve dependents push every front they make ready
  // except the last, which they return as a Ready: it is the entry the
  // worklist would pop next, so drain() continues with it directly and a
  // chain runs without touching the worklist.

  /// Mark (n, ·) of \p f as awaiting the drain; false when it already was.
  /// A width-1 (node, k) becomes ready exactly once, so the solo path
  /// needs no mark.
  template <bool kSolo>
  [[nodiscard]] static bool enqueue(Frame& f, NodeId n) {
    if (kSolo) return true;
    std::uint8_t& q = f.queued[static_cast<std::size_t>(n)];
    if (q != 0) return false;
    q = 1;
    return true;
  }
  /// Resolve one prerequisite of lane (n, inst) in \p f; true when it made
  /// a new front ready.
  template <bool kSolo>
  [[nodiscard]] bool decrement(Frame& f, NodeId n, std::size_t inst);
  /// Width 1: compute the popped entry's lane, then keep computing the last
  /// dependent each step makes ready.
  void compute_chain(Ready r);
  /// Width > 1: compute every ready lane of (n, k) in its frame \p f in one
  /// pass (the front).
  [[nodiscard]] Ready compute_front(Frame& f, NodeId n, std::uint64_t k);
  /// Publish a completed full uniform front: bulk known-marking, per-lane
  /// observers, batched dependent resolution (values must already sit in
  /// the node's row).
  [[nodiscard]] Ready finish_uniform_front(Frame& f, NodeId n,
                                           std::uint64_t k);
  /// Compute one lane the scalar way (guards/execute segments, or a
  /// partial front).
  template <bool kSolo>
  [[nodiscard]] mp::Scalar compute_one(Frame& f, NodeId n, std::uint64_t k,
                                       std::size_t inst);
  /// Compute ready lane (n, k, inst), publish it and unlock its dependents.
  template <bool kSolo>
  [[nodiscard]] Ready compute_lane(Frame& f, NodeId n, std::uint64_t k,
                                   std::size_t inst);
  template <bool kSolo>
  void mark_known(Frame& f, NodeId n, std::uint64_t k, std::size_t inst,
                  mp::Scalar v);
  /// Fire or (in deferred mode) capture the lane's on_known callback.
  void emit_callback(std::size_t l, std::uint64_t k, mp::Scalar v);
  template <bool kSolo>
  [[nodiscard]] Ready resolve_dependents(Frame& f, NodeId n, std::uint64_t k,
                                         std::size_t inst);
  void push(Ready r) {
    if (r.node >= 0) worklist_.push_back(r);
  }
  void flush_instants(NodeId n, std::size_t inst);
  /// Drain the worklist to quiescence with the instantiation for width_.
  void drain_worklist();
  template <bool kSolo>
  void drain();
  /// Reclaim dead frames; batched by hysteresis so the common call is one
  /// compare.
  void prune_if_due() {
    if (frames_.size() > window_ + 8) prune();
  }
  void prune();

  const Graph* graph_;
  Options opts_;
  std::size_t width_ = 1;
  std::size_t n_nodes_ = 0;
  std::size_t n_sources_ = 1;
  std::size_t lanes_ = 0;  ///< n_nodes * width: known_count of a full frame
  std::size_t window_ = 1;  ///< frames every computation reaches: max lag + 1

  Program prog_;
  /// static_pending tiled across the lanes: frame init is one copy.
  std::vector<std::int32_t> pending_template_;
  /// Nodes whose every in-arc is guard-free pure delay: a full front
  /// computes as one loop over the shared arc slots.
  std::vector<std::uint8_t> uniform_;

  std::deque<Frame> frames_;
  std::vector<Frame*> frame_ptrs_;  // deque elements are address-stable
  std::vector<Frame> frame_pool_;   // recycled frames (hot path: no allocs)
  std::uint64_t base_k_ = 0;

  std::vector<Ready> worklist_;
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
  std::uint64_t retain_margin_ = 0;

  std::uint64_t computed_ = 0;
  std::uint64_t arc_terms_ = 0;
  std::uint64_t fronts_ = 0;
  /// Cursor for completed_iterations(): everything below is fully known.
  mutable std::uint64_t complete_scan_ = 0;
};

}  // namespace maxev::tdg
