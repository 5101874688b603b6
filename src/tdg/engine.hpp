#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "maxplus/scalar.hpp"
#include "model/token.hpp"
#include "tdg/graph.hpp"
#include "tdg/program.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file engine.hpp
/// The ComputeInstant() machine (paper Section III-C / IV).
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
/// program (tdg::Program, docs/DESIGN.md §7): CSR adjacency with one record
/// per arc slot, segment tables with pre-folded fixed weights and
/// pre-resolved resource rates, guard/load std::functions hoisted into
/// dense side tables indexed only by the arcs that carry them, and
/// observation sinks resolved to direct columnar pointers with interned
/// labels. The propagation hot path never touches the Graph object, a map,
/// or a string. The same Program type also backs tdg::BatchEngine, which
/// evaluates one program for N composed instances at once.
///
/// Propagation is dependency counting over a LIFO worklist. An instance
/// that just became known hands the last dependent it made ready straight
/// to the next compute step instead of pushing and popping it — the entry
/// the worklist would have popped next — so a chain runs without touching
/// the worklist at all. A frame's pending column doubles as its known flag:
/// a known instance holds the kKnown sentinel.

namespace maxev::tdg {

class Engine {
 public:
  struct Options {
    /// Destination for computed channel instants (nodes with a non-empty
    /// record_series name). Null = instants are not recorded. Resolved to
    /// direct InstantSeries pointers at construction; consumed by
    /// mark_known()/flush_instants() on the propagation hot path.
    trace::InstantTraceSet* instant_sink = nullptr;
    /// Destination for execute-segment busy intervals ("observation
    /// time"). Null = usage is not recorded. Resolved to per-op columnar
    /// trace pointers with interned labels at construction; consumed by
    /// compute() as segment positions are determined.
    trace::UsageTraceSet* usage_sink = nullptr;
    /// Expected iteration count (tokens). When non-zero, instant series and
    /// usage traces are pre-sized at construction (series to this count,
    /// usage traces to observed-ops-per-iteration × this count) so
    /// observation-on runs do not reallocate mid-flight. Plumbed from
    /// core::EquivalentModel::Options / study::ScenarioOptions; 0 = no
    /// pre-sizing.
    std::size_t expected_iterations = 0;
  };

  /// \pre g.frozen()
  explicit Engine(const Graph& g) : Engine(g, Options{}) {}
  Engine(const Graph& g, Options opts);
  /// Reuse an already-compiled program for \p g (a cached
  /// core::CompiledAbstraction): skips Program::compile(). \p precompiled
  /// must have been compiled from exactly \p g; it is copied by value so the
  /// hot path keeps fixed-offset member access.
  Engine(const Graph& g, const Program& precompiled, Options opts);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Feed an externally determined instant: an input offer (kInput nodes)
  /// or an actual boundary completion (kExternal nodes). Triggers
  /// propagation. Each (node, k) may be fed exactly once.
  void set_external(NodeId n, std::uint64_t k, TimePoint value);

  /// Provide the token attributes of source \p s for iteration \p k
  /// (required before any data-dependent weight of that iteration can be
  /// evaluated). Triggers propagation.
  void set_attrs(model::SourceId s, std::uint64_t k,
                 const model::TokenAttrs& attrs);

  /// Value of an instance if already determined. Finite instants only —
  /// instances suppressed by guards (ε) report std::nullopt as well.
  [[nodiscard]] std::optional<TimePoint> value(NodeId n, std::uint64_t k) const;

  /// Raw max-plus scalar of an instance: distinguishes a determined-but-ε
  /// value (guard-suppressed) from an undetermined or pruned one
  /// (std::nullopt). The adaptive backend's periodicity detector reads
  /// whole frames through this.
  [[nodiscard]] std::optional<mp::Scalar> scalar_value(NodeId n,
                                                       std::uint64_t k) const;

  /// Dense row of all node values at iteration \p k, or nullptr unless the
  /// frame is retained and every node is determined. The per-iteration
  /// detector feed reads this instead of node_count() scalar_value calls;
  /// the pointer is invalidated by the next engine mutation.
  [[nodiscard]] const mp::Scalar* complete_row(std::uint64_t k) const;

  /// Token attributes of source \p s at iteration \p k, if set and retained.
  [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(model::SourceId s,
                                                          std::uint64_t k) const;

  /// Keep iterations >= \p k alive even when fully known: external consumers
  /// (the equivalent model's emission processes) still read their values.
  /// Monotone; defaults to 0 (retain everything until raised).
  void set_retain_floor(std::uint64_t k);

  /// Additionally keep \p frames fully-known iterations *below* the retain
  /// floor alive. The adaptive backend needs a trailing history window (the
  /// detector's stability window plus the fast-forward seed) that the
  /// emission processes' floor raises would otherwise reclaim. Monotone.
  void set_retain_margin(std::uint64_t frames);

  /// Number of leading iterations that are fully determined: the largest c
  /// such that every node of every iteration k < c is known (ε counts as
  /// determined). Iterations at and above c may still be partially known —
  /// the pipeline frontier is ragged. Inline: the adaptive backend polls
  /// this at every kernel timestep, and the common no-progress call is one
  /// load and compare off the cursor.
  [[nodiscard]] std::uint64_t completed_iterations() const {
    // Frames below base_k_ were only reclaimed once fully known (prune()'s
    // droppable check), so the scan can start at the window base.
    std::uint64_t c = complete_scan_ > base_k_ ? complete_scan_ : base_k_;
    const std::uint64_t limit = base_k_ + frame_ptrs_.size();
    while (c < limit) {
      const Frame* f = frame_ptrs_[c - base_k_];
      if (f == nullptr || f->known_count != n_nodes_) break;
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
  /// (raise the retain margin to guarantee residency).
  [[nodiscard]] HistoryWindow snapshot(std::uint64_t first_k,
                                       std::uint64_t count) const;

  /// Seed a *fresh* engine (no frames touched yet) with a window captured
  /// by snapshot(): the engine behaves as if iterations before
  /// first_k + count had been computed with exactly those values, and
  /// evaluation continues from there. The window must span at least the
  /// graph's max lag so later computations never reach past it. Seeded
  /// history is not re-flushed into the observation sinks.
  void seed_history(const HistoryWindow& window);

  /// Register a callback fired whenever an instance of \p n becomes known
  /// with a finite value (computed or external). One callback per node.
  void on_known(NodeId n, std::function<void(std::uint64_t, TimePoint)> cb);

  /// \name Cost counters (Fig. 5's computation-complexity axis)
  /// @{
  [[nodiscard]] std::uint64_t instances_computed() const { return computed_; }
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const { return arc_terms_; }
  /// @}

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  /// The compiled program (read-only): the adaptive certifier inspects its
  /// guard/load side tables.
  [[nodiscard]] const Program& program() const { return prog_; }

 private:
  /// Frame::pending of a known instance (computed or fed).
  static constexpr std::int32_t kKnown =
      std::numeric_limits<std::int32_t>::min();

  struct Frame {
    std::vector<mp::Scalar> value;
    /// Unresolved prerequisites per node: one per in-arc whose source
    /// instance is not yet known, plus one per attr-needing in-arc whose
    /// source attributes are not yet set. A node computes exactly when its
    /// count reaches zero — every arc is processed once per iteration
    /// (dependency-counting propagation, no readiness re-scans). kKnown
    /// once the instance is known; externally fed nodes start at -1 and
    /// never reach zero.
    std::vector<std::int32_t> pending;
    std::vector<std::uint8_t> attr_known;
    std::vector<model::TokenAttrs> attrs;
    std::size_t known_count = 0;
  };

  /// A ready instance (node, k); node < 0 = none.
  struct Ready {
    NodeId node = -1;
    std::uint64_t k = 0;
  };

  void init_from_program();
  void compile();

  Frame& ensure_frame(std::uint64_t k);
  void init_frame(Frame& f, std::uint64_t k);
  [[nodiscard]] Frame* frame_at(std::uint64_t k);
  [[nodiscard]] const Frame* frame_at(std::uint64_t k) const;

  /// Compute instance (n, k) — all prerequisites resolved — then keep
  /// computing the last dependent each step makes ready.
  void compute(NodeId n, std::uint64_t k);
  /// The value of ready instance (n, k) in its frame \p f.
  [[nodiscard]] mp::Scalar evaluate(const Frame& f, NodeId n, std::uint64_t k);
  void mark_known(Frame& f, NodeId n, std::uint64_t k, mp::Scalar v);
  /// Decrement dependents' pending counts after (n, k) became known; call
  /// right after mark_known with the same frame. Every dependent made ready
  /// is pushed onto the worklist except the last, which is returned: it is
  /// the entry the LIFO worklist would pop next. Re-validates \p f itself
  /// when n carries an on_known callback (which may have pruned iteration k
  /// re-entrantly by raising the retain floor).
  [[nodiscard]] Ready resolve_dependents(Frame& f, NodeId n, std::uint64_t k);
  /// Resolve one prerequisite of (n, ·) in \p f; true when it became ready.
  [[nodiscard]] static bool decrement(Frame& f, NodeId n);
  void drain();
  void flush_instants(NodeId n);
  void prune();

  const Graph* graph_;
  Options opts_;
  std::size_t n_nodes_ = 0;
  std::size_t n_sources_ = 1;

  std::deque<Frame> frames_;
  /// frames_ mirrored as raw pointers (deque elements are address-stable):
  /// frame_at() is one bounds check + one load instead of deque block math.
  std::vector<Frame*> frame_ptrs_;
  std::vector<Frame> frame_pool_;  // recycled frames (hot path: no allocs)
  std::uint64_t base_k_ = 0;

  std::vector<Ready> worklist_;
  bool draining_ = false;

  std::vector<std::function<void(std::uint64_t, TimePoint)>> callbacks_;
  std::vector<std::uint64_t> next_flush_;  // per node, for instant recording

  // ---- Compiled program (tdg::Program, shared type with BatchEngine) ------
  // Arc records *permuted into CSR slot order*: node n's in-arcs occupy
  // slots [in_arc_offsets[n], in_arc_offsets[n+1]) of in_arcs, its
  // out-arcs the matching slots of out_arcs — the hot loops stream
  // contiguous records with no arc-id indirection. Held by value: member
  // access compiles to fixed offsets from `this`.
  Program prog_;

  // ---- Sink bindings (compile()-time resolution of prog_'s observation
  // metadata against this run's sinks) -------------------------------------
  /// Per-node hot flags (kRecords | kHasCallback): one byte instead of two
  /// pointer loads on every mark_known.
  std::vector<std::uint8_t> node_flags_;
  std::vector<trace::UsageTrace*> op_trace_;   // per op: exec sink or null
  std::vector<std::int32_t> op_label_;         // per op: interned label id
  std::vector<trace::InstantSeries*> record_series_;  // per node (or null)
  // --------------------------------------------------------------------------

  std::uint64_t computed_ = 0;
  std::uint64_t arc_terms_ = 0;
  std::uint64_t retain_floor_ = 0;
  std::uint64_t retain_margin_ = 0;
  /// Cursor for completed_iterations(): everything below is fully known.
  mutable std::uint64_t complete_scan_ = 0;
};

}  // namespace maxev::tdg
