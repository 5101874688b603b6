#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "maxplus/scalar.hpp"
#include "model/load.hpp"
#include "model/token.hpp"
#include "tdg/graph.hpp"
#include "tdg/ops.hpp"

/// \file program.hpp
/// The compiled, instance-agnostic form of a frozen temporal dependency
/// graph (docs/DESIGN.md §7): flat CSR adjacency with one record per arc
/// slot, struct-of-arrays segment tables with pre-folded fixed weights and
/// pre-resolved resource rates, and hoisted guard/load side tables. A
/// Program holds everything about the graph's *structure* and *weights*;
/// everything about a particular execution — frames, pending counts,
/// observation sinks — lives in the engine that runs it.
///
/// One executor runs it: tdg::Engine evaluates it for one model instance or
/// for N composed instances at once, sharing these tables across every
/// instance lane (docs/DESIGN.md §9).

namespace maxev::tdg {

/// Compiled program tables. Plain data; cheap to move, never mutated after
/// compile(). All `*_offsets_` arrays are CSR offsets with node_count + 1
/// entries; the in_arcs/out_arcs records are permuted into CSR slot order so
/// the engines' propagation loops stream contiguous memory, one record per
/// arc slot.
struct Program {
  /// Compile a frozen graph. Walking nodes in id order and each node's
  /// arcs in insertion order keeps every table (including the hoisted
  /// guard/load side tables and the segment ops) deterministic.
  /// \pre g.frozen()
  [[nodiscard]] static Program compile(const Graph& g);

  /// Everything compute() reads about one in-arc slot.
  struct InArc {
    mp::Scalar fixed = mp::Scalar::e();  ///< pure-fixed arcs: pre-folded weight
    NodeId src = 0;
    std::uint32_t lag = 0;
    std::int32_t guard = -1;     ///< index into guards; -1 = none
    std::int32_t prog_off = -1;  ///< index into op tables; -1 = pure fixed
    std::int32_t prog_len = 0;
    model::SourceId attr_source = 0;
  };

  /// Everything dependent resolution reads about one out-arc slot.
  struct OutArc {
    NodeId dst = 0;
    std::uint32_t lag = 0;
  };

  std::size_t n_nodes = 0;
  /// Distinct token-attribute sources referenced by the graph (>= 1).
  std::size_t n_sources = 1;

  // ---- Arc records, in CSR slot order -------------------------------------
  std::vector<std::int32_t> in_arc_offsets;  ///< n_nodes + 1
  std::vector<InArc> in_arcs;
  std::vector<std::int32_t> out_arc_offsets;  ///< n_nodes + 1
  std::vector<OutArc> out_arcs;

  // ---- Frame-initialization bookkeeping -----------------------------------
  // Per-node CSR over the *lagged* (lag >= 1) in-arcs only — the part of
  // frame initialization that depends on older frames; the static part
  // (attr prerequisites + same-frame arcs) is pre-counted so a fresh
  // frame's pending column is one memcpy plus a touch-up of the (few)
  // nodes that actually have history arcs.
  std::vector<std::int32_t> lagged_offsets;  ///< n_nodes + 1
  std::vector<NodeId> lagged_src;
  std::vector<std::uint32_t> lagged_lag;
  std::vector<std::int32_t> static_pending;  ///< -1 for externally fed nodes
  std::vector<NodeId> lagged_nodes;          ///< nodes with >= 1 lagged in-arc
  std::vector<NodeId> always_ready;  ///< static_pending == 0, no lagged arcs

  // ---- Segment program ops (arcs with execute segments) -------------------
  // Consecutive fixed segments are pre-folded into single entries; execute
  // entries carry a hoisted load, the resource's rate constant
  // (for model::arith::duration_ps, as ResourceDesc::duration_for) and the
  // observation metadata the engines bind to concrete sinks.
  std::vector<std::uint8_t> op_exec;
  std::vector<mp::Scalar> op_fixed;       ///< fixed entries
  std::vector<std::int32_t> op_load;      ///< exec: index into loads
  std::vector<double> op_rate;            ///< exec: resource ops/second
  std::vector<model::ResourceId> op_resource;  ///< exec: resource id (else -1)
  std::vector<std::string> op_label;      ///< exec: busy label ("" = unobserved)

  // ---- Hoisted std::function side tables ----------------------------------
  // Dense; indexed by the arcs/ops that actually carry a guard or load.
  std::vector<GuardFn> guards;
  std::vector<model::LoadFn> loads;

  // ---- Opcode layer (docs/DESIGN.md §14) ----------------------------------
  // The hoisted loads compiled into enum-dispatched table entries: the
  // engines' hot loops switch on plain integers and only fall back to the
  // std::function side table for kOpaqueClosure rows. Built by
  // compile_ops(), called from compile().
  ops::LoadTable load_ops;
  /// Per segment op: ops::Kind (kFixedWeight for fixed entries, the load's
  /// kind for execute entries).
  std::vector<std::uint8_t> op_kind;
  /// Per segment op: fully pre-folded exec duration in picoseconds for
  /// RateConstant loads (constant ops against the pre-resolved rate — the
  /// double math happens once, here); -1 = not constant, evaluate at
  /// runtime.
  std::vector<std::int64_t> op_const_dps;

  /// (Re)build the opcode tables from `loads`/`op_exec`/`op_load`/
  /// `op_rate`. Idempotent; must run after any mutation of those tables.
  void compile_ops();

  /// Per source: destination nodes of the attr-needing arcs (what
  /// set_attrs decrements). May contain duplicates when several arcs of
  /// one destination need the same source's attributes.
  std::vector<std::vector<NodeId>> attr_dsts_by_source;
};

}  // namespace maxev::tdg
