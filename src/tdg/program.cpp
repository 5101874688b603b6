#include "tdg/program.hpp"

#include <algorithm>

#include "model/arith.hpp"
#include "util/error.hpp"

namespace maxev::tdg {

Program Program::compile(const Graph& g) {
  if (!g.frozen())
    throw DescriptionError("tdg::Program: graph must be frozen");

  Program p;
  p.n_nodes = g.node_count();
  p.n_sources = 1;
  if (g.desc() != nullptr)
    p.n_sources = std::max<std::size_t>(1, g.desc()->sources().size());
  for (const Arc& a : g.arcs())
    p.n_sources =
        std::max(p.n_sources, static_cast<std::size_t>(a.attr_source) + 1);

  const std::size_t n_arcs = g.arc_count();

  p.in_arc_offsets.assign(p.n_nodes + 1, 0);
  p.in_arcs.reserve(n_arcs);
  p.attr_dsts_by_source.assign(p.n_sources, {});
  p.lagged_offsets.assign(p.n_nodes + 1, 0);
  p.static_pending.assign(p.n_nodes, 0);

  for (NodeId n = 0; n < static_cast<NodeId>(p.n_nodes); ++n) {
    const NodeKind kind = g.node(n).kind;
    const bool external_fed =
        kind == NodeKind::kInput || kind == NodeKind::kExternal;
    std::int32_t stat = 0;
    for (const std::int32_t ai : g.in_arcs(n)) {
      const Arc& a = g.arcs()[static_cast<std::size_t>(ai)];
      InArc& rec = p.in_arcs.emplace_back();
      rec.src = a.src;
      rec.lag = a.lag;
      rec.attr_source = a.attr_source;
      if (a.guard) {
        rec.guard = static_cast<std::int32_t>(p.guards.size());
        p.guards.push_back(a.guard);
      }

      bool has_exec = false;
      for (const Segment& s : a.segments) has_exec = has_exec || s.is_exec();
      const bool needs_attrs = a.guard || has_exec;
      if (needs_attrs) {
        p.attr_dsts_by_source[static_cast<std::size_t>(a.attr_source)]
            .push_back(a.dst);
      }

      // Frame-init bookkeeping: attr prerequisites and same-frame arcs are
      // static; only lagged arcs need a per-frame look at older frames.
      if (needs_attrs) ++stat;
      if (a.lag == 0) {
        ++stat;
      } else if (!external_fed) {
        p.lagged_src.push_back(a.src);
        p.lagged_lag.push_back(a.lag);
      }

      if (!has_exec) {
        // Pure delay: pre-fold every fixed segment into one weight (⊗ keeps
        // the overflow check of the per-segment composition).
        mp::Scalar w = mp::Scalar::e();
        for (const Segment& s : a.segments)
          if (!s.fixed.is_zero()) w = w * mp::Scalar::from_duration(s.fixed);
        rec.fixed = w;
        continue;
      }

      // Segment program: runs of fixed segments fold into single entries;
      // execute segments carry a hoisted load, the resource's rate constant
      // and the observation metadata (resource id + busy label) that the
      // engines later bind to concrete columnar sinks.
      const auto prog_off = static_cast<std::int32_t>(p.op_exec.size());
      rec.prog_off = prog_off;
      mp::Scalar pending_fixed = mp::Scalar::e();
      const auto flush_fixed = [&] {
        if (pending_fixed == mp::Scalar::e()) return;
        p.op_exec.push_back(0);
        p.op_fixed.push_back(pending_fixed);
        p.op_load.push_back(-1);
        p.op_rate.push_back(0.0);
        p.op_resource.push_back(model::kInvalidId);
        p.op_label.emplace_back();
        pending_fixed = mp::Scalar::e();
      };
      for (const Segment& s : a.segments) {
        if (!s.is_exec()) {
          if (!s.fixed.is_zero())
            pending_fixed = pending_fixed * mp::Scalar::from_duration(s.fixed);
          continue;
        }
        flush_fixed();
        p.op_exec.push_back(1);
        p.op_fixed.push_back(mp::Scalar::e());
        p.op_load.push_back(static_cast<std::int32_t>(p.loads.size()));
        p.loads.push_back(s.load);
        p.op_rate.push_back(g.desc()
                                ->resources()[static_cast<std::size_t>(s.resource)]
                                .ops_per_second);
        p.op_resource.push_back(s.resource);
        p.op_label.push_back(s.label);
      }
      flush_fixed();
      rec.prog_len = static_cast<std::int32_t>(p.op_exec.size()) - prog_off;
    }
    p.in_arc_offsets[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(p.in_arcs.size());

    if (external_fed) {
      p.static_pending[static_cast<std::size_t>(n)] = -1;  // externally fed
      p.lagged_offsets[static_cast<std::size_t>(n) + 1] =
          p.lagged_offsets[static_cast<std::size_t>(n)];
      continue;
    }
    p.static_pending[static_cast<std::size_t>(n)] = stat;
    const bool has_lagged =
        static_cast<std::int32_t>(p.lagged_src.size()) !=
        p.lagged_offsets[static_cast<std::size_t>(n)];
    p.lagged_offsets[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(p.lagged_src.size());
    if (has_lagged) {
      p.lagged_nodes.push_back(n);
    } else if (stat == 0) {
      p.always_ready.push_back(n);  // computable the moment the frame exists
    }
  }

  p.out_arc_offsets.assign(p.n_nodes + 1, 0);
  p.out_arcs.reserve(n_arcs);
  for (NodeId n = 0; n < static_cast<NodeId>(p.n_nodes); ++n) {
    for (const std::int32_t ai : g.out_arcs(n)) {
      const Arc& a = g.arcs()[static_cast<std::size_t>(ai)];
      p.out_arcs.push_back({a.dst, a.lag});
    }
    p.out_arc_offsets[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(p.out_arcs.size());
  }

  p.compile_ops();
  return p;
}

void Program::compile_ops() {
  load_ops = ops::compile_loads(loads);
  const std::size_t n_ops = op_exec.size();
  op_kind.assign(n_ops, static_cast<std::uint8_t>(ops::Kind::kFixedWeight));
  op_const_dps.assign(n_ops, -1);
  for (std::size_t j = 0; j < n_ops; ++j) {
    if (!op_exec[j]) continue;  // fixed entry, kFixedWeight
    const auto li = static_cast<std::size_t>(op_load[j]);
    op_kind[j] = load_ops.kind[li];
    if (static_cast<ops::Kind>(load_ops.kind[li]) != ops::Kind::kRateConstant)
      continue;
    // A constant ops count: fold the whole duration at compile time.
    op_const_dps[j] = model::arith::duration_ps(load_ops.a[li], op_rate[j]);
  }
}

}  // namespace maxev::tdg
