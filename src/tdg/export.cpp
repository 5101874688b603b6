#include "tdg/export.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace maxev::tdg {

std::string to_dot(const Graph& g) {
  std::string out = "digraph tdg {\n  rankdir=LR;\n";
  for (NodeId n = 0; n < static_cast<NodeId>(g.node_count()); ++n) {
    const Node& node = g.node(n);
    const char* shape = "ellipse";
    switch (node.kind) {
      case NodeKind::kInput: shape = "invtriangle"; break;
      case NodeKind::kOutput: shape = "doublecircle"; break;
      case NodeKind::kExternal: shape = "box"; break;
      case NodeKind::kPad: shape = "point"; break;
      case NodeKind::kInstant:
      case NodeKind::kCompletion: break;
    }
    out += format("  n%d [label=\"%s\", shape=%s];\n", n, node.name.c_str(),
                  shape);
  }
  for (const Arc& a : g.arcs()) {
    std::string label;
    for (const Segment& s : a.segments) {
      if (!label.empty()) label += "+";
      label += s.is_exec() ? s.label : s.fixed.to_string();
    }
    if (label.empty()) label = "e";
    if (a.lag > 0) label += format(" (k-%u)", a.lag);
    if (a.guard) label += " [?]";
    out += format("  n%d -> n%d [label=\"%s\"%s];\n", a.src, a.dst,
                  label.c_str(), a.lag > 0 ? ", style=dashed" : "");
  }
  out += "}\n";
  return out;
}

ExtractedSystem to_linear_system(const Graph& g, AttrsProvider attrs) {
  if (!g.frozen())
    throw DescriptionError("to_linear_system: graph must be frozen");
  if (!attrs) throw DescriptionError("to_linear_system: null attrs provider");

  ExtractedSystem ex{mp::LinearSystem{0, 0, 0}, {}, {}, {}};
  std::map<NodeId, std::size_t> state_index, input_index;
  for (NodeId n = 0; n < static_cast<NodeId>(g.node_count()); ++n) {
    if (g.node(n).kind == NodeKind::kInput) {
      input_index[n] = ex.input_nodes.size();
      ex.input_nodes.push_back(n);
    } else {
      state_index[n] = ex.state_nodes.size();
      ex.state_nodes.push_back(n);
      if (g.node(n).kind == NodeKind::kOutput) ex.output_nodes.push_back(n);
    }
  }
  const std::size_t nn = ex.state_nodes.size();
  const std::size_t np = std::max<std::size_t>(1, ex.input_nodes.size());
  const std::size_t nq = std::max<std::size_t>(1, ex.output_nodes.size());

  ex.system = mp::LinearSystem(nn, np, nq);
  ex.system.set_prehistory(mp::Scalar::e());  // simulation-origin convention

  // Group arcs by lag, splitting state-from-state and state-from-input.
  std::map<unsigned, std::vector<const Arc*>> a_by_lag, b_by_lag;
  for (const Arc& a : g.arcs()) {
    const bool from_input = g.node(a.src).kind == NodeKind::kInput;
    (from_input ? b_by_lag : a_by_lag)[a.lag].push_back(&a);
  }

  const Graph* gp = &g;
  for (auto& [lag, arcs] : a_by_lag) {
    ex.system.set_a(
        lag, [gp, arcs, attrs, state_index, nn](std::uint64_t k) {
          mp::Matrix m(nn, nn);
          for (const Arc* a : arcs) {
            const model::TokenAttrs at = attrs(a->attr_source, k);
            if (a->guard && !a->guard(at, k)) continue;
            const Duration w = gp->arc_weight(*a, at, k);
            mp::Scalar& cell =
                m.at(state_index.at(a->dst), state_index.at(a->src));
            cell = cell + mp::Scalar::from_duration(w);
          }
          return m;
        });
  }
  for (auto& [lag, arcs] : b_by_lag) {
    ex.system.set_b(
        lag, [gp, arcs, attrs, state_index, input_index, nn,
              np](std::uint64_t k) {
          mp::Matrix m(nn, np);
          for (const Arc* a : arcs) {
            const model::TokenAttrs at = attrs(a->attr_source, k);
            if (a->guard && !a->guard(at, k)) continue;
            const Duration w = gp->arc_weight(*a, at, k);
            mp::Scalar& cell =
                m.at(state_index.at(a->dst), input_index.at(a->src));
            cell = cell + mp::Scalar::from_duration(w);
          }
          return m;
        });
  }

  // Y(k) = C X(k): select the output nodes.
  mp::Matrix c(nq, nn);
  for (std::size_t i = 0; i < ex.output_nodes.size(); ++i)
    c.at(i, state_index.at(ex.output_nodes[i])) = mp::Scalar::e();
  ex.system.set_c_const(0, std::move(c));

  return ex;
}

RatioGraph to_ratio_graph(const Graph& g, const AttrsProvider& attrs,
                          std::uint64_t sample_iterations) {
  if (!g.frozen())
    throw DescriptionError("to_ratio_graph: graph must be frozen");
  if (sample_iterations == 0)
    throw DescriptionError("to_ratio_graph: need at least one sample");

  // Every source an arc reads, sampled once per iteration instead of once
  // per arc and iteration: row k of `sampled` holds them in `sources` order.
  std::vector<model::SourceId> sources;
  sources.reserve(g.arc_count());
  for (const Arc& a : g.arcs()) sources.push_back(a.attr_source);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const std::size_t width = sources.size();
  std::vector<model::TokenAttrs> sampled(
      width * static_cast<std::size_t>(sample_iterations));
  if (attrs) {
    for (std::size_t row = 0; row < sampled.size(); row += width)
      for (std::size_t i = 0; i < width; ++i)
        sampled[row + i] = attrs(sources[i], row / width);
  }

  RatioGraph out;
  out.nodes = g.node_count();
  out.arcs.reserve(g.arc_count());
  for (const Arc& a : g.arcs()) {
    double mean = 0.0;
    std::uint64_t used = 0;
    const bool constant =
        !a.guard && std::none_of(a.segments.begin(), a.segments.end(),
                                 [](const Segment& s) { return s.is_exec(); });
    if (constant) {
      // Guard-free and execute-free: the same weight at every k, summed
      // exactly as the sampling loop below would.
      const auto w = static_cast<double>(g.arc_weight(a, {}, 0).count());
      for (; used < sample_iterations; ++used) mean += w;
    } else {
      const std::size_t col = static_cast<std::size_t>(
          std::lower_bound(sources.begin(), sources.end(), a.attr_source) -
          sources.begin());
      for (std::uint64_t k = 0; k < sample_iterations; ++k) {
        const model::TokenAttrs& at =
            sampled[static_cast<std::size_t>(k) * width + col];
        if (a.guard && !a.guard(at, k)) continue;
        mean += static_cast<double>(g.arc_weight(a, at, k).count());
        ++used;
      }
    }
    if (used == 0) continue;  // arc always guarded off in the sample
    mean /= static_cast<double>(used);
    out.arcs.push_back({static_cast<std::size_t>(a.src),
                        static_cast<std::size_t>(a.dst), mean, a.lag});
  }
  return out;
}

mp::CycleRatioResult throughput_bound(const Graph& g,
                                      const AttrsProvider& attrs,
                                      std::uint64_t sample_iterations) {
  const RatioGraph rg = to_ratio_graph(g, attrs, sample_iterations);
  return mp::max_cycle_ratio(rg.nodes, rg.arcs);
}

}  // namespace maxev::tdg
