#include "maxplus/cycle_ratio.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace maxev::mp {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Two values closer than this fraction of the largest arc weight compare
/// equal in the improvement step, so rounding noise never flips a policy.
constexpr double kRelativeEpsilon = 1e-9;

/// Indices [0, items) grouped by key in CSR form: those with key b are
/// ids[off[b] .. off[b+1]), ascending.
struct Buckets {
  std::vector<std::size_t> off;
  std::vector<std::size_t> ids;
};

template <class Key>
Buckets bucket(std::size_t buckets, std::size_t items, Key key) {
  Buckets b;
  b.off.assign(buckets + 1, 0);
  for (std::size_t i = 0; i < items; ++i) ++b.off[key(i) + 1];
  for (std::size_t k = 0; k < buckets; ++k) b.off[k + 1] += b.off[k];
  b.ids.resize(items);
  std::vector<std::size_t> fill(b.off.begin(), b.off.end() - 1);
  for (std::size_t i = 0; i < items; ++i) b.ids[fill[key(i)]++] = i;
  return b;
}

/// Bellman-Ford positive-cycle detection on the zero-lag arcs, every node
/// seeded with potential 0 (a virtual source with zero-weight arcs to all).
bool has_positive_zero_lag_cycle(std::size_t n,
                                 const std::vector<RatioArc>& arcs) {
  std::vector<double> dist(n, 0.0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const RatioArc& a : arcs) {
      if (a.lag != 0) continue;
      if (dist[a.src] + a.weight > dist[a.dst] + 1e-12) {
        dist[a.dst] = dist[a.src] + a.weight;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;  // still relaxing after n passes => positive cycle
}

/// A positive-weight zero-lag cycle makes every λ infeasible. A topological
/// sort of the zero-lag arcs proves the common case (no zero-lag cycle at
/// all) in linear time; Bellman-Ford runs only when one exists, to tell a
/// harmless non-positive cycle from a malformed system.
void check_zero_lag_cycles(std::size_t n, const std::vector<RatioArc>& arcs,
                           const Buckets& adj) {
  std::vector<std::size_t> indegree(n, 0);
  for (const RatioArc& a : arcs)
    if (a.lag == 0) ++indegree[a.dst];
  std::vector<std::size_t> ready;
  for (std::size_t v = 0; v < n; ++v)
    if (indegree[v] == 0) ready.push_back(v);
  std::size_t sorted = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    ++sorted;
    for (std::size_t i = adj.off[v]; i < adj.off[v + 1]; ++i) {
      const RatioArc& a = arcs[adj.ids[i]];
      if (a.lag == 0 && --indegree[a.dst] == 0) ready.push_back(a.dst);
    }
  }
  if (sorted != n && has_positive_zero_lag_cycle(n, arcs)) {
    throw DescriptionError(
        "max_cycle_ratio: positive-weight zero-lag cycle (instants not "
        "computable)");
  }
}

/// Strongly connected components by an iterative Tarjan. Writes each
/// node's component id into \p comp and returns the component count.
std::size_t strong_components(std::size_t n, const std::vector<RatioArc>& arcs,
                              const Buckets& adj,
                              std::vector<std::size_t>& comp) {
  std::vector<std::size_t> index(n, kNone), low(n, 0), next(n, 0);
  std::vector<std::size_t> stack, call;
  comp.assign(n, kNone);
  std::size_t counter = 0, count = 0;
  const auto visit = [&](std::size_t v) {
    index[v] = low[v] = counter++;
    next[v] = adj.off[v];
    stack.push_back(v);
    call.push_back(v);
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    visit(root);
    while (!call.empty()) {
      const std::size_t v = call.back();
      if (next[v] < adj.off[v + 1]) {
        const std::size_t w = arcs[adj.ids[next[v]++]].dst;
        if (index[w] == kNone) {
          visit(w);
        } else if (comp[w] == kNone) {  // w is still on the stack
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      call.pop_back();
      if (!call.empty()) low[call.back()] = std::min(low[call.back()], low[v]);
      if (low[v] != index[v]) continue;
      std::size_t w = kNone;
      do {
        w = stack.back();
        stack.pop_back();
        comp[w] = count;
      } while (w != v);
      ++count;
    }
  }
  return count;
}

/// The arcs that lie inside a strongly connected component holding a lagged
/// arc, grouped by source (out_off) and by target (in). Every cycle of the
/// graph through a lag lies in such a component; nodes outside them have
/// no arcs here.
struct LaggedSubgraph {
  struct Arc {
    std::size_t src;
    std::size_t dst;
    double weight;
    unsigned lag;
  };
  std::size_t size = 0;
  std::vector<Arc> arcs;
  std::vector<std::size_t> out_off;
  Buckets in;
};

/// Howard policy iteration (multichain form) for the maximum cycle ratio of
/// a LaggedSubgraph; its components are disjoint, so one run solves them
/// all. A policy picks one out-arc per node; value determination gives each
/// node the ratio η of the policy cycle it reaches and a bias x with
/// x(u) = w − η·lag + x(v) along the policy; improvement switches a node to
/// a successor with larger η, or, when no node can, to one with larger
/// w − η·lag + x(v). Every policy cycle carries a lag: the initial one by
/// construction, and an improvement can only close a zero-lag cycle of
/// positive weight, which check_zero_lag_cycles has ruled out.
class PolicyIteration {
 public:
  explicit PolicyIteration(const LaggedSubgraph& c)
      : c_(c),
        policy_(c.size, kNone),
        eta_(c.size, 0.0),
        bias_(c.size, 0.0),
        state_(c.size, kFresh) {
    double scale = 1.0;
    for (const LaggedSubgraph::Arc& a : c.arcs)
      scale = std::max(scale, std::abs(a.weight));
    eps_ = kRelativeEpsilon * scale;
  }

  /// λ: W/L of the critical cycle of the final policy.
  /// \throws maxev::Error when the iteration cap is hit.
  double solve() {
    initial_policy();
    const std::size_t cap = 64 + c_.size + c_.arcs.size();
    for (std::size_t iter = 0; iter < cap; ++iter) {
      const double lambda = evaluate();
      if (!improve_ratio() && !improve_bias()) return lambda;
    }
    throw Error("max_cycle_ratio: policy iteration did not converge");
  }

 private:
  enum State : unsigned char { kFresh, kOnPath, kDone };

  /// Every source of a lagged arc takes that arc; every other node follows
  /// a reverse-BFS path towards the nearest such source.
  void initial_policy() {
    std::vector<std::size_t> queue;
    queue.reserve(c_.size);
    for (std::size_t u = 0; u < c_.size; ++u) {
      for (std::size_t i = c_.out_off[u]; i < c_.out_off[u + 1]; ++i) {
        if (c_.arcs[i].lag == 0) continue;
        policy_[u] = i;
        queue.push_back(u);
        break;
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t v = queue[head];
      for (std::size_t j = c_.in.off[v]; j < c_.in.off[v + 1]; ++j) {
        const std::size_t i = c_.in.ids[j];
        const std::size_t u = c_.arcs[i].src;
        if (policy_[u] != kNone) continue;
        policy_[u] = i;
        queue.push_back(u);
      }
    }
  }

  /// η and x of \p u from its policy successor, which must be settled.
  void settle(std::size_t u) {
    const LaggedSubgraph::Arc& a = c_.arcs[policy_[u]];
    eta_[u] = eta_[a.dst];
    bias_[u] = a.weight - eta_[u] * static_cast<double>(a.lag) + bias_[a.dst];
    state_[u] = kDone;
  }

  /// Value determination in one pass over the policy graph; returns the
  /// largest policy-cycle ratio. Each cycle's handle is its smallest node,
  /// at bias 0, so an unchanged cycle keeps its values across iterations.
  double evaluate() {
    std::fill(state_.begin(), state_.end(), kFresh);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < c_.size; ++s) {
      if (state_[s] != kFresh || policy_[s] == kNone) continue;
      path_.clear();
      std::size_t u = s;
      while (state_[u] == kFresh) {
        state_[u] = kOnPath;
        path_.push_back(u);
        u = c_.arcs[policy_[u]].dst;
      }
      std::size_t tree_end = path_.size();
      if (state_[u] == kOnPath) {
        // path_[tree_end ..) is a new policy cycle through u.
        std::size_t handle = u;
        do {
          handle = std::min(handle, path_[--tree_end]);
        } while (path_[tree_end] != u);
        double w = 0.0;
        std::uint64_t lag = 0;
        std::size_t v = handle;
        do {
          const LaggedSubgraph::Arc& a = c_.arcs[policy_[v]];
          w += a.weight;
          lag += a.lag;
          v = a.dst;
        } while (v != handle);
        const double eta = w / static_cast<double>(lag);
        best = std::max(best, eta);
        eta_[handle] = eta;
        bias_[handle] = 0.0;
        state_[handle] = kDone;
        // Settle the rest of the cycle backwards from the handle.
        std::size_t h = tree_end;
        while (path_[h] != handle) ++h;
        for (std::size_t i = h; i > tree_end; --i) settle(path_[i - 1]);
        for (std::size_t i = path_.size(); i > h + 1; --i) settle(path_[i - 1]);
      }
      for (std::size_t i = tree_end; i > 0; --i) settle(path_[i - 1]);
    }
    return best;
  }

  /// Switch every node that has a successor with a larger cycle ratio to
  /// the best such successor.
  bool improve_ratio() {
    bool changed = false;
    for (std::size_t u = 0; u < c_.size; ++u) {
      double best = eta_[u] + eps_;
      std::size_t pick = kNone;
      for (std::size_t i = c_.out_off[u]; i < c_.out_off[u + 1]; ++i) {
        const double e = eta_[c_.arcs[i].dst];
        if (e > best) {
          best = e;
          pick = i;
        }
      }
      if (pick == kNone) continue;
      policy_[u] = pick;
      changed = true;
    }
    return changed;
  }

  /// Among successors of equal cycle ratio, switch every node to the one
  /// with the largest w − η·lag + x(v) when it beats x(u).
  bool improve_bias() {
    bool changed = false;
    for (std::size_t u = 0; u < c_.size; ++u) {
      double best = bias_[u] + eps_;
      std::size_t pick = kNone;
      for (std::size_t i = c_.out_off[u]; i < c_.out_off[u + 1]; ++i) {
        const LaggedSubgraph::Arc& a = c_.arcs[i];
        if (eta_[a.dst] < eta_[u] - eps_) continue;
        const double x =
            a.weight - eta_[u] * static_cast<double>(a.lag) + bias_[a.dst];
        if (x > best) {
          best = x;
          pick = i;
        }
      }
      if (pick == kNone) continue;
      policy_[u] = pick;
      changed = true;
    }
    return changed;
  }

  const LaggedSubgraph& c_;
  std::vector<std::size_t> policy_;
  std::vector<double> eta_;
  std::vector<double> bias_;
  std::vector<State> state_;
  std::vector<std::size_t> path_;
  double eps_ = 0.0;
};

/// The arcs of \p arcs inside components marked \p lagged.
LaggedSubgraph lagged_subgraph(std::size_t n, const std::vector<RatioArc>& arcs,
                               const Buckets& adj,
                               const std::vector<std::size_t>& comp,
                               const std::vector<bool>& lagged) {
  LaggedSubgraph g;
  g.size = n;
  g.out_off.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = adj.off[v]; j < adj.off[v + 1]; ++j) {
      const RatioArc& a = arcs[adj.ids[j]];
      if (comp[a.dst] == comp[v] && lagged[comp[v]])
        g.arcs.push_back({v, a.dst, a.weight, a.lag});
    }
    g.out_off[v + 1] = g.arcs.size();
  }
  g.in = bucket(n, g.arcs.size(),
                [&g](std::size_t i) { return g.arcs[i].dst; });
  return g;
}

}  // namespace

CycleRatioResult max_cycle_ratio(std::size_t node_count,
                                 const std::vector<RatioArc>& arcs) {
  for (const RatioArc& a : arcs) {
    if (a.src >= node_count || a.dst >= node_count)
      throw Error("max_cycle_ratio: arc endpoint out of range");
    if (!std::isfinite(a.weight))
      throw Error("max_cycle_ratio: non-finite arc weight");
  }
  CycleRatioResult result;
  if (arcs.empty()) return result;

  const std::size_t n = node_count;
  const Buckets adj =
      bucket(n, arcs.size(), [&arcs](std::size_t i) { return arcs[i].src; });
  check_zero_lag_cycles(n, arcs, adj);

  std::vector<std::size_t> comp;
  const std::size_t n_comps = strong_components(n, arcs, adj, comp);
  // Only components with an internal lagged arc hold a lagged cycle.
  std::vector<bool> lagged(n_comps, false);
  for (const RatioArc& a : arcs)
    if (a.lag > 0 && comp[a.src] == comp[a.dst]) lagged[comp[a.src]] = true;

  const LaggedSubgraph sub = lagged_subgraph(n, arcs, adj, comp, lagged);
  if (sub.arcs.empty()) return result;
  const double lambda = PolicyIteration(sub).solve();
  if (lambda > 0.0) {
    result.has_cycle = true;
    result.max_ratio = lambda;
  }
  return result;
}

}  // namespace maxev::mp
