#include "tdg/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace maxev::tdg {

namespace {
constexpr std::uint8_t kRecords = 1;      // node has an instant series
constexpr std::uint8_t kHasCallback = 2;  // node has an on_known callback
}  // namespace

Engine::Engine(const Graph& g, Options opts) : graph_(&g), opts_(opts) {
  if (!g.frozen()) throw DescriptionError("tdg::Engine: graph must be frozen");

  prog_ = Program::compile(g);
  init_from_program();
}

Engine::Engine(const Graph& g, const Program& precompiled, Options opts)
    : graph_(&g), opts_(opts) {
  if (!g.frozen()) throw DescriptionError("tdg::Engine: graph must be frozen");
  if (precompiled.n_nodes != g.node_count())
    throw Error("tdg::Engine: precompiled program does not match the graph (" +
                std::to_string(precompiled.n_nodes) + " vs " +
                std::to_string(g.node_count()) + " nodes)");

  prog_ = precompiled;
  init_from_program();
}

void Engine::init_from_program() {
  n_nodes_ = prog_.n_nodes;
  n_sources_ = prog_.n_sources;

  callbacks_.resize(n_nodes_);
  next_flush_.assign(n_nodes_, 0);
  worklist_.reserve(n_nodes_ + 16);  // growth hint; avoids early reallocations

  compile();
}

void Engine::compile() {
  const Graph& g = *graph_;

  // Bind the program's observation metadata to this run's sinks: resolve
  // series/trace pointers once (map lookups are off the hot path),
  // pre-sizing the columns when the caller provided an expected iteration
  // count (Options::expected_iterations).
  record_series_.assign(n_nodes_, nullptr);
  if (opts_.instant_sink != nullptr) {
    for (NodeId n = 0; n < static_cast<NodeId>(n_nodes_); ++n) {
      const Node& node = g.node(n);
      if (node.record_series.empty()) continue;
      record_series_[n] = &opts_.instant_sink->series(node.record_series);
      if (opts_.expected_iterations > 0)
        record_series_[n]->reserve(opts_.expected_iterations);
    }
  }
  std::vector<trace::UsageTrace*> usage_by_resource;
  if (opts_.usage_sink != nullptr && g.desc() != nullptr) {
    for (const auto& r : g.desc()->resources())
      usage_by_resource.push_back(&opts_.usage_sink->trace(r.name));
  }

  const std::size_t n_ops = prog_.op_exec.size();
  op_trace_.assign(n_ops, nullptr);
  op_label_.assign(n_ops, -1);
  std::vector<std::size_t> obs_per_resource(usage_by_resource.size(), 0);
  for (std::size_t j = 0; j < n_ops; ++j) {
    if (!prog_.op_exec[j] || prog_.op_label[j].empty()) continue;
    if (usage_by_resource.empty()) continue;
    const auto r = static_cast<std::size_t>(prog_.op_resource[j]);
    op_trace_[j] = usage_by_resource[r];
    op_label_[j] = op_trace_[j]->intern_label(prog_.op_label[j]);
    ++obs_per_resource[r];
  }
  if (opts_.expected_iterations > 0) {
    for (std::size_t r = 0; r < usage_by_resource.size(); ++r)
      if (obs_per_resource[r] > 0)
        usage_by_resource[r]->reserve(trace::saturating_product(
            obs_per_resource[r], opts_.expected_iterations));
  }

  node_flags_.assign(n_nodes_, 0);
  for (std::size_t n = 0; n < n_nodes_; ++n)
    if (record_series_[n] != nullptr) node_flags_[n] |= kRecords;
}

void Engine::init_frame(Frame& f, std::uint64_t k) {
  // f.value is deliberately not cleared: a value is only ever read once its
  // instance is known (dependency counting guarantees sources are known),
  // and mark_known stores it right before storing kKnown — stale values
  // from a recycled frame are unreachable. The memcpy below resets every
  // kKnown left in pending.
  std::fill(f.attr_known.begin(), f.attr_known.end(), std::uint8_t{0});
  f.known_count = 0;

  // Bulk-initialize from the pre-counted static column (attr prerequisites,
  // same-frame arcs, external markers); only nodes with history arcs need a
  // per-frame look at older frames.
  if (n_nodes_ > 0) {
    std::memcpy(f.pending.data(), prog_.static_pending.data(),
                n_nodes_ * sizeof(std::int32_t));
  }
  for (const NodeId n : prog_.always_ready) worklist_.push_back({n, k});
  for (const NodeId n : prog_.lagged_nodes) {
    std::int32_t p = f.pending[static_cast<std::size_t>(n)];
    for (std::int32_t i = prog_.lagged_offsets[static_cast<std::size_t>(n)];
         i < prog_.lagged_offsets[static_cast<std::size_t>(n) + 1]; ++i) {
      const auto s = static_cast<std::size_t>(i);
      if (prog_.lagged_lag[s] > k) continue;  // pre-history: simulation origin
      const Frame* sf = frame_at(k - prog_.lagged_lag[s]);
      if (sf == nullptr ||
          sf->pending[static_cast<std::size_t>(prog_.lagged_src[s])] != kKnown)
        ++p;
    }
    f.pending[static_cast<std::size_t>(n)] = p;
    if (p == 0) worklist_.push_back({n, k});
  }
}

Engine::Frame& Engine::ensure_frame(std::uint64_t k) {
  if (k < base_k_)
    throw Error("tdg::Engine: iteration " + std::to_string(k) +
                " already pruned");
  while (k >= base_k_ + frames_.size()) {
    if (frame_pool_.empty()) {
      Frame f;
      f.value.resize(n_nodes_);
      f.pending.resize(n_nodes_);
      f.attr_known.resize(n_sources_);
      f.attrs.resize(n_sources_);
      frames_.push_back(std::move(f));
    } else {
      frames_.push_back(std::move(frame_pool_.back()));
      frame_pool_.pop_back();
    }
    frame_ptrs_.push_back(&frames_.back());
    init_frame(frames_.back(), base_k_ + frames_.size() - 1);
  }
  return frames_[k - base_k_];
}

Engine::Frame* Engine::frame_at(std::uint64_t k) {
  const std::uint64_t idx = k - base_k_;  // wraps for k < base_k_
  if (idx >= frame_ptrs_.size()) return nullptr;
  return frame_ptrs_[idx];
}

const Engine::Frame* Engine::frame_at(std::uint64_t k) const {
  const std::uint64_t idx = k - base_k_;  // wraps for k < base_k_
  if (idx >= frame_ptrs_.size()) return nullptr;
  return frame_ptrs_[idx];
}

void Engine::set_external(NodeId n, std::uint64_t k, TimePoint value) {
  const Node& node = graph_->node(n);
  if (node.kind != NodeKind::kInput && node.kind != NodeKind::kExternal)
    throw Error("tdg::Engine: set_external on computed node '" + node.name +
                "'");
  Frame& f = ensure_frame(k);
  if (f.pending[static_cast<std::size_t>(n)] == kKnown)
    throw Error("tdg::Engine: instance (" + node.name + ", " +
                std::to_string(k) + ") already known");
  mark_known(f, n, k, mp::Scalar::from_time(value));
  const Ready next = resolve_dependents(f, n, k);
  if (next.node >= 0) worklist_.push_back(next);
  drain();
}

void Engine::set_attrs(model::SourceId s, std::uint64_t k,
                       const model::TokenAttrs& attrs) {
  if (s < 0 || static_cast<std::size_t>(s) >= n_sources_)
    throw Error("tdg::Engine: set_attrs with bad source id");
  Frame& f = ensure_frame(k);
  if (f.attr_known[static_cast<std::size_t>(s)]) return;  // idempotent
  f.attrs[static_cast<std::size_t>(s)] = attrs;
  f.attr_known[static_cast<std::size_t>(s)] = 1;
  for (const NodeId dst : prog_.attr_dsts_by_source[static_cast<std::size_t>(s)])
    if (decrement(f, dst)) worklist_.push_back({dst, k});
  drain();
}

void Engine::mark_known(Frame& f, NodeId n, std::uint64_t k, mp::Scalar v) {
  f.value[static_cast<std::size_t>(n)] = v;
  f.pending[static_cast<std::size_t>(n)] = kKnown;
  ++f.known_count;
  const std::uint8_t flags = node_flags_[static_cast<std::size_t>(n)];
  if (flags == 0) return;  // common case: no observer on this node
  if (flags & kRecords) flush_instants(n);
  if ((flags & kHasCallback) && v.is_finite())
    callbacks_[static_cast<std::size_t>(n)](k, v.to_time());
}

void Engine::flush_instants(NodeId n) {
  MAXEV_FAULT_POINT("engine.flush");
  trace::InstantSeries& series = *record_series_[static_cast<std::size_t>(n)];
  while (true) {
    const Frame* f = frame_at(next_flush_[static_cast<std::size_t>(n)]);
    if (f == nullptr || f->pending[static_cast<std::size_t>(n)] != kKnown)
      break;
    const mp::Scalar v = f->value[static_cast<std::size_t>(n)];
    if (v.is_finite()) series.push(v.to_time());
    ++next_flush_[static_cast<std::size_t>(n)];
  }
}

bool Engine::decrement(Frame& f, NodeId n) {
  // Known instances hold kKnown and externally fed ones a negative count:
  // neither is decremented, and neither ever becomes ready here.
  std::int32_t& p = f.pending[static_cast<std::size_t>(n)];
  if (p <= 0) return false;
  return --p == 0;
}

Engine::Ready Engine::resolve_dependents(Frame& f, NodeId n, std::uint64_t k) {
  // f serves every same-frame dependent without a lookup — except when n
  // carries an on_known callback, whose retain-floor raise may have pruned
  // iteration k re-entrantly during mark_known: re-fetch, and a null fk
  // means the frame was fully known, so its dependents have no pending
  // count left to decrement.
  Frame* fk = node_flags_[static_cast<std::size_t>(n)] & kHasCallback
                  ? frame_at(k)
                  : &f;
  Ready last;
  for (std::int32_t i = prog_.out_arc_offsets[static_cast<std::size_t>(n)];
       i < prog_.out_arc_offsets[static_cast<std::size_t>(n) + 1]; ++i) {
    const Program::OutArc& arc = prog_.out_arcs[static_cast<std::size_t>(i)];
    const std::uint64_t kk = k + arc.lag;
    // If a lagged target frame does not exist yet, its init will see this
    // instance as already known and not count it.
    Frame* tf = arc.lag == 0 ? fk : frame_at(kk);
    if (tf == nullptr || !decrement(*tf, arc.dst)) continue;
    if (last.node >= 0) worklist_.push_back(last);
    last = {arc.dst, kk};
  }
  return last;
}

void Engine::drain() {
  if (draining_) return;  // single drain loop; nested calls just enqueue
  // Reset the flag on unwind too: a guard/load closure, an overflow or an
  // observer that throws mid-drain must not leave every later feed
  // enqueue-only.
  struct Scope {
    bool& flag;
    ~Scope() { flag = false; }
  } scope{draining_};
  draining_ = true;
  while (!worklist_.empty()) {
    const Ready r = worklist_.back();
    worklist_.pop_back();
    compute(r.node, r.k);
  }
  prune();
}

void Engine::compute(NodeId n, std::uint64_t k) {
  Frame* f = frame_at(k);
  if (f->pending[static_cast<std::size_t>(n)] == kKnown) return;
  while (true) {
    const mp::Scalar v = evaluate(*f, n, k);
    ++computed_;
    mark_known(*f, n, k, v);
    const Ready next = resolve_dependents(*f, n, k);
    if (next.node < 0) return;
    // Continue with the instance the worklist would have popped next. Its
    // frame is *f unless it lies in another iteration, or n's callback may
    // have pruned frames (resolve_dependents re-fetches for the same
    // reason).
    if (next.k != k ||
        (node_flags_[static_cast<std::size_t>(n)] & kHasCallback))
      f = frame_at(next.k);
    n = next.node;
    k = next.k;
  }
}

mp::Scalar Engine::evaluate(const Frame& f, NodeId n, std::uint64_t k) {
  // Every prerequisite is resolved: ⊕ over arcs of src ⊗ (composed segment
  // weights), emitting busy intervals as segment positions are determined
  // (the paper's observation time). Loads are evaluated exactly once.
  //
  // MIRRORED BY BatchEngine::compute_one (src/tdg/batch_engine.cpp): the
  // batched==solo bit-identity guarantee requires any arithmetic change
  // here to be applied there too (and to its full-front fast path for the
  // pure-fixed case).
  mp::Scalar acc = mp::Scalar::eps();
  for (std::int32_t i = prog_.in_arc_offsets[static_cast<std::size_t>(n)];
       i < prog_.in_arc_offsets[static_cast<std::size_t>(n) + 1]; ++i) {
    const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(i)];
    if (arc.guard >= 0 &&
        !prog_.guards[static_cast<std::size_t>(arc.guard)](
            f.attrs[static_cast<std::size_t>(arc.attr_source)], k))
      continue;
    mp::Scalar cursor;
    if (arc.lag == 0) {  // same-frame source: skip the frame lookup
      cursor = f.value[static_cast<std::size_t>(arc.src)];
    } else if (arc.lag > k) {
      cursor = mp::Scalar::e();  // simulation origin
    } else {
      cursor = frame_at(k - arc.lag)->value[static_cast<std::size_t>(arc.src)];
    }
    ++arc_terms_;
    if (cursor.is_eps()) continue;  // guarded-off upstream
    if (arc.prog_off < 0) {
      cursor = cursor * arc.fixed;  // pure delay, pre-folded
    } else {
      const model::TokenAttrs& attrs =
          f.attrs[static_cast<std::size_t>(arc.attr_source)];
      const auto end = static_cast<std::size_t>(arc.prog_off + arc.prog_len);
      for (auto j = static_cast<std::size_t>(arc.prog_off); j < end; ++j) {
        if (!prog_.op_exec[j]) {
          cursor = cursor * prog_.op_fixed[j];
          continue;
        }
        const auto li = static_cast<std::size_t>(prog_.op_load[j]);
        std::int64_t ops;
        std::int64_t d_ps;
        if (prog_.op_const_dps[j] >= 0) {
          // RateConstant: both the ops count and the whole duration were
          // folded at compile time (Program::compile_ops).
          ops = prog_.load_ops.a[li];
          d_ps = prog_.op_const_dps[j];
        } else {
          ops = ops::eval_load(prog_.load_ops, li, attrs, k, prog_.loads);
          // ResourceDesc::duration_for(ops), inlined with the pre-resolved
          // rate constant (identical arithmetic, hence identical instants).
          d_ps = ops <= 0 ? 0
                          : static_cast<std::int64_t>(std::llround(
                                static_cast<double>(ops) / prog_.op_rate[j] *
                                1e12));
        }
        const mp::Scalar end_pos =
            cursor * mp::Scalar::from_duration(Duration::ps(d_ps));
        if (op_trace_[j] != nullptr) {
          op_trace_[j]->push(cursor.to_time(), end_pos.to_time(), ops,
                             op_label_[j]);
        }
        cursor = end_pos;
      }
    }
    acc = acc + cursor;
  }
  return acc;
}

void Engine::prune() {
  const std::size_t window = static_cast<std::size_t>(graph_->max_lag()) + 1;
  // Hysteresis: batch reclamation instead of churning one frame at a time.
  if (frames_.size() <= window + 8) return;
  // The retain margin keeps a trailing band of fully-known frames below the
  // floor alive (the adaptive backend's detection/seed window).
  const std::uint64_t floor =
      retain_floor_ > retain_margin_ ? retain_floor_ - retain_margin_ : 0;
  while (frames_.size() > window && base_k_ < floor) {
    bool droppable = true;
    for (std::size_t i = 0; i <= graph_->max_lag() && droppable; ++i)
      droppable = frames_[i].known_count == n_nodes_;
    if (!droppable) break;
    frame_pool_.push_back(std::move(frames_.front()));
    frames_.pop_front();
    frame_ptrs_.erase(frame_ptrs_.begin());  // window-sized vector, cheap
    ++base_k_;
  }
}

std::optional<TimePoint> Engine::value(NodeId n, std::uint64_t k) const {
  const Frame* f = frame_at(k);
  if (f == nullptr || f->pending[static_cast<std::size_t>(n)] != kKnown ||
      !f->value[static_cast<std::size_t>(n)].is_finite())
    return std::nullopt;
  return f->value[static_cast<std::size_t>(n)].to_time();
}

std::optional<model::TokenAttrs> Engine::attrs_of(model::SourceId s,
                                                  std::uint64_t k) const {
  if (s < 0 || static_cast<std::size_t>(s) >= n_sources_) return std::nullopt;
  const Frame* f = frame_at(k);
  if (f == nullptr || !f->attr_known[static_cast<std::size_t>(s)])
    return std::nullopt;
  return f->attrs[static_cast<std::size_t>(s)];
}

void Engine::set_retain_floor(std::uint64_t k) {
  retain_floor_ = std::max(retain_floor_, k);
  prune();
}

void Engine::set_retain_margin(std::uint64_t frames) {
  retain_margin_ = std::max(retain_margin_, frames);
}

std::optional<mp::Scalar> Engine::scalar_value(NodeId n,
                                               std::uint64_t k) const {
  const Frame* f = frame_at(k);
  if (f == nullptr || f->pending[static_cast<std::size_t>(n)] != kKnown)
    return std::nullopt;
  return f->value[static_cast<std::size_t>(n)];
}

const mp::Scalar* Engine::complete_row(std::uint64_t k) const {
  const Frame* f = frame_at(k);
  if (f == nullptr || f->known_count != n_nodes_) return nullptr;
  return f->value.data();
}

Engine::HistoryWindow Engine::snapshot(std::uint64_t first_k,
                                       std::uint64_t count) const {
  HistoryWindow w;
  w.first_k = first_k;
  w.n_nodes = n_nodes_;
  w.n_sources = n_sources_;
  w.values.reserve(static_cast<std::size_t>(count) * n_nodes_);
  w.attrs.reserve(static_cast<std::size_t>(count) * n_sources_);
  w.attr_known.reserve(static_cast<std::size_t>(count) * n_sources_);
  for (std::uint64_t k = first_k; k < first_k + count; ++k) {
    const Frame* f = frame_at(k);
    if (f == nullptr || f->known_count != n_nodes_)
      throw Error("tdg::Engine: snapshot of iteration " + std::to_string(k) +
                  " — frame not resident or not fully known");
    w.values.insert(w.values.end(), f->value.begin(), f->value.end());
    w.attrs.insert(w.attrs.end(), f->attrs.begin(), f->attrs.end());
    w.attr_known.insert(w.attr_known.end(), f->attr_known.begin(),
                        f->attr_known.end());
  }
  return w;
}

void Engine::seed_history(const HistoryWindow& w) {
  if (!frames_.empty() || base_k_ != 0 || computed_ != 0)
    throw Error("tdg::Engine: seed_history requires a fresh engine");
  if (w.n_nodes != n_nodes_ || w.n_sources != n_sources_)
    throw Error("tdg::Engine: seed_history window shape mismatch");
  const std::size_t count = w.frames();
  if (count < std::max<std::size_t>(graph_->max_lag(), 1))
    throw Error("tdg::Engine: seed_history window shorter than the graph's "
                "max lag");
  base_k_ = w.first_k;
  for (std::size_t i = 0; i < count; ++i) {
    Frame f;
    f.value.assign(w.values.begin() + static_cast<std::ptrdiff_t>(i * n_nodes_),
                   w.values.begin() +
                       static_cast<std::ptrdiff_t>((i + 1) * n_nodes_));
    f.pending.assign(n_nodes_, kKnown);
    f.attrs.assign(
        w.attrs.begin() + static_cast<std::ptrdiff_t>(i * n_sources_),
        w.attrs.begin() + static_cast<std::ptrdiff_t>((i + 1) * n_sources_));
    f.attr_known.assign(
        w.attr_known.begin() + static_cast<std::ptrdiff_t>(i * n_sources_),
        w.attr_known.begin() +
            static_cast<std::ptrdiff_t>((i + 1) * n_sources_));
    f.known_count = n_nodes_;
    frames_.push_back(std::move(f));
    frame_ptrs_.push_back(&frames_.back());
  }
  // Seeded history is already observed — never re-flush it into the sinks.
  next_flush_.assign(n_nodes_, w.first_k + count);
  retain_floor_ = w.first_k;
  complete_scan_ = w.first_k;
}

void Engine::on_known(NodeId n,
                      std::function<void(std::uint64_t, TimePoint)> cb) {
  if (n < 0 || static_cast<std::size_t>(n) >= callbacks_.size())
    throw Error("tdg::Engine: on_known with bad node id");
  callbacks_[static_cast<std::size_t>(n)] = std::move(cb);
  if (callbacks_[static_cast<std::size_t>(n)]) {
    node_flags_[static_cast<std::size_t>(n)] |= kHasCallback;
  } else {
    node_flags_[static_cast<std::size_t>(n)] &=
        static_cast<std::uint8_t>(~kHasCallback);
  }
}

}  // namespace maxev::tdg
