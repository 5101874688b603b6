#include "tdg/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace maxev::tdg {

namespace {
constexpr std::uint8_t kRecords = 1;      // (node, inst) has an instant series
constexpr std::uint8_t kHasCallback = 2;  // (node, inst) has a callback
}  // namespace

BatchEngine::BatchEngine(const Graph& g, Options opts)
    : graph_(&g), opts_(std::move(opts)) {
  if (!g.frozen())
    throw DescriptionError("tdg::BatchEngine: graph must be frozen");
  if (opts_.instances.empty())
    throw DescriptionError("tdg::BatchEngine: empty batch");

  prog_ = Program::compile(g);
  init_from_program();
}

BatchEngine::BatchEngine(const Graph& g, const Program& precompiled,
                         Options opts)
    : graph_(&g), opts_(std::move(opts)) {
  if (!g.frozen())
    throw DescriptionError("tdg::BatchEngine: graph must be frozen");
  if (opts_.instances.empty())
    throw DescriptionError("tdg::BatchEngine: empty batch");
  if (precompiled.n_nodes != g.node_count())
    throw Error(
        "tdg::BatchEngine: precompiled program does not match the graph (" +
        std::to_string(precompiled.n_nodes) + " vs " +
        std::to_string(g.node_count()) + " nodes)");

  prog_ = precompiled;
  init_from_program();
}

void BatchEngine::init_from_program() {
  width_ = opts_.instances.size();
  words_ = (width_ + 63) / 64;
  n_nodes_ = prog_.n_nodes;
  n_sources_ = prog_.n_sources;

  // Tile the static pending column across the batch (every lane of a node
  // starts from the same pre-counted value), so frame init is one memcpy.
  pending_template_.resize(n_nodes_ * width_);
  for (std::size_t n = 0; n < n_nodes_; ++n)
    for (std::size_t i = 0; i < width_; ++i)
      pending_template_[n * width_ + i] = prog_.static_pending[n];

  // A node whose every in-arc is a guard-free pure delay computes the same
  // arithmetic for each instance — the lane-loop fast path.
  uniform_.assign(n_nodes_, 1);
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    for (std::int32_t s = prog_.in_arc_offsets[n];
         s < prog_.in_arc_offsets[n + 1]; ++s) {
      const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(s)];
      if (arc.guard >= 0 || arc.prog_off >= 0) {
        uniform_[n] = 0;
        break;
      }
    }
  }

  node_flags_.assign(n_nodes_ * width_, 0);
  node_observed_.assign(n_nodes_, 0);
  callbacks_.resize(n_nodes_ * width_);
  next_flush_.assign(n_nodes_ * width_, 0);
  retain_floor_.assign(width_, 0);
  mask_scratch_.resize(words_);
  worklist_.reserve(n_nodes_ + 16);

  bind_sinks();
}

void BatchEngine::bind_sinks() {
  const Graph& g = *graph_;
  record_series_.assign(n_nodes_ * width_, nullptr);
  op_trace_.assign(prog_.op_exec.size() * width_, nullptr);
  op_label_.assign(prog_.op_exec.size() * width_, -1);

  for (std::size_t i = 0; i < width_; ++i) {
    const InstanceSinks& sinks = opts_.instances[i];

    if (sinks.instant_sink != nullptr) {
      for (NodeId n = 0; n < static_cast<NodeId>(n_nodes_); ++n) {
        const Node& node = g.node(n);
        if (node.record_series.empty()) continue;
        trace::InstantSeries& series =
            sinks.instant_sink->series(sinks.scope + node.record_series);
        record_series_[lane(static_cast<std::size_t>(n), i)] = &series;
        if (opts_.expected_iterations > 0)
          series.reserve(opts_.expected_iterations);
        node_flags_[lane(static_cast<std::size_t>(n), i)] |= kRecords;
        node_observed_[static_cast<std::size_t>(n)] = 1;
      }
    }

    if (sinks.usage_sink == nullptr || g.desc() == nullptr) continue;
    std::vector<trace::UsageTrace*> usage_by_resource;
    for (const auto& r : g.desc()->resources())
      usage_by_resource.push_back(&sinks.usage_sink->trace(sinks.scope + r.name));
    std::vector<std::size_t> obs_per_resource(usage_by_resource.size(), 0);
    for (std::size_t j = 0; j < prog_.op_exec.size(); ++j) {
      if (!prog_.op_exec[j] || prog_.op_label[j].empty()) continue;
      const auto r = static_cast<std::size_t>(prog_.op_resource[j]);
      trace::UsageTrace* sink = usage_by_resource[r];
      op_trace_[j * width_ + i] = sink;
      op_label_[j * width_ + i] =
          sink->intern_label(sinks.scope + prog_.op_label[j]);
      ++obs_per_resource[r];
    }
    if (opts_.expected_iterations > 0) {
      for (std::size_t r = 0; r < usage_by_resource.size(); ++r)
        if (obs_per_resource[r] > 0)
          usage_by_resource[r]->reserve(trace::saturating_product(
            obs_per_resource[r], opts_.expected_iterations));
    }
  }
}

void BatchEngine::init_frame(Frame& f, std::uint64_t k) {
  // value_ps/value_eps are deliberately not cleared (see
  // Engine::init_frame): values are only read behind known[] checks, so
  // stale lanes are unreachable.
  std::fill(f.known.begin(), f.known.end(), std::uint8_t{0});
  std::fill(f.attr_known.begin(), f.attr_known.end(), std::uint8_t{0});
  std::fill(f.ready.begin(), f.ready.end(), std::uint64_t{0});
  f.known_count = 0;

  if (!pending_template_.empty()) {
    std::memcpy(f.pending.data(), pending_template_.data(),
                pending_template_.size() * sizeof(std::int32_t));
  }
  for (const NodeId n : prog_.always_ready)
    for (std::size_t i = 0; i < width_; ++i) mark_ready(f, n, k, i);
  for (const NodeId n : prog_.lagged_nodes) {
    const std::size_t base = lane(static_cast<std::size_t>(n), 0);
    for (std::int32_t s = prog_.lagged_offsets[static_cast<std::size_t>(n)];
         s < prog_.lagged_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
      const auto a = static_cast<std::size_t>(s);
      if (prog_.lagged_lag[a] > k) continue;  // pre-history: simulation origin
      const Frame* sf = frame_at(k - prog_.lagged_lag[a]);
      const std::size_t src_base =
          lane(static_cast<std::size_t>(prog_.lagged_src[a]), 0);
      if (sf == nullptr) {
        for (std::size_t i = 0; i < width_; ++i) ++f.pending[base + i];
      } else {
        for (std::size_t i = 0; i < width_; ++i)
          if (!sf->known[src_base + i]) ++f.pending[base + i];
      }
    }
    for (std::size_t i = 0; i < width_; ++i)
      if (f.pending[base + i] == 0) mark_ready(f, n, k, i);
  }
}

BatchEngine::Frame& BatchEngine::ensure_frame(std::uint64_t k) {
  if (k < base_k_)
    throw Error("tdg::BatchEngine: iteration " + std::to_string(k) +
                " already pruned");
  while (k >= base_k_ + frames_.size()) {
    if (frame_pool_.empty()) {
      Frame f;
      f.value_ps.resize(n_nodes_ * width_);
      f.value_eps.resize(n_nodes_ * width_);
      f.known.resize(n_nodes_ * width_);
      f.pending.resize(n_nodes_ * width_);
      f.ready.resize(n_nodes_ * words_);
      f.attr_known.resize(n_sources_ * width_);
      f.attrs.resize(n_sources_ * width_);
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

BatchEngine::Frame* BatchEngine::frame_at(std::uint64_t k) {
  const std::uint64_t idx = k - base_k_;  // wraps for k < base_k_
  if (idx >= frame_ptrs_.size()) return nullptr;
  return frame_ptrs_[idx];
}

const BatchEngine::Frame* BatchEngine::frame_at(std::uint64_t k) const {
  const std::uint64_t idx = k - base_k_;  // wraps for k < base_k_
  if (idx >= frame_ptrs_.size()) return nullptr;
  return frame_ptrs_[idx];
}

void BatchEngine::set_external(std::size_t inst, NodeId n, std::uint64_t k,
                               TimePoint value) {
  const Node& node = graph_->node(n);
  if (node.kind != NodeKind::kInput && node.kind != NodeKind::kExternal)
    throw Error("tdg::BatchEngine: set_external on computed node '" +
                node.name + "'");
  Frame& f = ensure_frame(k);
  if (f.known[lane(static_cast<std::size_t>(n), inst)])
    throw Error("tdg::BatchEngine: instance (" + node.name + ", " +
                std::to_string(k) + ") already known");
  mark_known(f, n, k, inst, mp::Scalar::from_time(value));
  resolve_dependents(f, n, k, inst);
}

void BatchEngine::set_attrs(std::size_t inst, model::SourceId s,
                            std::uint64_t k, const model::TokenAttrs& attrs) {
  if (s < 0 || static_cast<std::size_t>(s) >= n_sources_)
    throw Error("tdg::BatchEngine: set_attrs with bad source id");
  Frame& f = ensure_frame(k);
  const std::size_t sl = static_cast<std::size_t>(s) * width_ + inst;
  if (f.attr_known[sl]) return;  // idempotent
  f.attrs[sl] = attrs;
  f.attr_known[sl] = 1;
  for (const NodeId dst : prog_.attr_dsts_by_source[static_cast<std::size_t>(s)])
    decrement(f, dst, k, inst);
}

void BatchEngine::mark_ready(Frame& f, NodeId n, std::uint64_t k,
                             std::size_t inst) {
  std::uint64_t* block = &f.ready[static_cast<std::size_t>(n) * words_];
  bool was_empty = true;
  for (std::size_t w = 0; w < words_ && was_empty; ++w)
    was_empty = block[w] == 0;
  block[inst / 64] |= std::uint64_t{1} << (inst % 64);
  if (was_empty) worklist_.push_back({n, k});
}

void BatchEngine::decrement(Frame& f, NodeId n, std::uint64_t k,
                            std::size_t inst) {
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  if (f.known[l]) return;
  if (--f.pending[l] == 0) mark_ready(f, n, k, inst);
}

void BatchEngine::mark_known(Frame& f, NodeId n, std::uint64_t k,
                             std::size_t inst, mp::Scalar v) {
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  set_frame_value(f, l, v);
  f.known[l] = 1;
  ++f.known_count;
  const std::uint8_t flags = node_flags_[l];
  if (flags == 0) return;  // common case: no observer on this lane
  if (flags & kRecords) flush_instants(n, inst);
  if (flags & kHasCallback) emit_callback(l, k, v);
}

void BatchEngine::emit_callback(std::size_t l, std::uint64_t k, mp::Scalar v) {
  if (!v.is_finite()) return;
  if (defer_callbacks_)
    deferred_.push_back({l, k, v.to_time()});
  else
    callbacks_[l](k, v.to_time());
}

void BatchEngine::flush_instants(NodeId n, std::size_t inst) {
  MAXEV_FAULT_POINT("engine.flush");
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  trace::InstantSeries& series = *record_series_[l];
  while (true) {
    const Frame* f = frame_at(next_flush_[l]);
    if (f == nullptr ||
        !f->known[lane(static_cast<std::size_t>(n), inst)])
      break;
    const mp::Scalar v =
        frame_value(*f, lane(static_cast<std::size_t>(n), inst));
    if (v.is_finite()) series.push(v.to_time());
    ++next_flush_[l];
  }
}

void BatchEngine::resolve_dependents(Frame& f, NodeId n, std::uint64_t k,
                                     std::size_t inst) {
  // Frames are never reclaimed mid-drain (prune() runs only from flush()
  // after the worklist empties), so f stays valid across callbacks.
  for (std::int32_t s = prog_.out_arc_offsets[static_cast<std::size_t>(n)];
       s < prog_.out_arc_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
    const Program::OutArc& arc = prog_.out_arcs[static_cast<std::size_t>(s)];
    if (arc.lag == 0) {
      decrement(f, arc.dst, k, inst);
      continue;
    }
    const std::uint64_t kk = k + arc.lag;
    // If the target frame does not exist yet, its init will see this
    // instance as already known and not count it.
    if (Frame* tf = frame_at(kk)) decrement(*tf, arc.dst, kk, inst);
  }
}

bool BatchEngine::flush() {
  if (worklist_.empty()) {
    prune();
    return false;
  }
  drain();
  prune();
  return true;
}

bool BatchEngine::flush_deferred() {
  // Restore inline firing even if a guard/load closure throws mid-drain.
  struct Scope {
    bool& flag;
    ~Scope() { flag = false; }
  } scope{defer_callbacks_};
  defer_callbacks_ = true;
  return flush();
}

bool BatchEngine::fire_deferred() {
  if (deferred_.empty()) return false;
  // Swap out first: a callback may resume a writer inline whose channel
  // hooks feed this engine again (resolve_now fires further callbacks
  // inline — defer mode is off here, matching the serial path).
  std::vector<PendingCallback> pending;
  pending.swap(deferred_);
  for (const PendingCallback& cb : pending) callbacks_[cb.lane](cb.k, cb.t);
  return true;
}

void BatchEngine::drain() {
  if (draining_) return;  // single drain loop; nested calls just enqueue
  // Reset the flag on unwind too (see Engine::drain): a throwing closure
  // must not leave every later flush() a no-op.
  struct Scope {
    bool& flag;
    ~Scope() { flag = false; }
  } scope{draining_};
  draining_ = true;
  while (!worklist_.empty()) {
    auto [n, k] = worklist_.back();
    worklist_.pop_back();
    compute_front(n, k);
  }
}

mp::Scalar BatchEngine::compute_one(Frame& f, NodeId n, std::uint64_t k,
                                    std::size_t inst) {
  // The scalar path: identical arithmetic to tdg::Engine::compute, lane-
  // indexed. Loads are evaluated exactly once; busy intervals go to the
  // instance's own usage traces.
  //
  // MUST MIRROR Engine::compute (src/tdg/engine.cpp): the batched==solo
  // bit-identity guarantee (DESIGN.md §9, tests/test_batch_engine.cpp)
  // rests on both loops evaluating the shared tdg::Program with the same
  // expressions — any arithmetic change there must be applied here too.
  mp::Scalar acc = mp::Scalar::eps();
  for (std::int32_t s = prog_.in_arc_offsets[static_cast<std::size_t>(n)];
       s < prog_.in_arc_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
    const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(s)];
    if (arc.guard >= 0 &&
        !prog_.guards[static_cast<std::size_t>(arc.guard)](
            f.attrs[static_cast<std::size_t>(arc.attr_source) * width_ + inst],
            k))
      continue;
    mp::Scalar cursor;
    if (arc.lag == 0) {  // same-frame source: skip the frame lookup
      cursor = frame_value(f, lane(static_cast<std::size_t>(arc.src), inst));
    } else if (arc.lag > k) {
      cursor = mp::Scalar::e();  // simulation origin
    } else {
      cursor = frame_value(*frame_at(k - arc.lag),
                           lane(static_cast<std::size_t>(arc.src), inst));
    }
    ++arc_terms_;
    if (cursor.is_eps()) continue;  // guarded-off upstream
    if (arc.prog_off < 0) {
      cursor = cursor * arc.fixed;  // pure delay, pre-folded
    } else {
      const model::TokenAttrs& attrs =
          f.attrs[static_cast<std::size_t>(arc.attr_source) * width_ + inst];
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
          // RateConstant: ops count and duration folded at compile time.
          ops = prog_.load_ops.a[li];
          d_ps = prog_.op_const_dps[j];
        } else {
          ops = ops::eval_load(prog_.load_ops, li, attrs, k, prog_.loads);
          d_ps = ops <= 0 ? 0
                          : static_cast<std::int64_t>(std::llround(
                                static_cast<double>(ops) / prog_.op_rate[j] *
                                1e12));
        }
        const mp::Scalar end_pos =
            cursor * mp::Scalar::from_duration(Duration::ps(d_ps));
        trace::UsageTrace* sink = op_trace_[j * width_ + inst];
        if (sink != nullptr) {
          sink->push(cursor.to_time(), end_pos.to_time(), ops,
                     op_label_[j * width_ + inst]);
        }
        cursor = end_pos;
      }
    }
    acc = acc + cursor;
  }
  return acc;
}

void BatchEngine::compute_front(NodeId n, std::uint64_t k) {
  Frame& f = *frame_at(k);
  std::uint64_t* block = &f.ready[static_cast<std::size_t>(n) * words_];
  bool empty = true;
  for (std::size_t w = 0; w < words_; ++w) {
    mask_scratch_[w] = block[w];
    block[w] = 0;
    empty = empty && mask_scratch_[w] == 0;
  }
  // A stale worklist entry: every ready lane of this front was already
  // answered out of band by resolve_now(). Nothing to do (and nothing to
  // count — the front never formed).
  if (empty) return;
  ++fronts_;

  const std::size_t nn = static_cast<std::size_t>(n);
  bool full = width_ >= 2;
  for (std::size_t w = 0; w < words_ && full; ++w) {
    const std::size_t bits_here = std::min<std::size_t>(64, width_ - w * 64);
    const std::uint64_t all =
        bits_here == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << bits_here) - 1);
    full = mask_scratch_[w] == all;
  }

  if (full && uniform_[nn]) {
    // The batched fast path: every instance of this node is ready and the
    // node's in-arcs are guard-free pure delays, so the (max,+) recurrence
    // is the same arithmetic in every lane — stream each shared arc slot
    // once and sweep its weight across the contiguous lane. Per-element
    // mp::Scalar arithmetic accumulates directly into the node's value row,
    // so an overflow throws the solo engine's OverflowError. Nothing is
    // published before every lane is computed: values are only read behind
    // known[], which finish_uniform_front sets.
    const std::int32_t a0 = prog_.in_arc_offsets[nn];
    const std::int32_t a1 = prog_.in_arc_offsets[nn + 1];
    const std::size_t base = lane(nn, 0);
    for (std::size_t i = 0; i < width_; ++i)
      set_frame_value(f, base + i, mp::Scalar::eps());
    for (std::int32_t s = a0; s < a1; ++s) {
      const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(s)];
      const mp::Scalar wgt = arc.fixed;
      if (arc.lag > k) {
        const mp::Scalar v = mp::Scalar::e() * wgt;  // simulation origin
        for (std::size_t i = 0; i < width_; ++i)
          set_frame_value(f, base + i, frame_value(f, base + i) + v);
      } else {
        const Frame& sf = arc.lag == 0 ? f : *frame_at(k - arc.lag);
        const std::size_t src = lane(static_cast<std::size_t>(arc.src), 0);
        for (std::size_t i = 0; i < width_; ++i)
          set_frame_value(
              f, base + i,
              frame_value(f, base + i) + frame_value(sf, src + i) * wgt);
      }
      arc_terms_ += width_;
    }
    computed_ += width_;
    finish_uniform_front(f, n, k);
    return;
  }

  // Partial front, or a node with guards / execute segments: evaluate each
  // ready instance the scalar way (still one worklist pop for the whole front, with the arc tables
  // hot across instances).
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = mask_scratch_[w];
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const std::size_t i = w * 64 + b;
      if (f.known[lane(nn, i)]) continue;  // defensive; bits are cleared
      const mp::Scalar v = compute_one(f, n, k, i);
      ++computed_;
      mark_known(f, n, k, i, v);
      resolve_dependents(f, n, k, i);
    }
  }
}

void BatchEngine::finish_uniform_front(Frame& f, NodeId n, std::uint64_t k) {
  const std::size_t nn = static_cast<std::size_t>(n);
  // Bulk known-marking: one memset + one counter bump for the whole lane;
  // per-lane observer work only where some lane has an observer.
  std::memset(&f.known[lane(nn, 0)], 1, width_);
  f.known_count += width_;
  if (node_observed_[nn]) {
    for (std::size_t i = 0; i < width_; ++i) {
      const std::size_t l = lane(nn, i);
      const std::uint8_t flags = node_flags_[l];
      if (flags == 0) continue;
      if (flags & kRecords) flush_instants(n, i);
      if (flags & kHasCallback) emit_callback(l, k, frame_value(f, l));
    }
  }
  // Batched dependent resolution: stream each out-arc slot once; one
  // front-emptiness check per destination row instead of per lane.
  const std::int32_t o0 = prog_.out_arc_offsets[nn];
  const std::int32_t o1 = prog_.out_arc_offsets[nn + 1];
  for (std::int32_t s = o0; s < o1; ++s) {
    const Program::OutArc& arc = prog_.out_arcs[static_cast<std::size_t>(s)];
    const std::uint64_t kk = k + arc.lag;
    Frame* tf = arc.lag == 0 ? &f : frame_at(kk);
    if (tf == nullptr) continue;  // future frame: init will count us known
    const auto dst = static_cast<std::size_t>(arc.dst);
    std::uint64_t* block = &tf->ready[dst * words_];
    bool nonempty = false;
    for (std::size_t w = 0; w < words_ && !nonempty; ++w)
      nonempty = block[w] != 0;
    std::int32_t* pend = &tf->pending[dst * width_];
    const std::uint8_t* kn = &tf->known[dst * width_];
    bool any_ready = false;
    for (std::size_t i = 0; i < width_; ++i) {
      if (kn[i]) continue;
      if (--pend[i] == 0) {
        block[i / 64] |= std::uint64_t{1} << (i % 64);
        any_ready = true;
      }
    }
    if (any_ready && !nonempty) worklist_.push_back({arc.dst, kk});
  }
}

void BatchEngine::prune() {
  const std::size_t window = static_cast<std::size_t>(graph_->max_lag()) + 1;
  // Hysteresis: batch reclamation instead of churning one frame at a time.
  if (frames_.size() <= window + 8) return;
  const std::uint64_t floor =
      *std::min_element(retain_floor_.begin(), retain_floor_.end());
  const std::size_t lanes = n_nodes_ * width_;
  while (frames_.size() > window && base_k_ < floor) {
    bool droppable = true;
    for (std::size_t i = 0; i <= graph_->max_lag() && droppable; ++i)
      droppable = frames_[i].known_count == lanes;
    if (!droppable) break;
    frame_pool_.push_back(std::move(frames_.front()));
    frames_.pop_front();
    frame_ptrs_.erase(frame_ptrs_.begin());  // window-sized vector, cheap
    ++base_k_;
  }
}

std::optional<TimePoint> BatchEngine::resolve_now(std::size_t inst, NodeId n,
                                                  std::uint64_t k) {
  Frame* f = frame_at(k);
  if (f == nullptr) return std::nullopt;
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  if (f->known[l]) {
    const mp::Scalar v = frame_value(*f, l);
    return v.is_finite() ? std::optional(v.to_time()) : std::nullopt;
  }
  if (f->pending[l] != 0) return std::nullopt;  // still blocked
  // pending hit zero, so mark_ready() has set this lane's front bit; take
  // the lane out of the front (its node may stay on the worklist — an
  // emptied front is skipped by compute_front) and compute it here, out of
  // band. The value equals what the deferred drain would produce: a ready
  // lane's prerequisites are all known, so drain order cannot change it.
  f->ready[static_cast<std::size_t>(n) * words_ + inst / 64] &=
      ~(std::uint64_t{1} << (inst % 64));
  const mp::Scalar v = compute_one(*f, n, k, inst);
  ++computed_;
  mark_known(*f, n, k, inst, v);
  resolve_dependents(*f, n, k, inst);
  if (!v.is_finite()) return std::nullopt;
  return v.to_time();
}

std::optional<TimePoint> BatchEngine::value(std::size_t inst, NodeId n,
                                            std::uint64_t k) const {
  const Frame* f = frame_at(k);
  if (f == nullptr) return std::nullopt;
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  if (!f->known[l] || f->value_eps[l] != 0) return std::nullopt;
  return TimePoint::at_ps(f->value_ps[l]);
}

std::optional<model::TokenAttrs> BatchEngine::attrs_of(std::size_t inst,
                                                       model::SourceId s,
                                                       std::uint64_t k) const {
  if (s < 0 || static_cast<std::size_t>(s) >= n_sources_) return std::nullopt;
  const Frame* f = frame_at(k);
  if (f == nullptr) return std::nullopt;
  const std::size_t sl = static_cast<std::size_t>(s) * width_ + inst;
  if (!f->attr_known[sl]) return std::nullopt;
  return f->attrs[sl];
}

void BatchEngine::set_retain_floor(std::size_t inst, std::uint64_t k) {
  retain_floor_[inst] = std::max(retain_floor_[inst], k);
  if (!draining_) prune();
}

void BatchEngine::on_known(std::size_t inst, NodeId n,
                           std::function<void(std::uint64_t, TimePoint)> cb) {
  if (n < 0 || static_cast<std::size_t>(n) >= n_nodes_ || inst >= width_)
    throw Error("tdg::BatchEngine: on_known with bad node/instance id");
  const std::size_t l = lane(static_cast<std::size_t>(n), inst);
  callbacks_[l] = std::move(cb);
  if (callbacks_[l]) {
    node_flags_[l] |= kHasCallback;
    node_observed_[static_cast<std::size_t>(n)] = 1;
  } else {
    node_flags_[l] &= static_cast<std::uint8_t>(~kHasCallback);
    // node_observed_ stays conservative (it only gates a fast path).
  }
}

}  // namespace maxev::tdg
