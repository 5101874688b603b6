#include "tdg/engine.hpp"

#include <algorithm>

#include "model/arith.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace maxev::tdg {

namespace {
constexpr std::uint8_t kRecords = 1;      // (node, inst) has an instant series
constexpr std::uint8_t kHasCallback = 2;  // (node, inst) has a callback
}  // namespace

Engine::Engine(const Graph& g, Options opts)
    : graph_(&g), opts_(std::move(opts)) {
  if (!g.frozen()) throw DescriptionError("tdg::Engine: graph must be frozen");
  if (opts_.instances.empty())
    throw DescriptionError("tdg::Engine: no instances");

  prog_ = Program::compile(g);
  init_from_program();
}

Engine::Engine(const Graph& g, const Program& precompiled, Options opts)
    : graph_(&g), opts_(std::move(opts)) {
  if (!g.frozen()) throw DescriptionError("tdg::Engine: graph must be frozen");
  if (opts_.instances.empty())
    throw DescriptionError("tdg::Engine: no instances");
  if (precompiled.n_nodes != g.node_count())
    throw Error("tdg::Engine: precompiled program does not match the graph (" +
                std::to_string(precompiled.n_nodes) + " vs " +
                std::to_string(g.node_count()) + " nodes)");

  prog_ = precompiled;
  init_from_program();
}

void Engine::init_from_program() {
  width_ = opts_.instances.size();
  n_nodes_ = prog_.n_nodes;
  n_sources_ = prog_.n_sources;
  lanes_ = n_nodes_ * width_;
  window_ = static_cast<std::size_t>(graph_->max_lag()) + 1;

  // Every lane of a node starts from the same pre-counted value.
  pending_template_.resize(lanes_);
  for (std::size_t n = 0; n < n_nodes_; ++n)
    for (std::size_t i = 0; i < width_; ++i)
      pending_template_[lane<false>(n, i)] = prog_.static_pending[n];

  // A node whose every in-arc is a guard-free pure delay computes the same
  // arithmetic for each instance — the uniform-front path.
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

  node_flags_.assign(lanes_, 0);
  node_observed_.assign(n_nodes_, 0);
  callbacks_.resize(lanes_);
  next_flush_.assign(lanes_, 0);
  retain_floor_.assign(width_, 0);
  worklist_.reserve(n_nodes_ + 16);  // growth hint; avoids early reallocations

  bind_sinks();
}

void Engine::bind_sinks() {
  // Bind the program's observation metadata to each instance's sinks:
  // resolve series/trace pointers once (map lookups are off the hot path),
  // pre-sizing the columns when the caller provided an expected iteration
  // count (Options::expected_iterations).
  const Graph& g = *graph_;
  record_series_.assign(lanes_, nullptr);
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
        record_series_[lane<false>(static_cast<std::size_t>(n), i)] = &series;
        if (opts_.expected_iterations > 0)
          series.reserve(opts_.expected_iterations);
        node_flags_[lane<false>(static_cast<std::size_t>(n), i)] |= kRecords;
        node_observed_[static_cast<std::size_t>(n)] = 1;
      }
    }

    if (sinks.usage_sink == nullptr || g.desc() == nullptr) continue;
    std::vector<trace::UsageTrace*> usage_by_resource;
    for (const auto& r : g.desc()->resources())
      usage_by_resource.push_back(
          &sinks.usage_sink->trace(sinks.scope + r.name));
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

template <bool kSolo>
void Engine::init_frame(Frame& f, std::uint64_t k) {
  // f.value is deliberately not cleared: a value is only ever read once its
  // lane is known (dependency counting guarantees sources are known), and
  // mark_known stores it right before storing kKnown — stale values from a
  // recycled frame are unreachable. The copy below resets every kKnown.
  std::fill(f.queued.begin(), f.queued.end(), std::uint8_t{0});
  std::fill(f.attr_known.begin(), f.attr_known.end(), std::uint8_t{0});
  f.known_count = 0;
  std::copy(pending_template_.begin(), pending_template_.end(),
            f.pending.begin());

  // Bulk-initialized from the pre-counted static column (attr
  // prerequisites, same-frame arcs, external markers); only nodes with
  // history arcs need a per-frame look at older frames.
  const std::size_t width = lanes_per_node<kSolo>();
  for (const NodeId n : prog_.always_ready)
    if (enqueue<kSolo>(f, n)) worklist_.push_back({n, k});
  for (const NodeId n : prog_.lagged_nodes) {
    const std::size_t base = lane<kSolo>(static_cast<std::size_t>(n), 0);
    for (std::int32_t s = prog_.lagged_offsets[static_cast<std::size_t>(n)];
         s < prog_.lagged_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
      const auto a = static_cast<std::size_t>(s);
      if (prog_.lagged_lag[a] > k) continue;  // pre-history: simulation origin
      const Frame* sf = frame_at(k - prog_.lagged_lag[a]);
      const std::size_t src_base =
          lane<kSolo>(static_cast<std::size_t>(prog_.lagged_src[a]), 0);
      for (std::size_t i = 0; i < width; ++i)
        if (sf == nullptr || sf->pending[src_base + i] != kKnown)
          ++f.pending[base + i];
    }
    for (std::size_t i = 0; i < width; ++i) {
      if (f.pending[base + i] == 0) {
        if (enqueue<kSolo>(f, n)) worklist_.push_back({n, k});
        break;
      }
    }
  }
}

Engine::Frame& Engine::ensure_frame(std::uint64_t k) {
  if (k < base_k_)
    throw Error("tdg::Engine: iteration " + std::to_string(k) +
                " already pruned");
  while (k >= base_k_ + frames_.size()) {
    if (frame_pool_.empty()) {
      Frame f;
      f.value.resize(lanes_);
      f.pending.resize(lanes_);
      f.queued.resize(width_ == 1 ? 0 : n_nodes_);
      f.attr_known.resize(n_sources_ * width_);
      f.attrs.resize(n_sources_ * width_);
      frames_.push_back(std::move(f));
    } else {
      frames_.push_back(std::move(frame_pool_.back()));
      frame_pool_.pop_back();
    }
    frame_ptrs_.push_back(&frames_.back());
    const std::uint64_t fk = base_k_ + frames_.size() - 1;
    if (width_ == 1)
      init_frame<true>(frames_.back(), fk);
    else
      init_frame<false>(frames_.back(), fk);
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

void Engine::check_inst(std::size_t inst, const char* what) const {
  if (inst >= width_) [[unlikely]]
    throw_bad_inst(inst, what);
}

void Engine::throw_bad_inst(std::size_t inst, const char* what) const {
  throw Error(std::string("tdg::Engine: ") + what + " with instance " +
              std::to_string(inst) + " of a width-" + std::to_string(width_) +
              " engine");
}

void Engine::set_external(std::size_t inst, NodeId n, std::uint64_t k,
                          TimePoint value) {
  check_inst(inst, "set_external");
  // Externally fed nodes (kInput/kExternal) are the ones whose static
  // pending count is -1.
  if (n < 0 || static_cast<std::size_t>(n) >= n_nodes_ ||
      prog_.static_pending[static_cast<std::size_t>(n)] >= 0) [[unlikely]]
    throw Error("tdg::Engine: set_external on computed node '" +
                graph_->node(n).name + "'");
  Frame& f = ensure_frame(k);
  if (f.pending[lane<false>(static_cast<std::size_t>(n), inst)] == kKnown)
    throw Error("tdg::Engine: instance (" + graph_->node(n).name + ", " +
                std::to_string(k) + ") already known");
  const mp::Scalar v = mp::Scalar::from_time(value);
  if (width_ == 1) {
    mark_known<true>(f, n, k, 0, v);
    push(resolve_dependents<true>(f, n, k, 0));
  } else {
    mark_known<false>(f, n, k, inst, v);
    push(resolve_dependents<false>(f, n, k, inst));
  }
}

void Engine::set_attrs(std::size_t inst, model::SourceId s, std::uint64_t k,
                       const model::TokenAttrs& attrs) {
  check_inst(inst, "set_attrs");
  if (s < 0 || static_cast<std::size_t>(s) >= n_sources_)
    throw Error("tdg::Engine: set_attrs with bad source id");
  Frame& f = ensure_frame(k);
  const std::size_t sl = static_cast<std::size_t>(s) * width_ + inst;
  if (f.attr_known[sl]) return;  // idempotent
  f.attrs[sl] = attrs;
  f.attr_known[sl] = 1;
  for (const NodeId dst :
       prog_.attr_dsts_by_source[static_cast<std::size_t>(s)]) {
    if (width_ == 1 ? decrement<true>(f, dst, 0)
                    : decrement<false>(f, dst, inst))
      worklist_.push_back({dst, k});
  }
}

template <bool kSolo>
bool Engine::decrement(Frame& f, NodeId n, std::size_t inst) {
  // Known lanes hold kKnown and externally fed ones a negative count:
  // neither is decremented, and neither ever becomes ready here.
  std::int32_t& p = f.pending[lane<kSolo>(static_cast<std::size_t>(n), inst)];
  if (p <= 0) return false;
  return --p == 0 && enqueue<kSolo>(f, n);
}

template <bool kSolo>
void Engine::mark_known(Frame& f, NodeId n, std::uint64_t k, std::size_t inst,
                        mp::Scalar v) {
  const std::size_t l = lane<kSolo>(static_cast<std::size_t>(n), inst);
  f.value[l] = v;
  f.pending[l] = kKnown;
  ++f.known_count;
  const std::uint8_t flags = node_flags_[l];
  if (flags == 0) return;  // common case: no observer on this lane
  if (flags & kRecords) flush_instants(n, inst);
  if (flags & kHasCallback) emit_callback(l, k, v);
}

void Engine::emit_callback(std::size_t l, std::uint64_t k, mp::Scalar v) {
  if (!v.is_finite()) return;
  if (defer_callbacks_)
    deferred_.push_back({l, k, v.to_time()});
  else
    callbacks_[l](k, v.to_time());
}

void Engine::flush_instants(NodeId n, std::size_t inst) {
  MAXEV_FAULT_POINT("engine.flush");
  const std::size_t l = lane<false>(static_cast<std::size_t>(n), inst);
  trace::InstantSeries& series = *record_series_[l];
  while (true) {
    const Frame* f = frame_at(next_flush_[l]);
    if (f == nullptr || f->pending[l] != kKnown) break;
    const mp::Scalar v = f->value[l];
    if (v.is_finite()) series.push(v.to_time());
    ++next_flush_[l];
  }
}

template <bool kSolo>
Engine::Ready Engine::resolve_dependents(Frame& f, NodeId n, std::uint64_t k,
                                         std::size_t inst) {
  // Frames are never reclaimed mid-drain (prune() runs only once the drain
  // has finished), so f stays valid across callbacks.
  Ready last;
  for (std::int32_t s = prog_.out_arc_offsets[static_cast<std::size_t>(n)];
       s < prog_.out_arc_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
    const Program::OutArc& arc = prog_.out_arcs[static_cast<std::size_t>(s)];
    const std::uint64_t kk = k + arc.lag;
    // If a lagged target frame does not exist yet, its init will see this
    // instance as already known and not count it.
    Frame* tf = arc.lag == 0 ? &f : frame_at(kk);
    if (tf == nullptr || !decrement<kSolo>(*tf, arc.dst, inst)) continue;
    push(last);
    last = {arc.dst, kk};
  }
  return last;
}

void Engine::drain_worklist() {
  if (width_ == 1)
    drain<true>();
  else
    drain<false>();
}

bool Engine::flush_deferred() {
  // Restore inline firing even if a guard/load closure throws mid-drain.
  struct Scope {
    bool& flag;
    ~Scope() { flag = false; }
  } scope{defer_callbacks_};
  defer_callbacks_ = true;
  return flush();
}

bool Engine::fire_deferred() {
  if (deferred_.empty()) return false;
  // Swap out first: a callback may resume a writer inline whose channel
  // hooks feed this engine again (resolve_now fires further callbacks
  // inline — defer mode is off here, matching the serial path).
  std::vector<PendingCallback> pending;
  pending.swap(deferred_);
  for (const PendingCallback& cb : pending) callbacks_[cb.lane](cb.k, cb.t);
  return true;
}

template <bool kSolo>
void Engine::drain() {
  // Reset the flag on unwind too: a guard/load closure, an overflow or an
  // observer that throws mid-drain must not leave every later flush() a
  // no-op.
  struct Scope {
    bool& flag;
    ~Scope() { flag = false; }
  } scope{draining_};
  draining_ = true;
  while (!worklist_.empty()) {
    Ready r = worklist_.back();
    worklist_.pop_back();
    if constexpr (kSolo) {
      compute_chain(r);
    } else {
      // Frames are never reclaimed mid-drain, so the frame pointer carries
      // over to a successor in the same iteration.
      for (Frame* f = frame_at(r.k); f != nullptr;) {
        const std::uint64_t k = r.k;
        r = compute_front(*f, r.node, k);
        if (r.node < 0) break;
        if (r.k != k) f = frame_at(r.k);
      }
    }
  }
}

void Engine::compute_chain(Ready r) {
  // A width-1 front is its one lane; a popped entry whose lane
  // resolve_now() has already computed is stale.
  Frame* f = frame_at(r.k);
  if (f == nullptr || f->pending[static_cast<std::size_t>(r.node)] != 0)
    return;
  while (true) {
    ++fronts_;
    const Ready next = compute_lane<true>(*f, r.node, r.k, 0);
    if (next.node < 0) return;
    // Frames are never reclaimed mid-drain, so the frame pointer carries
    // over to a successor in the same iteration.
    if (next.k != r.k) f = frame_at(next.k);
    r = next;
  }
}

template <bool kSolo>
mp::Scalar Engine::compute_one(Frame& f, NodeId n, std::uint64_t k,
                               std::size_t inst) {
  // Every prerequisite is resolved: ⊕ over arcs of src ⊗ (composed segment
  // weights), emitting busy intervals to the instance's own usage traces as
  // segment positions are determined (the paper's observation time). Loads
  // are evaluated exactly once.
  mp::Scalar acc = mp::Scalar::eps();
  for (std::int32_t s = prog_.in_arc_offsets[static_cast<std::size_t>(n)];
       s < prog_.in_arc_offsets[static_cast<std::size_t>(n) + 1]; ++s) {
    const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(s)];
    const auto attrs = [&]() -> const model::TokenAttrs& {
      return f.attrs[lane<kSolo>(static_cast<std::size_t>(arc.attr_source),
                                 inst)];
    };
    if (arc.guard >= 0 &&
        !prog_.guards[static_cast<std::size_t>(arc.guard)](attrs(), k))
      continue;
    mp::Scalar cursor;
    if (arc.lag == 0) {  // same-frame source: skip the frame lookup
      cursor = f.value[lane<kSolo>(static_cast<std::size_t>(arc.src), inst)];
    } else if (arc.lag > k) {
      cursor = mp::Scalar::e();  // simulation origin
    } else {
      const Frame& sf = *frame_at(k - arc.lag);
      cursor = sf.value[lane<kSolo>(static_cast<std::size_t>(arc.src), inst)];
    }
    ++arc_terms_;
    if (cursor.is_eps()) continue;  // guarded-off upstream
    if (arc.prog_off < 0) {
      cursor = cursor * arc.fixed;  // pure delay, pre-folded
    } else {
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
          ops = ops::eval_load(prog_.load_ops, li, attrs(), k, prog_.loads);
          d_ps = model::arith::duration_ps(ops, prog_.op_rate[j]);
        }
        const mp::Scalar end_pos =
            cursor * mp::Scalar::from_duration(Duration::ps(d_ps));
        const std::size_t jl = lane<kSolo>(j, inst);
        if (trace::UsageTrace* sink = op_trace_[jl])
          sink->push(cursor.to_time(), end_pos.to_time(), ops, op_label_[jl]);
        cursor = end_pos;
      }
    }
    acc = acc + cursor;
  }
  return acc;
}

template <bool kSolo>
Engine::Ready Engine::compute_lane(Frame& f, NodeId n, std::uint64_t k,
                                   std::size_t inst) {
  const mp::Scalar v = compute_one<kSolo>(f, n, k, inst);
  ++computed_;
  mark_known<kSolo>(f, n, k, inst, v);
  return resolve_dependents<kSolo>(f, n, k, inst);
}

Engine::Ready Engine::compute_front(Frame& f, NodeId n, std::uint64_t k) {
  const std::size_t nn = static_cast<std::size_t>(n);
  const std::size_t width = width_;  // loop bound kept in a register
  f.queued[nn] = 0;
  const std::size_t base = lane<false>(nn, 0);
  bool any = false;
  bool full = true;
  for (std::size_t i = 0; i < width; ++i) {
    if (f.pending[base + i] == 0)
      any = true;
    else
      full = false;
  }
  // Every ready lane of this front was already answered out of band by
  // resolve_now(): nothing to do (and nothing to count).
  if (!any) return {};
  ++fronts_;

  if (full && uniform_[nn]) {
    // Every lane of this node is ready and its in-arcs are guard-free pure
    // delays: the (max,+) recurrence is the same arithmetic in every lane,
    // over the same shared arc slots. Each lane accumulates in a register
    // with the mp::Scalar operators of compute_one, so an overflow throws
    // the same OverflowError. Nothing is published before every lane is
    // computed: values are only read behind kKnown, which
    // finish_uniform_front stores.
    const std::int32_t a0 = prog_.in_arc_offsets[nn];
    const std::int32_t a1 = prog_.in_arc_offsets[nn + 1];
    for (std::size_t i = 0; i < width; ++i) {
      mp::Scalar acc = mp::Scalar::eps();
      for (std::int32_t s = a0; s < a1; ++s) {
        const Program::InArc& arc = prog_.in_arcs[static_cast<std::size_t>(s)];
        const std::size_t src =
            lane<false>(static_cast<std::size_t>(arc.src), i);
        const mp::Scalar cursor =
            arc.lag == 0  ? f.value[src]
            : arc.lag > k ? mp::Scalar::e()  // simulation origin
                          : frame_at(k - arc.lag)->value[src];
        acc = acc + cursor * arc.fixed;
      }
      f.value[base + i] = acc;
    }
    arc_terms_ += static_cast<std::uint64_t>(a1 - a0) * width;
    computed_ += width;
    return finish_uniform_front(f, n, k);
  }

  // A partial front, or a node with guards / execute segments: evaluate
  // each ready lane the scalar way (one worklist pop for the whole front,
  // the arc tables hot across lanes).
  Ready last;
  for (std::size_t i = 0; i < width; ++i) {
    if (f.pending[base + i] != 0) continue;
    push(last);
    last = compute_lane<false>(f, n, k, i);
  }
  return last;
}

Engine::Ready Engine::finish_uniform_front(Frame& f, NodeId n,
                                           std::uint64_t k) {
  const std::size_t nn = static_cast<std::size_t>(n);
  const std::size_t width = width_;  // loop bound kept in a register
  const std::size_t base = lane<false>(nn, 0);
  // Bulk known-marking; per-lane observer work only where some lane has an
  // observer.
  std::fill(&f.pending[base], &f.pending[base] + width, kKnown);
  f.known_count += width;
  if (node_observed_[nn]) {
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t l = base + i;
      const std::uint8_t flags = node_flags_[l];
      if (flags == 0) continue;
      if (flags & kRecords) flush_instants(n, i);
      if (flags & kHasCallback) emit_callback(l, k, f.value[l]);
    }
  }
  // Batched dependent resolution: stream each out-arc slot once.
  Ready last;
  for (std::int32_t s = prog_.out_arc_offsets[nn];
       s < prog_.out_arc_offsets[nn + 1]; ++s) {
    const Program::OutArc& arc = prog_.out_arcs[static_cast<std::size_t>(s)];
    const std::uint64_t kk = k + arc.lag;
    Frame* tf = arc.lag == 0 ? &f : frame_at(kk);
    if (tf == nullptr) continue;  // future frame: init will count us known
    std::int32_t* pend =
        &tf->pending[lane<false>(static_cast<std::size_t>(arc.dst), 0)];
    bool any_ready = false;
    for (std::size_t i = 0; i < width; ++i) {
      if (pend[i] <= 0) continue;
      if (--pend[i] == 0) any_ready = true;
    }
    if (!any_ready || !enqueue<false>(*tf, arc.dst)) continue;
    push(last);
    last = {arc.dst, kk};
  }
  return last;
}

void Engine::prune() {
  // A shared frame goes only when every instance has moved past it; the
  // retain margin keeps a trailing band of fully-known frames below that
  // floor alive (the adaptive backend's detection/seed window).
  const std::uint64_t lowest =
      *std::min_element(retain_floor_.begin(), retain_floor_.end());
  const std::uint64_t floor =
      lowest > retain_margin_ ? lowest - retain_margin_ : 0;
  while (frames_.size() > window_ && base_k_ < floor) {
    bool droppable = true;
    for (std::size_t i = 0; i < window_ && droppable; ++i)
      droppable = frames_[i].known_count == lanes_;
    if (!droppable) break;
    frame_pool_.push_back(std::move(frames_.front()));
    frames_.pop_front();
    frame_ptrs_.erase(frame_ptrs_.begin());  // window-sized vector, cheap
    ++base_k_;
  }
}

std::optional<TimePoint> Engine::resolve_now(std::size_t inst, NodeId n,
                                             std::uint64_t k) {
  if (inst >= width_) return std::nullopt;
  Frame* f = frame_at(k);
  if (f == nullptr) return std::nullopt;
  const std::size_t l = lane<false>(static_cast<std::size_t>(n), inst);
  const std::int32_t p = f->pending[l];
  if (p != kKnown && p != 0) return std::nullopt;  // still blocked
  // A ready lane (pending 0) sits in a queued front: compute it here, out of
  // band — its node may stay on the worklist; the drain skips lanes that
  // are already known. The value equals what the drain would produce: a
  // ready lane's prerequisites are all known, so drain order cannot change
  // it.
  if (p == 0)
    push(width_ == 1 ? compute_lane<true>(*f, n, k, 0)
                     : compute_lane<false>(*f, n, k, inst));
  const mp::Scalar v = f->value[l];
  if (!v.is_finite()) return std::nullopt;
  return v.to_time();
}

std::optional<TimePoint> Engine::value(std::size_t inst, NodeId n,
                                       std::uint64_t k) const {
  const std::optional<mp::Scalar> v = scalar_value(inst, n, k);
  if (!v || !v->is_finite()) return std::nullopt;
  return v->to_time();
}

std::optional<mp::Scalar> Engine::scalar_value(std::size_t inst, NodeId n,
                                               std::uint64_t k) const {
  if (inst >= width_) return std::nullopt;
  const Frame* f = frame_at(k);
  const std::size_t l = lane<false>(static_cast<std::size_t>(n), inst);
  if (f == nullptr || f->pending[l] != kKnown) return std::nullopt;
  return f->value[l];
}

const mp::Scalar* Engine::complete_row(std::uint64_t k) const {
  if (width_ != 1) throw Error("tdg::Engine: complete_row needs width 1");
  const Frame* f = frame_at(k);
  if (f == nullptr || f->known_count != lanes_) return nullptr;
  return f->value.data();
}

std::optional<model::TokenAttrs> Engine::attrs_of(std::size_t inst,
                                                  model::SourceId s,
                                                  std::uint64_t k) const {
  if (inst >= width_ || s < 0 || static_cast<std::size_t>(s) >= n_sources_)
    return std::nullopt;
  const Frame* f = frame_at(k);
  if (f == nullptr) return std::nullopt;
  const std::size_t sl = static_cast<std::size_t>(s) * width_ + inst;
  if (!f->attr_known[sl]) return std::nullopt;
  return f->attrs[sl];
}

void Engine::set_retain_floor(std::size_t inst, std::uint64_t k) {
  check_inst(inst, "set_retain_floor");
  retain_floor_[inst] = std::max(retain_floor_[inst], k);
  if (!draining_) prune_if_due();
}

void Engine::set_retain_margin(std::uint64_t frames) {
  retain_margin_ = std::max(retain_margin_, frames);
}

Engine::HistoryWindow Engine::snapshot(std::uint64_t first_k,
                                       std::uint64_t count) const {
  if (width_ != 1) throw Error("tdg::Engine: snapshot needs width 1");
  HistoryWindow w;
  w.first_k = first_k;
  w.n_nodes = n_nodes_;
  w.n_sources = n_sources_;
  w.values.reserve(static_cast<std::size_t>(count) * n_nodes_);
  w.attrs.reserve(static_cast<std::size_t>(count) * n_sources_);
  w.attr_known.reserve(static_cast<std::size_t>(count) * n_sources_);
  for (std::uint64_t k = first_k; k < first_k + count; ++k) {
    const Frame* f = frame_at(k);
    if (f == nullptr || f->known_count != lanes_)
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
  if (width_ != 1) throw Error("tdg::Engine: seed_history needs width 1");
  if (!frames_.empty() || base_k_ != 0 || computed_ != 0)
    throw Error("tdg::Engine: seed_history requires a fresh engine");
  if (w.n_nodes != n_nodes_ || w.n_sources != n_sources_)
    throw Error("tdg::Engine: seed_history window shape mismatch");
  const std::size_t count = w.frames();
  if (count < std::max<std::size_t>(graph_->max_lag(), 1))
    throw Error("tdg::Engine: seed_history window shorter than the graph's "
                "max lag");
  const auto at = [](const auto& v, std::size_t i, std::size_t per) {
    return v.begin() + static_cast<std::ptrdiff_t>(i * per);
  };
  base_k_ = w.first_k;
  for (std::size_t i = 0; i < count; ++i) {
    Frame f;
    f.value.assign(at(w.values, i, n_nodes_), at(w.values, i + 1, n_nodes_));
    f.pending.assign(n_nodes_, kKnown);
    f.queued.assign(n_nodes_, 0);
    f.attrs.assign(at(w.attrs, i, n_sources_), at(w.attrs, i + 1, n_sources_));
    f.attr_known.assign(at(w.attr_known, i, n_sources_),
                        at(w.attr_known, i + 1, n_sources_));
    f.known_count = n_nodes_;
    frames_.push_back(std::move(f));
    frame_ptrs_.push_back(&frames_.back());
  }
  // Seeded history is already observed — never re-flush it into the sinks.
  next_flush_.assign(n_nodes_, w.first_k + count);
  retain_floor_[0] = w.first_k;
  complete_scan_ = w.first_k;
}

void Engine::on_known(std::size_t inst, NodeId n,
                      std::function<void(std::uint64_t, TimePoint)> cb) {
  if (n < 0 || static_cast<std::size_t>(n) >= n_nodes_ || inst >= width_)
    throw Error("tdg::Engine: on_known with bad node/instance id");
  const std::size_t l = lane<false>(static_cast<std::size_t>(n), inst);
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
