#include "study/adaptive.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "maxplus/cycle_ratio.hpp"
#include "model/shaping.hpp"
#include "tdg/export.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace maxev::study {

// ---------------------------------------------------------------------------
// PeriodDetector
// ---------------------------------------------------------------------------

namespace {
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

PeriodDetector::PeriodDetector(std::size_t width, Options opts)
    : width_(width),
      opts_(opts),
      ring_frames_(pow2_at_least(static_cast<std::size_t>(opts.max_period) +
                                 2)),
      ring_mask_(ring_frames_ - 1),
      u_ring_(ring_frames_ * width),
      hash_(ring_frames_, 0),
      prev_(width, 0),
      stable_(static_cast<std::size_t>(opts.max_period) + 1, 0) {
  if (width == 0) throw Error("PeriodDetector: width must be >= 1");
  if (opts.max_period == 0) throw Error("PeriodDetector: max_period must be >= 1");
  if (opts.stable_periods == 0)
    throw Error("PeriodDetector: stable_periods must be >= 1");
}

const std::int64_t* PeriodDetector::u_frame(std::uint64_t k) const {
  return u_ring_.data() + (k & ring_mask_) * width_;
}

void PeriodDetector::observe(const std::vector<std::int64_t>& values,
                             bool any_eps) {
  if (values.size() != width_)
    throw Error("PeriodDetector::observe: frame width mismatch");
  const std::uint64_t j = next_k_;
  std::int64_t* uj =
      u_ring_.data() + (j & ring_mask_) * width_;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (std::size_t i = 0; i < width_; ++i) {
    const std::int64_t d = values[i] - prev_[i];
    uj[i] = d;
    prev_[i] = values[i];
    h = (h ^ static_cast<std::uint64_t>(d)) * 1099511628211ull;
  }
  hash_[j & ring_mask_] = h;
  ++next_k_;
  // The successor frame's ring slot was last written ring_frames_ frames
  // ago — long enough for the simulator's working set to evict it, and the
  // resulting store stall dominates this function's cost. Prefetch it for
  // write now; it arrives during the simulated work before the next frame.
  {
    const char* next = reinterpret_cast<const char*>(
        u_ring_.data() + ((j + 1) & ring_mask_) * width_);
    for (std::size_t b = 0; b < width_ * sizeof(std::int64_t); b += 64)
      __builtin_prefetch(next + b, 1);
  }
  if (any_eps) {
    // ε cannot participate in delta arithmetic: everything observed so far
    // is useless for extrapolation.
    valid_from_ = next_k_;
    std::fill(stable_.begin(), stable_.end(), 0);
    any_stable_ = false;
    any_warm_ = false;
    return;
  }
  // d_p(j) == d_p(j−1) ⟺ u(j) == u(j−p): one hash compare rejects the
  // candidate on aperiodic frames (the per-iteration detector overhead
  // maxevbench reports as study.adaptive.drag); a match is confirmed
  // element-wise, so the counters stay exact.
  if (j >= valid_from_ + opts_.max_period + 1) {
    // Every candidate is past its warm-up gates. Aperiodic frames miss all
    // P hashes — one tight compare loop and a flat reset to one iteration
    // of evidence, no per-candidate branching.
    bool all_miss = true;
    for (std::uint32_t p = 1; p <= opts_.max_period; ++p)
      all_miss = all_miss && h != hash_[(j - p) & ring_mask_];
    if (all_miss) {
      std::fill(stable_.begin() + 1, stable_.end(), 1);
      any_stable_ = false;
      any_warm_ = false;
      return;
    }
  }
  bool any = false;
  bool warm = false;
  for (std::uint32_t p = 1; p <= opts_.max_period; ++p) {
    if (j < valid_from_ + p) {
      stable_[p] = 0;  // d_p(j) reaches before the valid window
      continue;
    }
    if (j < valid_from_ + p + 1) {
      stable_[p] = 1;  // first defined delta: one iteration of evidence
      continue;
    }
    if (h != hash_[(j - p) & ring_mask_]) {
      stable_[p] = 1;
      continue;
    }
    const std::int64_t* up = u_frame(j - p);
    bool equal = true;
    for (std::size_t i = 0; i < width_; ++i) {
      if (uj[i] != up[i]) {
        equal = false;
        break;
      }
    }
    stable_[p] = equal ? stable_[p] + 1 : 1;
    any = any || stable_[p] >= opts_.stable_periods;
    warm = warm || stable_[p] >= 2;
  }
  any_stable_ = any;
  any_warm_ = warm;
}

std::uint64_t PeriodDetector::stable_count(std::uint32_t period) const {
  if (period == 0 || period > opts_.max_period) return 0;
  return stable_[period];
}

std::optional<PeriodDetector::Detection> PeriodDetector::stable() const {
  if (!any_stable_) return std::nullopt;
  for (std::uint32_t p = 1; p <= opts_.max_period; ++p) {
    if (stable_[p] < opts_.stable_periods) continue;
    Detection d;
    d.period = p;
    d.frontier = next_k_;
    // Λ = v(f−1) − v(f−1−p): the first differences telescope.
    d.lambda.assign(width_, 0);
    for (std::uint64_t t = next_k_ - p; t < next_k_; ++t) {
      const std::int64_t* u = u_frame(t);
      for (std::size_t i = 0; i < width_; ++i) d.lambda[i] += u[i];
    }
    return d;
  }
  return std::nullopt;
}

void PeriodDetector::reset() {
  valid_from_ = next_k_;
  std::fill(stable_.begin(), stable_.end(), 0);
  any_stable_ = false;
}

// ---------------------------------------------------------------------------
// AdaptiveModel
// ---------------------------------------------------------------------------

core::EquivalentModel::Options equivalent_options(
    const Scenario& s, const RunConfig& rc,
    const std::vector<BatchGroup>& sub_batches) {
  std::size_t grouped = 0;
  for (const BatchGroup& bg : sub_batches) grouped += bg.members.size();
  core::EquivalentModel::Options opts;
  opts.fold = s.options().fold;
  opts.pad_nodes = s.options().pad_nodes;
  opts.remainder_instances =
      s.composed() ? s.instances().size() - grouped : 1;
  opts.observe = rc.observe;
  opts.expected_iterations = s.options().expected_iterations;
  opts.threads = rc.threads;
  opts.compiled = rc.compiled;
  return opts;
}

namespace {

/// Internal certification failure: unwinds the fast-forward attempt back to
/// maybe_fastforward(), which records it and resumes simulation. retry_at
/// gates the next attempt (kNever for defects no later frontier can cure).
struct Refusal {
  std::string reason;
  std::uint64_t retry_at = 0;
};

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Certified increment over one period P of an `earliest` functor on
/// [frontier, count): E with fn(k) = fn(k-P) + E for every k in the range.
std::int64_t certify_time_step(
    const std::function<TimePoint(std::uint64_t)>& fn, std::uint32_t period,
    std::uint64_t frontier, std::uint64_t count, const std::string& what) {
  if (!fn) throw Refusal{what + ": no earliest functor", kNever};
  if (const auto* p = fn.target<model::PeriodicTimeFn>())
    return p->period_ps * static_cast<std::int64_t>(period);
  if (const auto* c = fn.target<model::CyclicTimeFn>()) {
    const auto n = static_cast<std::uint64_t>(c->offsets_ps->size());
    if (n == 0 || period % n != 0)
      throw Refusal{what + ": cyclic grid length does not divide the period",
                    frontier + period};
    return c->period_ps * static_cast<std::int64_t>(period / n);
  }
  if (const auto* t = fn.target<model::TableTimeFn>()) {
    const std::vector<std::int64_t>& v = *t->values_ps;
    if (v.size() < count)
      throw Refusal{what + ": earliest table shorter than the token count",
                    kNever};
    const std::int64_t step =
        v[frontier] - v[frontier - period];
    for (std::uint64_t k = frontier; k < count; ++k) {
      if (v[k] - v[k - period] != step)
        throw Refusal{what + ": earliest table breaks the period at k=" +
                          std::to_string(k),
                      k};
    }
    return step;
  }
  throw Refusal{what + ": opaque earliest functor", kNever};
}

/// Certify that a gap / consume-delay functor is P-periodic on
/// [frontier, count) (null = constant zero).
void certify_duration_periodic(
    const std::function<Duration(std::uint64_t)>& fn, std::uint32_t period,
    std::uint64_t frontier, std::uint64_t count, const std::string& what) {
  if (!fn) return;
  if (fn.target<model::ConstantDurationFn>()) return;
  if (const auto* c = fn.target<model::CyclicDurationFn>()) {
    const auto n = static_cast<std::uint64_t>(c->values_ps->size());
    if (n == 0 || period % n != 0)
      throw Refusal{what + ": cyclic delay length does not divide the period",
                    frontier + period};
    return;
  }
  if (const auto* t = fn.target<model::TableDurationFn>()) {
    const std::vector<std::int64_t>& v = *t->values_ps;
    if (v.size() < count)
      throw Refusal{what + ": delay table shorter than the token count",
                    kNever};
    for (std::uint64_t k = frontier; k < count; ++k) {
      if (v[k] != v[k - period])
        throw Refusal{
            what + ": delay table breaks the period at k=" + std::to_string(k),
            k};
    }
    return;
  }
  throw Refusal{what + ": opaque delay functor", kNever};
}

/// Certify that a source attrs functor is P-periodic on [frontier, count).
void certify_attrs_periodic(
    const std::function<model::TokenAttrs(std::uint64_t)>& fn,
    std::uint32_t period, std::uint64_t frontier, std::uint64_t count,
    const std::string& what) {
  if (!fn) return;  // attribute-less source: constant by definition
  if (fn.target<model::ConstantAttrsFn>()) return;
  if (const auto* c = fn.target<model::CyclicAttrsFn>()) {
    const auto n = static_cast<std::uint64_t>(c->table->size());
    if (n == 0 || period % n != 0)
      throw Refusal{what + ": cyclic attrs length does not divide the period",
                    frontier + period};
    return;
  }
  if (const auto* t = fn.target<model::TableAttrsFn>()) {
    const std::vector<model::TokenAttrs>& v = *t->table;
    if (v.size() < count)
      throw Refusal{what + ": attrs table shorter than the token count",
                    kNever};
    for (std::uint64_t k = frontier; k < count; ++k) {
      if (!(v[k] == v[k - period]))
        throw Refusal{
            what + ": attrs table breaks the period at k=" + std::to_string(k),
            k};
    }
    return;
  }
  throw Refusal{what + ": opaque attrs functor", kNever};
}

/// Certify that every hoisted execute load is P-periodic given P-periodic
/// attributes: pure functions of the attrs qualify, cyclic tables must
/// divide the period, everything opaque refuses.
void certify_loads(const tdg::Program& prog, std::uint32_t period,
                   std::uint64_t frontier) {
  for (std::size_t i = 0; i < prog.loads.size(); ++i) {
    const model::LoadFn& load = prog.loads[i];
    if (load.target<model::ConstantOpsFn>() ||
        load.target<model::LinearOpsFn>() ||
        load.target<model::ParamOpsFn>() ||
        load.target<model::AttrsPureFn>()) {
      continue;
    }
    if (const auto* c = load.target<model::CyclicOpsFn>()) {
      if (c->table.empty() || period % c->table.size() != 0)
        throw Refusal{"load " + std::to_string(i) +
                          ": cyclic ops length does not divide the period",
                      frontier + period};
      continue;
    }
    throw Refusal{"load " + std::to_string(i) + ": opaque execute load",
                  kNever};
  }
}

}  // namespace

AdaptiveModel::AdaptiveModel(const Scenario& scenario, const RunConfig& config,
                             AdaptiveOptions opts)
    : eq_(scenario.desc_ptr(), scenario.options().group,
          equivalent_options(scenario, config, {})),
      opts_(opts),
      user_cancel_(config.cancel),
      detector_(eq_.graph().node_count(),
                {opts.max_period, opts.stable_periods}) {
  if (config.event_overhead_ns > 0) {
    eq_.runtime().kernel().set_synthetic_event_overhead(
        std::chrono::nanoseconds(
            static_cast<std::int64_t>(config.event_overhead_ns)));
  }
  // The adaptive model always guards its kernel: its own token is how the
  // fast-forward stops the simulation from inside the timestep hook. The
  // user's token (config.cancel) is polled in the hook and forwarded.
  sim::RunGuards guards;
  guards.max_events = config.max_events;
  if (config.deadline_ms > 0.0) {
    guards.deadline = std::chrono::nanoseconds(
        static_cast<std::int64_t>(config.deadline_ms * 1e6));
  }
  guards.cancel = &self_cancel_;
  eq_.runtime().kernel().set_run_guards(guards);

  // Structural eligibility. Everything here is decidable at construction;
  // a failed check leaves a plain (correct, never fast-forwarding)
  // equivalent model.
  const model::ArchitectureDesc& desc = eq_.runtime().desc();
  const std::vector<bool>& group = eq_.group();
  bool full = true;
  for (const bool g : group) full = full && g;
  if (!group.empty() && !full) {
    disable("partial abstraction group: simulated functions cannot be "
            "extrapolated");
  } else if (desc.sources().empty()) {
    disable("no sources");
  } else {
    tokens_ = desc.sources().front().count;
    for (const model::SourceDesc& s : desc.sources()) {
      if (s.count != tokens_) {
        disable("sources disagree on token count");
        break;
      }
    }
    if (enabled_ && tokens_ == 0) disable("zero tokens");
  }
  for (const tdg::BoundaryInput& bi : eq_.compiled().inputs) {
    if (!enabled_) break;
    // A FIFO fed by a source keeps its credit gate inside the simulated
    // source process (the source blocks on reads the graph never sees), so
    // no window check over graph nodes can certify it. Output FIFOs are
    // different: both their write and read instants are external nodes and
    // their recurrences are certified in fastforward().
    if (bi.fifo) disable("FIFO input boundary (back-pressure recurrence)");
  }
  std::uint64_t fifo_lookback = 0;
  for (const tdg::BoundaryOutput& bo : eq_.compiled().outputs) {
    if (!bo.fifo) continue;
    fifo_lookback = std::max<std::uint64_t>(
        fifo_lookback, desc.channels()[static_cast<std::size_t>(bo.channel)]
                           .capacity);
  }

  if (enabled_) {
    // The certifier and the verification snapshot read back one period plus
    // the graph's history depth behind the frontier; keep those frames from
    // being pruned under the emission processes' retain floor. Boundary-FIFO
    // credit checks additionally look back `capacity` frames.
    eq_.engine_mut().set_retain_margin(
        static_cast<std::uint64_t>(opts_.max_period) + eq_.graph().max_lag() +
        fifo_lookback + 4);
    // Duty cycling: a probe window must let the slowest candidate climb
    // from a reseed to the certification gate (max_period warm-up plus
    // max(K, max_lag, max_period) consecutive hits, see maybe_fastforward).
    duty_on_len_ =
        static_cast<std::uint64_t>(opts_.max_period) +
        std::max<std::uint64_t>({opts_.stable_periods, eq_.graph().max_lag(),
                                 opts_.max_period}) +
        4;
    duty_on_until_ = duty_on_len_;
    eq_.runtime().set_regime_listener([this] {
      detector_.reset();
      ++stats_.regime_resets;
    });
  }
}

void AdaptiveModel::disable(std::string reason) {
  if (!enabled_) return;
  enabled_ = false;
  ++stats_.refusals;
  stats_.last_refusal = std::move(reason);
}

void AdaptiveModel::refuse(std::string reason, std::uint64_t retry_at) {
  ++stats_.refusals;
  stats_.last_refusal = std::move(reason);
  if (retry_at == kNever) {
    // A structural defect no later frontier can cure: certification would
    // refuse identically forever, so stop paying for detection as well.
    enabled_ = false;
    return;
  }
  next_attempt_ = std::max(retry_at, fed_ + 1);
}

Outcome AdaptiveModel::run(std::optional<TimePoint> until) {
  Outcome synth;
  synth.idle = true;
  synth.completed = true;
  synth.stop = sim::StopReason::kIdle;
  if (fast_forwarded_) return synth;

  horizon_run_ = until.has_value();
  eq_.runtime().kernel().set_timestep_hook([this] { return on_timestep(); });
  Outcome out = eq_.run(until);
  if (fast_forwarded_) return synth;
  return out;
}

TimePoint AdaptiveModel::end_time() const {
  return fast_forwarded_ ? ff_end_ : eq_.end_time();
}

bool AdaptiveModel::on_timestep() {
  if (user_cancel_ && user_cancel_->cancelled()) {
    // Forward the caller's cancellation through our own guard token; the
    // resulting kCancelled outcome is returned unchanged. Returning true
    // re-enters the loop head, where the guard stops the run before the
    // next dispatch.
    user_cancelled_ = true;
    self_cancel_.request_cancel();
    return true;
  }
  if (!enabled_ || fast_forwarded_) return false;
  feed_detector();
  if (!horizon_run_) maybe_fastforward();
  // After a cut-over the kernel must not dispatch the event at the next
  // timestep (it would publish an instant the analytic tail already
  // holds): claim the boundary so the loop re-checks the guards, where
  // the self-cancel token now stops it.
  return fast_forwarded_;
}

void AdaptiveModel::feed_detector() {
  const tdg::Engine& eng = eq_.engine();
  const std::uint64_t complete =
      std::min<std::uint64_t>(eng.completed_iterations(), tokens_);
  if (complete <= fed_) return;
  // Off-window: consume the frames without touching the detector (or the
  // engine rows). The observation resumes through a poisoned reseed frame,
  // so the skipped gap can never masquerade as delta evidence.
  if (complete <= duty_skip_until_) {
    duty_gap_ = true;
    fed_ = complete;
    return;
  }
  const std::size_t n = eq_.graph().node_count();
  frame_buf_.resize(n);
  for (std::uint64_t k = fed_; k < complete; ++k) {
    if (k < duty_skip_until_) {
      duty_gap_ = true;
      continue;
    }
    bool reseed = duty_gap_;
    if (reseed) {
      duty_gap_ = false;
      duty_on_until_ = k + duty_on_len_;
    }
    bool any_eps = false;
    if (const mp::Scalar* row = eng.complete_row(k)) {
      for (std::size_t i = 0; i < n; ++i) {
        if (row[i].is_eps()) {
          any_eps = true;
          frame_buf_[i] = 0;
        } else {
          frame_buf_[i] = row[i].value();
        }
      }
    } else {
      // Pruned below the retain window (should not happen for k < complete
      // with the retain margin in place): poison the frame.
      any_eps = true;
      std::fill(frame_buf_.begin(), frame_buf_.end(), 0);
    }
    detector_.observe(frame_buf_, any_eps || reseed);
    if (k + 1 == duty_on_until_) {
      // Probe window boundary: a stream still showing no regularity earns
      // a (doubling, capped) off-window; a warming one keeps the detector
      // on until it either fires or goes cold again.
      if (detector_.warming() || detector_.has_stable()) {
        duty_on_until_ = k + 1 + duty_on_len_;
        duty_off_ = 0;
      } else {
        duty_off_ = std::min<std::uint64_t>(duty_off_ * 2 + duty_on_len_,
                                            duty_on_len_ * 15);
        duty_skip_until_ = k + 1 + duty_off_;
      }
    }
  }
  fed_ = complete;
}

void AdaptiveModel::maybe_fastforward() {
  if (!detector_.has_stable()) return;  // O(1): the common aperiodic miss
  if (fed_ >= tokens_) return;          // nothing left to skip
  if (fed_ < opts_.min_iterations) return;
  if (fed_ < next_attempt_) return;
  const std::optional<PeriodDetector::Detection> det = detector_.stable();
  if (!det) return;
  // The induction base must cover the graph's history depth and a full
  // period, not just the detector's K (docs/DESIGN.md §15).
  const std::uint64_t need = std::max<std::uint64_t>(
      {opts_.stable_periods, eq_.graph().max_lag(), det->period});
  if (detector_.stable_count(det->period) < need) return;
  try {
    fastforward(*det);
  } catch (const Refusal& r) {
    refuse(r.reason, r.retry_at);
  } catch (const std::exception& e) {
    // Anything other than a certification refusal — an injected commit
    // fault, an engine error — means the publish path cannot be trusted.
    // Nothing was committed (the fault point precedes the first push), so
    // the safe response is to finish the run fully simulated.
    disable(std::string("fast-forward failed: ") + e.what());
  }
}

std::int64_t AdaptiveModel::node_value_at(tdg::NodeId n, std::uint64_t k,
                                          std::uint64_t frontier,
                                          std::uint32_t period) const {
  if (k < frontier) {
    const std::optional<mp::Scalar> v = eq_.engine().scalar_value(0, n, k);
    if (!v || v->is_eps())
      throw Error("adaptive: missing value behind the frontier");
    return v->value();
  }
  const std::uint64_t base0 = frontier - period;
  const std::uint64_t k0 = base0 + (k - base0) % period;
  const auto m = static_cast<std::int64_t>((k - k0) / period);
  const std::optional<mp::Scalar> v = eq_.engine().scalar_value(0, n, k0);
  if (!v || v->is_eps())
    throw Error("adaptive: missing value behind the frontier");
  return v->value() + lambda_[static_cast<std::size_t>(n)] * m;
}

void AdaptiveModel::fastforward(const PeriodDetector::Detection& det) {
  const std::uint32_t period = det.period;
  const std::uint64_t f = fed_;
  const std::uint64_t count = tokens_;
  const tdg::Graph& g = eq_.graph();
  const tdg::Engine& eng = eq_.engine();
  const tdg::Program& prog = eng.program();
  const model::ArchitectureDesc& desc = eq_.runtime().desc();
  const std::vector<std::int64_t>& lambda = det.lambda;

  // Finite engine value (pre-history e = 0 for negative iterations).
  const auto val = [&eng](tdg::NodeId n, std::int64_t k) -> std::int64_t {
    if (k < 0) return 0;
    const std::optional<mp::Scalar> v =
        eng.scalar_value(0, n, static_cast<std::uint64_t>(k));
    if (!v || v->is_eps())
      throw Refusal{"ε or unretained value in the certification window",
                    kNever};
    return v->value();
  };
  const auto attrs_at = [&](model::SourceId s,
                            std::uint64_t k) -> model::TokenAttrs {
    if (const std::optional<model::TokenAttrs> a = eng.attrs_of(0, s, k))
      return *a;
    const auto& fn = desc.sources()[static_cast<std::size_t>(s)].attrs;
    return fn ? fn(k) : model::TokenAttrs{};
  };

  // ---- 1. Program-level certification -----------------------------------
  if (!prog.guards.empty())
    throw Refusal{"guarded arcs: future guard decisions are opaque", kNever};
  certify_loads(prog, period, f);

  // ---- 2. Environment certification -------------------------------------
  // Sources and sinks follow the same two-branch recurrence the simulated
  // processes implement:
  //   offer(k)  = max(earliest(k), completion(k-1) + gap(k))
  //   actual(k) = max(offer(k),   actual(k-1) + consume_delay(k))
  // Certify per branch: the functor branch must step by a constant E per
  // period on the whole remaining range, the history branch inherits its
  // node's measured Λ, and whichever branch is slower must already be
  // dominated at every phase of the last observed period.
  for (const tdg::BoundaryInput& bi : eq_.compiled().inputs) {
    const model::ChannelEndpoints& ep = desc.endpoints(bi.channel);
    if (!ep.written_by_source())
      throw Refusal{"input boundary not fed by a source", kNever};
    const model::SourceDesc& src =
        desc.sources()[static_cast<std::size_t>(ep.writer_source)];
    const tdg::NodeId u = g.find(bi.u_node);
    const tdg::NodeId x = g.find(bi.x_node);
    if (u == tdg::kNoNode || x == tdg::kNoNode)
      throw Refusal{"boundary node not found: " + bi.u_node, kNever};

    const std::int64_t step_a =
        certify_time_step(src.earliest, period, f, count, "source " + src.name);
    certify_duration_periodic(src.gap, period, f, count, "source " + src.name);
    certify_attrs_periodic(src.attrs, period, f, count, "source " + src.name);

    const std::int64_t lam_u = lambda[static_cast<std::size_t>(u)];
    const std::int64_t lam_x = lambda[static_cast<std::size_t>(x)];
    bool a_wins = false;
    bool b_wins = false;
    for (std::uint64_t k = f - period; k < f; ++k) {
      const std::int64_t a = src.earliest(k).count();
      const std::int64_t gap =
          src.gap ? src.gap(k).count() : 0;
      const std::int64_t b = val(x, static_cast<std::int64_t>(k) - 1) + gap;
      if (val(u, static_cast<std::int64_t>(k)) != std::max(a, b))
        throw Refusal{"source " + src.name +
                          ": offer disagrees with the branch model",
                      kNever};
      if (a > b) a_wins = true;
      if (b > a) b_wins = true;
    }
    if (step_a == lam_x) {
      if (lam_u != step_a)
        throw Refusal{"source " + src.name + ": offer rate inconsistent",
                      f + period};
    } else if (step_a < lam_x) {
      // The functor branch falls behind: it must already be dominated at
      // every phase, and the offer must ride the history branch.
      if (a_wins || lam_u != lam_x)
        throw Refusal{"source " + src.name +
                          ": slower earliest branch still winning",
                      f + period};
    } else {
      if (b_wins || lam_u != step_a)
        throw Refusal{"source " + src.name +
                          ": slower history branch still winning",
                      f + period};
    }
  }

  for (const tdg::BoundaryOutput& bo : eq_.compiled().outputs) {
    const model::ChannelEndpoints& ep = desc.endpoints(bo.channel);
    if (!ep.read_by_sink())
      throw Refusal{"output boundary not drained by a sink", kNever};
    if (bo.actual_node.empty()) continue;  // always-ready sink: no feedback
    const model::SinkDesc& sink =
        desc.sinks()[static_cast<std::size_t>(ep.reader_sink)];
    const tdg::NodeId y = g.find(bo.offer_node);
    const tdg::NodeId a_node = g.find(bo.actual_node);
    if (y == tdg::kNoNode || a_node == tdg::kNoNode)
      throw Refusal{"boundary node not found: " + bo.offer_node, kNever};

    certify_duration_periodic(sink.consume_delay, period, f, count,
                              "sink " + sink.name);
    const std::int64_t lam_y = lambda[static_cast<std::size_t>(y)];
    const std::int64_t lam_a = lambda[static_cast<std::size_t>(a_node)];

    if (bo.fifo) {
      // Boundary FIFO: the simulated channel and sink implement
      //   xw(k) = max(y(k),  xr(k - capacity))              (slot credit)
      //   xr(k) = max(xw(k), xr(k-1) + consume_delay(k))    (drain)
      // where xw = actual_node (write instant) and xr = xr_actual_node
      // (read instant), both external. Certify each recurrence over the
      // window and pin the branch that wins after the frontier.
      const tdg::NodeId xr = g.find(bo.xr_actual_node);
      if (xr == tdg::kNoNode)
        throw Refusal{"boundary node not found: " + bo.xr_actual_node, kNever};
      const auto cap = static_cast<std::int64_t>(
          desc.channels()[static_cast<std::size_t>(bo.channel)].capacity);
      const std::int64_t lam_r = lambda[static_cast<std::size_t>(xr)];

      bool offer_wins = false;   // y strictly above the credit branch
      bool credit_wins = false;  // credit strictly above y
      bool write_wins = false;   // xw strictly above the drain history
      bool drain_wins = false;
      for (std::uint64_t k = f - period; k < f; ++k) {
        const auto ks = static_cast<std::int64_t>(k);
        const std::int64_t offer = val(y, ks);
        const std::int64_t credit = val(xr, ks - cap);
        const std::int64_t w_v = val(a_node, ks);
        if (w_v != std::max(offer, credit))
          throw Refusal{"fifo " + sink.name +
                            ": write instant disagrees with the credit model",
                        kNever};
        const std::int64_t delay =
            sink.consume_delay ? sink.consume_delay(k).count() : 0;
        const std::int64_t hist = val(xr, ks - 1) + delay;
        if (val(xr, ks) != std::max(w_v, hist))
          throw Refusal{"fifo " + sink.name +
                            ": read instant disagrees with the drain model",
                        kNever};
        if (offer > credit) offer_wins = true;
        if (credit > offer) credit_wins = true;
        if (w_v > hist) write_wins = true;
        if (hist > w_v) drain_wins = true;
      }
      // Write recurrence: the branch with the larger rate dominates
      // eventually; certify only when it already dominates at every phase
      // and the write rate rides it.
      if (lam_y == lam_r) {
        if (lam_a != lam_y)
          throw Refusal{"fifo " + sink.name + ": write rate inconsistent",
                        f + period};
      } else if (lam_y < lam_r) {
        if (offer_wins || lam_a != lam_r)
          throw Refusal{"fifo " + sink.name +
                            ": slower offer branch still winning",
                        f + period};
      } else {
        if (credit_wins || lam_a != lam_y)
          throw Refusal{"fifo " + sink.name +
                            ": slower credit branch still winning",
                        f + period};
      }
      // Read recurrence: same shape as the rendezvous sink below.
      if (lam_a > lam_r)
        throw Refusal{"fifo " + sink.name + ": write rate exceeds drain rate",
                      f + period};
      if (lam_a < lam_r && write_wins)
        throw Refusal{"fifo " + sink.name +
                          ": slower write branch still winning",
                      f + period};
      (void)drain_wins;
      continue;
    }

    bool offer_wins = false;
    bool history_wins = false;
    for (std::uint64_t k = f - period; k < f; ++k) {
      const std::int64_t offer = val(y, static_cast<std::int64_t>(k));
      const std::int64_t delay =
          sink.consume_delay ? sink.consume_delay(k).count() : 0;
      const std::int64_t hist =
          val(a_node, static_cast<std::int64_t>(k) - 1) + delay;
      if (val(a_node, static_cast<std::int64_t>(k)) != std::max(offer, hist))
        throw Refusal{"sink " + sink.name +
                          ": completion disagrees with the branch model",
                      kNever};
      if (offer > hist) offer_wins = true;
      if (hist > offer) history_wins = true;
    }
    if (lam_y > lam_a) {
      // Offers accelerate past the sink's completion rate: the pattern
      // must eventually break, never certify it.
      throw Refusal{"sink " + sink.name + ": offer rate exceeds drain rate",
                    f + period};
    }
    if (lam_y < lam_a && offer_wins)
      throw Refusal{"sink " + sink.name +
                        ": slower offer branch still winning",
                    f + period};
    (void)history_wins;
  }

  // ---- 3. Per-arc branch domination -------------------------------------
  // Computed nodes continue the period by induction when, over the last
  // observed period, every winning in-arc connects nodes of equal Λ and
  // every dominated in-arc comes from a node that rises no faster than its
  // destination.
  for (const tdg::Arc& arc : g.arcs()) {
    const std::int64_t lam_src = lambda[static_cast<std::size_t>(arc.src)];
    const std::int64_t lam_dst = lambda[static_cast<std::size_t>(arc.dst)];
    for (std::uint64_t k = f - period; k < f; ++k) {
      const model::TokenAttrs at = attrs_at(arc.attr_source, k);
      const std::int64_t term =
          val(arc.src, static_cast<std::int64_t>(k) -
                           static_cast<std::int64_t>(arc.lag)) +
          g.arc_weight(arc, at, k).count();
      const std::int64_t dst_v = val(arc.dst, static_cast<std::int64_t>(k));
      if (term > dst_v)
        throw Refusal{"arc term exceeds its destination (inconsistent frame)",
                      kNever};
      if (term == dst_v) {
        if (lam_src != lam_dst)
          throw Refusal{"winning arc joins nodes of unequal rate at k=" +
                            std::to_string(k),
                        f + period};
      } else if (lam_src > lam_dst) {
        throw Refusal{"dominated arc rises faster than its destination at k=" +
                          std::to_string(k),
                      f + period};
      }
    }
  }

  // ---- 4. Seeded one-period verification --------------------------------
  // Defense in depth: replay one period on a fresh engine seeded with the
  // trailing history window, feeding the *predicted* externals, and demand
  // the computed instants land exactly on the P-rule (within tolerance).
  const std::uint64_t hist = std::max<std::uint64_t>(g.max_lag(), 1);
  const tdg::Engine::HistoryWindow window = eng.snapshot(f - hist, hist);
  tdg::Engine verify(g, prog, tdg::Engine::Options{});
  verify.seed_history(window);
  const std::uint64_t verify_frames = std::min<std::uint64_t>(period, count - f);
  const auto n_nodes = static_cast<tdg::NodeId>(g.node_count());
  for (std::uint64_t k = f; k < f + verify_frames; ++k) {
    for (std::size_t s = 0; s < prog.n_sources; ++s) {
      verify.set_attrs(0, static_cast<model::SourceId>(s), k,
                       attrs_at(static_cast<model::SourceId>(s), k - period));
    }
    for (tdg::NodeId n = 0; n < n_nodes; ++n) {
      const tdg::NodeKind kind = g.node(n).kind;
      if (kind != tdg::NodeKind::kInput && kind != tdg::NodeKind::kExternal)
        continue;
      const std::int64_t predicted =
          val(n, static_cast<std::int64_t>(k - period)) +
          lambda[static_cast<std::size_t>(n)];
      verify.set_external(0, n, k, TimePoint::at_ps(predicted));
    }
  }
  verify.flush();
  std::int64_t residual = 0;
  for (std::uint64_t k = f; k < f + verify_frames; ++k) {
    for (tdg::NodeId n = 0; n < n_nodes; ++n) {
      const std::optional<mp::Scalar> got = verify.scalar_value(0, n, k);
      if (!got || got->is_eps())
        throw Refusal{"verification engine left an instant undetermined",
                      kNever};
      const std::int64_t want =
          val(n, static_cast<std::int64_t>(k - period)) +
          lambda[static_cast<std::size_t>(n)];
      residual = std::max(residual, std::abs(got->value() - want));
    }
  }
  if (residual > opts_.tolerance_ps)
    throw Refusal{"verification residual " + std::to_string(residual) +
                      "ps exceeds tolerance",
                  f + period};

  // ---- 5. Plan the trace extensions (read-only) --------------------------
  // Everything that can refuse happens here; the commit below only appends.
  // The extensions are written straight into the final trace vectors — no
  // staging copy — which is safe because every vector is reserved to its
  // final size before the fault point, making the fill loops non-throwing
  // (and halving the memory traffic of the dominant fast-forward cost).
  const std::uint64_t tail_window =
      static_cast<std::uint64_t>(opts_.stable_periods) * period;

  struct SeriesPlan {
    trace::InstantSeries* series = nullptr;
    std::uint64_t len = 0;
    std::int64_t lam = 0;
  };
  std::vector<SeriesPlan> series_plans;
  trace::InstantTraceSet& iset = eq_.runtime().mutable_instants();
  std::vector<std::string> series_names;
  series_names.reserve(iset.all().size());
  for (const auto& [name, unused] : iset.all()) series_names.push_back(name);
  for (const std::string& name : series_names) {
    trace::InstantSeries& s = iset.series(name);
    const std::uint64_t len = s.size();
    if (len == count) continue;
    if (len > count)
      throw Refusal{"series " + name + " longer than the token count", kNever};
    if (len < static_cast<std::uint64_t>(period) + 1)
      throw Refusal{"series " + name + " too short to extend", f + period};
    const std::vector<TimePoint>& v = s.values();
    const std::int64_t lam =
        v[len - 1].count() - v[len - 1 - period].count();
    const std::uint64_t w = std::min<std::uint64_t>(len - period, tail_window);
    for (std::uint64_t j = len - w; j < len; ++j) {
      if (v[j].count() != v[j - period].count() + lam)
        throw Refusal{"series " + name + " tail breaks the period",
                      f + period};
    }
    series_plans.push_back({&s, len, lam});
  }

  struct LabelPlan {
    std::int32_t id = 0;
    std::uint64_t len = 0;
    std::int64_t lam = 0;
    std::vector<std::size_t> rows;  ///< simulated row index per iteration
  };
  struct UsagePlan {
    trace::UsageTrace* trace = nullptr;
    std::vector<LabelPlan> labels;
    std::uint64_t add = 0;
  };
  std::vector<UsagePlan> usage_plans;
  trace::UsageTraceSet& uset = eq_.runtime().mutable_usage();
  std::vector<std::string> trace_names;
  for (const auto& [name, unused] : uset.all()) trace_names.push_back(name);
  for (const std::string& name : trace_names) {
    trace::UsageTrace& t = uset.trace(name);
    const std::vector<std::int32_t>& ids = t.label_ids();
    std::int32_t max_id = -1;
    for (const std::int32_t id : ids) max_id = std::max(max_id, id);
    std::vector<std::vector<std::size_t>> by_label(
        static_cast<std::size_t>(max_id + 1));
    for (std::size_t r = 0; r < ids.size(); ++r)
      by_label[static_cast<std::size_t>(ids[r])].push_back(r);

    UsagePlan plan;
    plan.trace = &t;
    for (std::int32_t id = 0; id <= max_id; ++id) {
      std::vector<std::size_t>& rows = by_label[static_cast<std::size_t>(id)];
      const std::uint64_t len = rows.size();
      if (len == 0 || len == count) continue;
      if (len > count)
        throw Refusal{"usage label " + t.label(id) + " exceeds token count",
                      kNever};
      if (len < static_cast<std::uint64_t>(period) + 1)
        throw Refusal{"usage label " + t.label(id) + " too short to extend",
                      f + period};
      const std::vector<TimePoint>& starts = t.starts();
      const std::vector<TimePoint>& ends = t.ends();
      const std::vector<std::int64_t>& ops = t.ops();
      const std::int64_t lam = ends[rows[len - 1]].count() -
                               ends[rows[len - 1 - period]].count();
      const std::uint64_t w =
          std::min<std::uint64_t>(len - period, tail_window);
      for (std::uint64_t j = len - w; j < len; ++j) {
        const std::size_t r = rows[j];
        const std::size_t rp = rows[j - period];
        if (starts[r].count() != starts[rp].count() + lam ||
            ends[r].count() != ends[rp].count() + lam || ops[r] != ops[rp])
          throw Refusal{"usage label " + t.label(id) + " tail breaks the "
                        "period", f + period};
      }
      plan.add += count - len;
      plan.labels.push_back({id, len, lam, std::move(rows)});
    }
    if (!plan.labels.empty()) usage_plans.push_back(std::move(plan));
  }

  // Everything that could still throw happens before the commit: the final
  // completion instant (reads certification-window frames) and the analytic
  // cross-check. After the fault point the function must not fail.
  lambda_ = det.lambda;
  std::int64_t end_ps = 0;
  for (tdg::NodeId n = 0; n < n_nodes; ++n)
    end_ps = std::max(end_ps, node_value_at(n, count - 1, f, period));
  // A simulated sink delays consume_delay(count) after its final read
  // before blocking forever, and that delay expiry is the kernel's last
  // event: reproduce it so end_time() matches the full simulation.
  for (const tdg::BoundaryOutput& bo : eq_.compiled().outputs) {
    const model::ChannelEndpoints& ep = desc.endpoints(bo.channel);
    if (!ep.read_by_sink()) continue;
    const model::SinkDesc& sink =
        desc.sinks()[static_cast<std::size_t>(ep.reader_sink)];
    if (!sink.consume_delay) continue;
    const std::string& read_node =
        bo.fifo ? bo.xr_actual_node : bo.actual_node;
    if (read_node.empty()) continue;
    const tdg::NodeId r = g.find(read_node);
    if (r == tdg::kNoNode) continue;
    end_ps = std::max(end_ps, node_value_at(r, count - 1, f, period) +
                                  sink.consume_delay(count).count());
  }

  // Analytic cross-check (stats only): λ of the frozen program's analysis
  // graph. Failures — e.g. attribute tables shorter than the sample — are
  // ignored; the fast-forward itself never depends on this value.
  double analytic_ratio_ps = 0.0;
  try {
    const tdg::RatioGraph rg = tdg::to_ratio_graph(
        g,
        [&desc](model::SourceId s, std::uint64_t k) {
          const auto& fn = desc.sources()[static_cast<std::size_t>(s)].attrs;
          return fn ? fn(k) : model::TokenAttrs{};
        },
        std::min<std::uint64_t>(64, count));
    analytic_ratio_ps = mp::max_cycle_ratio(rg.nodes, rg.arcs).max_ratio;
  } catch (const std::exception&) {
    analytic_ratio_ps = 0.0;
  }

  // ---- 6. Commit ---------------------------------------------------------
  // Reserve every destination to its final size first: a bad_alloc lands
  // before the fault point with nothing published. Past the fault point the
  // fill loops only push into reserved capacity — non-throwing, so the
  // commit is all-or-nothing even against an injected fault.
  for (const SeriesPlan& p : series_plans) p.series->reserve(count);
  for (const UsagePlan& up : usage_plans)
    up.trace->reserve(up.trace->size() + up.add);

  MAXEV_FAULT_POINT("adaptive.fastforward");
  for (const SeriesPlan& p : series_plans) {
    trace::InstantSeries& s = *p.series;
    const std::vector<TimePoint>& v = s.values();
    for (std::uint64_t j = p.len; j < count; ++j)
      s.push(TimePoint::at_ps(v[j - period].count() + p.lam));
  }
  for (const UsagePlan& up : usage_plans) {
    trace::UsageTrace& t = *up.trace;
    const std::vector<TimePoint>& starts = t.starts();
    const std::vector<TimePoint>& ends = t.ends();
    const std::vector<std::int64_t>& ops = t.ops();
    for (const LabelPlan& lp : up.labels) {
      // Rows of this label appended below land at t.size() + i, so the
      // source row for j once j - period crosses into the extension is
      // base + (j - period - len).
      const std::size_t base = t.size();
      for (std::uint64_t j = lp.len; j < count; ++j) {
        const std::size_t rp = j - period < lp.len
                                   ? lp.rows[j - period]
                                   : base + (j - period - lp.len);
        t.push(TimePoint::at_ps(starts[rp].count() + lp.lam),
               TimePoint::at_ps(ends[rp].count() + lp.lam), ops[rp], lp.id);
      }
    }
  }

  // ---- 7. Finalize -------------------------------------------------------
  stats_.extrapolated = true;
  stats_.detected_period = period;
  stats_.detected_at = f;
  stats_.extrapolated_iterations = count - f;
  const std::uint64_t periods_left = (count - f + period - 1) / period;
  stats_.max_error_ps = residual * static_cast<std::int64_t>(periods_left);
  stats_.analytic_ratio_ps = analytic_ratio_ps;
  fast_forwarded_ = true;
  ff_end_ = TimePoint::at_ps(end_ps);

  // Stop the simulation: the kernel's guard sees the token before the next
  // dispatch, leaving every parked process un-resumed (no further instants
  // are recorded).
  self_cancel_.request_cancel();
}

}  // namespace maxev::study
