#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "study/backend.hpp"
#include "util/cancel.hpp"

/// \file adaptive.hpp
/// The adaptive backend (docs/DESIGN.md §15): the compiled equivalent model
/// running normally, with a periodicity detector watching the
/// inter-iteration deltas of every graph node. Once the deltas converge to
/// a vector period P — and a certification pass proves the workload
/// *continues* that period — the remaining iterations are filled in
/// analytically (instant and usage traces extended by the closed-form
/// P-rule x(k) = x(k-P) + Λ) and the kernel is stopped. Certification
/// refusals are cheap and non-destructive: the run simply keeps
/// simulating, and a later, cleaner frontier may fast-forward instead
/// (re-entry after a regime change works the same way).

namespace maxev::study {

/// Streaming vector-period detector over per-iteration value frames.
///
/// Feed one frame per iteration (the engine's node values, or any fixed-
/// width series) in order. For every candidate period P ≤ max_period the
/// detector tracks how many *consecutive* iterations ended with identical
/// delta vectors d_P(j) = v(j) − v(j−P); a period is reported stable once
/// that count reaches stable_periods (K). Frames containing ε (guard-
/// suppressed instants) poison every candidate: extrapolating through an
/// ε is never attempted. reset() discards all observed regularity (regime
/// change) without forgetting how many frames were consumed.
class PeriodDetector {
 public:
  struct Options {
    std::uint32_t max_period = 16;
    std::uint32_t stable_periods = 3;  ///< K
  };

  /// A converged period: the smallest stable P, with the per-value
  /// increment vector Λ = v(frontier−1) − v(frontier−1−P).
  struct Detection {
    std::uint32_t period = 0;
    std::uint64_t frontier = 0;  ///< frames observed when detected
    std::vector<std::int64_t> lambda;
  };

  PeriodDetector(std::size_t width, Options opts);

  /// Observe the next frame (must have exactly width() values). \p any_eps
  /// marks a frame holding at least one ε value.
  void observe(const std::vector<std::int64_t>& values, bool any_eps = false);

  /// The smallest stable period, if any candidate has K consecutive
  /// identical delta vectors.
  [[nodiscard]] std::optional<Detection> stable() const;

  /// O(1) pre-gate for stable(): true iff some candidate has reached K.
  /// The adaptive model polls this at every kernel timestep.
  [[nodiscard]] bool has_stable() const { return any_stable_; }

  /// O(1): some candidate has at least two consecutive identical deltas —
  /// the stream is showing regularity worth watching. The adaptive model's
  /// duty cycling keeps observing while this holds and backs off otherwise.
  [[nodiscard]] bool warming() const { return any_warm_; }

  /// Consecutive identical delta vectors currently credited to \p period
  /// (0 when unobserved / poisoned). The adaptive model gates on this to
  /// demand windows longer than K (e.g. the graph's max lag).
  [[nodiscard]] std::uint64_t stable_count(std::uint32_t period) const;

  /// Discard all observed regularity (regime change). Subsequent frames
  /// rebuild stability from scratch; observed() keeps counting.
  void reset();

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::uint64_t observed() const { return next_k_; }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  [[nodiscard]] const std::int64_t* u_frame(std::uint64_t k) const;

  // The candidate test runs on first differences: with u(j) = v(j) − v(j−1),
  // d_P(j) = d_P(j−1)  ⟺  u(j) = u(j−P). Each u frame carries a hash, so
  // rejecting a candidate (the only outcome on aperiodic workloads, every
  // frame) is one word compare; the full vector compare runs only when the
  // hashes collide — i.e. on genuinely periodic frames. Exactness is
  // preserved: equal vectors always hash equal, and a hash match is
  // confirmed element-wise before it counts.
  std::size_t width_;
  Options opts_;
  std::size_t ring_frames_;            ///< max_period + 2, rounded up to 2^n
  std::size_t ring_mask_;              ///< ring_frames_ - 1
  std::vector<std::int64_t> u_ring_;   ///< first differences, per ring frame
  std::vector<std::uint64_t> hash_;    ///< per ring frame: hash of its u
  std::vector<std::int64_t> prev_;     ///< v(next_k_ − 1)
  std::vector<std::uint64_t> stable_;  ///< per candidate period (index 1..P)
  bool any_stable_ = false;  ///< ∃p: stable_[p] ≥ K — O(1) gate for stable()
  bool any_warm_ = false;    ///< ∃p: stable_[p] ≥ 2 — duty-cycling signal
  std::uint64_t next_k_ = 0;
  std::uint64_t valid_from_ = 0;  ///< frames before this are forgotten
};

/// The core::EquivalentModel options of \p s under \p rc — the one
/// scenario-to-model derivation of the equivalent and adaptive backends.
/// Padding is per instance (ScenarioOptions::pad_nodes); the inline
/// remainder spans every instance of \p s outside \p sub_batches (a plain
/// scenario is one instance).
[[nodiscard]] core::EquivalentModel::Options equivalent_options(
    const Scenario& s, const RunConfig& rc,
    const std::vector<BatchGroup>& sub_batches);

/// The adaptive executable model: a zero-group core::EquivalentModel plus
/// the detector/certifier/fast-forward machinery, behind the study::Model
/// interface. Composed scenarios run on the merged graph: the detector
/// owns the timestep hook a sub-batch would need, and the merged graph is
/// bit-identical to the sub-batched run.
///
/// Public (rather than hidden in backend.cpp) so the property tests can
/// poke the detector and stats directly.
class AdaptiveModel final : public Model {
 public:
  AdaptiveModel(const Scenario& scenario, const RunConfig& config,
                AdaptiveOptions opts);

  Outcome run(std::optional<TimePoint> until = std::nullopt) override;
  const trace::InstantTraceSet& instants() const override {
    return eq_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return eq_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return eq_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return eq_.relation_events();
  }
  TimePoint end_time() const override;
  sim::Kernel& kernel() override { return eq_.runtime().kernel(); }
  std::uint64_t instances_computed() const override {
    return eq_.engine().instances_computed();
  }
  std::uint64_t arc_terms_evaluated() const override {
    return eq_.engine().arc_terms_evaluated();
  }
  GraphShape graph_shape() const override {
    return {eq_.graph().node_count(), eq_.graph().paper_node_count(),
            eq_.graph().arc_count()};
  }
  std::optional<AdaptiveStats> adaptive_stats() const override {
    return stats_;
  }

  /// \name Test access
  /// @{
  [[nodiscard]] core::EquivalentModel& equivalent() { return eq_; }
  [[nodiscard]] const AdaptiveStats& stats() const { return stats_; }
  [[nodiscard]] const PeriodDetector& detector() const { return detector_; }
  /// @}

 private:
  /// Timestep-hook body: forward user cancellation, feed the detector,
  /// attempt a fast-forward. Always returns false (no kernel work queued).
  bool on_timestep();
  void feed_detector();
  void maybe_fastforward();
  /// The certify + verify + publish pass; throws detail-level Refusal.
  void fastforward(const PeriodDetector::Detection& det);
  void disable(std::string reason);
  void refuse(std::string reason, std::uint64_t retry_at);
  [[nodiscard]] std::int64_t node_value_at(tdg::NodeId n, std::uint64_t k,
                                           std::uint64_t frontier,
                                           std::uint32_t period) const;

  core::EquivalentModel eq_;
  AdaptiveOptions opts_;
  const util::CancelToken* user_cancel_ = nullptr;
  util::CancelToken self_cancel_;
  PeriodDetector detector_;
  AdaptiveStats stats_;
  std::vector<std::int64_t> lambda_;  ///< per node, set by the fast-forward
  std::uint64_t tokens_ = 0;          ///< N: common source token count
  bool enabled_ = true;               ///< structural eligibility
  std::uint64_t fed_ = 0;             ///< frames consumed (observed or skipped)
  std::uint64_t next_attempt_ = 0;    ///< frontier gate after a refusal
  /// \name Detector duty cycling
  /// Observing every frame costs more in cache refills than the detector's
  /// arithmetic: on a stream that shows no regularity, feeding is suspended
  /// for growing off-windows (resumed through the ε-reseed path), bounding
  /// the aperiodic detector overhead to a small duty fraction.
  /// @{
  std::uint64_t duty_on_len_ = 0;      ///< probe window length (frames)
  std::uint64_t duty_on_until_ = 0;    ///< current probe window end
  std::uint64_t duty_off_ = 0;         ///< current back-off length
  std::uint64_t duty_skip_until_ = 0;  ///< frames below this are skipped
  bool duty_gap_ = false;              ///< skipped since the last observe
  /// @}
  bool fast_forwarded_ = false;
  bool user_cancelled_ = false;
  bool horizon_run_ = false;  ///< run(until) disables fast-forward
  TimePoint ff_end_ = TimePoint::origin();
  std::vector<std::int64_t> frame_buf_;
};

}  // namespace maxev::study
