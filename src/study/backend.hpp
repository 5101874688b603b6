#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "model/baseline.hpp"
#include "sim/kernel.hpp"
#include "study/scenario.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/cancel.hpp"
#include "util/time.hpp"

/// \file backend.hpp
/// A Backend is *how* to evaluate a scenario: the event-driven baseline
/// (every relation simulated), the equivalent model (internal relations
/// replaced by dynamically computed instants — the paper's method), or the
/// loosely-timed runner (temporal decoupling under a global quantum — the
/// TLM-LT foil from the paper's introduction). Backend::instantiate() hides
/// the three divergent model classes behind one Model interface, so studies,
/// examples and benches drive every execution style the same way.

namespace maxev::core {
class CompiledProvider;
}  // namespace maxev::core

namespace maxev::study {

/// Outcome of a model run (same semantics across all backends).
using Outcome = model::ModelRuntime::Outcome;

/// Tuning of the adaptive backend (Backend::adaptive): how its periodicity
/// detector decides that the computed instants have entered a periodic
/// steady state, and how much certification slack the analytic fast-forward
/// is allowed (docs/DESIGN.md §15).
struct AdaptiveOptions {
  /// Largest vector period P the detector searches (iterations). The LTE
  /// subframe grid needs P = 14; 1 covers plain periodic sources.
  std::uint32_t max_period = 16;
  /// K: consecutive iterations whose inter-iteration delta vectors must be
  /// identical before a period is considered converged.
  std::uint32_t stable_periods = 3;
  /// Never fast-forward before this many iterations have been simulated
  /// (warmup floor; 0 = detector-driven only).
  std::uint64_t min_iterations = 0;
  /// Per-instance residual allowed by the seeded one-period verification,
  /// in picoseconds. 0 (the default) means fast-forward only when the
  /// continuation is provably exact — reported max_error_ps stays 0.
  std::int64_t tolerance_ps = 0;
};

/// What the adaptive backend did on one run (Model::adaptive_stats()).
struct AdaptiveStats {
  /// True when the run was cut over to the analytic continuation.
  bool extrapolated = false;
  /// Converged vector period P (iterations); 0 when never detected.
  std::uint32_t detected_period = 0;
  /// Iteration frontier at which the fast-forward engaged.
  std::uint64_t detected_at = 0;
  /// Iterations filled in analytically instead of simulated.
  std::uint64_t extrapolated_iterations = 0;
  /// Bound on the instant error introduced by extrapolation, in
  /// picoseconds: 0 under exact certification, measured-residual ×
  /// extrapolated periods under a non-zero tolerance.
  std::int64_t max_error_ps = 0;
  /// Certification attempts that were refused (the run kept simulating).
  std::uint64_t refusals = 0;
  /// Detector resets caused by regime-change notifications (stream feeds,
  /// shaping perturbations).
  std::uint64_t regime_resets = 0;
  /// Human-readable reason of the most recent refusal (diagnostics only).
  std::string last_refusal;
  /// Analytic steady-state rate λ of the frozen program, picoseconds per
  /// iteration: the exact maximum cycle ratio (mp::max_cycle_ratio) of its
  /// ratio graph sampled over min(64, tokens) iterations, the value
  /// tdg::throughput_bound gives for that sample. 0 when not computed or
  /// when no cycle constrains the rate. Cross-check only — the fast-forward
  /// itself uses the measured per-node increments.
  double analytic_ratio_ps = 0.0;
};

/// The unified executable-model interface. One Model = one simulation
/// kernel; a composed scenario puts every instance into this one kernel.
class Model {
 public:
  virtual ~Model() = default;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Run to completion (event queue drained) or to the horizon.
  virtual Outcome run(std::optional<TimePoint> until = std::nullopt) = 0;

  [[nodiscard]] virtual const trace::InstantTraceSet& instants() const = 0;
  [[nodiscard]] virtual const trace::UsageTraceSet& usage() const = 0;
  /// False when this backend produces no resource-usage observations by
  /// design (the loosely-timed runner) — studies then skip the usage
  /// comparison instead of reporting a spurious mismatch.
  [[nodiscard]] virtual bool records_usage() const { return true; }
  [[nodiscard]] virtual const sim::KernelStats& kernel_stats() const = 0;
  /// Completed channel transfers (the paper's event-ratio quantity); 0 for
  /// the loosely-timed backend, whose queues bypass the kernel entirely.
  [[nodiscard]] virtual std::uint64_t relation_events() const = 0;
  [[nodiscard]] virtual TimePoint end_time() const = 0;
  /// The simulation kernel driving this model.
  [[nodiscard]] virtual sim::Kernel& kernel() = 0;

  /// TDG cost counters; zero for backends without a computation engine.
  [[nodiscard]] virtual std::uint64_t instances_computed() const { return 0; }
  [[nodiscard]] virtual std::uint64_t arc_terms_evaluated() const { return 0; }

  /// Shape of the temporal dependency graph; all-zero for backends
  /// without one.
  struct GraphShape {
    std::size_t nodes = 0;
    std::size_t paper_nodes = 0;
    std::size_t arcs = 0;
  };
  [[nodiscard]] virtual GraphShape graph_shape() const { return {}; }

  /// What the adaptive fast-forward did, when this model is one
  /// (Backend::adaptive); nullopt for every other backend. Studies use the
  /// presence of a value to emit the fidelity report columns.
  [[nodiscard]] virtual std::optional<AdaptiveStats> adaptive_stats() const {
    return std::nullopt;
  }

 protected:
  Model() = default;
};

/// Instantiation knobs shared across a study's whole matrix (as opposed to
/// ScenarioOptions, which travel with each scenario).
struct RunConfig {
  /// Record instant/usage traces. Disable for pure simulation-speed runs.
  bool observe = true;
  /// Synthetic wall-clock cost per kernel event (emulates heavier
  /// commercial kernels; applied identically to every backend).
  double event_overhead_ns = 0.0;
  /// Worker threads draining a composed run's equal-structure sub-batches
  /// between timestep barriers (core::EquivalentModel::Options::threads;
  /// docs/DESIGN.md §11). 1 = serial drain (the default; also used when a
  /// model has < 2 sub-batches), 0 = one per hardware thread; negative
  /// values make instantiate() throw. Traces and reports are bit-identical
  /// at any setting.
  int threads = 1;
  /// Run guards (sim::RunGuards), applied to every instantiated model's
  /// kernel. 0 / nullptr = unguarded (the guard branch of the kernel loop
  /// is not even compiled in for that run).
  ///
  /// Stop the run after this many dispatched events (cumulative across
  /// run() calls on one model, so a resumed run keeps its budget).
  std::uint64_t max_events = 0;
  /// Stop the run this many milliseconds of wall clock after the first
  /// guarded run() call (fractional values allowed).
  double deadline_ms = 0.0;
  /// Cooperative cancellation: polled once per dispatched event (and hence
  /// at every batch-drain barrier). Not owned; must outlive the models.
  const util::CancelToken* cancel = nullptr;
  /// Source of compiled abstractions (core::CompiledProvider) consulted by
  /// the equivalent and adaptive backends — a serve::ProgramCache here
  /// makes repeated instantiations of one structure share a single derive
  /// + compile. Null = compile privately. Not owned; must outlive the
  /// models.
  core::CompiledProvider* compiled = nullptr;
};

/// Value-semantic backend selector (a closed sum over the execution
/// styles). Equality of names identifies cells in a Report.
class Backend {
 public:
  enum class Kind : std::uint8_t {
    kBaseline,
    kEquivalent,
    kLooselyTimed,
    kAdaptive,
  };

  /// Event-driven reference: every relation goes through the kernel.
  [[nodiscard]] static Backend baseline();
  /// The paper's method: the scenario's abstraction group replaced by
  /// dynamically computed instants.
  [[nodiscard]] static Backend equivalent();
  /// Temporal decoupling with the given global quantum.
  [[nodiscard]] static Backend loosely_timed(Duration quantum);
  /// The equivalent model plus a periodicity detector: once the computed
  /// instants converge to a certified vector period, the remaining
  /// iterations are filled in analytically and the kernel stops
  /// (docs/DESIGN.md §15). Falls back to full simulation whenever
  /// certification refuses.
  [[nodiscard]] static Backend adaptive(AdaptiveOptions opts = {});

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Stable display/identity name: "baseline", "equivalent", "lt(10us)",
  /// "adaptive".
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Duration quantum() const { return quantum_; }
  [[nodiscard]] const AdaptiveOptions& adaptive_options() const {
    return adaptive_;
  }

  /// Build an executable model of \p scenario behind the unified interface.
  /// The model shares ownership of the scenario's description.
  [[nodiscard]] std::unique_ptr<Model> instantiate(
      const Scenario& scenario, const RunConfig& config = {}) const;

 private:
  Backend(Kind kind, std::string name, Duration quantum)
      : kind_(kind), name_(std::move(name)), quantum_(quantum) {}

  Kind kind_;
  std::string name_;
  Duration quantum_;
  AdaptiveOptions adaptive_;
};

}  // namespace maxev::study
