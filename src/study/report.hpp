#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "sim/diagnostics.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file report.hpp
/// Structured result of a study: one Cell per (scenario, backend) pair with
/// the measured RunMetrics, the TDG shape (when the backend has one), and
/// accuracy against the study's designated reference backend — exact trace
/// comparison (the paper's accuracy criterion) plus max/mean absolute
/// instant error in seconds (the right metric for the loosely-timed
/// backend, which is approximate by design). Writers reuse util/csv and
/// util/json; both carry one fixed column set, with empty cells (CSV) or
/// nulls (JSON) where a value does not apply.

namespace maxev::study {

/// Accuracy of one cell against the reference backend's traces.
struct ErrorStats {
  /// nullopt = every evolution instant identical (the paper's claim).
  std::optional<std::string> instant_mismatch;
  /// nullopt = every resource busy interval identical.
  std::optional<std::string> usage_mismatch;
  /// Absolute instant error over all series common with the reference.
  double max_abs_seconds = 0.0;
  double mean_abs_seconds = 0.0;
  std::uint64_t instants_compared = 0;

  [[nodiscard]] bool exact() const {
    return !instant_mismatch && !usage_mismatch;
  }
};

/// One (scenario, backend) cell.
struct Cell {
  std::string scenario;
  std::string backend;
  bool is_reference = false;
  /// The backend is approximate by design (loosely-timed): timing drift in
  /// its traces is its normal state, not an accuracy regression. Drives the
  /// console rendering ("max err" vs "MISMATCH").
  bool approximate_backend = false;

  core::RunMetrics metrics;

  /// TDG shape (equivalent backend only; zero otherwise).
  std::size_t graph_nodes = 0;
  std::size_t graph_paper_nodes = 0;
  std::size_t graph_arcs = 0;

  /// reference wall / this wall (1 for the reference itself; 0 if unknown).
  double speedup_vs_reference = 0.0;
  /// reference relation events / this cell's (0 when undefined).
  double event_ratio_vs_reference = 0.0;
  /// reference kernel events / this cell's (0 when undefined).
  double kernel_event_ratio_vs_reference = 0.0;

  /// Accuracy vs the reference backend; absent for the reference cell and
  /// for runs without trace comparison.
  std::optional<ErrorStats> errors;

  /// Program-cache consultations attributed to this cell's instantiations
  /// (StudyOptions::program_cache; serial-order replay, so the values are
  /// identical at every thread count). -1 = the study ran without a cache
  /// (or the cell failed first): an empty CSV cell, a JSON null.
  std::int64_t cache_hits = -1;
  std::int64_t cache_misses = -1;

  /// Adaptive-backend fidelity (Model::adaptive_stats()): "simulated" when
  /// the run stayed in full simulation, "extrapolated" when the analytic
  /// fast-forward engaged. Empty for every other backend — an empty CSV
  /// cell, a JSON null (same convention as the cache counters above).
  std::string fidelity;
  /// Iterations filled in analytically (-1 = not an adaptive cell).
  std::int64_t extrapolated_iterations = -1;
  /// Reported extrapolation error bound in picoseconds (-1 = not an
  /// adaptive cell; 0 = provably exact continuation).
  std::int64_t max_error_ps = -1;

  /// The rep-0 run's observation traces, retained when
  /// StudyOptions::keep_traces is set (null otherwise) — analyses like
  /// per-instance latency read them without re-simulating. Not serialized
  /// by the CSV/JSON writers.
  std::shared_ptr<const trace::InstantTraceSet> instants;
  std::shared_ptr<const trace::UsageTraceSet> usage;

  /// This cell's measurement threw and the study isolated the failure
  /// (StudyOptions::isolate_failures): metrics/errors above are the
  /// defaults, `error` carries the exception message (naming the cell),
  /// and `diagnostics` — when the failure was a SimulationError that
  /// carried them — says what the run was doing when it stopped.
  bool failed = false;
  std::string error;
  std::shared_ptr<const sim::RunDiagnostics> diagnostics;
};

/// The full matrix, scenario-major in insertion order.
class Report {
 public:
  std::vector<std::string> scenarios;
  std::vector<std::string> backends;
  std::string reference_backend;
  std::vector<Cell> cells;

  /// Cell lookup by names; nullptr when absent.
  [[nodiscard]] const Cell* find(const std::string& scenario,
                                 const std::string& backend) const;

  /// Like find(), but throws maxev::Error naming the missing cell — for
  /// callers that know the cell must exist (benches, reports).
  [[nodiscard]] const Cell& at(const std::string& scenario,
                               const std::string& backend) const;

  /// Console rendering (one table row per cell).
  [[nodiscard]] std::string to_string() const;

  /// One CSV row per cell. Throws maxev::Error on I/O failure.
  void write_csv(const std::string& path) const;

  /// The report as a JSON document (scenarios, backends, reference, cells).
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;
};

}  // namespace maxev::study
