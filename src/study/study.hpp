#pragma once

#include <string>
#include <vector>

#include "study/backend.hpp"
#include "study/report.hpp"
#include "study/scenario.hpp"

/// \file study.hpp
/// The exploration front-end: a Study executes a matrix of scenarios ×
/// backends (paper Section IV's protocol generalized from one pair to a
/// whole design space) and returns a structured Report. One backend is the
/// *reference*: every other backend's traces are compared against it (the
/// paper's accuracy criterion) and its wall time is the speed-up
/// denominator. run_comparison() (study/experiment.hpp) is a thin wrapper
/// over a two-backend study; the design-space and multi-instance examples
/// drive wider matrices through the same API.

namespace maxev::study {

/// Execution options shared by every cell of the matrix.
struct StudyOptions {
  /// Wall-clock repetitions per cell; the median is reported.
  int repetitions = 1;
  /// Record observation traces during the measured runs. When false the
  /// runs measure pure simulation speed and compare_traces is ignored.
  bool observe = true;
  /// Compare instant and usage traces against the reference backend.
  bool compare_traces = true;
  /// Throw maxev::SimulationError when any run fails to complete.
  bool require_completion = true;
  /// Synthetic wall-clock cost per kernel event, applied to every backend
  /// (commercial-kernel regime; 0 = this library's native cost).
  double event_overhead_ns = 0.0;
  /// Retain each cell's rep-0 observation traces in the report (Cell::
  /// instants/usage), so downstream analyses need not re-simulate. Only
  /// meaningful with observe; costs one trace copy per cell.
  bool keep_traces = false;
  /// Worker threads for the matrix itself: cells (scenario × backend ×
  /// repetitions) measure concurrently, each accuracy check runs as soon
  /// as its two cells are measured, and the report is assembled serially
  /// in insertion order — cell order, comparisons and any thrown error are
  /// identical at every setting (docs/DESIGN.md §11). Each cell still runs
  /// its own single kernel; workload closures shared between scenarios
  /// must be re-entrant when > 1. 1 = serial (default), 0 = one per
  /// hardware thread; negative values are rejected. Wall-clock numbers
  /// (and hence speedups) remain honest per cell but contend for cores
  /// with other cells and with the checks that overlap them; for
  /// timing-grade numbers keep 1.
  int threads = 1;
  /// Worker threads *inside* each composed cell with sub-batches, draining
  /// its per-group engines between timestep barriers (RunConfig::threads /
  /// core::EquivalentModel::Options::threads). Independent of
  /// `threads`; both levers may be combined. 1 = serial drain (default),
  /// 0 = one per hardware thread; negative values are rejected.
  int group_threads = 1;
  /// Run guards, applied to every cell's kernel (RunConfig / sim::
  /// RunGuards): stop a run after this many dispatched events (0 = no
  /// budget). A tripped guard makes the run incomplete; with
  /// require_completion that is a SimulationError carrying RunDiagnostics,
  /// and with isolate_failures a failed cell.
  std::uint64_t max_events = 0;
  /// Wall-clock deadline per cell run, in milliseconds (0 = none).
  double deadline_ms = 0.0;
  /// Cooperative cancellation, polled by every cell's kernel per event —
  /// one token cancels the whole matrix. Not owned; must outlive run().
  const util::CancelToken* cancel = nullptr;
  /// Share one program cache (serve::ProgramCache, keyed by DescPtr
  /// identity) across the whole matrix: every (description, group, fold,
  /// pad) abstraction is derived + compiled once per run() and reused by
  /// every cell and repetition that asks for it again
  /// (RunConfig::compiled), including composed scenarios' equal-structure
  /// sub-batches. Traces and every other report column are identical
  /// either way; the per-cell
  /// hit/miss counts (Cell::cache_hits/cache_misses) are attributed by a
  /// serial-order replay of the recorded key sequences, so the report
  /// stays byte-identical at every `threads` setting. Off = no cache, and
  /// the cache columns are empty (CSV) or null (JSON).
  bool program_cache = true;
  /// Catch each cell's failure (stall, tripped guard, thrown workload)
  /// into the report as a failed cell — status/error columns, console
  /// "FAILED" — and keep measuring the rest of the matrix instead of
  /// throwing. A failed reference cell disables that scenario's
  /// comparisons and speed-ups (they stay at their unknown defaults).
  /// Off by default: the historical throw-on-first-failure behavior.
  bool isolate_failures = false;
};

class Study {
 public:
  /// Add a scenario (column of the matrix). Insertion order is preserved.
  Study& add(Scenario scenario);
  /// Add a backend (row of the matrix). The first added backend is the
  /// reference unless reference() overrides it.
  Study& add(Backend backend);
  /// Designate the reference backend by name (must have been added).
  Study& reference(const std::string& backend_name);

  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] const std::vector<Backend>& backends() const {
    return backends_;
  }

  /// Execute the matrix. For each scenario the reference backend runs
  /// first (its rep-0 traces are kept for comparison), then every other
  /// backend in insertion order. Each model is freed once its checks are
  /// done, so only the open scenarios' models are alive at once. \throws maxev::Error on an empty matrix
  /// or bad options; maxev::SimulationError per require_completion.
  [[nodiscard]] Report run(const StudyOptions& opts = {}) const;

 private:
  std::vector<Scenario> scenarios_;
  std::vector<Backend> backends_;
  std::size_t reference_ = 0;
};

}  // namespace maxev::study
