#include "study/study.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/compiled.hpp"
#include "serve/program_cache.hpp"
#include "util/crew.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace maxev::study {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(std::uint64_t ref, std::uint64_t cell) {
  return cell > 0 ? static_cast<double>(ref) / static_cast<double>(cell) : 0.0;
}

/// One measured cell: repetitions of instantiate + run; the rep-0 model is
/// kept until the cell's accuracy checks are done (its traces are the
/// comparison payload).
struct MeasuredCell {
  Cell cell;
  std::unique_ptr<Model> model;  // rep-0 model, traces intact
  /// Canonical program-cache keys this cell requested, in request order
  /// (instantiations of all repetitions). Replayed serially afterwards to
  /// attribute hits/misses deterministically at any thread count.
  std::vector<core::CompiledKey> cache_keys;
};

/// Per-cell recording wrapper over the study's shared cache: forwards
/// get() and remembers the canonical key sequence. One recorder per cell,
/// touched only by the thread measuring that cell.
class RecordingProvider final : public core::CompiledProvider {
 public:
  explicit RecordingProvider(core::CompiledProvider* inner) : inner_(inner) {}

  core::CompiledPtr get(const core::CompiledKey& key,
                        bool* was_hit) override {
    keys_.push_back(
        core::CompiledKey::make(key.desc, key.group, key.fold, key.pad_nodes));
    return inner_->get(key, was_hit);
  }

  std::vector<core::CompiledKey> take_keys() { return std::move(keys_); }

 private:
  core::CompiledProvider* inner_;
  std::vector<core::CompiledKey> keys_;
};

/// The LRU the serial replay simulates — same policy and default capacity
/// as serve::ProgramCache, but keys only (nothing is compiled here).
class ReplayLru {
 public:
  explicit ReplayLru(std::size_t capacity) : capacity_(capacity) {}

  /// True = the serial pass would have hit.
  bool touch(const core::CompiledKey& key) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    lru_.push_front(key);
    index_.emplace(key, lru_.begin());
    while (index_.size() > capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
    }
    return false;
  }

 private:
  struct KeyHash {
    std::size_t operator()(const core::CompiledKey& k) const {
      return core::hash_value(k);
    }
  };
  std::size_t capacity_;
  std::list<core::CompiledKey> lru_;
  std::unordered_map<core::CompiledKey, std::list<core::CompiledKey>::iterator,
                     KeyHash>
      index_;
};

MeasuredCell measure(const Scenario& scenario, const Backend& backend,
                     const StudyOptions& opts,
                     core::CompiledProvider* cache) {
  MeasuredCell out;
  out.cell.scenario = scenario.name();
  out.cell.backend = backend.name();
  out.cell.approximate_backend =
      backend.kind() == Backend::Kind::kLooselyTimed;

  RunConfig rc;
  rc.observe = opts.observe;
  rc.event_overhead_ns = opts.event_overhead_ns;
  rc.threads = opts.group_threads;
  rc.max_events = opts.max_events;
  rc.deadline_ms = opts.deadline_ms;
  rc.cancel = opts.cancel;
  std::optional<RecordingProvider> recorder;
  if (cache != nullptr) {
    recorder.emplace(cache);
    rc.compiled = &*recorder;
  }

  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(opts.repetitions));
  for (int rep = 0; rep < opts.repetitions; ++rep) {
    try {
      std::unique_ptr<Model> model = backend.instantiate(scenario, rc);
      const auto t0 = Clock::now();
      const Outcome outcome = model->run();
      walls.push_back(seconds_since(t0));
      if (rep == 0) {
        core::RunMetrics& m = out.cell.metrics;
        m.kernel_events = model->kernel_stats().events_scheduled;
        m.resumes = model->kernel_stats().resumes;
        m.relation_events = model->relation_events();
        m.instances_computed = model->instances_computed();
        m.arc_terms = model->arc_terms_evaluated();
        m.sim_end = model->end_time();
        m.completed = outcome.completed;
        const Model::GraphShape shape = model->graph_shape();
        out.cell.graph_nodes = shape.nodes;
        out.cell.graph_paper_nodes = shape.paper_nodes;
        out.cell.graph_arcs = shape.arcs;
        if (const std::optional<AdaptiveStats> ast = model->adaptive_stats()) {
          out.cell.fidelity = ast->extrapolated ? "extrapolated" : "simulated";
          out.cell.extrapolated_iterations =
              static_cast<std::int64_t>(ast->extrapolated_iterations);
          out.cell.max_error_ps = ast->max_error_ps;
        }
        if (opts.require_completion && !outcome.completed) {
          throw SimulationError(
              backend.name() + ": " + outcome.stall_report,
              std::make_shared<const sim::RunDiagnostics>(
                  outcome.diagnostics));
        }
        if (opts.keep_traces && opts.observe) {
          out.cell.instants = std::make_shared<const trace::InstantTraceSet>(
              model->instants());
          out.cell.usage =
              std::make_shared<const trace::UsageTraceSet>(model->usage());
        }
        out.model = std::move(model);
      }
    } catch (...) {
      // Name the cell on the way out (satellite: failures identify their
      // scenario/backend/repetition); concrete maxev error types and any
      // attached diagnostics survive the re-throw.
      rethrow_with_context("cell (scenario '" + scenario.name() +
                           "', backend '" + backend.name() + "', rep " +
                           std::to_string(rep) + ")");
    }
  }
  out.cell.metrics.wall_seconds = median_of(std::move(walls));
  if (recorder) out.cache_keys = recorder->take_keys();
  return out;
}

/// The accuracy check of one cell against its scenario's reference. Reads
/// both models through const accessors only, so several workers may check
/// against one reference at once.
ErrorStats compare_cell(const Model& ref, const Model& cell) {
  ErrorStats errors;
  errors.instant_mismatch =
      trace::compare_instants(ref.instants(), cell.instants());
  // Backends that record no usage by design (loosely-timed) are not marked
  // mismatching for it; absence of data is not a difference.
  if (cell.records_usage())
    errors.usage_mismatch = trace::compare_usage(ref.usage(), cell.usage());
  const trace::InstantErrorStats mag =
      trace::instant_error_stats(ref.instants(), cell.instants());
  errors.max_abs_seconds = mag.max_abs_seconds;
  errors.mean_abs_seconds = mag.mean_abs_seconds;
  errors.instants_compared = mag.instants;
  return errors;
}

/// The isolate_failures representation of a cell whose measurement threw:
/// default metrics, the exception's message and (when carried) diagnostics.
MeasuredCell failed_cell(const Scenario& scenario, const Backend& backend,
                         std::string error,
                         std::shared_ptr<const sim::RunDiagnostics> diag) {
  MeasuredCell out;
  out.cell.scenario = scenario.name();
  out.cell.backend = backend.name();
  out.cell.approximate_backend =
      backend.kind() == Backend::Kind::kLooselyTimed;
  out.cell.failed = true;
  out.cell.error = std::move(error);
  out.cell.diagnostics = std::move(diag);
  return out;
}

}  // namespace

Study& Study::add(Scenario scenario) {
  if (!scenario.valid()) throw DescriptionError("Study::add: invalid scenario");
  // Names are the cells' identity (Report::find/at): duplicates would make
  // one run's metrics silently unaddressable.
  for (const Scenario& s : scenarios_)
    if (s.name() == scenario.name())
      throw DescriptionError("Study::add: duplicate scenario '" +
                             scenario.name() + "'");
  scenarios_.push_back(std::move(scenario));
  return *this;
}

Study& Study::add(Backend backend) {
  for (const Backend& b : backends_)
    if (b.name() == backend.name())
      throw DescriptionError("Study::add: duplicate backend '" +
                             backend.name() + "'");
  backends_.push_back(std::move(backend));
  return *this;
}

Study& Study::reference(const std::string& backend_name) {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].name() == backend_name) {
      reference_ = i;
      return *this;
    }
  }
  throw Error("Study::reference: unknown backend '" + backend_name + "'");
}

Report Study::run(const StudyOptions& opts) const {
  if (opts.repetitions < 1)
    throw Error("Study::run: repetitions must be >= 1");
  if (opts.threads < 0 || opts.group_threads < 0)
    throw Error("Study::run: threads and group_threads must be >= 0");
  if (scenarios_.empty()) throw Error("Study::run: no scenarios");
  if (backends_.empty()) throw Error("Study::run: no backends");

  Report report;
  for (const Scenario& s : scenarios_) report.scenarios.push_back(s.name());
  for (const Backend& b : backends_) report.backends.push_back(b.name());
  report.reference_backend = backends_[reference_].name();

  // Measurement order = the serial pass's execution order: per scenario
  // the reference backend first, then the others by insertion. Cells are
  // keyed by their slot in this list, so workers may run them in any order
  // (or concurrently) without perturbing the report; when several cells
  // fail, the lowest slot's exception is rethrown — exactly the error the
  // serial pass would have surfaced first.
  struct Slot {
    std::size_t scenario = 0;
    std::size_t backend = 0;
  };
  const std::size_t width = backends_.size();  // slots per scenario
  std::vector<Slot> slots;
  slots.reserve(scenarios_.size() * width);
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    slots.push_back({s, reference_});
    for (std::size_t b = 0; b < width; ++b)
      if (b != reference_) slots.push_back({s, b});
  }
  const std::size_t n = slots.size();

  // One program cache for the whole matrix (StudyOptions::program_cache):
  // every cell and repetition requesting an already-compiled structure
  // reuses it. get() is thread-safe and compiles under its lock, so the
  // compiled artifacts are identical at any thread count.
  std::optional<serve::ProgramCache> cache;
  if (opts.program_cache) cache.emplace();

  // Slot-keyed results. A cell's exception (outside isolation) and a
  // check's are kept apart: the serial pass would have failed on any cell
  // before it checked one.
  std::vector<MeasuredCell> measured(n);
  std::vector<std::optional<ErrorStats>> errors(n);
  std::vector<std::exception_ptr> cell_failures(n);
  std::vector<std::exception_ptr> check_failures(n);

  const auto measure_slot = [&](std::size_t i) noexcept {
    const Scenario& scenario = scenarios_[slots[i].scenario];
    const Backend& backend = backends_[slots[i].backend];
    core::CompiledProvider* const provider = cache ? &*cache : nullptr;
    // Per-cell failure isolation: the cell's exception becomes a failed
    // cell and the rest of the matrix keeps measuring; outside isolation
    // it is kept for the rethrow after the epoch. Since nothing escapes a
    // slot, the slot-keyed layout (and hence the report) stays
    // byte-identical at every thread count.
    try {
      try {
        measured[i] = measure(scenario, backend, opts, provider);
      } catch (const SimulationError& e) {
        if (!opts.isolate_failures) throw;
        measured[i] =
            failed_cell(scenario, backend, e.what(), e.diagnostics());
      } catch (const std::exception& e) {
        if (!opts.isolate_failures) throw;
        measured[i] = failed_cell(scenario, backend, e.what(), nullptr);
      }
    } catch (...) {
      cell_failures[i] = std::current_exception();
    }
  };

  // The streaming schedule (docs/DESIGN.md §11): one crew epoch in which
  // every slot runs the worker loop below over this state, guarded by mu.
  // A worker takes a ready check first, else claims the next cell in slot
  // order, else waits. Each model is released as soon as nothing will
  // read it again, so only the open scenarios' models are alive at once.
  const bool compare = opts.observe && opts.compare_traces && width > 1;
  std::mutex mu;
  std::condition_variable wake;
  std::size_t next_cell = 0;
  std::size_t busy = 0;  // workers measuring a cell or running a check
  // Non-reference slots whose check is due; each is queued at most once,
  // so the reservation keeps the loop allocation-free.
  std::vector<std::size_t> ready;
  ready.reserve(n);
  std::size_t ready_head = 0;
  std::vector<bool> done(n, false);
  // Recorded when a cell finishes, before its model can be released.
  std::vector<bool> usable(n, false);
  // Per scenario: non-reference cells not yet checked or skipped.
  std::vector<std::size_t> open(scenarios_.size(), width - 1);

  // The helpers below run under mu; released models are destroyed by the
  // worker after it unlocks.
  std::vector<std::unique_ptr<Model>> released;
  const auto release = [&](std::size_t i) {
    if (measured[i].model) released.push_back(std::move(measured[i].model));
  };
  // Slot i needs no more checking: release it, and its reference once
  // the scenario has no check left.
  const auto close = [&](std::size_t i) {
    const std::size_t s = slots[i].scenario;
    release(i);
    if (--open[s] == 0) release(s * width);
  };
  // Both cells of slot i's check are done: queue it, or skip it when
  // either cell has no model to read.
  const auto settle = [&](std::size_t i) {
    if (usable[slots[i].scenario * width] && usable[i])
      ready.push_back(i);
    else
      close(i);
  };
  const auto finish_cell = [&](std::size_t i) {
    done[i] = true;
    usable[i] = !measured[i].cell.failed && measured[i].model != nullptr;
    const std::size_t ref = slots[i].scenario * width;
    if (!compare) {
      release(i);
    } else if (i != ref) {
      if (done[ref]) settle(i);
    } else {
      for (std::size_t j = ref + 1; j < ref + width; ++j)
        if (done[j]) settle(j);
    }
  };

  const auto worker = [&](std::size_t) {
    std::vector<std::unique_ptr<Model>> mine;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (ready_head < ready.size()) {
        const std::size_t i = ready[ready_head++];
        const Model& ref = *measured[slots[i].scenario * width].model;
        const Model& cell = *measured[i].model;
        ++busy;
        lock.unlock();
        // The models are only read here (the reference by several
        // workers at once); the result goes to the cell's own slot.
        try {
          errors[i] = compare_cell(ref, cell);
        } catch (...) {
          check_failures[i] = std::current_exception();
        }
        lock.lock();
        --busy;
        close(i);
      } else if (next_cell < n) {
        const std::size_t i = next_cell++;
        ++busy;
        lock.unlock();
        measure_slot(i);
        lock.lock();
        --busy;
        finish_cell(i);
      } else if (busy == 0) {
        return;  // every cell measured and every check run
      } else {
        wake.wait(lock);
        continue;
      }
      // Waiters exist only once every cell is claimed; they wait for a
      // check to become ready or for the last unit to finish.
      if (next_cell == n) wake.notify_all();
      if (!released.empty()) {
        mine.swap(released);
        lock.unlock();
        mine.clear();
        lock.lock();
      }
    }
  };

  // The caller is one of the crew's slots. The fault point marks the
  // epoch's start: study infrastructure, not a cell, so it fails the
  // matrix even under isolation.
  const std::size_t crew_slots =
      std::min(util::resolve_threads(opts.threads), n);
  util::Crew crew(crew_slots - 1);
  MAXEV_FAULT_POINT("pool.parallel_for");
  crew.run(crew_slots, worker);
  for (const std::exception_ptr& e : cell_failures)
    if (e) std::rethrow_exception(e);
  for (const std::exception_ptr& e : check_failures)
    if (e) std::rethrow_exception(e);

  // Attribute cache hits/misses by replaying each cell's recorded key
  // sequence through a simulated LRU in slot order — exactly what the
  // serial pass would have seen, so the counts (and hence the report) are
  // byte-identical at every `threads` setting even though the concurrent
  // pass may have compiled in a different interleaving.
  if (cache) {
    ReplayLru replay(serve::ProgramCache::kDefaultCapacity);
    for (MeasuredCell& mc : measured) {
      if (mc.cell.failed) continue;  // its key sequence was lost mid-throw
      std::int64_t hits = 0;
      std::int64_t misses = 0;
      for (const core::CompiledKey& key : mc.cache_keys)
        (replay.touch(key) ? hits : misses) += 1;
      mc.cell.cache_hits = hits;
      mc.cell.cache_misses = misses;
    }
  }

  // Serial assembly in insertion order from the slot-keyed measurements
  // and checks, so the report is byte-identical to the serial pass.
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    MeasuredCell* const base = &measured[s * width];
    MeasuredCell& ref = base[0];
    // A failed reference cell has no traces or wall time to compare
    // against: the scenario's other cells keep their own metrics but the
    // ratios, speed-ups and accuracy stay at their unknown defaults.
    const bool ref_ok = usable[s * width];
    ref.cell.is_reference = true;
    if (ref_ok) {
      ref.cell.speedup_vs_reference = 1.0;
      ref.cell.event_ratio_vs_reference = 1.0;
      ref.cell.kernel_event_ratio_vs_reference = 1.0;
    }

    std::vector<Cell> row;
    for (std::size_t r = 1; r < width; ++r) {
      MeasuredCell& mc = base[r];
      Cell& cell = mc.cell;
      if (ref_ok && usable[s * width + r]) {
        cell.speedup_vs_reference =
            cell.metrics.wall_seconds > 0.0
                ? ref.cell.metrics.wall_seconds / cell.metrics.wall_seconds
                : 0.0;
        cell.event_ratio_vs_reference = ratio(ref.cell.metrics.relation_events,
                                              cell.metrics.relation_events);
        cell.kernel_event_ratio_vs_reference = ratio(
            ref.cell.metrics.kernel_events, cell.metrics.kernel_events);
      }
      cell.errors = std::move(errors[s * width + r]);
      row.push_back(std::move(cell));
    }

    // Emit in backend insertion order, reference in place.
    std::size_t next = 0;
    for (std::size_t b = 0; b < width; ++b) {
      if (b == reference_)
        report.cells.push_back(std::move(ref.cell));
      else
        report.cells.push_back(std::move(row[next++]));
    }
  }
  return report;
}

}  // namespace maxev::study
