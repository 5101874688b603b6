#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/desc.hpp"
#include "study/backend.hpp"

/// \file bench.hpp
/// Shared pieces of the maxev benchmark: the command-line arguments, the
/// result record every workload fills, the outside-in span tracer, and
/// small timing/statistics helpers. Everything here lives in the
/// benchmark; the library is only ever called through its public headers.

namespace maxevbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace_event document.
  std::string trace_out;
};

/// What one workload run reports. `attempted`/`failed` count verified
/// operations (cells, runs, responses, trace comparisons); `counts` are
/// the deterministic simulated quantities that must repeat exactly for
/// one seed.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<std::string> notes;     ///< printed before the result line

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record one verified operation; \p what names it when it fails.
  void check(bool ok, const std::string& what);
  /// Record a count; a second record under the same name must agree.
  void count(const std::string& name, std::uint64_t value);
};

/// Outside-in spans: the benchmark wraps each call into a library module's
/// public functions, keeping name, layer, start, end and parent in memory.
/// Disabled, span() is a plain call.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  template <class F>
  decltype(auto) span(const char* layer, std::string name, F&& fn) {
    if (!enabled_) return fn();
    const Scope scope(*this, layer, std::move(name));
    return fn();
  }

  /// Sum of the durations of spans named \p name, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Self time per layer (span duration minus its children), seconds.
  [[nodiscard]] std::map<std::string, double> layer_self_s() const;

  /// Write the spans as a Chrome trace_event JSON document.
  void write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  class Scope {
   public:
    Scope(Tracer& t, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Call \p fn until \p budget_s seconds have passed, at least \p min_calls
/// times.
template <class F>
void repeat_for(double budget_s, int min_calls, F&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < min_calls || seconds_since(t0) < budget_s; ++i) fn();
}

/// Spreads measurement rounds over the CPUs the process may use. On a
/// shared virtual machine the host's other tenants slow whichever virtual
/// CPUs they contend with, by up to 1.7x and for tens of seconds, so an
/// unpinned run reads the speed of wherever the scheduler happened to put
/// it. Each round is pinned to the next slot, one CPU or every pair of
/// CPUs for workloads that run two threads, so every slot gets the same
/// share of a run, and Samples reports the fastest slot.
class CpuRotation {
 public:
  /// \p width CPUs per slot; threads a round starts inherit its slot.
  explicit CpuRotation(int width);
  /// Unpins the calling thread.
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the next slot.
  void next();
  /// The slot of the current round; 0 when no rotation is active.
  [[nodiscard]] static std::size_t current();

 private:
  std::vector<int> all_;  ///< the CPUs the process could use at start
  std::vector<std::vector<int>> slots_;
  std::size_t next_ = 0;
};

/// Timing samples of one quantity, kept per CpuRotation slot.
class Samples {
 public:
  /// Add a sample to the current slot.
  void add(double v);
  /// The fast end of a run: the 10th percentile of the slot where it is
  /// lowest, among the slots holding at least half the mean number of
  /// samples. On the machine the benchmark was tuned on it moved less
  /// between runs than the fastest slot's median: a slot's CPU is itself
  /// contended for part of a run.
  [[nodiscard]] double fast() const;

 private:
  std::vector<std::vector<double>> by_slot_;
};

/// Measurement rounds: call \p fn until args.seconds have passed, at least
/// three times, each call on the next slot of a CpuRotation of \p width.
template <class F>
void measure_rounds(const Args& args, int width, F&& fn) {
  CpuRotation cpus(width);
  repeat_for(args.seconds, 3, [&] {
    cpus.next();
    fn();
  });
}

/// Cold set-ups timed in each measurement round. A set-up is short next to
/// a round, so several samples per round steady its statistics.
inline constexpr int kSetupsPerRound = 4;

/// Call \p fn \p n times, adding the wall of each call to \p samples.
template <class F>
void time_each(Samples& samples, int n, F&& fn) {
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.add(seconds_since(t0));
  }
}

/// Traces equal to the reference's, instants and resource usage; returns
/// the number of reference instants compared.
std::uint64_t check_same_traces(
    Result& r, const maxev::trace::InstantTraceSet& ref_instants,
    const maxev::trace::UsageTraceSet& ref_usage,
    const maxev::trace::InstantTraceSet& instants,
    const maxev::trace::UsageTraceSet& usage, const std::string& what);
inline std::uint64_t check_same_traces(Result& r,
                                       const maxev::study::Model& ref,
                                       const maxev::study::Model& m,
                                       const std::string& what) {
  return check_same_traces(r, ref.instants(), ref.usage(), m.instants(),
                           m.usage(), what);
}

/// Per-run counters every model exposes, recorded under "<prefix>.*".
void count_model(Result& r, const std::string& prefix,
                 const maxev::study::Model& m);

/// core.compile_s: compile_abstraction of each of \p keyed's compiled keys,
/// cold. core.instantiate_s: the equivalent Backend::instantiate of each of
/// \p instantiated with a warm serve::ProgramCache as RunConfig::compiled.
void compile_layer(Tracer& t, Result& r,
                   const std::vector<maxev::study::Scenario>& keyed,
                   const std::vector<maxev::study::Scenario>& instantiated,
                   maxev::study::RunConfig cfg = {});

/// What a run's inputs are to the adaptive backend, for the split behind
/// study.adaptive.steady_speedup and study.adaptive.drag.
enum class Regime {
  kSteady,     ///< a periodic steady state it should fast-forward
  kAperiodic,  ///< none, so whatever it adds is drag
  kUnsplit,    ///< counted in neither, e.g. the runs of a composition
};

/// Backend::instantiate + Model::run of scenarios, each call under a span
/// of the layer that does the work, with the per-run timings the
/// end-to-end metrics come from and the counters the per-layer metrics are
/// built from.
class Replay {
 public:
  Replay(Tracer& tracer, Result& r) : t_(tracer), r_(r) {}

  /// Instantiate and run \p s on \p b, checking that the run completes,
  /// that an adaptive run's error bound is 0 and that the run's counts
  /// repeat.
  std::unique_ptr<maxev::study::Model> run(const maxev::study::Backend& b,
                                           const maxev::study::Scenario& s,
                                           const maxev::study::RunConfig& cfg,
                                           Regime regime);

  /// check_same_traces() under a trace-layer span.
  void compare(const maxev::study::Model& ref, const maxev::study::Model& m,
               const std::string& what);
  /// The same for traces extracted from a composition.
  void compare(const maxev::trace::InstantTraceSet& ref_instants,
               const maxev::trace::UsageTraceSet& ref_usage,
               const maxev::trace::InstantTraceSet& instants,
               const maxev::trace::UsageTraceSet& usage,
               const std::string& what);

  /// sim.*, model.*, tdg.*, trace.* and study.adaptive.* metrics.
  void emit() const;

  /// Model::run wall of the latest run(), seconds.
  [[nodiscard]] double last_run_s() const { return last_run_s_; }
  /// Backend::instantiate + Model::run walls of every run() of \p s on
  /// \p b so far, seconds.
  [[nodiscard]] const Samples& total_s(const maxev::study::Scenario& s,
                                       const maxev::study::Backend& b) const;
  /// Source tokens of \p ss (all instances) over the sum of their
  /// Samples::fast() Model::run walls on \p b.
  [[nodiscard]] double tokens_per_s(
      const maxev::study::Backend& b,
      const std::vector<maxev::study::Scenario>& ss) const;

 private:
  struct Totals {
    double run_s = 0.0;
    std::uint64_t tokens = 0;
    std::uint64_t events = 0;
    std::uint64_t relation_events = 0;
    std::uint64_t instances = 0;
  };
  struct Walls {
    Samples run_s, total_s;
  };
  const Walls& walls(const maxev::study::Scenario& s,
                     const maxev::study::Backend& b) const;

  Tracer& t_;
  Result& r_;
  std::map<std::string, Walls> walls_;  ///< by "<scenario>/<backend>"
  Totals baseline_, equivalent_, adaptive_;
  std::uint64_t events_ = 0, resumes_ = 0, inline_resumes_ = 0;
  std::uint64_t relation_events_ = 0, instances_ = 0, arc_terms_ = 0;
  std::size_t graph_nodes_ = 0, graph_arcs_ = 0;
  double compare_s_ = 0.0;
  std::uint64_t instants_compared_ = 0;
  std::uint64_t extrapolated_ = 0, adaptive_iterations_ = 0, refusals_ = 0;
  std::uint32_t detected_period_ = 0;
  double steady_eq_s_ = 0.0, steady_ad_s_ = 0.0;
  double aperiodic_eq_s_ = 0.0, aperiodic_ad_s_ = 0.0;
  double last_run_s_ = 0.0;
};

/// Per-layer metrics shared by every workload, from the traced passes:
/// median self time per layer, span coverage, and tracing overhead (median
/// traced wall minus median untraced wall).
void layer_metrics(Result& r, const std::vector<Tracer>& traced,
                   const std::vector<double>& traced_s,
                   const std::vector<double>& untraced_s);

/// Run \p replay in pairs, untraced then traced under a root span, for
/// args.seconds (at least one pair), and emit the per-layer metrics:
/// Replay::emit() and what the replay itself adds, from the last traced
/// pass; layer_metrics() over all passes. Counts recorded by every pass
/// must agree. Writes the last traced pass as a Chrome trace to
/// args.trace_out.
template <class F>
void run_traced(const Args& args, Result& r, F&& replay) {
  std::vector<Tracer> traced;
  std::vector<double> walls[2];
  repeat_for(args.seconds, 1, [&] {
    for (const bool on : {false, true}) {
      Tracer tracer(on);
      Replay rp(tracer, r);
      const auto t0 = Clock::now();
      tracer.span("bench", args.workload, [&] { replay(tracer, rp); });
      walls[on ? 1 : 0].push_back(seconds_since(t0));
      if (!on) continue;
      rp.emit();
      traced.push_back(std::move(tracer));
    }
  });
  layer_metrics(r, traced, walls[1], walls[0]);
  if (!args.trace_out.empty())
    traced.back().write_chrome_trace(args.trace_out, args.workload);
}

/// \name Workloads
/// Each fills \p r with the end-to-end metrics (args.trace == false) or the
/// per-layer metrics of the traced replays (args.trace == true).
/// @{
void dse_sweep(const Args& args, Result& r);
void fig5_padded(const Args& args, Result& r);
void lte_composed(const Args& args, Result& r);
void serve_stream(const Args& args, Result& r);
/// @}

}  // namespace maxevbench
