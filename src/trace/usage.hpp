#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/instants.hpp"
#include "util/time.hpp"

/// \file usage.hpp
/// Platform-resource usage observation ("observation time" in the paper).
///
/// Each execute statement contributes one busy interval [start, end) with an
/// operation count to the trace of its processing resource. From these the
/// paper's Fig. 6 observables are derived: the solid busy line (Fig. 2b) and
/// the computational complexity per time unit in GOPS (Fig. 6b/6c).
///
/// Both the event-driven baseline (recording live) and the equivalent model
/// (recording from computed instants, without the simulator) fill this same
/// structure, so accuracy is checked by structural equality.
///
/// Storage is columnar (struct-of-arrays): starts, ends, op counts and
/// interned label ids live in parallel vectors, so the hot append path is
/// four vector pushes with no string traffic — recording cost is what
/// Table I's "speed-up (obs. on)" column measures, on both models. The
/// row-oriented BusyInterval view is materialized on demand.

namespace maxev::trace {

/// One busy interval of a resource (row view; storage is columnar).
struct BusyInterval {
  TimePoint start;
  TimePoint end;
  std::int64_t ops = 0;   ///< operations executed during the interval
  std::string label;      ///< e.g. "F1.exec0" — which statement ran

  friend bool operator==(const BusyInterval&, const BusyInterval&) = default;
};

/// A point of a piecewise-constant rate profile: rate holds from t until the
/// next point.
struct RatePoint {
  TimePoint t;
  double gops = 0.0;
};

/// Usage trace of one processing resource.
class UsageTrace {
 public:
  UsageTrace() = default;
  explicit UsageTrace(std::string resource) : resource_(std::move(resource)) {}

  /// Intern a busy-interval label, returning its dense id. Idempotent; call
  /// once at setup so the hot path can use push().
  std::int32_t intern_label(const std::string& label);
  /// Label string of an interned id.
  [[nodiscard]] const std::string& label(std::int32_t id) const;
  /// The intern table: label(id) == labels()[id].
  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }

  /// Hot-path append: columnar, no allocation beyond vector growth.
  void push(TimePoint start, TimePoint end, std::int64_t ops,
            std::int32_t label_id);
  /// Compatibility append; interns the label on every call.
  void add(BusyInterval iv);

  /// Pre-size the columns for an expected interval count (capacity hint
  /// from the runner; see tdg::Engine::Options::expected_iterations).
  void reserve(std::size_t n);

  [[nodiscard]] const std::string& resource() const { return resource_; }
  /// Row-oriented view, materialized lazily from the columns.
  [[nodiscard]] const std::vector<BusyInterval>& intervals() const;
  [[nodiscard]] std::size_t size() const { return starts_.size(); }

  /// \name Columnar accessors (parallel vectors of length size())
  /// @{
  [[nodiscard]] const std::vector<TimePoint>& starts() const { return starts_; }
  [[nodiscard]] const std::vector<TimePoint>& ends() const { return ends_; }
  [[nodiscard]] const std::vector<std::int64_t>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<std::int32_t>& label_ids() const {
    return label_ids_;
  }
  /// @}

  /// Sum of interval lengths (overlaps counted multiply).
  [[nodiscard]] Duration busy_time() const;
  /// Total operations across all intervals.
  [[nodiscard]] std::int64_t total_ops() const;
  /// busy_time / horizon (can exceed 1 on concurrent resources).
  [[nodiscard]] double utilization(TimePoint horizon) const;
  /// Latest interval end (origin when empty).
  [[nodiscard]] TimePoint span_end() const;

  /// Piecewise-constant total execution rate over time: at any instant the
  /// rate is the sum over active intervals of ops/length, in GOPS
  /// (operations per simulated nanosecond). This is the paper's
  /// "computational complexity per time unit".
  [[nodiscard]] std::vector<RatePoint> rate_profile() const;

  /// Average GOPS inside fixed windows of width \p bin from the origin to
  /// span_end(); interval ops are apportioned linearly across windows.
  [[nodiscard]] std::vector<RatePoint> windowed_rate(Duration bin) const;

  /// Reorder the intervals into the canonical order (start, end, label,
  /// ops), labels compared as strings. O(n + inversions) on nearly sorted
  /// emission orders, O(n log n) at worst. compare_usage() does not need
  /// it; it is for readers that want the rows in time order.
  void sort();

 private:
  std::string resource_;
  // Parallel columns; label ids index labels_.
  std::vector<TimePoint> starts_;
  std::vector<TimePoint> ends_;
  std::vector<std::int64_t> ops_;
  std::vector<std::int32_t> label_ids_;
  std::vector<std::string> labels_;  // intern table (small; linear lookup)

  mutable std::vector<BusyInterval> view_;  // lazily materialized rows
  mutable bool view_valid_ = false;
};

/// Usage traces of all resources of one model run.
class UsageTraceSet {
 public:
  UsageTrace& trace(const std::string& resource);
  [[nodiscard]] const UsageTrace* find(const std::string& resource) const;
  [[nodiscard]] const std::map<std::string, UsageTrace>& all() const {
    return set_;
  }
  /// Sort every trace into the canonical order (UsageTrace::sort()).
  void sort_all();

 private:
  std::map<std::string, UsageTrace> set_;
};

/// Structural equality of two usage trace sets, restricted to the resources
/// present in \p ref: nullopt when every trace of \p ref holds the same
/// multiset of intervals as its namesake in \p other, otherwise a
/// description of the first difference.
///
/// The check is insensitive to emission order and copies neither set: its
/// result is exactly that of comparing the two sets after sort_all(), and
/// an "interval i differs" message counts i in the canonical order, so
/// callers need not sort first. Two traces emitted in the same order cost
/// one linear pass over the columns; otherwise each side's canonical order
/// is built as a flat key array (O(n + inversions) when nearly sorted).
/// Reads only the const columns (never the intervals() view), so several
/// threads may compare against one reference concurrently.
[[nodiscard]] std::optional<std::string> compare_usage(const UsageTraceSet& ref,
                                                       const UsageTraceSet& other);

}  // namespace maxev::trace
