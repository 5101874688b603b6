#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

/// \file instants.hpp
/// Evolution-instant traces: for every relation (channel) of an architecture
/// model, the ordered sequence of instants x_ch(k) at which data was
/// exchanged. The paper's accuracy criterion is that these sequences are
/// *identical* between the event-driven baseline and the equivalent model
/// with dynamically computed instants; compare() checks exactly that.

namespace maxev::trace {

/// Largest capacity an observation sink pre-sizes for. Capacity hints come
/// from declared token counts, and a stream source may declare any count
/// (it is fed incrementally); past this many entries a sink grows on
/// demand instead. Far above every hint of a fully declared workload.
inline constexpr std::size_t kMaxReserve = std::size_t{1} << 22;

/// a × b for capacity hints, saturating instead of wrapping.
[[nodiscard]] constexpr std::size_t saturating_product(std::uint64_t a,
                                                       std::uint64_t b) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  if (a != 0 && b > kMax / a) return static_cast<std::size_t>(kMax);
  return static_cast<std::size_t>(a * b);
}

/// Instants of one relation, indexed by iteration k.
class InstantSeries {
 public:
  InstantSeries() = default;
  explicit InstantSeries(std::string name) : name_(std::move(name)) {}

  void push(TimePoint t) { instants_.push_back(t); }

  /// Pre-size for an expected instant count (capacity hint from the runner;
  /// observation-on runs should not reallocate mid-flight), at most
  /// kMaxReserve.
  void reserve(std::size_t n) { instants_.reserve(std::min(n, kMaxReserve)); }

  [[nodiscard]] std::size_t size() const { return instants_.size(); }
  [[nodiscard]] TimePoint at(std::size_t k) const;
  [[nodiscard]] const std::vector<TimePoint>& values() const { return instants_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// True when every instant is >= its predecessor (instant sequences of a
  /// monotone architecture must be non-decreasing).
  [[nodiscard]] bool is_monotone() const;

 private:
  std::string name_;
  std::vector<TimePoint> instants_;
};

/// All instant series of one model run, keyed by relation name.
class InstantTraceSet {
 public:
  /// Get or create the series for a relation.
  InstantSeries& series(const std::string& name);
  [[nodiscard]] const InstantSeries* find(const std::string& name) const;

  [[nodiscard]] std::size_t series_count() const { return set_.size(); }
  [[nodiscard]] const std::map<std::string, InstantSeries>& all() const {
    return set_;
  }

  /// Total number of recorded instants across all series.
  [[nodiscard]] std::uint64_t total_instants() const;

 private:
  std::map<std::string, InstantSeries> set_;
};

/// Compare two trace sets restricted to the series names present in \p ref.
/// Returns std::nullopt when identical, otherwise a human-readable
/// description of the first difference (missing series, length mismatch, or
/// the first differing instant with its k and both values).
[[nodiscard]] std::optional<std::string> compare_instants(
    const InstantTraceSet& ref, const InstantTraceSet& other);

/// Magnitude of the timing error between two instant trace sets, over the
/// common prefix of every series common to both (series or tail instants
/// present on only one side are not counted). Shared by the loosely-timed
/// model's error_against() and the study layer's per-cell error stats, so
/// the two always agree on the error definition.
struct InstantErrorStats {
  double max_abs_seconds = 0.0;
  double mean_abs_seconds = 0.0;
  std::uint64_t instants = 0;  ///< instants compared
};

[[nodiscard]] InstantErrorStats instant_error_stats(
    const InstantTraceSet& ref, const InstantTraceSet& other);

}  // namespace maxev::trace
