#include "trace/usage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace maxev::trace {

std::int32_t UsageTrace::intern_label(const std::string& label) {
  for (std::size_t i = 0; i < labels_.size(); ++i)
    if (labels_[i] == label) return static_cast<std::int32_t>(i);
  labels_.push_back(label);
  return static_cast<std::int32_t>(labels_.size()) - 1;
}

const std::string& UsageTrace::label(std::int32_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= labels_.size())
    throw Error("UsageTrace '" + resource_ + "': bad label id");
  return labels_[static_cast<std::size_t>(id)];
}

void UsageTrace::push(TimePoint start, TimePoint end, std::int64_t ops,
                      std::int32_t label_id) {
  MAXEV_FAULT_POINT("trace.append");
  if (end < start)
    throw Error("UsageTrace '" + resource_ + "': interval ends before start");
  starts_.push_back(start);
  ends_.push_back(end);
  ops_.push_back(ops);
  label_ids_.push_back(label_id);
  view_valid_ = false;
}

void UsageTrace::add(BusyInterval iv) {
  push(iv.start, iv.end, iv.ops, intern_label(iv.label));
}

void UsageTrace::reserve(std::size_t n) {
  n = std::min(n, kMaxReserve);
  starts_.reserve(n);
  ends_.reserve(n);
  ops_.reserve(n);
  label_ids_.reserve(n);
}

const std::vector<BusyInterval>& UsageTrace::intervals() const {
  if (!view_valid_) {
    view_.clear();
    view_.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
      view_.push_back({starts_[i], ends_[i], ops_[i],
                       labels_[static_cast<std::size_t>(label_ids_[i])]});
    }
    view_valid_ = true;
  }
  return view_;
}

Duration UsageTrace::busy_time() const {
  Duration total{};
  for (std::size_t i = 0; i < size(); ++i) total += ends_[i] - starts_[i];
  return total;
}

std::int64_t UsageTrace::total_ops() const {
  std::int64_t total = 0;
  for (const std::int64_t o : ops_) total += o;
  return total;
}

double UsageTrace::utilization(TimePoint horizon) const {
  if (horizon.count() <= 0) return 0.0;
  return static_cast<double>(busy_time().count()) /
         static_cast<double>(horizon.count());
}

TimePoint UsageTrace::span_end() const {
  TimePoint end = TimePoint::origin();
  for (const TimePoint e : ends_) end = std::max(end, e);
  return end;
}

std::vector<RatePoint> UsageTrace::rate_profile() const {
  // Sweep over interval starts (+rate) and ends (-rate).
  struct Edge {
    std::int64_t t;
    double delta;
  };
  std::vector<Edge> edges;
  edges.reserve(size() * 2);
  for (std::size_t i = 0; i < size(); ++i) {
    const std::int64_t len = (ends_[i] - starts_[i]).count();
    if (len <= 0) continue;  // zero-length work contributes no rate
    // ops per picosecond * 1e3 = GOPS (1 GOPS = 1 op/ns = 1e-3 op/ps).
    const double gops =
        static_cast<double>(ops_[i]) / static_cast<double>(len) * 1e3;
    edges.push_back({starts_[i].count(), gops});
    edges.push_back({ends_[i].count(), -gops});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  std::vector<RatePoint> profile;
  double level = 0.0;
  for (std::size_t i = 0; i < edges.size();) {
    const std::int64_t t = edges[i].t;
    while (i < edges.size() && edges[i].t == t) {
      level += edges[i].delta;
      ++i;
    }
    const double clamped = std::abs(level) < 1e-9 ? 0.0 : level;
    if (!profile.empty() && profile.back().t.count() == t) {
      profile.back().gops = clamped;
    } else {
      profile.push_back({TimePoint::at_ps(t), clamped});
    }
  }
  return profile;
}

std::vector<RatePoint> UsageTrace::windowed_rate(Duration bin) const {
  if (bin.count() <= 0)
    throw Error("UsageTrace::windowed_rate: bin must be positive");
  const std::int64_t end = span_end().count();
  if (end == 0) return {};
  const auto bins = static_cast<std::size_t>((end + bin.count() - 1) / bin.count());
  std::vector<double> ops_in(bins, 0.0);
  for (std::size_t i = 0; i < size(); ++i) {
    const std::int64_t len = (ends_[i] - starts_[i]).count();
    if (len <= 0) {
      // Instantaneous work: attribute wholly to its containing bin.
      const auto b = static_cast<std::size_t>(starts_[i].count() / bin.count());
      if (b < bins) ops_in[b] += static_cast<double>(ops_[i]);
      continue;
    }
    const double density =
        static_cast<double>(ops_[i]) / static_cast<double>(len);
    std::int64_t lo = starts_[i].count();
    while (lo < ends_[i].count()) {
      const std::int64_t b = lo / bin.count();
      const std::int64_t bin_end = (b + 1) * bin.count();
      const std::int64_t hi = std::min(bin_end, ends_[i].count());
      if (static_cast<std::size_t>(b) < bins)
        ops_in[static_cast<std::size_t>(b)] +=
            density * static_cast<double>(hi - lo);
      lo = hi;
    }
  }
  std::vector<RatePoint> out;
  out.reserve(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    out.push_back({TimePoint::at_ps(static_cast<std::int64_t>(b) * bin.count()),
                   ops_in[b] / static_cast<double>(bin.count()) * 1e3});
  }
  return out;
}

namespace {

/// One interval as a key of the canonical order (start, end, label, ops).
/// The label is its rank in a sorted label table, so ordering compares
/// integers only; `row` is the interval's emission index.
struct CanonicalKey {
  std::int64_t start;
  std::int64_t end;
  std::int64_t ops;
  std::int32_t rank;
  std::uint32_t row;
};

bool canonical_less(const CanonicalKey& a, const CanonicalKey& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.ops < b.ops;
}

bool same_key(const CanonicalKey& a, const CanonicalKey& b) {
  return a.start == b.start && a.end == b.end && a.rank == b.rank &&
         a.ops == b.ops;
}

/// Ranks of the labels of \p a and \p b in the sorted union of both
/// tables: equal ranks are equal strings, and rank order is string order.
struct LabelRanks {
  std::vector<std::int32_t> a;
  std::vector<std::int32_t> b;
};

LabelRanks label_ranks(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  std::vector<const std::string*> table;
  table.reserve(a.size() + b.size());
  for (const std::string& l : a) table.push_back(&l);
  for (const std::string& l : b) table.push_back(&l);
  const auto less = [](const std::string* x, const std::string* y) {
    return *x < *y;
  };
  std::sort(table.begin(), table.end(), less);
  table.erase(std::unique(table.begin(), table.end(),
                          [](const std::string* x, const std::string* y) {
                            return *x == *y;
                          }),
              table.end());
  const auto rank_all = [&](const std::vector<std::string>& labels) {
    std::vector<std::int32_t> ranks;
    ranks.reserve(labels.size());
    for (const std::string& l : labels)
      ranks.push_back(static_cast<std::int32_t>(
          std::lower_bound(table.begin(), table.end(), &l, less) -
          table.begin()));
    return ranks;
  };
  return {rank_all(a), rank_all(b)};
}

[[noreturn]] void throw_bad_label(const UsageTrace& t) {
  throw Error("UsageTrace '" + t.resource() + "': bad label id");
}

std::int32_t rank_of(const UsageTrace& t, const std::vector<std::int32_t>& ranks,
                     std::int32_t id) {
  if (static_cast<std::uint32_t>(id) >= ranks.size()) throw_bad_label(t);
  return ranks[static_cast<std::uint32_t>(id)];
}

/// Natural runs that canonical_sort merges instead of sorting.
constexpr std::size_t kMaxMergedRuns = 64;

/// Sort \p keys by merging its ascending runs pairwise through one buffer
/// in O(n log runs) when there are at most kMaxMergedRuns of them (the
/// adaptive backend appends each fast-forwarded tail as one sorted run),
/// else with std::sort.
void merge_runs_or_sort(std::vector<CanonicalKey>& keys) {
  std::vector<std::size_t> runs{0};  // run starts, then the end
  for (std::size_t i = 1; i < keys.size() && runs.size() <= kMaxMergedRuns;
       ++i)
    if (canonical_less(keys[i], keys[i - 1])) runs.push_back(i);
  if (runs.size() > kMaxMergedRuns) {
    std::sort(keys.begin(), keys.end(), canonical_less);
    return;
  }
  runs.push_back(keys.size());
  const auto at = [](std::vector<CanonicalKey>& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<CanonicalKey> merged(keys.size());
  while (runs.size() > 2) {
    std::vector<std::size_t> next;
    for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
      next.push_back(runs[r]);
      if (r + 2 < runs.size())
        std::merge(at(keys, runs[r]), at(keys, runs[r + 1]),
                   at(keys, runs[r + 1]), at(keys, runs[r + 2]),
                   at(merged, runs[r]), canonical_less);
      else
        std::copy(at(keys, runs[r]), keys.end(), at(merged, runs[r]));
    }
    next.push_back(keys.size());
    keys.swap(merged);
    runs = std::move(next);
  }
}

/// Sort into canonical order in O(n + inversions) when the input is nearly
/// sorted: insertion sort with a budget of n moves, after which
/// merge_runs_or_sort takes over, so no input costs more than O(n log n).
void canonical_sort(std::vector<CanonicalKey>& keys) {
  std::size_t budget = keys.size();
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (!canonical_less(keys[i], keys[i - 1])) continue;
    const CanonicalKey x = keys[i];
    std::size_t j = i;
    for (; j > 0 && canonical_less(x, keys[j - 1]); --j) {
      if (budget == 0) {
        keys[j] = x;
        merge_runs_or_sort(keys);
        return;
      }
      --budget;
      keys[j] = keys[j - 1];
    }
    keys[j] = x;
  }
}

/// The intervals of \p t as keys, in canonical order.
std::vector<CanonicalKey> canonical_keys(const UsageTrace& t,
                                         const std::vector<std::int32_t>& ranks) {
  if (t.size() > std::numeric_limits<std::uint32_t>::max())
    throw Error("UsageTrace '" + t.resource() + "': too many intervals");
  const TimePoint* starts = t.starts().data();
  const TimePoint* ends = t.ends().data();
  const std::int64_t* ops = t.ops().data();
  const std::int32_t* ids = t.label_ids().data();
  std::vector<CanonicalKey> keys;
  keys.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    keys.push_back({starts[i].count(), ends[i].count(), ops[i],
                    rank_of(t, ranks, ids[i]), static_cast<std::uint32_t>(i)});
  canonical_sort(keys);
  return keys;
}

/// True when \p a and \p b hold the same intervals in the same emission
/// order (then their canonical orders agree too).
bool same_rows(const UsageTrace& a, const UsageTrace& b,
               const LabelRanks& ranks) {
  const TimePoint* as = a.starts().data();
  const TimePoint* bs = b.starts().data();
  const TimePoint* ae = a.ends().data();
  const TimePoint* be = b.ends().data();
  const std::int64_t* ao = a.ops().data();
  const std::int64_t* bo = b.ops().data();
  const std::int32_t* al = a.label_ids().data();
  const std::int32_t* bl = b.label_ids().data();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (as[i] != bs[i] || ae[i] != be[i] || ao[i] != bo[i] ||
        rank_of(a, ranks.a, al[i]) != rank_of(b, ranks.b, bl[i]))
      return false;
  return true;
}

/// compare_usage() for one resource whose traces have equal sizes.
std::optional<std::string> compare_trace(const std::string& name,
                                         const UsageTrace& a,
                                         const UsageTrace& b) {
  const LabelRanks ranks = label_ranks(a.labels(), b.labels());
  if (same_rows(a, b, ranks)) return std::nullopt;
  const std::vector<CanonicalKey> ka = canonical_keys(a, ranks.a);
  const std::vector<CanonicalKey> kb = canonical_keys(b, ranks.b);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (same_key(ka[i], kb[i])) continue;
    const std::size_t ra = ka[i].row;
    const std::size_t rb = kb[i].row;
    return format(
        "resource '%s': interval %zu differs: [%s,%s) ops=%lld '%s' vs "
        "[%s,%s) ops=%lld '%s'",
        name.c_str(), i, a.starts()[ra].to_string().c_str(),
        a.ends()[ra].to_string().c_str(), static_cast<long long>(a.ops()[ra]),
        a.label(a.label_ids()[ra]).c_str(), b.starts()[rb].to_string().c_str(),
        b.ends()[rb].to_string().c_str(), static_cast<long long>(b.ops()[rb]),
        b.label(b.label_ids()[rb]).c_str());
  }
  return std::nullopt;
}

}  // namespace

void UsageTrace::sort() {
  const std::vector<CanonicalKey> keys =
      canonical_keys(*this, label_ranks(labels_, {}).a);
  const auto apply = [&keys](auto& column) {
    auto sorted = column;
    for (std::size_t i = 0; i < keys.size(); ++i)
      sorted[i] = column[keys[i].row];
    column = std::move(sorted);
  };
  apply(starts_);
  apply(ends_);
  apply(ops_);
  apply(label_ids_);
  view_valid_ = false;
}

UsageTrace& UsageTraceSet::trace(const std::string& resource) {
  auto it = set_.find(resource);
  if (it == set_.end()) it = set_.emplace(resource, UsageTrace{resource}).first;
  return it->second;
}

const UsageTrace* UsageTraceSet::find(const std::string& resource) const {
  auto it = set_.find(resource);
  return it == set_.end() ? nullptr : &it->second;
}

void UsageTraceSet::sort_all() {
  for (auto& [_, t] : set_) t.sort();
}

std::optional<std::string> compare_usage(const UsageTraceSet& ref,
                                         const UsageTraceSet& other) {
  for (const auto& [name, a] : ref.all()) {
    const UsageTrace* b = other.find(name);
    if (b == nullptr) return "resource '" + name + "' missing in other trace";
    if (a.size() != b->size())
      return format("resource '%s': %zu vs %zu intervals", name.c_str(),
                    a.size(), b->size());
    if (std::optional<std::string> diff = compare_trace(name, a, *b))
      return diff;
  }
  return std::nullopt;
}

}  // namespace maxev::trace
