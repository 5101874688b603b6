#include "trace/usage.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

void UsageTrace::sort() {
  std::vector<std::size_t> perm(size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [this](std::size_t a, std::size_t b) {
    if (starts_[a] != starts_[b]) return starts_[a] < starts_[b];
    if (ends_[a] != ends_[b]) return ends_[a] < ends_[b];
    const std::string& la = labels_[static_cast<std::size_t>(label_ids_[a])];
    const std::string& lb = labels_[static_cast<std::size_t>(label_ids_[b])];
    if (la != lb) return la < lb;
    return ops_[a] < ops_[b];
  });
  const auto apply = [&perm](auto& column) {
    auto sorted = column;
    for (std::size_t i = 0; i < perm.size(); ++i) sorted[i] = column[perm[i]];
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
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Columnar comparison; labels compare by string (intern ids are
      // per-trace and need not align).
      const std::string& la = a.label(a.label_ids()[i]);
      const std::string& lb = b->label(b->label_ids()[i]);
      if (a.starts()[i] != b->starts()[i] || a.ends()[i] != b->ends()[i] ||
          a.ops()[i] != b->ops()[i] || la != lb) {
        return format(
            "resource '%s': interval %zu differs: [%s,%s) ops=%lld '%s' vs "
            "[%s,%s) ops=%lld '%s'",
            name.c_str(), i, a.starts()[i].to_string().c_str(),
            a.ends()[i].to_string().c_str(),
            static_cast<long long>(a.ops()[i]), la.c_str(),
            b->starts()[i].to_string().c_str(),
            b->ends()[i].to_string().c_str(),
            static_cast<long long>(b->ops()[i]), lb.c_str());
      }
    }
  }
  return std::nullopt;
}

}  // namespace maxev::trace
