#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "trace/vcd.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace maxev::trace {
namespace {

using namespace maxev::literals;

TimePoint at(std::int64_t ps) { return TimePoint::at_ps(ps); }

TEST(InstantSeriesTest, PushAndAccess) {
  InstantSeries s("M1");
  s.push(at(10));
  s.push(at(20));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(1), at(20));
  EXPECT_THROW((void)s.at(2), Error);
  EXPECT_TRUE(s.is_monotone());
}

TEST(InstantSeriesTest, MonotoneDetectsRegression) {
  InstantSeries s("M1");
  s.push(at(10));
  s.push(at(5));
  EXPECT_FALSE(s.is_monotone());
}

TEST(InstantTraceSetTest, CompareIdentical) {
  InstantTraceSet a, b;
  a.series("M1").push(at(1));
  a.series("M2").push(at(2));
  b.series("M1").push(at(1));
  b.series("M2").push(at(2));
  EXPECT_EQ(compare_instants(a, b), std::nullopt);
  EXPECT_EQ(a.total_instants(), 2u);
}

TEST(InstantTraceSetTest, CompareFindsMissingSeries) {
  InstantTraceSet a, b;
  a.series("M1").push(at(1));
  const auto diff = compare_instants(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("missing"), std::string::npos);
}

TEST(InstantTraceSetTest, CompareFindsLengthMismatch) {
  InstantTraceSet a, b;
  a.series("M1").push(at(1));
  a.series("M1").push(at(2));
  b.series("M1").push(at(1));
  const auto diff = compare_instants(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("length"), std::string::npos);
}

TEST(InstantTraceSetTest, CompareFindsValueMismatchWithIndex) {
  InstantTraceSet a, b;
  a.series("M1").push(at(1));
  a.series("M1").push(at(2));
  b.series("M1").push(at(1));
  b.series("M1").push(at(3));
  const auto diff = compare_instants(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("k=1"), std::string::npos);
}

TEST(UsageTraceTest, BusyTimeAndOps) {
  UsageTrace t("P1");
  t.add({at(0), at(1000), 50, "F1.e0"});
  t.add({at(2000), at(3000), 70, "F1.e1"});
  EXPECT_EQ(t.busy_time(), Duration::ps(2000));
  EXPECT_EQ(t.total_ops(), 120);
  EXPECT_EQ(t.span_end(), at(3000));
  EXPECT_DOUBLE_EQ(t.utilization(at(4000)), 0.5);
}

TEST(UsageTraceTest, RejectsNegativeInterval) {
  UsageTrace t("P1");
  EXPECT_THROW(t.add({at(10), at(5), 1, "x"}), Error);
}

TEST(UsageTraceTest, RateProfileStepsUpAndDown) {
  UsageTrace t("P1");
  // 1000 ops over 1000 ps = 1 op/ps = 1000 GOPS.
  t.add({at(0), at(1000), 1000, "a"});
  t.add({at(500), at(1500), 500, "b"});  // 0.5 op/ps = 500 GOPS
  const auto profile = t.rate_profile();
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_DOUBLE_EQ(profile[0].gops, 1000.0);
  EXPECT_DOUBLE_EQ(profile[1].gops, 1500.0);  // overlap
  EXPECT_DOUBLE_EQ(profile[2].gops, 500.0);
  EXPECT_DOUBLE_EQ(profile[3].gops, 0.0);
}

TEST(UsageTraceTest, ZeroLengthIntervalsAddNoRate) {
  UsageTrace t("P1");
  t.add({at(5), at(5), 100, "x"});
  EXPECT_TRUE(t.rate_profile().empty());
}

TEST(UsageTraceTest, WindowedRateApportionsAcrossBins) {
  UsageTrace t("P1");
  // 2000 ops uniformly over [500, 2500): density 1 op/ps.
  t.add({at(500), at(2500), 2000, "x"});
  const auto w = t.windowed_rate(Duration::ps(1000));
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0].gops, 500.0);   // 500 ops in bin 0
  EXPECT_DOUBLE_EQ(w[1].gops, 1000.0);  // full bin
  EXPECT_DOUBLE_EQ(w[2].gops, 500.0);
}

TEST(UsageTraceTest, WindowedRateRejectsBadBin) {
  UsageTrace t("P1");
  EXPECT_THROW(t.windowed_rate(Duration::ps(0)), Error);
}

TEST(UsageTraceTest, ColumnarPushMatchesRowAdd) {
  // The interned fast path and the compatibility add() must be one store.
  UsageTrace t("P1");
  const std::int32_t e0 = t.intern_label("F.e0");
  EXPECT_EQ(t.intern_label("F.e0"), e0);  // idempotent
  t.push(at(0), at(10), 5, e0);
  t.add({at(20), at(30), 7, "F.e1"});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.label(t.label_ids()[0]), "F.e0");
  EXPECT_EQ(t.intervals()[0], (BusyInterval{at(0), at(10), 5, "F.e0"}));
  EXPECT_EQ(t.intervals()[1], (BusyInterval{at(20), at(30), 7, "F.e1"}));
  EXPECT_EQ(t.starts()[1], at(20));
  EXPECT_EQ(t.ops()[1], 7);
}

TEST(UsageTraceTest, MaterializedViewTracksMutation) {
  UsageTrace t("P1");
  t.add({at(0), at(10), 1, "a"});
  EXPECT_EQ(t.intervals().size(), 1u);  // materialize once
  t.add({at(5), at(6), 2, "b"});
  EXPECT_EQ(t.intervals().size(), 2u);  // invalidated by the append
  t.sort();
  EXPECT_EQ(t.intervals()[0].label, "a");  // re-materialized after sort
  EXPECT_EQ(t.intervals()[1].label, "b");
}

TEST(UsageTraceTest, PushRejectsNegativeInterval) {
  UsageTrace t("P1");
  const std::int32_t id = t.intern_label("x");
  EXPECT_THROW(t.push(at(10), at(5), 1, id), Error);
}

TEST(UsageTraceTest, CompareMatchesAcrossDifferentInternOrders) {
  // Label ids are per-trace; equality must hold by label *string*.
  UsageTraceSet a, b;
  a.trace("P1").add({at(0), at(10), 1, "x"});
  a.trace("P1").add({at(20), at(30), 2, "y"});
  b.trace("P1").intern_label("y");  // reverse intern order
  b.trace("P1").add({at(0), at(10), 1, "x"});
  b.trace("P1").add({at(20), at(30), 2, "y"});
  EXPECT_EQ(compare_usage(a, b), std::nullopt);
}

TEST(UsageTraceSetTest, CompareAfterSortIgnoresEmissionOrder) {
  UsageTraceSet a, b;
  a.trace("P1").add({at(0), at(10), 1, "x"});
  a.trace("P1").add({at(20), at(30), 2, "y"});
  b.trace("P1").add({at(20), at(30), 2, "y"});
  b.trace("P1").add({at(0), at(10), 1, "x"});
  a.sort_all();
  b.sort_all();
  EXPECT_EQ(compare_usage(a, b), std::nullopt);
}

TEST(UsageTraceSetTest, CompareFindsOpsMismatch) {
  UsageTraceSet a, b;
  a.trace("P1").add({at(0), at(10), 1, "x"});
  b.trace("P1").add({at(0), at(10), 2, "x"});
  const auto diff = compare_usage(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("interval 0 differs"), std::string::npos);
}

TEST(UsageTraceSetTest, CompareFindsMissingResource) {
  UsageTraceSet a, b;
  a.trace("P1").add({at(0), at(10), 1, "x"});
  const auto diff = compare_usage(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("missing"), std::string::npos);
}

// ------------------------------------- canonical order: differential pin

/// The sorted comparison compare_usage() must reproduce exactly: copy each
/// trace, index-sort it by (start, end, label string, ops), compare the
/// rows elementwise.
struct RefRow {
  TimePoint start;
  TimePoint end;
  std::int64_t ops = 0;
  std::string label;
  std::int32_t label_id = 0;
};

std::vector<RefRow> reference_sorted(const UsageTrace& t) {
  std::vector<std::size_t> perm(t.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  const auto key = [&t](std::size_t i) {
    return std::tie(t.starts()[i], t.ends()[i], t.label(t.label_ids()[i]),
                    t.ops()[i]);
  };
  std::sort(perm.begin(), perm.end(),
            [&key](std::size_t a, std::size_t b) { return key(a) < key(b); });
  std::vector<RefRow> rows;
  for (const std::size_t i : perm)
    rows.push_back({t.starts()[i], t.ends()[i], t.ops()[i],
                    t.label(t.label_ids()[i]), t.label_ids()[i]});
  return rows;
}

std::optional<std::string> reference_compare(const UsageTraceSet& ref,
                                             const UsageTraceSet& other) {
  for (const auto& [name, a] : ref.all()) {
    const UsageTrace* b = other.find(name);
    if (b == nullptr) return "resource '" + name + "' missing in other trace";
    if (a.size() != b->size())
      return format("resource '%s': %zu vs %zu intervals", name.c_str(),
                    a.size(), b->size());
    const std::vector<RefRow> ra = reference_sorted(a);
    const std::vector<RefRow> rb = reference_sorted(*b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      const RefRow& x = ra[i];
      const RefRow& y = rb[i];
      if (x.start != y.start || x.end != y.end || x.ops != y.ops ||
          x.label != y.label)
        return format(
            "resource '%s': interval %zu differs: [%s,%s) ops=%lld '%s' vs "
            "[%s,%s) ops=%lld '%s'",
            name.c_str(), i, x.start.to_string().c_str(),
            x.end.to_string().c_str(), static_cast<long long>(x.ops),
            x.label.c_str(), y.start.to_string().c_str(),
            y.end.to_string().c_str(), static_cast<long long>(y.ops),
            y.label.c_str());
    }
  }
  return std::nullopt;
}

/// Seeded trace pairs covering what the canonical order must get right:
/// duplicates, zero-length intervals, equal starts with different ends,
/// per-trace intern orders, one-sided labels, single-field mutations and
/// sorted, near-sorted, shuffled, reversed and run-interleaved emission.
class TracePairGen {
 public:
  explicit TracePairGen(std::uint64_t seed) : rng_(seed) {}

  std::pair<UsageTraceSet, UsageTraceSet> next() {
    UsageTraceSet a, b;
    const int resources = pick(1, 3);
    for (int r = 0; r < resources; ++r) {
      const std::string name = "P" + std::to_string(r);
      std::vector<BusyInterval> rows = canonical_rows();
      std::vector<BusyInterval> other = rows;
      mutate(other);
      emit(a.trace(name), std::move(rows));
      // Occasionally the resource exists on one side only.
      if (pick(0, 39) != 0) emit(b.trace(name), std::move(other));
      if (pick(0, 39) == 0) b.trace("extra").add({at(1), at(2), 1, "x"});
    }
    return {std::move(a), std::move(b)};
  }

  /// A fresh trace in some emission order (for the sort() pin).
  UsageTrace single() {
    UsageTrace t("P");
    emit(t, canonical_rows());
    return t;
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::vector<BusyInterval> canonical_rows() {
    // Mostly short traces; some long enough that shuffled, reversed and
    // interleaved orders run far past the insertion budget.
    const int n = pick(0, 19) == 0 ? pick(40, 150) : pick(0, 24);
    std::vector<BusyInterval> rows;
    std::int64_t start = 10;
    for (int i = 0; i < n; ++i) {
      if (!rows.empty() && pick(0, 5) == 0) {
        rows.push_back(rows[static_cast<std::size_t>(
            pick(0, static_cast<int>(rows.size()) - 1))]);  // duplicate
        continue;
      }
      start += pick(0, 2) * 10;  // 0: equal starts
      const std::int64_t len = pick(0, 3) * 5;  // 0: zero-length
      rows.push_back({at(start), at(start + len), pick(0, 3),
                      kLabels[static_cast<std::size_t>(pick(0, 4))]});
    }
    return rows;
  }

  void mutate(std::vector<BusyInterval>& rows) {
    const int what = pick(0, 9);
    if (rows.empty() || what >= 6) return;  // most pairs stay equal
    BusyInterval& row =
        rows[static_cast<std::size_t>(pick(0, static_cast<int>(rows.size()) - 1))];
    switch (what) {
      case 0: row.start = row.start - Duration::ps(pick(1, 10)); break;
      case 1: row.end = row.end + Duration::ps(pick(1, 10)); break;
      case 2: row.ops += pick(0, 1) == 0 ? -1 : 1; break;
      case 3: row.label = kLabels[static_cast<std::size_t>(pick(0, 4))]; break;
      case 4: row.label = "only.b"; break;  // a label the other side lacks
      default: rows.pop_back(); break;      // a size mismatch
    }
  }

  void emit(UsageTrace& t, std::vector<BusyInterval> rows) {
    // Per-trace intern order, including labels no interval uses.
    std::vector<std::string> interned(std::begin(kLabels), std::end(kLabels));
    std::shuffle(interned.begin(), interned.end(), rng_);
    interned.resize(static_cast<std::size_t>(pick(0, 5)));
    for (const std::string& l : interned) (void)t.intern_label(l);
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return std::tie(x.start, x.end, x.label, x.ops) <
             std::tie(y.start, y.end, y.label, y.ops);
    });
    switch (pick(0, 4)) {
      case 0: break;  // sorted
      case 1:         // near-sorted: a few adjacent swaps
        for (int k = pick(1, 3); k > 0 && rows.size() > 1; --k) {
          const auto i = static_cast<std::size_t>(
              pick(1, static_cast<int>(rows.size()) - 1));
          std::swap(rows[i - 1], rows[i]);
        }
        break;
      case 2: std::shuffle(rows.begin(), rows.end(), rng_); break;
      case 3: std::reverse(rows.begin(), rows.end()); break;
      default:  // sorted runs, one per label, emitted one after another
        std::stable_sort(rows.begin(), rows.end(),
                         [](const auto& x, const auto& y) {
                           return x.label < y.label;
                         });
        break;
    }
    for (BusyInterval& row : rows) t.add(std::move(row));
  }

  static inline const std::string kLabels[] = {"F.e0", "F.e1", "a", "b",
                                               "z"};
  std::mt19937_64 rng_;
};

TEST(UsageTraceSetTest, CompareMatchesTheSortedReferenceOnSeededPairs) {
  TracePairGen gen(20260101);
  int mismatches = 0;
  for (int pair = 0; pair < 10000; ++pair) {
    const auto [a, b] = gen.next();
    const std::optional<std::string> want = reference_compare(a, b);
    ASSERT_EQ(compare_usage(a, b), want) << "pair " << pair;
    ASSERT_EQ(compare_usage(b, a), reference_compare(b, a)) << "pair " << pair;
    mismatches += want.has_value() ? 1 : 0;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(mismatches, 1000);
  EXPECT_LT(mismatches, 9000);
}

TEST(UsageTraceTest, SortMatchesTheSortedReferenceOnSeededTraces) {
  TracePairGen gen(20260102);
  for (int trace = 0; trace < 10000; ++trace) {
    UsageTrace t = gen.single();
    const std::vector<RefRow> want = reference_sorted(t);
    t.sort();
    ASSERT_EQ(t.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(t.starts()[i], want[i].start) << "trace " << trace;
      ASSERT_EQ(t.ends()[i], want[i].end) << "trace " << trace;
      ASSERT_EQ(t.ops()[i], want[i].ops) << "trace " << trace;
      ASSERT_EQ(t.label_ids()[i], want[i].label_id) << "trace " << trace;
    }
  }
}

// A trace emitted as sorted runs, the shape of an adaptive run whose
// fast-forward appends each extrapolated tail as one run: up to 64 runs are
// merged, more are sorted, and both give the reference order.
TEST(UsageTraceTest, SortMergesSortedRunsOnEitherSideOfTheMergeLimit) {
  std::mt19937_64 rng(21);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (const int runs : {1, 2, 7, 63, 64, 65, 200}) {
    UsageTrace t("P");
    for (int r = 0; r < runs; ++r) {
      std::int64_t start = 0;  // below the previous run's end
      for (int i = 0; i < 4000 / runs; ++i) {
        start += pick(1, 4);
        t.add({at(start), at(start + pick(0, 9)), pick(0, 3),
               r % 2 == 0 ? "a" : "b"});
      }
    }
    const std::vector<RefRow> want = reference_sorted(t);
    t.sort();
    ASSERT_EQ(t.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(t.starts()[i], want[i].start) << runs << " runs";
      ASSERT_EQ(t.ends()[i], want[i].end) << runs << " runs";
      ASSERT_EQ(t.ops()[i], want[i].ops) << runs << " runs";
      ASSERT_EQ(t.label(t.label_ids()[i]), want[i].label) << runs << " runs";
    }
  }
}

TEST(UsageTraceSetTest, CompareIgnoresEmissionOrderWithoutSorting) {
  UsageTraceSet a, b;
  a.trace("P1").add({at(0), at(10), 1, "x"});
  a.trace("P1").add({at(20), at(30), 2, "y"});
  b.trace("P1").add({at(20), at(30), 2, "y"});
  b.trace("P1").add({at(0), at(10), 1, "x"});
  EXPECT_EQ(compare_usage(a, b), std::nullopt);
  b.trace("P1").add({at(40), at(40), 0, "x"});
  a.trace("P1").add({at(40), at(41), 0, "x"});
  // The index counts the canonical order, not either emission order.
  const auto diff = compare_usage(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("interval 2 differs"), std::string::npos) << *diff;
}

TEST(VcdTest, RendersHeaderAndChanges) {
  VcdWriter vcd("testmod");
  const int busy = vcd.add_wire("p1_busy");
  const int gops = vcd.add_real("p1_gops");
  vcd.change_bit(busy, at(100), true);
  vcd.change_real(gops, at(100), 2.5);
  vcd.change_bit(busy, at(300), false);
  const std::string out = vcd.render();
  EXPECT_NE(out.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module testmod $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! p1_busy $end"), std::string::npos);
  EXPECT_NE(out.find("$var real 64 \" p1_gops $end"), std::string::npos);
  EXPECT_NE(out.find("#100\n1!\nr2.5 \"\n"), std::string::npos);
  EXPECT_NE(out.find("#300\n0!"), std::string::npos);
}

TEST(VcdTest, ChangesSortedByTime) {
  VcdWriter vcd;
  const int w = vcd.add_wire("w");
  vcd.change_bit(w, at(200), false);
  vcd.change_bit(w, at(100), true);
  const std::string out = vcd.render();
  EXPECT_LT(out.find("#100"), out.find("#200"));
}

TEST(VcdTest, CodesAreUniqueForManySignals) {
  VcdWriter vcd;
  for (int i = 0; i < 200; ++i) vcd.add_wire("w" + std::to_string(i));
  const std::string out = vcd.render();
  // Signal 94 wraps to a two-character code.
  EXPECT_NE(out.find("$var wire 1 !\" w94 $end"), std::string::npos);
}

}  // namespace
}  // namespace maxev::trace
