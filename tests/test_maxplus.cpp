#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "maxplus/cycle_ratio.hpp"
#include "maxplus/linear_system.hpp"
#include "maxplus/matrix.hpp"
#include "maxplus/scalar.hpp"
#include "maxplus/vector.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace maxev::mp {
namespace {

TEST(ScalarTest, DefaultIsEps) {
  Scalar s;
  EXPECT_TRUE(s.is_eps());
  EXPECT_FALSE(s.is_finite());
}

TEST(ScalarTest, IdentityElements) {
  const Scalar a = Scalar::of(42);
  // eps is the ⊕-identity.
  EXPECT_EQ(a + Scalar::eps(), a);
  EXPECT_EQ(Scalar::eps() + a, a);
  // e is the ⊗-identity.
  EXPECT_EQ(a * Scalar::e(), a);
  EXPECT_EQ(Scalar::e() * a, a);
  // eps is ⊗-absorbing.
  EXPECT_TRUE((a * Scalar::eps()).is_eps());
  EXPECT_TRUE((Scalar::eps() * a).is_eps());
}

TEST(ScalarTest, OplusIsMax) {
  EXPECT_EQ(Scalar::of(3) + Scalar::of(7), Scalar::of(7));
  EXPECT_EQ(Scalar::of(-3) + Scalar::of(-7), Scalar::of(-3));
}

TEST(ScalarTest, OtimesIsPlus) {
  EXPECT_EQ(Scalar::of(3) * Scalar::of(7), Scalar::of(10));
  EXPECT_EQ(Scalar::of(3) * Scalar::of(-7), Scalar::of(-4));
}

TEST(ScalarTest, OrderingWithEps) {
  EXPECT_LT(Scalar::eps(), Scalar::of(INT64_MIN + 1));
  EXPECT_LT(Scalar::of(1), Scalar::of(2));
  EXPECT_EQ(Scalar::eps() <=> Scalar::eps(), std::strong_ordering::equal);
}

TEST(ScalarTest, OverflowThrows) {
  EXPECT_THROW(Scalar::of(INT64_MAX) * Scalar::of(1), OverflowError);
  EXPECT_NO_THROW(Scalar::of(INT64_MAX) * Scalar::e());
}

TEST(ScalarTest, ValueOnEpsThrows) {
  EXPECT_THROW((void)Scalar::eps().value(), Error);
}

TEST(ScalarTest, TimeRoundTrip) {
  const TimePoint t = TimePoint::at_ps(123456);
  EXPECT_EQ(Scalar::from_time(t).to_time(), t);
  EXPECT_EQ(Scalar::from_duration(Duration::ns(2)).value(), 2000);
}

TEST(ScalarTest, ToString) {
  EXPECT_EQ(Scalar::eps().to_string(), "eps");
  EXPECT_EQ(Scalar::of(5).to_string(), "5");
}

// Semiring laws checked over a deterministic random sample.
class ScalarLawsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarLawsTest, SemiringLaws) {
  Rng rng(GetParam());
  auto draw = [&rng]() {
    if (rng.chance(0.15)) return Scalar::eps();
    return Scalar::of(rng.uniform_i64(-1'000'000, 1'000'000));
  };
  for (int i = 0; i < 50; ++i) {
    const Scalar a = draw(), b = draw(), c = draw();
    // ⊕ commutative, associative, idempotent.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + a, a);
    // ⊗ commutative (this semiring), associative.
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    // Distributivity of ⊗ over ⊕.
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarLawsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(VectorTest, Construction) {
  Vector v(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v[0].is_eps());
  const Vector w = Vector::of({1, 2, 3});
  EXPECT_EQ(w[2], Scalar::of(3));
}

TEST(VectorTest, OplusAndScale) {
  const Vector a = Vector::of({1, 5});
  const Vector b = Vector::of({3, 2});
  const Vector s = a + b;
  EXPECT_EQ(s[0], Scalar::of(3));
  EXPECT_EQ(s[1], Scalar::of(5));
  const Vector t = Scalar::of(10) * a;
  EXPECT_EQ(t[0], Scalar::of(11));
  EXPECT_EQ(t[1], Scalar::of(15));
}

TEST(VectorTest, SizeMismatchThrows) {
  EXPECT_THROW(Vector::of({1}) + Vector::of({1, 2}), Error);
  EXPECT_THROW((void)Vector(2).at(5), Error);
}

TEST(VectorTest, MaxEntry) {
  EXPECT_EQ(Vector::of({3, 9, 1}).max_entry(), Scalar::of(9));
  EXPECT_TRUE(Vector(2).max_entry().is_eps());
}

TEST(MatrixTest, IdentityIsOtimesNeutral) {
  const Matrix a = Matrix::of({{1, 2}, {INT64_MIN, 4}});
  const Matrix i = Matrix::identity(2);
  EXPECT_EQ(a * i, a);
  EXPECT_EQ(i * a, a);
}

TEST(MatrixTest, KnownProduct) {
  // ((1,eps),(2,3)) ⊗ ((0,4),(1,eps)):
  const Matrix a = Matrix::of({{1, INT64_MIN}, {2, 3}});
  const Matrix b = Matrix::of({{0, 4}, {1, INT64_MIN}});
  const Matrix p = a * b;
  EXPECT_EQ(p.at(0, 0), Scalar::of(1));   // 1⊗0
  EXPECT_EQ(p.at(0, 1), Scalar::of(5));   // 1⊗4
  EXPECT_EQ(p.at(1, 0), Scalar::of(4));   // max(2⊗0, 3⊗1)
  EXPECT_EQ(p.at(1, 1), Scalar::of(6));   // 2⊗4
}

TEST(MatrixTest, MatrixVectorProduct) {
  const Matrix a = Matrix::of({{0, 2}, {INT64_MIN, 1}});
  const Vector x = Vector::of({5, 3});
  const Vector y = a * x;
  EXPECT_EQ(y[0], Scalar::of(5));  // max(0+5, 2+3)
  EXPECT_EQ(y[1], Scalar::of(4));
}

TEST(MatrixTest, PowAndZero) {
  const Matrix a = Matrix::of({{INT64_MIN, 1}, {INT64_MIN, INT64_MIN}});
  EXPECT_EQ(a.pow(0), Matrix::identity(2));
  EXPECT_EQ(a.pow(1), a);
  EXPECT_TRUE(a.pow(2).is_zero());  // nilpotent
  EXPECT_TRUE(Matrix::zero(2, 2).is_zero());
}

TEST(MatrixTest, ShapeErrors) {
  EXPECT_THROW(Matrix::of({{1}, {2}}) * Matrix::of({{1}, {2}}), Error);
  EXPECT_THROW(Matrix(2, 2) + Matrix(2, 3), Error);
  EXPECT_THROW(Matrix(2, 3).pow(2), Error);
  EXPECT_THROW((void)Matrix(2, 2).at(2, 0), Error);
}

TEST(KleeneStarTest, NilpotentStar) {
  // Acyclic chain: star accumulates path weights.
  const Matrix a =
      Matrix::of({{INT64_MIN, INT64_MIN}, {5, INT64_MIN}});  // arc 0 -> 1 (w=5)
  const Matrix s = kleene_star(a);
  EXPECT_EQ(s.at(0, 0), Scalar::e());
  EXPECT_EQ(s.at(1, 0), Scalar::of(5));
  EXPECT_EQ(s.at(1, 1), Scalar::e());
  EXPECT_TRUE(s.at(0, 1).is_eps());
}

TEST(KleeneStarTest, PositiveCycleThrows) {
  const Matrix a = Matrix::of({{1}});  // self-loop weight 1
  EXPECT_THROW(kleene_star(a), DescriptionError);
}

TEST(KleeneStarTest, ZeroCycleConverges) {
  const Matrix a = Matrix::of({{0}});  // self-loop weight 0
  const Matrix s = kleene_star(a);
  EXPECT_EQ(s.at(0, 0), Scalar::e());
}

TEST(KleeneStarTest, SolveImplicit) {
  // x0 = b0; x1 = x0 ⊗ 5 ⊕ b1.
  const Matrix a = Matrix::of({{INT64_MIN, INT64_MIN}, {5, INT64_MIN}});
  const Vector b = Vector::of({10, 2});
  const Vector x = solve_implicit(a, b);
  EXPECT_EQ(x[0], Scalar::of(10));
  EXPECT_EQ(x[1], Scalar::of(15));
}

TEST(LinearSystemTest, SimpleRecurrence) {
  // x(k) = x(k-1) ⊗ 3 ⊕ u(k); y = x. Pre-history ε.
  LinearSystem sys(1, 1, 1);
  sys.set_a_const(1, Matrix::of({{3}}));
  sys.set_b_const(0, Matrix::identity(1));
  sys.set_c_const(0, Matrix::identity(1));
  auto s0 = sys.step(Vector::of({0}));
  EXPECT_EQ(s0.y[0], Scalar::of(0));
  auto s1 = sys.step(Vector::of({1}));
  EXPECT_EQ(s1.y[0], Scalar::of(3));  // max(0+3, 1)
  auto s2 = sys.step(Vector::of({100}));
  EXPECT_EQ(s2.y[0], Scalar::of(100));
}

TEST(LinearSystemTest, ImplicitZeroLagResolved) {
  // x0 = u; x1 = x0 ⊗ 2 (within the same k).
  LinearSystem sys(2, 1, 1);
  Matrix a0(2, 2);
  a0.at(1, 0) = Scalar::of(2);
  sys.set_a_const(0, a0);
  Matrix b(2, 1);
  b.at(0, 0) = Scalar::e();
  sys.set_b_const(0, b);
  Matrix c(1, 2);
  c.at(0, 1) = Scalar::e();
  sys.set_c_const(0, c);
  auto s = sys.step(Vector::of({7}));
  EXPECT_EQ(s.x[0], Scalar::of(7));
  EXPECT_EQ(s.x[1], Scalar::of(9));
  EXPECT_EQ(s.y[0], Scalar::of(9));
}

TEST(LinearSystemTest, PrehistoryOption) {
  // x(k) = x(k-1) ⊗ 3: with pre-history e, x(0) = 3; with ε, x(0) = ε.
  LinearSystem sys(1, 1, 1);
  sys.set_a_const(1, Matrix::of({{3}}));
  sys.set_c_const(0, Matrix::identity(1));
  sys.set_prehistory(Scalar::e());
  auto s = sys.step(Vector(1));
  EXPECT_EQ(s.x[0], Scalar::of(3));

  sys.reset();
  sys.set_prehistory(Scalar::eps());
  auto s2 = sys.step(Vector(1));
  EXPECT_TRUE(s2.x[0].is_eps());
}

TEST(LinearSystemTest, KVaryingMatrices) {
  // x(k) = u(k) ⊗ k.
  LinearSystem sys(1, 1, 1);
  sys.set_b(0, [](std::uint64_t k) {
    return Matrix::of({{static_cast<std::int64_t>(k)}});
  });
  sys.set_c_const(0, Matrix::identity(1));
  EXPECT_EQ(sys.step(Vector::of({10})).y[0], Scalar::of(10));
  EXPECT_EQ(sys.step(Vector::of({10})).y[0], Scalar::of(11));
  EXPECT_EQ(sys.iteration(), 2u);
}

TEST(LinearSystemTest, InputDimensionChecked) {
  LinearSystem sys(1, 2, 1);
  EXPECT_THROW(sys.step(Vector::of({1})), Error);
}

TEST(CycleRatioTest, FeedForwardHasNoCycle) {
  std::vector<RatioArc> arcs = {{0, 1, 5.0, 0}, {1, 2, 3.0, 0}};
  const auto r = max_cycle_ratio(3, arcs);
  EXPECT_FALSE(r.has_cycle);
  EXPECT_DOUBLE_EQ(r.max_ratio, 0.0);
}

TEST(CycleRatioTest, SimpleLoop) {
  // Cycle of total weight 10 with total lag 1 => ratio 10.
  std::vector<RatioArc> arcs = {{0, 1, 6.0, 0}, {1, 0, 4.0, 1}};
  const auto r = max_cycle_ratio(2, arcs);
  EXPECT_TRUE(r.has_cycle);
  EXPECT_NEAR(r.max_ratio, 10.0, 1e-2);
}

TEST(CycleRatioTest, PicksMaximumCycle) {
  std::vector<RatioArc> arcs = {
      {0, 0, 4.0, 1},           // ratio 4
      {0, 1, 9.0, 0}, {1, 0, 9.0, 2},  // ratio 18/2 = 9
  };
  const auto r = max_cycle_ratio(2, arcs);
  EXPECT_NEAR(r.max_ratio, 9.0, 1e-2);
}

TEST(CycleRatioTest, LagTwoCycleHalvesRatio) {
  std::vector<RatioArc> arcs = {{0, 0, 10.0, 2}};
  const auto r = max_cycle_ratio(1, arcs);
  EXPECT_NEAR(r.max_ratio, 5.0, 1e-2);
}

TEST(CycleRatioTest, ZeroLagPositiveCycleThrows) {
  std::vector<RatioArc> arcs = {{0, 1, 1.0, 0}, {1, 0, 1.0, 0}};
  EXPECT_THROW((void)max_cycle_ratio(2, arcs), DescriptionError);
}

TEST(CycleRatioTest, BadEndpointThrows) {
  std::vector<RatioArc> arcs = {{0, 5, 1.0, 0}};
  EXPECT_THROW((void)max_cycle_ratio(2, arcs), Error);
}

TEST(CycleRatioTest, EndpointsValidatedBeforeTheEmptyGraphReturn) {
  // No node at all: the arc's endpoints are out of range, which must not be
  // hidden by the empty-graph early return.
  EXPECT_THROW((void)max_cycle_ratio(0, {{0, 0, 1.0, 1}}), Error);
  EXPECT_FALSE(max_cycle_ratio(0, {}).has_cycle);
}

TEST(CycleRatioTest, NonFiniteWeightThrows) {
  EXPECT_THROW((void)max_cycle_ratio(1, {{0, 0, std::nan(""), 1}}), Error);
  EXPECT_THROW(
      (void)max_cycle_ratio(
          1, {{0, 0, std::numeric_limits<double>::infinity(), 1}}),
      Error);
}

// ------------------------------------------------- exact values (no tolerance)

TEST(CycleRatioTest, ExactValues) {
  // One lagged loop: W/L exactly.
  EXPECT_DOUBLE_EQ(max_cycle_ratio(2, {{0, 1, 6.0, 0}, {1, 0, 4.0, 1}})
                       .max_ratio,
                   10.0);
  // Negative weights on a lag-2 cycle: (10 - 3) / 2.
  EXPECT_DOUBLE_EQ(max_cycle_ratio(2, {{0, 1, -3.0, 1}, {1, 0, 10.0, 1}})
                       .max_ratio,
                   3.5);
  // Two components; the second (15/2) dominates the first (3/1), and the
  // arc joining them lies on no cycle.
  const auto two = max_cycle_ratio(
      5, {{0, 0, 3.0, 1}, {0, 1, 100.0, 0}, {1, 2, 5.0, 0},
          {2, 3, 4.0, 1}, {3, 1, 6.0, 1}, {3, 4, 50.0, 0}});
  EXPECT_TRUE(two.has_cycle);
  EXPECT_DOUBLE_EQ(two.max_ratio, 7.5);
  // Parallel arcs: the heavier of two lag-1 self-loops wins; a lag-3 one
  // with more weight still has a lower ratio (20/3 < 7).
  EXPECT_DOUBLE_EQ(
      max_cycle_ratio(1, {{0, 0, 5.0, 1}, {0, 0, 7.0, 1}, {0, 0, 20.0, 3}})
          .max_ratio,
      7.0);
  // A zero-lag cycle of weight 0 next to a lagged one is harmless.
  EXPECT_DOUBLE_EQ(
      max_cycle_ratio(3, {{0, 1, 2.0, 0}, {1, 0, -2.0, 0}, {1, 2, 1.25, 0},
                          {2, 0, 0.5, 2}})
          .max_ratio,
      1.875);  // (2 + 1.25 + 0.5) / 2
  // The critical cycle is not the one the initial policy picks: node 0
  // starts on its first lagged arc (ratio 1), the optimum is 0 -> 1 -> 0
  // over the second one, (4 + 8) / 2.
  EXPECT_DOUBLE_EQ(max_cycle_ratio(2, {{0, 0, 1.0, 1}, {0, 1, 4.0, 1},
                                       {1, 0, 8.0, 1}})
                       .max_ratio,
                   6.0);
}

TEST(CycleRatioTest, NonPositiveCyclesDoNotConstrainTheRate) {
  const auto r = max_cycle_ratio(2, {{0, 1, -5.0, 1}, {1, 0, 2.0, 0}});
  EXPECT_FALSE(r.has_cycle);
  EXPECT_EQ(r.max_ratio, 0.0);
  // A zero-weight lagged cycle: λ = 0, which is no constraint either.
  EXPECT_FALSE(max_cycle_ratio(1, {{0, 0, 0.0, 1}}).has_cycle);
}

TEST(CycleRatioTest, ZeroLagPositiveCycleInsideALaggedComponentThrows) {
  // 0 <-> 1 at lag 0 with weight 2 is positive; the lagged arcs put all
  // three nodes in one strongly connected component.
  const std::vector<RatioArc> arcs = {
      {0, 1, 1.0, 0}, {1, 0, 1.0, 0}, {1, 2, 5.0, 1}, {2, 0, 1.0, 0}};
  EXPECT_THROW((void)max_cycle_ratio(3, arcs), DescriptionError);
}

TEST(CycleRatioTest, LongLagOneRing) {
  // 5,000 nodes, every arc lag 1, weights 0..4 repeating: the ring's ratio
  // is 10,000 / 5,000 = 2. Chords i -> i+2 (lag 2, one unit lighter than
  // the path they skip) form lower-ratio cycles the iteration must pass.
  constexpr std::size_t kN = 5000;
  std::vector<RatioArc> arcs;
  for (std::size_t i = 0; i < kN; ++i)
    arcs.push_back({i, (i + 1) % kN, static_cast<double>(i % 5), 1});
  for (std::size_t i = 0; i < kN; i += 7)
    arcs.push_back({i, (i + 2) % kN,
                    static_cast<double>(i % 5 + (i + 1) % 5) - 1.0, 2});
  const auto r = max_cycle_ratio(kN, arcs);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_DOUBLE_EQ(r.max_ratio, 2.0);
}

// ------------------------------------------------- differential: enumeration

/// Outcome of a cycle-ratio computation: the value, or which error it threw.
struct RatioOutcome {
  enum Kind { kValue, kDescriptionError, kError } kind = kValue;
  CycleRatioResult result;
};

template <class Fn>
RatioOutcome outcome_of(Fn&& fn) {
  RatioOutcome o;
  try {
    o.result = fn();
  } catch (const DescriptionError&) {
    o.kind = RatioOutcome::kDescriptionError;
  } catch (const Error&) {
    o.kind = RatioOutcome::kError;
  }
  return o;
}

/// Reference by exhaustive enumeration of the simple cycles (arc by arc, so
/// parallel arcs are distinct cycles): λ is the largest W/L over cycles
/// with L > 0; a zero-lag cycle with W > 0 is malformed.
RatioOutcome enumerate_cycles(std::size_t n, const std::vector<RatioArc>& arcs) {
  for (const RatioArc& a : arcs)
    if (a.src >= n || a.dst >= n) return {RatioOutcome::kError, {}};
  bool found = false, malformed = false;
  double best = 0.0;
  std::vector<bool> on_path(n, false);
  // Paths start at s and use only nodes > s, so each cycle is seen once.
  const auto dfs = [&](auto&& self, std::size_t s, std::size_t v, double w,
                       unsigned lag) -> void {
    for (const RatioArc& a : arcs) {
      if (a.src != v) continue;
      const double w2 = w + a.weight;
      const unsigned lag2 = lag + a.lag;
      if (a.dst == s) {
        if (lag2 == 0) {
          malformed = malformed || w2 > 0.0;
        } else if (!found || w2 / lag2 > best) {
          best = w2 / lag2;
          found = true;
        }
      } else if (a.dst > s && !on_path[a.dst]) {
        on_path[a.dst] = true;
        self(self, s, a.dst, w2, lag2);
        on_path[a.dst] = false;
      }
    }
  };
  for (std::size_t s = 0; s < n; ++s) dfs(dfs, s, s, 0.0, 0);
  if (malformed) return {RatioOutcome::kDescriptionError, {}};
  RatioOutcome o;
  if (found && best > 0.0) o.result = {best, true};
  return o;
}

/// Random arc set over n nodes: zero-lag arcs mostly run forward (so most
/// graphs are well-formed), lags up to 3, quarter-unit weights in
/// [-5, 10] (exact sums), self-loops and parallel arcs by chance, and now
/// and then an endpoint out of range.
std::vector<RatioArc> random_ratio_arcs(Rng& rng, std::size_t n) {
  std::vector<RatioArc> arcs(rng.next_below(2 * n + 4));
  for (RatioArc& a : arcs) {
    a.src = rng.next_below(n);
    a.dst = rng.next_below(n);
    a.lag = rng.chance(0.5) ? 0u : static_cast<unsigned>(rng.uniform_int(1, 3));
    if (a.lag == 0 && a.src > a.dst && rng.chance(0.9)) std::swap(a.src, a.dst);
    a.weight = 0.25 * static_cast<double>(rng.uniform_int(-20, 40));
  }
  if (!arcs.empty() && rng.chance(0.01)) arcs.front().dst = n;
  return arcs;
}

void expect_same_outcome(const RatioOutcome& got, const RatioOutcome& ref,
                         const std::string& ctx) {
  ASSERT_EQ(got.kind, ref.kind) << ctx;
  EXPECT_EQ(got.result.has_cycle, ref.result.has_cycle) << ctx;
  EXPECT_NEAR(got.result.max_ratio, ref.result.max_ratio,
              1e-6 * std::abs(ref.result.max_ratio))
      << ctx;
}

TEST(CycleRatioSweepTest, AgreesWithCycleEnumeration) {
  Rng rng(20260);
  int cyclic = 0, malformed = 0, acyclic = 0;
  for (int g = 0; g < 12000; ++g) {
    const std::size_t n = 1 + rng.next_below(8);
    const std::vector<RatioArc> arcs = random_ratio_arcs(rng, n);
    const RatioOutcome ref = enumerate_cycles(n, arcs);
    const RatioOutcome got =
        outcome_of([&] { return max_cycle_ratio(n, arcs); });
    expect_same_outcome(got, ref, "graph " + std::to_string(g));
    if (ref.kind == RatioOutcome::kDescriptionError) ++malformed;
    else if (ref.result.has_cycle) ++cyclic;
    else if (ref.kind == RatioOutcome::kValue) ++acyclic;
  }
  // The sweep must cover every outcome, not pass vacuously.
  EXPECT_GT(cyclic, 3000);
  EXPECT_GT(malformed, 300);
  EXPECT_GT(acyclic, 1000);
}

// ---------------------------------------------------- differential: bisection

/// Bellman-Ford positive-cycle test on w − λ·lag (all nodes seeded at 0).
bool positive_cycle_at(std::size_t n, const std::vector<RatioArc>& arcs,
                       double lambda) {
  std::vector<double> dist(n, 0.0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const RatioArc& a : arcs) {
      const double w = a.weight - lambda * static_cast<double>(a.lag);
      if (dist[a.src] + w > dist[a.dst] + 1e-12) {
        dist[a.dst] = dist[a.src] + w;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

TEST(CycleRatioSweepTest, AgreesWithBisectionOnLargerGraphs) {
  // The parametric search the policy iteration replaced, bisected to a
  // relative 1e-9: λ is the least value with no positive cycle under
  // w − λ·lag. Graphs of 20-60 nodes have many overlapping cycles, so
  // the policy iteration takes several improvement steps here.
  Rng rng(4711);
  int cyclic = 0;
  for (int g = 0; g < 150; ++g) {
    const std::size_t n = 20 + rng.next_below(41);
    std::vector<RatioArc> arcs;
    for (std::size_t i = 0; i < 3 * n; ++i) {
      RatioArc a;
      a.src = rng.next_below(n);
      a.dst = rng.next_below(n);
      a.lag = a.src < a.dst ? static_cast<unsigned>(rng.next_below(2))
                            : static_cast<unsigned>(rng.uniform_int(1, 4));
      a.weight = rng.uniform(-50.0, 400.0);
      arcs.push_back(a);
    }
    const std::string ctx = "graph " + std::to_string(g);
    const CycleRatioResult got = max_cycle_ratio(n, arcs);
    std::vector<RatioArc> zero_lag;
    for (const RatioArc& a : arcs)
      if (a.lag == 0) zero_lag.push_back(a);
    ASSERT_FALSE(positive_cycle_at(n, zero_lag, 0.0)) << ctx;
    const bool cyclic_ref = positive_cycle_at(n, arcs, 0.0);
    ASSERT_EQ(got.has_cycle, cyclic_ref) << ctx;
    if (!cyclic_ref) continue;
    ++cyclic;
    double lo = 0.0, hi = 1.0;
    while (positive_cycle_at(n, arcs, hi)) hi *= 2.0;
    while (hi - lo > 1e-9 * hi) {
      const double mid = 0.5 * (lo + hi);
      (positive_cycle_at(n, arcs, mid) ? lo : hi) = mid;
    }
    EXPECT_NEAR(got.max_ratio, hi, 1e-6 * hi) << ctx;
  }
  EXPECT_GT(cyclic, 100);
}

}  // namespace
}  // namespace maxev::mp
