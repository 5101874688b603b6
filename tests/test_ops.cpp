#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "merged_reference.hpp"
#include "model/desc.hpp"
#include "model/load.hpp"
#include "study/study.hpp"
#include "tdg/ops.hpp"

/// The opcode layer (docs/DESIGN.md §14): factory-built load closures
/// compiled into enum-dispatched tables (tdg::ops), the engines' one load
/// path. The property under test is bit-identity: opcode dispatch must
/// reproduce the hoisted std::function exactly — per opcode kind on
/// exhaustive input grids — and the batched executor must reproduce the
/// merged-graph executor end to end across the random-architecture
/// differential sweep at study level (threads 1/2/8).

namespace maxev {
namespace {

using tdg::ops::Kind;

// ------------------------------------------------------- classification ----

TEST(OpsClassifyTest, FactoryLoadsClassifyConcretely) {
  EXPECT_EQ(tdg::ops::classify_load(model::constant_ops(7)),
            Kind::kRateConstant);
  EXPECT_EQ(tdg::ops::classify_load(model::linear_ops(100, 3)),
            Kind::kLinearOps);
  EXPECT_EQ(tdg::ops::classify_load(model::param_ops(5, 2.5, 2)),
            Kind::kParamOps);
  EXPECT_EQ(tdg::ops::classify_load(model::cyclic_ops({4, 5, 6})),
            Kind::kCyclicOps);
}

TEST(OpsClassifyTest, HandWrittenLambdaIsOpaque) {
  const model::LoadFn f = [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size * 3;
  };
  EXPECT_EQ(tdg::ops::classify_load(f), Kind::kOpaqueClosure);
}

TEST(OpsClassifyTest, KindNamesAreDistinctAndNonEmpty) {
  std::set<std::string> names;
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(Kind::kPeriodicTime);
       ++k) {
    const char* name = tdg::ops::kind_name(static_cast<Kind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(Kind::kPeriodicTime) + 1u);
}

// ------------------------------------------------------------ compilation ----

TEST(OpsCompileTest, UnpacksFactoryParametersIntoColumns) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(7));
  loads.push_back(model::linear_ops(100, 3));
  loads.push_back(model::param_ops(5, 2.5, 2));
  loads.push_back(model::cyclic_ops({4, 5, 6}));
  loads.push_back(model::cyclic_ops({9}));
  loads.push_back([](const model::TokenAttrs&, std::uint64_t) {
    return std::int64_t{11};
  });

  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(static_cast<Kind>(t.kind[0]), Kind::kRateConstant);
  EXPECT_EQ(t.a[0], 7);
  EXPECT_EQ(static_cast<Kind>(t.kind[1]), Kind::kLinearOps);
  EXPECT_EQ(t.a[1], 100);
  EXPECT_EQ(t.b[1], 3);
  EXPECT_EQ(static_cast<Kind>(t.kind[2]), Kind::kParamOps);
  EXPECT_EQ(t.a[2], 5);
  EXPECT_DOUBLE_EQ(t.scale[2], 2.5);
  EXPECT_EQ(t.index[2], 2);
  // Cyclic tables flatten into one `cyc` column: (offset, length) rows.
  EXPECT_EQ(static_cast<Kind>(t.kind[3]), Kind::kCyclicOps);
  EXPECT_EQ(t.index[3], 0);
  EXPECT_EQ(t.len[3], 3);
  EXPECT_EQ(static_cast<Kind>(t.kind[4]), Kind::kCyclicOps);
  EXPECT_EQ(t.index[4], 3);
  EXPECT_EQ(t.len[4], 1);
  EXPECT_EQ(t.cyc, (std::vector<std::int64_t>{4, 5, 6, 9}));
  EXPECT_EQ(static_cast<Kind>(t.kind[5]), Kind::kOpaqueClosure);
  EXPECT_EQ(t.opaque, 1u);
  EXPECT_FALSE(t.all_concrete());
}

TEST(OpsCompileTest, AllConcreteWhenNoLambdas) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(1));
  loads.push_back(model::linear_ops(0, -2));
  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);
  EXPECT_TRUE(t.all_concrete());
  EXPECT_EQ(t.opaque, 0u);
}

// The arithmetic contract: eval_load mirrors model/load.cpp exactly, so
// for every opcode kind the table dispatch and the closure agree on a
// grid covering the clamps, the llround edges and the cyclic wraparound.
TEST(OpsEvalTest, EveryKindMatchesItsClosureOnAGrid) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(0));
  loads.push_back(model::constant_ops(123456789));
  loads.push_back(model::linear_ops(100, 3));
  loads.push_back(model::linear_ops(0, -7));   // clamps to 0 for size > 0
  loads.push_back(model::linear_ops(50, 0));
  loads.push_back(model::param_ops(5, 2.5, 2));
  loads.push_back(model::param_ops(0, -1.0, 0));  // clamp + negative scale
  loads.push_back(model::param_ops(10, 0.5, 3));  // llround half-way cases
  loads.push_back(model::cyclic_ops({4, 5, 6}));
  loads.push_back(model::cyclic_ops({9}));
  loads.push_back([](const model::TokenAttrs& a, std::uint64_t k) {
    return a.size + static_cast<std::int64_t>(k % 13);
  });
  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);

  const std::int64_t sizes[] = {-50, 0, 1, 7, 1000000};
  const double params[] = {-3.7, 0.0, 0.5, 123.0, 123.5, 124.5};
  const std::uint64_t ks[] = {0, 1, 2, 3, 17, 1000000007ull};
  for (std::size_t i = 0; i < loads.size(); ++i) {
    for (const std::int64_t size : sizes) {
      for (const double p : params) {
        for (const std::uint64_t k : ks) {
          model::TokenAttrs attrs;
          attrs.size = size;
          attrs.params = {p, 2 * p, -p, p / 3};
          EXPECT_EQ(tdg::ops::eval_load(t, i, attrs, k, loads),
                    loads[i](attrs, k))
              << "load " << i << " size=" << size << " p=" << p << " k=" << k;
        }
      }
    }
  }
}

// --------------------------------------------------- program opcode tables ----

model::ArchitectureDesc constant_load_desc() {
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto ch = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, ch);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  d.add_source("src", ch, 3,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink", out);
  d.validate();
  return d;
}

core::CompiledPtr compile_desc(model::ArchitectureDesc d) {
  return core::compile_abstraction(
      core::CompiledKey::make(model::share(std::move(d)), {}, true, 0));
}

TEST(ProgramOpsTest, CompileBuildsConsistentTables) {
  const core::CompiledPtr c = compile_desc(gen::make_didactic({}));
  const tdg::Program& p = c->program;
  ASSERT_EQ(p.load_ops.size(), p.loads.size());
  ASSERT_EQ(p.op_kind.size(), p.op_exec.size());
  ASSERT_EQ(p.op_const_dps.size(), p.op_exec.size());
  for (std::size_t j = 0; j < p.op_exec.size(); ++j) {
    if (!p.op_exec[j]) {
      EXPECT_EQ(static_cast<Kind>(p.op_kind[j]), Kind::kFixedWeight);
      EXPECT_EQ(p.op_const_dps[j], -1);
      continue;
    }
    const auto li = static_cast<std::size_t>(p.op_load[j]);
    EXPECT_EQ(p.op_kind[j], p.load_ops.kind[li]);
    if (static_cast<Kind>(p.op_kind[j]) != Kind::kRateConstant) {
      EXPECT_EQ(p.op_const_dps[j], -1);
    }
  }
  // The didactic loads are all factory-built: nothing opaque survives.
  EXPECT_EQ(c->opaque_loads(), 0u);
  for (std::size_t i = 0; i < p.loads.size(); ++i)
    EXPECT_NE(c->load_kind(i), Kind::kOpaqueClosure) << "load " << i;
}

TEST(ProgramOpsTest, RateConstantFoldsTheWholeDuration) {
  const core::CompiledPtr c = compile_desc(constant_load_desc());
  const tdg::Program& p = c->program;
  bool found = false;
  for (std::size_t j = 0; j < p.op_exec.size(); ++j) {
    if (!p.op_exec[j]) continue;
    ASSERT_EQ(static_cast<Kind>(p.op_kind[j]), Kind::kRateConstant);
    // 1000 ops at 1e9 ops/s: the pre-folded picosecond duration.
    const std::int64_t expected = static_cast<std::int64_t>(
        std::llround(1000.0 / p.op_rate[j] * 1e12));
    EXPECT_EQ(p.op_const_dps[j], expected);
    found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(p.load_ops.all_concrete());
}

TEST(ProgramOpsTest, OpaqueLambdaFallsBackAndIsCounted) {
  model::ArchitectureDesc d = constant_load_desc();
  const auto ch2 = d.add_rendezvous("in2");
  const auto out2 = d.add_rendezvous("out2");
  const auto f2 = d.add_function("g", static_cast<model::ResourceId>(
                                      d.resources().size() - 1));
  d.fn_read(f2, ch2);
  d.fn_execute(f2, [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size + 1;
  });
  d.fn_write(f2, out2);
  d.add_source("src2", ch2, 3,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink2", out2);
  d.validate();

  const core::CompiledPtr c = compile_desc(std::move(d));
  EXPECT_EQ(c->opaque_loads(), 1u);
  bool saw_opaque = false, saw_constant = false;
  for (std::size_t i = 0; i < c->program.loads.size(); ++i) {
    saw_opaque |= c->load_kind(i) == Kind::kOpaqueClosure;
    saw_constant |= c->load_kind(i) == Kind::kRateConstant;
  }
  EXPECT_TRUE(saw_opaque);
  EXPECT_TRUE(saw_constant);
}

// ------------------------------------------------------ differential sweep ----

using study::Backend;
using study::RunConfig;
using study::Scenario;

Scenario clones(const model::DescPtr& desc, std::size_t n) {
  std::vector<Scenario> parts;
  for (std::size_t i = 0; i < n; ++i)
    parts.emplace_back("inst" + std::to_string(i), desc);
  return study::compose("clones", parts);
}

/// Run \p scenario on the equivalent backend with \p threads drain
/// workers.
std::unique_ptr<study::Model> run_with(const Scenario& scenario,
                                       int threads) {
  RunConfig rc;
  rc.threads = threads;
  auto m = Backend::equivalent().instantiate(scenario, rc);
  EXPECT_TRUE(m->run().completed);
  return m;
}

/// What every executor agrees on: instant traces both directions, sorted
/// usage, completion time, relation events and instances computed.
template <class Ref>
void expect_same_results(const Ref& ref, const study::Model& got,
                         const std::string& ctx) {
  EXPECT_EQ(trace::compare_instants(ref.instants(), got.instants()),
            std::nullopt)
      << ctx;
  EXPECT_EQ(trace::compare_instants(got.instants(), ref.instants()),
            std::nullopt)
      << ctx;
  trace::UsageTraceSet ru = ref.usage();
  trace::UsageTraceSet gu = got.usage();
  ru.sort_all();
  gu.sort_all();
  EXPECT_EQ(trace::compare_usage(ru, gu), std::nullopt) << ctx;
  EXPECT_EQ(ref.end_time(), got.end_time()) << ctx;
  EXPECT_EQ(ref.relation_events(), got.relation_events()) << ctx;
  EXPECT_EQ(ref.instances_computed(), got.instances_computed()) << ctx;
}

/// What only the same executor reproduces: arc terms and kernel counters.
/// Worker threads must not move them.
void expect_same_costs(const study::Model& ref, const study::Model& got,
                       const std::string& ctx) {
  EXPECT_EQ(ref.arc_terms_evaluated(), got.arc_terms_evaluated()) << ctx;
  EXPECT_EQ(ref.kernel_stats().events_scheduled,
            got.kernel_stats().events_scheduled)
      << ctx;
  EXPECT_EQ(ref.kernel_stats().resumes, got.kernel_stats().resumes) << ctx;
  EXPECT_EQ(ref.kernel_stats().inline_resumes,
            got.kernel_stats().inline_resumes)
      << ctx;
}

/// The batched run at threads 1/2/8 against the merged-graph run (results),
/// the serial batched run (costs) and the baseline (instants and usage).
void expect_batched_matches_merged(const Scenario& scenario,
                                   const std::string& ctx) {
  const auto merged = merged_reference(scenario);
  EXPECT_TRUE(merged->run().completed);
  const auto serial = run_with(scenario, 1);
  expect_same_results(*merged, *serial, ctx + " t1");
  expect_matches_baseline(scenario, *serial, ctx + " t1");
  for (const int threads : {2, 8}) {
    const std::string tctx = ctx + " t" + std::to_string(threads);
    const auto got = run_with(scenario, threads);
    expect_same_results(*merged, *got, tctx);
    expect_same_costs(*serial, *got, tctx);
  }
}

// The sweep: 25 random architectures (FIFOs, slow sinks, periodic and
// second sources, multi-rate producer bundles), each batch-composed and
// run serially and with the per-group drain threaded, all compared bit for
// bit against the merged-graph executor.
TEST(DifferentialSweepTest, BatchedMatchesMergedReference) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 30;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario composed = clones(desc, 4);
    ASSERT_EQ(composed.batch_groups().size(), 1u);
    expect_batched_matches_merged(composed, "seed " + std::to_string(seed));
  }
}

// Heterogeneous sub-batches (the stacked-levers case): two descriptions
// interleaved into two width-2 sub-batches, so the threaded per-group
// drain actually has groups to spread.
TEST(DifferentialSweepTest, HeterogeneousSubBatchesMatchReference) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 25;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto a = model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    parts.emplace_back("b1", b);
    const Scenario mixed = study::compose("mix", parts);
    ASSERT_EQ(mixed.batch_groups().size(), 2u);
    expect_batched_matches_merged(mixed,
                                  "pair seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace maxev
