#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "core/lt_runner.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "model/baseline.hpp"
#include "study/experiment.hpp"
#include "study/study.hpp"
#include "util/error.hpp"

/// The study front-end: value-semantic scenarios, the unified backend/Model
/// interface, matrix execution with a reference backend, multi-instance
/// composition in one kernel, and the Report writers.

namespace maxev::study {
namespace {

using namespace maxev::literals;

model::ArchitectureDesc small_didactic(std::uint64_t tokens = 25) {
  gen::DidacticConfig cfg;
  cfg.tokens = tokens;
  return gen::make_didactic(cfg);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- Scenario

TEST(ScenarioTest, CopiesShareTheDescription) {
  Scenario a("didactic", small_didactic());
  Scenario b = a;
  EXPECT_EQ(&a.desc(), &b.desc());
  EXPECT_EQ(b.name(), "didactic");
  EXPECT_FALSE(a.composed());
}

TEST(ScenarioTest, TemporariesAreSafe) {
  // The scenario (and the model it spawns) own the description: no
  // dangling references, no deleted-overload workaround needed.
  auto model =
      Backend::baseline().instantiate(Scenario("tmp", small_didactic(10)));
  EXPECT_TRUE(model->run().completed);
}

TEST(ScenarioTest, FluentOptions) {
  Scenario s("s", small_didactic());
  s.with_group({true, true, false, false})
      .with_fold(false)
      .with_pad_nodes(3)
      .with_expected_iterations(99);
  EXPECT_EQ(s.options().group, (std::vector<bool>{true, true, false, false}));
  EXPECT_FALSE(s.options().fold);
  EXPECT_EQ(s.options().pad_nodes, 3u);
  EXPECT_EQ(s.options().expected_iterations, 99u);
}

TEST(ScenarioTest, UnvalidatedDescriptionIsValidated) {
  model::ArchitectureDesc d;
  const auto r = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("F", r);
  d.fn_read(f, in);
  d.fn_execute(f, model::linear_ops(10, 1));
  d.fn_write(f, out);
  d.add_source("s", in, 5, [](std::uint64_t) { return TimePoint::origin(); },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("k", out);
  // No d.validate() — Scenario construction validates.
  Scenario s("raw", std::move(d));
  EXPECT_TRUE(s.desc().validated());
}

// ----------------------------------------------------- Backend equivalence

// Study-built models must produce traces identical to the directly
// constructed model classes they wrap.
TEST(BackendTest, BaselineMatchesDirectModelRuntime) {
  const auto desc = model::share(small_didactic());
  auto m = Backend::baseline().instantiate(Scenario("d", desc));
  ASSERT_TRUE(m->run().completed);

  model::ModelRuntime direct(desc);
  ASSERT_TRUE(direct.run().completed);

  EXPECT_EQ(trace::compare_instants(direct.instants(), m->instants()),
            std::nullopt);
  EXPECT_EQ(trace::compare_instants(m->instants(), direct.instants()),
            std::nullopt);
  EXPECT_EQ(trace::compare_usage(direct.usage(), m->usage()), std::nullopt);
  EXPECT_EQ(m->kernel_stats().events_scheduled,
            direct.kernel_stats().events_scheduled);
  EXPECT_EQ(m->relation_events(), direct.relation_events());
  EXPECT_EQ(m->end_time(), direct.end_time());
}

TEST(BackendTest, EquivalentMatchesDirectEquivalentModel) {
  const auto desc = model::share(small_didactic());
  auto m = Backend::equivalent().instantiate(Scenario("d", desc));
  ASSERT_TRUE(m->run().completed);

  core::EquivalentModel direct(desc, {});
  ASSERT_TRUE(direct.run().completed);

  EXPECT_EQ(trace::compare_instants(direct.instants(), m->instants()),
            std::nullopt);
  EXPECT_EQ(trace::compare_usage(direct.usage(), m->usage()), std::nullopt);
  EXPECT_EQ(m->instances_computed(), direct.engine().instances_computed());
  EXPECT_EQ(m->graph_shape().nodes, direct.graph().node_count());
  EXPECT_EQ(m->graph_shape().paper_nodes, direct.graph().paper_node_count());
}

TEST(BackendTest, LooselyTimedMatchesDirectRunner) {
  const auto desc = model::share(small_didactic());
  auto m = Backend::loosely_timed(10_us).instantiate(Scenario("d", desc));
  ASSERT_TRUE(m->run().completed);

  core::LooselyTimedModel direct(desc, 10_us);
  ASSERT_TRUE(direct.run().completed);

  EXPECT_EQ(trace::compare_instants(direct.instants(), m->instants()),
            std::nullopt);
  EXPECT_EQ(m->end_time(), direct.end_time());
  EXPECT_EQ(m->usage().all().size(), 0u);  // LT records no resource usage
  EXPECT_EQ(m->relation_events(), 0u);
}

TEST(BackendTest, NamesIdentifyBackends) {
  EXPECT_EQ(Backend::baseline().name(), "baseline");
  EXPECT_EQ(Backend::equivalent().name(), "equivalent");
  EXPECT_EQ(Backend::loosely_timed(10_us).name(), "lt(10us)");
  EXPECT_EQ(Backend::baseline().kind(), Backend::Kind::kBaseline);
}

TEST(BackendTest, EquivalentHonorsScenarioGroup) {
  const auto desc = model::share(small_didactic());
  Scenario s("partial", desc);
  std::vector<bool> group(desc->functions().size(), false);
  group[2] = group[3] = true;  // abstract F3+F4 only
  s.with_group(group);
  auto m = Backend::equivalent().instantiate(s);
  ASSERT_TRUE(m->run().completed);

  core::EquivalentModel direct(desc, group);
  ASSERT_TRUE(direct.run().completed);
  EXPECT_EQ(trace::compare_instants(direct.instants(), m->instants()),
            std::nullopt);
  EXPECT_EQ(m->kernel_stats().events_scheduled,
            direct.kernel_stats().events_scheduled);
}

// ------------------------------------------------------------------ Study

TEST(StudyTest, MatrixShapeAndReference) {
  Study st;
  st.add(Scenario("didactic", small_didactic()));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  st.add(Backend::loosely_timed(10_us));
  const Report rep = st.run();

  ASSERT_EQ(rep.cells.size(), 3u);
  EXPECT_EQ(rep.reference_backend, "baseline");
  EXPECT_EQ(rep.scenarios, (std::vector<std::string>{"didactic"}));
  ASSERT_NE(rep.find("didactic", "baseline"), nullptr);
  EXPECT_TRUE(rep.find("didactic", "baseline")->is_reference);

  const Cell* eq = rep.find("didactic", "equivalent");
  ASSERT_NE(eq, nullptr);
  ASSERT_TRUE(eq->errors.has_value());
  EXPECT_TRUE(eq->errors->exact());
  EXPECT_EQ(eq->errors->max_abs_seconds, 0.0);
  EXPECT_GT(eq->event_ratio_vs_reference, 2.0);
  EXPECT_GT(eq->speedup_vs_reference, 0.0);

  const Cell* lt = rep.find("didactic", "lt(10us)");
  ASSERT_NE(lt, nullptr);
  ASSERT_TRUE(lt->errors.has_value());
  // The coarse quantum is approximate: usage is absent and instants drift.
  EXPECT_FALSE(lt->errors->exact());
  EXPECT_GT(lt->errors->instants_compared, 0u);
  EXPECT_GT(lt->errors->max_abs_seconds, 0.0);
}

TEST(StudyTest, ReferenceCanBeReassigned) {
  Study st;
  st.add(Scenario("didactic", small_didactic()));
  st.add(Backend::equivalent());
  st.add(Backend::baseline());
  st.reference("baseline");
  const Report rep = st.run();
  EXPECT_EQ(rep.reference_backend, "baseline");
  EXPECT_TRUE(rep.find("didactic", "baseline")->is_reference);
  EXPECT_FALSE(rep.find("didactic", "equivalent")->is_reference);
  // Insertion order preserved in the cell list.
  EXPECT_EQ(rep.cells[0].backend, "equivalent");
  EXPECT_EQ(rep.cells[1].backend, "baseline");
  EXPECT_THROW(st.reference("no-such-backend"), Error);
}

TEST(StudyTest, EmptyMatrixAndBadOptionsRejected) {
  Study st;
  EXPECT_THROW((void)st.run(), Error);
  st.add(Scenario("d", small_didactic(5)));
  EXPECT_THROW((void)st.run(), Error);  // no backends
  st.add(Backend::baseline());
  StudyOptions opts;
  opts.repetitions = 0;
  EXPECT_THROW((void)st.run(opts), Error);
}

TEST(StudyTest, DuplicateNamesRejected) {
  Study st;
  st.add(Scenario("d", small_didactic(5)));
  EXPECT_THROW(st.add(Scenario("d", small_didactic(5))), DescriptionError);
  st.add(Backend::loosely_timed(10_us));
  // Same quantum => same identity name "lt(10us)".
  EXPECT_THROW(st.add(Backend::loosely_timed(10_us)), DescriptionError);
  st.add(Backend::loosely_timed(20_us));  // distinct name is fine
}

TEST(StudyTest, ObserveOffSkipsComparisons) {
  Study st;
  st.add(Scenario("d", small_didactic()));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  StudyOptions opts;
  opts.observe = false;
  const Report rep = st.run(opts);
  EXPECT_FALSE(rep.find("d", "equivalent")->errors.has_value());
}

TEST(BackendTest, ObserveOffRecordsNothingOnEveryBackend) {
  const Scenario s("d", small_didactic(10));
  RunConfig rc;
  rc.observe = false;
  for (const Backend& b : {Backend::baseline(), Backend::equivalent(),
                           Backend::loosely_timed(10_us)}) {
    auto m = b.instantiate(s, rc);
    ASSERT_TRUE(m->run().completed) << b.name();
    EXPECT_EQ(m->instants().total_instants(), 0u) << b.name();
    EXPECT_EQ(m->usage().all().size(), 0u) << b.name();
  }
}

TEST(StudyTest, KeepTracesRetainsObservations) {
  Study st;
  st.add(Scenario("d", small_didactic()));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  StudyOptions opts;
  opts.keep_traces = true;
  const Report rep = st.run(opts);
  for (const char* backend : {"baseline", "equivalent"}) {
    const Cell* c = rep.find("d", backend);
    ASSERT_NE(c->instants, nullptr) << backend;
    ASSERT_NE(c->usage, nullptr) << backend;
    EXPECT_GT(c->instants->total_instants(), 0u) << backend;
  }
  // Off by default: reports stay lightweight.
  const Report bare = st.run();
  EXPECT_EQ(bare.find("d", "equivalent")->instants, nullptr);
  EXPECT_EQ(bare.find("d", "equivalent")->usage, nullptr);
}

TEST(BackendTest, LooselyTimedHonorsHorizon) {
  gen::DidacticConfig cfg;
  cfg.tokens = 1000;
  cfg.source_period = 1_us;
  auto m = Backend::loosely_timed(Duration::ns(100))
               .instantiate(Scenario("d", gen::make_didactic(cfg)));
  const Outcome cut = m->run(TimePoint::origin() + 10_us);
  EXPECT_FALSE(cut.completed);
  // Same uniform contract as the other backends: resuming without a
  // horizon drains the run to completion.
  EXPECT_TRUE(m->run().completed);
}

TEST(StudyTest, MultiScenarioMatrix) {
  Study st;
  st.add(Scenario("t25", small_didactic(25)));
  st.add(Scenario("t50", small_didactic(50)));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  const Report rep = st.run();
  ASSERT_EQ(rep.cells.size(), 4u);
  // Scenario-major order.
  EXPECT_EQ(rep.cells[0].scenario, "t25");
  EXPECT_EQ(rep.cells[2].scenario, "t50");
  EXPECT_TRUE(rep.find("t25", "equivalent")->errors->exact());
  EXPECT_TRUE(rep.find("t50", "equivalent")->errors->exact());
  EXPECT_GT(rep.find("t50", "baseline")->metrics.relation_events,
            rep.find("t25", "baseline")->metrics.relation_events);
}

// ------------------------------------------------------------ Composition

TEST(ComposeTest, MergedDescriptionIsNamespaced) {
  std::vector<Scenario> parts;
  parts.emplace_back("a", small_didactic(10));
  parts.emplace_back("b", small_didactic(20));
  const Scenario c = compose("pair", parts);

  ASSERT_TRUE(c.composed());
  ASSERT_EQ(c.instances().size(), 2u);
  EXPECT_EQ(c.desc().functions().size(), 8u);
  EXPECT_EQ(c.desc().channels().size(), 12u);
  EXPECT_EQ(c.desc().resources().size(), 4u);
  EXPECT_EQ(c.desc().functions()[0].name, "a/F1");
  EXPECT_EQ(c.desc().functions()[4].name, "b/F1");
  EXPECT_EQ(c.desc().channels()[0].name, "a/M1");
  EXPECT_EQ(c.instances()[1].fn_begin, 4u);
  EXPECT_EQ(c.instances()[1].fn_end, 8u);
  // Schedule order on each instance's sequential resource is preserved.
  EXPECT_EQ(c.desc().schedule(c.desc().functions()[0].resource),
            (std::vector<model::FunctionId>{0, 1}));
  EXPECT_EQ(c.desc().schedule(c.desc().functions()[4].resource),
            (std::vector<model::FunctionId>{4, 5}));
}

TEST(ComposeTest, DuplicateOrEmptyInstancesRejected) {
  std::vector<Scenario> parts;
  EXPECT_THROW(compose("none", parts), DescriptionError);
  parts.emplace_back("x", small_didactic(5));
  parts.emplace_back("x", small_didactic(5));
  EXPECT_THROW(compose("dup", parts), DescriptionError);
}

TEST(ComposeTest, BadInstanceNamesRejected) {
  // '/' is the namespace separator: "a" would swallow "a/b"'s traces.
  std::vector<Scenario> parts;
  parts.emplace_back("a", small_didactic(5));
  parts.emplace_back("a/b", small_didactic(5));
  EXPECT_THROW(compose("nested", parts), DescriptionError);

  std::vector<Scenario> unnamed;
  unnamed.emplace_back("", small_didactic(5));
  EXPECT_THROW(compose("anon", unnamed), DescriptionError);
}

TEST(ComposeTest, DisagreeingGraphOptionsRejected) {
  std::vector<Scenario> parts;
  parts.emplace_back("a", small_didactic(5));
  Scenario b("b", small_didactic(5));
  b.with_fold(false);
  parts.push_back(b);
  EXPECT_THROW(compose("mixed_fold", parts), DescriptionError);

  parts[1] = Scenario("b", small_didactic(5)).with_pad_nodes(4);
  EXPECT_THROW(compose("mixed_pad", parts), DescriptionError);
}

TEST(ComposeTest, GroupsConcatenateWhenAnyInstanceIsPartial) {
  std::vector<Scenario> parts;
  parts.emplace_back("a", small_didactic(5));
  Scenario b("b", small_didactic(5));
  std::vector<bool> group(b.desc().functions().size(), false);
  group[2] = group[3] = true;
  b.with_group(group);
  parts.push_back(b);
  const Scenario c = compose("mixed", parts);
  // a expands to all-true, b keeps its restriction.
  EXPECT_EQ(c.options().group,
            (std::vector<bool>{true, true, true, true, false, false, true,
                               true}));

  // All-default instances leave the composed group empty (= abstract all).
  std::vector<Scenario> plain;
  plain.emplace_back("a", small_didactic(5));
  plain.emplace_back("b", small_didactic(5));
  EXPECT_TRUE(compose("plain", plain).options().group.empty());
}

TEST(ComposeTest, ExpectedIterationsHintPropagates) {
  std::vector<Scenario> parts;
  parts.emplace_back("a", small_didactic(5));
  parts.back().with_expected_iterations(200);
  parts.emplace_back("b", small_didactic(5));
  parts.back().with_expected_iterations(50);
  EXPECT_EQ(compose("hinted", parts).options().expected_iterations, 200u);
}

// Each instance of a composed run must behave exactly as in its solo run —
// per-instance trace isolation inside one shared kernel.
void expect_instances_match_solo(const Backend& backend,
                                 const std::vector<Scenario>& parts,
                                 const Scenario& composed) {
  auto whole = backend.instantiate(composed);
  ASSERT_TRUE(whole->run().completed) << backend.name();
  for (const Scenario& part : parts) {
    auto solo = backend.instantiate(part);
    ASSERT_TRUE(solo->run().completed) << part.name();

    const trace::InstantTraceSet extracted =
        instance_instants(whole->instants(), part.name());
    EXPECT_EQ(trace::compare_instants(solo->instants(), extracted),
              std::nullopt)
        << backend.name() << " " << part.name();
    EXPECT_EQ(trace::compare_instants(extracted, solo->instants()),
              std::nullopt)
        << backend.name() << " " << part.name();

    trace::UsageTraceSet a = solo->usage();
    trace::UsageTraceSet b = instance_usage(whole->usage(), part.name());
    a.sort_all();
    b.sort_all();
    EXPECT_EQ(trace::compare_usage(a, b), std::nullopt)
        << backend.name() << " " << part.name();
  }
}

TEST(ComposeTest, DidacticInstancesMatchSoloRuns) {
  std::vector<Scenario> parts;
  for (int i = 0; i < 3; ++i) {
    gen::DidacticConfig cfg;
    cfg.tokens = 30 + 10 * static_cast<std::uint64_t>(i);
    cfg.seed = 7 + static_cast<std::uint64_t>(i);
    parts.emplace_back("inst" + std::to_string(i), gen::make_didactic(cfg));
  }
  const Scenario composed = compose("didactic3", parts);
  expect_instances_match_solo(Backend::baseline(), parts, composed);
  expect_instances_match_solo(Backend::equivalent(), parts, composed);
}

// The acceptance scenario: >= 4 LTE receivers (carrier-aggregation style
// variants) in one kernel, deterministic, each matching its solo run.
TEST(ComposeTest, FourLteReceiversInOneKernel) {
  std::vector<Scenario> parts;
  for (int i = 0; i < 4; ++i) {
    lte::ReceiverConfig cfg;
    cfg.symbols = 3 * lte::kSymbolsPerSubframe;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    cfg.dsp_ops_per_second = (4.0 + 2.0 * i) * 1e9;
    parts.emplace_back("rx" + std::to_string(i), lte::make_receiver(cfg));
  }
  const Scenario composed = compose("ca4", parts);
  EXPECT_EQ(composed.desc().functions().size(), 32u);

  expect_instances_match_solo(Backend::baseline(), parts, composed);
  expect_instances_match_solo(Backend::equivalent(), parts, composed);

  // Determinism: two composed runs produce identical traces and counters.
  auto r1 = Backend::equivalent().instantiate(composed);
  auto r2 = Backend::equivalent().instantiate(composed);
  ASSERT_TRUE(r1->run().completed);
  ASSERT_TRUE(r2->run().completed);
  EXPECT_EQ(trace::compare_instants(r1->instants(), r2->instants()),
            std::nullopt);
  EXPECT_EQ(r1->kernel_stats().events_scheduled,
            r2->kernel_stats().events_scheduled);
  EXPECT_EQ(r1->end_time(), r2->end_time());
}

TEST(ComposeTest, ComposedScenarioRunsThroughStudy) {
  // Carrier-aggregation variants from the lte module: 4 component carriers
  // with distinct bandwidths/platforms, composed into one kernel.
  std::vector<Scenario> parts;
  for (const lte::CarrierVariant& cc : lte::carrier_aggregation_variants(
           4, lte::kSymbolsPerSubframe)) {
    EXPECT_EQ(cc.config.symbols,
              static_cast<std::uint64_t>(lte::kSymbolsPerSubframe));
    parts.emplace_back(cc.name, lte::make_receiver(cc.config));
  }
  Study st;
  st.add(compose("ca4", parts));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  const Report rep = st.run();
  const Cell* eq = rep.find("ca4", "equivalent");
  ASSERT_NE(eq, nullptr);
  EXPECT_TRUE(eq->errors->exact());  // composed instants still exact
  EXPECT_GT(eq->event_ratio_vs_reference, 2.0);
}

// ------------------------------------------------------------------ Report

Report tiny_report() {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  Study st;
  st.add(Scenario("didactic", gen::make_didactic(cfg)));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  Report rep = st.run();
  // Blank the wall-clock-dependent fields so the document is deterministic.
  for (Cell& c : rep.cells) {
    c.metrics.wall_seconds = 0.0;
    c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
  }
  return rep;
}

TEST(ReportTest, CsvGolden) {
  const std::string path = ::testing::TempDir() + "maxev_report_golden.csv";
  tiny_report().write_csv(path);
  const std::string expected =
      "scenario,backend,reference,completed,wall_seconds,kernel_events,"
      "resumes,relation_events,instances_computed,arc_terms,sim_end_ps,"
      "graph_nodes,graph_paper_nodes,graph_arcs,speedup_vs_ref,"
      "event_ratio_vs_ref,kernel_event_ratio_vs_ref,exact,max_abs_error_s,"
      "mean_abs_error_s,cache_hits,cache_misses,fidelity,"
      "extrapolated_iterations,max_error_ps,status,error\n"
      "didactic,baseline,1,1,0,76,76,30,0,0,61316000,0,0,0,1,1,1,,,,0,0,,,,"
      "ok,\n"
      "didactic,equivalent,0,1,0,23,23,10,30,50,61316000,7,10,10,0,3,"
      "3.30434783,1,0,0,0,1,,,,ok,\n";
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

TEST(ReportTest, JsonGolden) {
  const std::string expected =
      R"({"scenarios":["didactic"],"backends":["baseline","equivalent"],)"
      R"("reference":"baseline","cells":[{"scenario":"didactic",)"
      R"("backend":"baseline","reference":true,"completed":true,)"
      R"("wall_seconds":0,"kernel_events":76,"resumes":76,)"
      R"("relation_events":30,"instances_computed":0,"arc_terms":0,)"
      R"("sim_end_ps":61316000,"graph_nodes":0,"graph_paper_nodes":0,)"
      R"("graph_arcs":0,"speedup_vs_ref":1,"event_ratio_vs_ref":1,)"
      R"("kernel_event_ratio_vs_ref":1,"cache_hits":0,"cache_misses":0,)"
      R"("fidelity":null,"extrapolated_iterations":null,"max_error_ps":null,)"
      R"("status":"ok"},{"scenario":"didactic",)"
      R"("backend":"equivalent","reference":false,"completed":true,)"
      R"("wall_seconds":0,"kernel_events":23,"resumes":23,)"
      R"("relation_events":10,"instances_computed":30,"arc_terms":50,)"
      R"("sim_end_ps":61316000,"graph_nodes":7,"graph_paper_nodes":10,)"
      R"("graph_arcs":10,"speedup_vs_ref":0,"event_ratio_vs_ref":3,)"
      R"("kernel_event_ratio_vs_ref":3.3043478260869565,)"
      R"("cache_hits":0,"cache_misses":1,"fidelity":null,)"
      R"("extrapolated_iterations":null,"max_error_ps":null,)"
      R"("errors":{"exact":true,"max_abs_seconds":0,"mean_abs_seconds":0,)"
      R"("instants_compared":30},"status":"ok"}]})";
  EXPECT_EQ(tiny_report().to_json(), expected);

  const std::string path = ::testing::TempDir() + "maxev_report_golden.json";
  tiny_report().write_json(path);
  EXPECT_EQ(slurp(path), expected + "\n");  // write_file ends the document
  std::remove(path.c_str());
}

TEST(ReportTest, ConsoleRenderingMentionsEveryCell) {
  const Report rep = tiny_report();
  const std::string table = rep.to_string();
  EXPECT_NE(table.find("didactic"), std::string::npos);
  EXPECT_NE(table.find("baseline"), std::string::npos);
  EXPECT_NE(table.find("equivalent"), std::string::npos);
  EXPECT_NE(table.find("exact"), std::string::npos);
}

TEST(ReportTest, AtThrowsOnMissingCell) {
  const Report rep = tiny_report();
  EXPECT_EQ(&rep.at("didactic", "baseline"),
            rep.find("didactic", "baseline"));
  EXPECT_THROW((void)rep.at("didactic", "no-such-backend"), Error);
  EXPECT_THROW((void)rep.at("no-such-scenario", "baseline"), Error);
}

// --------------------------------------------- run_comparison delegation

TEST(DelegationTest, RunComparisonMatchesHandBuiltStudy) {
  const model::ArchitectureDesc d = small_didactic(100);
  ExperimentOptions opts;
  opts.repetitions = 1;
  const core::Comparison cmp = run_comparison(d, opts);

  Study st;
  st.add(Scenario("comparison", d));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  StudyOptions sopts;
  sopts.repetitions = 1;
  const Report rep = st.run(sopts);

  const Cell* base = rep.find("comparison", "baseline");
  const Cell* eq = rep.find("comparison", "equivalent");
  EXPECT_EQ(cmp.baseline.kernel_events, base->metrics.kernel_events);
  EXPECT_EQ(cmp.baseline.relation_events, base->metrics.relation_events);
  EXPECT_EQ(cmp.baseline.sim_end, base->metrics.sim_end);
  EXPECT_EQ(cmp.equivalent.kernel_events, eq->metrics.kernel_events);
  EXPECT_EQ(cmp.equivalent.relation_events, eq->metrics.relation_events);
  EXPECT_EQ(cmp.equivalent.instances_computed,
            eq->metrics.instances_computed);
  EXPECT_EQ(cmp.graph_paper_nodes, eq->graph_paper_nodes);
  EXPECT_DOUBLE_EQ(cmp.event_ratio, eq->event_ratio_vs_reference);
  EXPECT_TRUE(cmp.accurate());
  EXPECT_TRUE(eq->errors->exact());
}

// ------------------------------------- thread-count equivalence sweep

// The determinism contract of StudyOptions::threads / group_threads
// (docs/DESIGN.md §11): for random-architecture matrices, every thread
// count produces the identical Report — CSV bytes, JSON bytes, and the
// per-instance traces retained by keep_traces — as the serial run.
TEST(ThreadSweepTest, RandomArchMatricesIdenticalAcrossThreadCounts) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 20;
  cfg.multi_rate_producer_probability = 0.4;

  for (const std::uint64_t seed : {3ull, 11ull}) {
    const auto a = model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    Study st;
    st.add(Scenario("solo", a));
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    parts.emplace_back("b1", b);
    st.add(compose("mix22", parts));
    st.add(Backend::baseline());
    st.add(Backend::equivalent());

    StudyOptions opts;
    opts.keep_traces = true;

    // Serial reference: blank the wall-clock-dependent fields, serialize.
    const auto blank = [](Report rep) {
      for (Cell& c : rep.cells) {
        c.metrics.wall_seconds = 0.0;
        c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
      }
      return rep;
    };
    const Report ref = blank(st.run(opts));
    const std::string csv_path = ::testing::TempDir() + "maxev_sweep.csv";
    ref.write_csv(csv_path);
    const std::string ref_csv = slurp(csv_path);
    const std::string ref_json = ref.to_json();

    for (const int threads : {2, 8}) {
      opts.threads = threads;
      opts.group_threads = threads;
      const Report rep = blank(st.run(opts));
      rep.write_csv(csv_path);
      EXPECT_EQ(slurp(csv_path), ref_csv)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(rep.to_json(), ref_json)
          << "seed=" << seed << " threads=" << threads;

      // Per-instance traces of the composed equivalent cell, not just the
      // serialized summary.
      const Cell& rc = ref.at("mix22", "equivalent");
      const Cell& pc = rep.at("mix22", "equivalent");
      ASSERT_NE(rc.instants, nullptr);
      ASSERT_NE(pc.instants, nullptr);
      for (const Scenario& part : parts) {
        EXPECT_EQ(trace::compare_instants(
                      instance_instants(*rc.instants, part.name()),
                      instance_instants(*pc.instants, part.name())),
                  std::nullopt)
            << "seed=" << seed << " threads=" << threads << " instance="
            << part.name();
        trace::UsageTraceSet ru = instance_usage(*rc.usage, part.name());
        trace::UsageTraceSet pu = instance_usage(*pc.usage, part.name());
        ru.sort_all();
        pu.sort_all();
        EXPECT_EQ(trace::compare_usage(ru, pu), std::nullopt)
            << "seed=" << seed << " threads=" << threads << " instance="
            << part.name();
      }
    }
    std::remove(csv_path.c_str());
  }
}

}  // namespace
}  // namespace maxev::study
