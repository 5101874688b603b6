/// \file dse_sweep.cpp
/// The paper's use case: one Study::run of a design-space matrix. LTE
/// receiver platform candidates across DSP rates, each under a fixed-frame
/// profile (the adaptive backend fast-forwards it) and a varying-frame
/// profile (it refuses), plus Table I Examples 1 and 4, on the baseline
/// (reference), equivalent and adaptive backends.

#include <random>

#include "bench.hpp"
#include "gen/chains.hpp"
#include "lte/receiver.hpp"
#include "study/study.hpp"
#include "util/json.hpp"

namespace maxevbench {

using namespace maxev;

namespace {

constexpr std::uint64_t kSymbols = 150 * lte::kSymbolsPerSubframe;
constexpr std::uint64_t kTableTokens = 10000;
constexpr int kDspGops[] = {10, 12, 14};
constexpr int kThreads = 2;

struct Inputs {
  study::Study study;
  std::vector<Regime> regime;  ///< per scenario: steady when fixed-frame
};

Inputs make_inputs(std::uint64_t seed) {
  // The seed draws the varying-frame schedules and the Table I token
  // sizes; the platform candidates stay fixed, so the amount of work does
  // not depend on the seed.
  std::mt19937_64 rng(seed);
  Inputs in;
  for (const int gops : kDspGops) {
    lte::ReceiverConfig cfg;
    cfg.symbols = kSymbols;
    cfg.dsp_ops_per_second = gops * 1e9;
    for (const bool fixed : {true, false}) {
      cfg.seed = rng();
      if (fixed)
        cfg.fixed_frame = lte::FrameParams{};
      else
        cfg.fixed_frame.reset();
      in.study.add(study::Scenario(
          "dsp" + std::to_string(gops) + (fixed ? "-fixed" : "-varying"),
          lte::make_receiver(cfg)));
      in.regime.push_back(fixed ? Regime::kSteady : Regime::kAperiodic);
    }
  }
  for (const std::size_t example : {1, 4}) {
    in.study.add(study::Scenario("table1-ex" + std::to_string(example),
                                 gen::make_table1_example(example, kTableTokens,
                                                          rng())));
    in.regime.push_back(Regime::kAperiodic);
  }
  in.study.add(study::Backend::baseline());
  in.study.add(study::Backend::equivalent());
  in.study.add(study::Backend::adaptive());
  return in;
}

study::StudyOptions options() {
  study::StudyOptions so;
  so.compare_traces = true;
  so.isolate_failures = true;
  so.program_cache = true;
  so.threads = kThreads;
  return so;
}

/// Every cell completed and, against the baseline, is exact; the counts
/// must repeat on every Study::run.
void verify(Result& r, const study::Report& rep) {
  for (const study::Cell& c : rep.cells) {
    const std::string what = c.scenario + "/" + c.backend;
    r.check(!c.failed && c.metrics.completed, what + ": failed: " + c.error);
    if (!c.is_reference)
      r.check(c.errors.has_value() && c.errors->exact(),
              what + ": not exact against the baseline");
    if (c.backend == "adaptive")
      r.check(c.max_error_ps == 0, what + ": adaptive error bound is not 0");
    r.count(what + ".events", c.metrics.kernel_events);
    r.count(what + ".resumes", c.metrics.resumes);
    r.count(what + ".relation_events", c.metrics.relation_events);
    r.count(what + ".instances", c.metrics.instances_computed);
    r.count(what + ".arc_terms", c.metrics.arc_terms);
    r.count(what + ".end_ps",
            static_cast<std::uint64_t>(c.metrics.sim_end.count()));
    r.count(what + ".cache_hits", static_cast<std::uint64_t>(c.cache_hits));
    r.count(what + ".cache_misses", static_cast<std::uint64_t>(c.cache_misses));
    if (c.extrapolated_iterations >= 0)
      r.count(what + ".extrapolated_iterations",
              static_cast<std::uint64_t>(c.extrapolated_iterations));
  }
}

void measure(const Args& args, const Inputs& in, Result& r) {
  const auto& scenarios = in.study.scenarios();
  const auto& backends = in.study.backends();

  double tokens = 0.0;  // per backend: every scenario once
  for (const study::Scenario& s : scenarios)
    tokens += static_cast<double>(s.desc().total_source_tokens());
  // Each round times cold constructions of every cell (no program cache,
  // no run), then one Study::run.
  Samples setup, walls;
  std::map<std::string, Samples> backend_s;  // summed cell walls
  const study::StudyOptions so = options();
  measure_rounds(args, kThreads, [&] {
    time_each(setup, kSetupsPerRound, [&] {
      for (const study::Scenario& s : scenarios)
        for (const study::Backend& b : backends) (void)b.instantiate(s);
    });

    const auto t1 = Clock::now();
    const study::Report rep = in.study.run(so);
    walls.add(seconds_since(t1));
    std::map<std::string, double> cell_s;
    for (const study::Cell& c : rep.cells)
      cell_s[c.backend] += c.metrics.wall_seconds;
    for (const auto& [backend, secs] : cell_s) backend_s[backend].add(secs);
    verify(r, rep);
  });

  r.metric("setup_s", setup.fast(), "s");
  for (const study::Backend& b : backends)
    r.metric(b.name() + "_tokens_per_s",
             tokens / backend_s[b.name()].fast(), "tokens/s");
  r.metric("answer_wall_s", walls.fast(), "s");
}

void replay(const Inputs& in, Tracer& t, Replay& rp, Result& r) {
  const auto& scenarios = in.study.scenarios();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const study::Scenario& s = scenarios[i];
    const auto base = rp.run(study::Backend::baseline(), s, {}, in.regime[i]);
    const auto eq = rp.run(study::Backend::equivalent(), s, {}, in.regime[i]);
    const auto ad = rp.run(study::Backend::adaptive(), s, {}, in.regime[i]);
    rp.compare(*base, *eq, s.name() + "/equivalent");
    rp.compare(*base, *ad, s.name() + "/adaptive");
  }

  compile_layer(t, r, scenarios, scenarios);

  const study::StudyOptions so = options();
  const auto t0 = Clock::now();
  const study::Report rep =
      t.span("study", "Study::run", [&] { return in.study.run(so); });
  const double study_s = seconds_since(t0);
  verify(r, rep);
  const auto t1 = Clock::now();
  const std::string json =
      t.span("study", "Report::to_json", [&] { return rep.to_json(); });
  const double report_s = seconds_since(t1);
  const JsonValue doc =
      t.span("util", "json_parse", [&] { return json_parse(json); });
  r.check(doc.at("cells").size() == rep.cells.size(),
          "report JSON lost cells");

  double cell_s = 0.0, hits = 0.0, lookups = 0.0;
  for (const study::Cell& c : rep.cells) {
    cell_s += c.metrics.wall_seconds;
    hits += static_cast<double>(c.cache_hits);
    lookups += static_cast<double>(c.cache_hits + c.cache_misses);
  }
  r.metric("study.parallel_efficiency", cell_s / (kThreads * study_s),
           "ratio");
  r.metric("study.report_s", report_s, "s");
  r.metric("study.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0,
           "ratio");
}

}  // namespace

void dse_sweep(const Args& args, Result& r) {
  const Inputs in = make_inputs(args.seed);
  if (!args.trace) return measure(args, in, r);
  run_traced(args, r,
             [&](Tracer& t, Replay& rp) { replay(in, t, rp, r); });
}

}  // namespace maxevbench
