/// \file bench_table1.cpp
/// Reproduces Table I of the paper: "Measurement of achieved simulation
/// speed-up on distinct architecture models".
///
/// Examples 1..4 are chains of 1..4 didactic blocks, each simulated with
/// 20000 data tokens of varying size through the input relation, exactly as
/// in Section IV. The four chains are the scenarios of one study::Study,
/// run against the baseline (reference) and equivalent backends — once with
/// observation on (accuracy-checked) and once off (pure simulation speed).
/// For every example we report the baseline model execution time, the event
/// ratio, the achieved speed-up and the node count of the temporal
/// dependency graph, and we assert the accuracy property (instant and usage
/// traces identical): the program exits 1 when any example is inexact.
///
/// Paper reference values (Intel CoFluent Studio on a 2.2 GHz Core2 Duo):
///   exec time 22 / 41.2 / 59.4 / 80.2 s; event ratio 2.33 / 4.66 / 7 / 9.33;
///   speed-up 2.27 / 4.47 / 6.38 / 8.35; nodes 10 / 19 / 28 / 37.
/// Absolute times differ on this substrate; the monotone scaling of ratio
/// and speed-up with the block count is the reproduced shape.

#include <cstdio>

#include "gen/chains.hpp"
#include "study/study.hpp"
#include "util/strings.hpp"

int main() {
  using namespace maxev;

  constexpr std::uint64_t kTokens = 20000;
  std::printf("Table I reproduction: %s tokens per model, median of 3 runs\n\n",
              with_commas(static_cast<std::int64_t>(kTokens)).c_str());

  study::Study st;
  for (std::size_t ex = 1; ex <= 4; ++ex) {
    st.add(study::Scenario(format("Example %zu", ex),
                           gen::make_table1_example(ex, kTokens)));
  }
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());

  // Accuracy-checked run (observation traces recorded and compared).
  study::StudyOptions checked;
  checked.repetitions = 3;
  const study::Report obs = st.run(checked);
  // Pure simulation-speed run (no observation recording, as a plain
  // what-is-the-simulation-time measurement).
  study::StudyOptions speed = checked;
  speed.observe = false;
  const study::Report fast = st.run(speed);

  ConsoleTable table({"Architecture model", "exec time (s)", "Event ratio",
                      "Kernel-event ratio", "Speed-up", "Speed-up (obs. on)",
                      "Nodes (paper conv.)", "Accurate"});

  static const double kPaperSpeedup[] = {2.27, 4.47, 6.38, 8.35};
  static const double kPaperRatio[] = {2.33, 4.66, 7.0, 9.33};

  bool all_accurate = true;
  for (std::size_t ex = 1; ex <= 4; ++ex) {
    const std::string scenario = format("Example %zu", ex);
    const study::Cell& base_fast = fast.at(scenario, "baseline");
    const study::Cell& eq_fast = fast.at(scenario, "equivalent");
    const study::Cell& eq_obs = obs.at(scenario, "equivalent");
    const bool accurate =
        eq_obs.errors.has_value() && eq_obs.errors->exact();
    all_accurate = all_accurate && accurate;

    table.add_row({scenario,
                   format("%.3f", base_fast.metrics.wall_seconds),
                   format("%.2f", eq_obs.event_ratio_vs_reference),
                   format("%.2f", eq_obs.kernel_event_ratio_vs_reference),
                   format("%.2f", eq_fast.speedup_vs_reference),
                   format("%.2f", eq_obs.speedup_vs_reference),
                   format("%zu", eq_obs.graph_paper_nodes),
                   accurate ? "yes" : "NO"});
    std::printf("Example %zu: paper speed-up %.2f (event ratio %.2f) -> "
                "measured %.2f (%.2f)\n",
                ex, kPaperSpeedup[ex - 1], kPaperRatio[ex - 1],
                eq_fast.speedup_vs_reference,
                eq_obs.event_ratio_vs_reference);
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "Note: node counts step by 8 per block here vs the paper's 9 — our\n"
      "chained blocks share the inter-block relation (see docs/EXPERIMENTS.md).\n\n");
  if (!all_accurate) {
    std::fprintf(stderr, "bench_table1: equivalent traces differ from the "
                         "baseline (Accurate = NO)\n");
    return 1;
  }

  // The paper's substrate (Intel CoFluent Studio / SystemC) pays far more
  // per kernel event than this library's coroutine kernel (~60ns). In the
  // commercial-kernel regime — emulated by a synthetic 2us per-event cost
  // applied to BOTH kernels — the speed-up converges to the event ratio,
  // which is the paper's operating point.
  std::printf("Commercial-kernel regime (synthetic 2us per event, %s tokens):\n",
              with_commas(5000).c_str());
  study::Study heavy_study;
  for (std::size_t ex = 1; ex <= 4; ++ex) {
    heavy_study.add(study::Scenario(format("Example %zu", ex),
                                    gen::make_table1_example(ex, 5000)));
  }
  heavy_study.add(study::Backend::baseline());
  heavy_study.add(study::Backend::equivalent());
  study::StudyOptions heavy_opts;
  heavy_opts.repetitions = 1;
  heavy_opts.observe = false;
  heavy_opts.compare_traces = false;
  heavy_opts.event_overhead_ns = 2000.0;
  const study::Report heavy = heavy_study.run(heavy_opts);

  ConsoleTable heavy_table({"Architecture model", "exec time (s)", "Speed-up",
                            "Kernel-event ratio", "Paper speed-up"});
  for (std::size_t ex = 1; ex <= 4; ++ex) {
    const std::string scenario = format("Example %zu", ex);
    const study::Cell& base = heavy.at(scenario, "baseline");
    const study::Cell& eq = heavy.at(scenario, "equivalent");
    heavy_table.add_row({scenario, format("%.3f", base.metrics.wall_seconds),
                         format("%.2f", eq.speedup_vs_reference),
                         format("%.2f", eq.kernel_event_ratio_vs_reference),
                         format("%.2f", kPaperSpeedup[ex - 1])});
  }
  std::printf("%s\n", heavy_table.render().c_str());
  return 0;
}
