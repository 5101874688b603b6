/// \file bench_ablation.cpp
/// Ablations of the design choices docs/DESIGN.md §4 calls out that no
/// maxevbench workload measures (the others, by number, are answered by
/// its metrics; see docs/EXPERIMENTS.md §7):
///  1. graph folding (paper's Fig. 3 compact form) vs the raw
///     per-statement graph — same instants, different computation cost;
///  2. the analytic (max,+) throughput bound (maximum cycle ratio of the
///     TDG) vs the measured steady-state output period;
///  4. event-cost sensitivity (speed-up vs synthetic per-event cost).
/// Batched vs isolated composition is bench_lte's multi-instance and mixed
/// composition tables.

#include <chrono>
#include <cstdio>

#include "core/equivalent_model.hpp"
#include "gen/didactic.hpp"
#include "study/experiment.hpp"
#include "trace/instants.hpp"
#include "tdg/derive.hpp"
#include "tdg/export.hpp"
#include "tdg/simplify.hpp"
#include "util/strings.hpp"

namespace {

using namespace maxev;

double time_equivalent(const model::ArchitectureDesc& desc,
                       core::EquivalentModel::Options opts,
                       std::uint64_t* instances) {
  core::EquivalentModel eq(desc, {}, opts);
  const auto t0 = std::chrono::steady_clock::now();
  (void)eq.run();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  *instances = eq.engine().instances_computed();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  // --- 1. fold vs raw -----------------------------------------------------
  gen::DidacticConfig cfg;
  cfg.tokens = 20000;
  const model::ArchitectureDesc desc = gen::make_didactic(cfg);

  core::EquivalentModel::Options folded;
  folded.fold = true;
  core::EquivalentModel::Options raw;
  raw.fold = false;

  std::uint64_t inst_folded = 0, inst_raw = 0;
  const double t_folded = time_equivalent(desc, folded, &inst_folded);
  const double t_raw = time_equivalent(desc, raw, &inst_raw);

  tdg::DerivedTdg derived = tdg::derive_full_tdg(desc);
  const std::size_t raw_nodes = derived.graph.node_count();
  tdg::Graph g = tdg::fold_pass_through(derived.graph);
  const std::size_t folded_nodes = g.node_count();

  ConsoleTable t1({"graph form", "nodes", "instances computed", "run (s)"});
  t1.add_row({"raw (per statement)", format("%zu", raw_nodes),
              with_commas(static_cast<std::int64_t>(inst_raw)),
              format("%.3f", t_raw)});
  t1.add_row({"folded (Fig. 3 form)", format("%zu", folded_nodes),
              with_commas(static_cast<std::int64_t>(inst_folded)),
              format("%.3f", t_folded)});
  std::printf("Ablation 1: fold_pass_through (identical instants, checked by "
              "the test suite)\n%s\n",
              t1.render().c_str());

  // --- 2. analytic throughput bound vs measurement -------------------------
  // Self-timed didactic: the steady-state output period equals the maximum
  // cycle ratio of the TDG (mean durations over the token-size
  // distribution).
  g.freeze();
  const auto attrs_provider = [&](model::SourceId, std::uint64_t k) {
    return desc.sources()[0].attrs(k);
  };
  const auto bound = tdg::throughput_bound(g, attrs_provider, 4096);

  core::EquivalentModel eq(desc, {});
  (void)eq.run();
  const trace::InstantSeries* out = eq.instants().find("M6");
  const std::size_t n = out->size();
  const double measured_period =
      (out->values()[n - 1] - out->values()[n / 2]).seconds() /
      static_cast<double>(n - 1 - n / 2) * 1e12;
  const double bound_rel_diff =
      (measured_period - bound.max_ratio) / bound.max_ratio;

  std::printf("Ablation 2: throughput bound\n");
  std::printf("  max cycle ratio (analytic)   : %s/iteration\n",
              Duration::ps(static_cast<std::int64_t>(bound.max_ratio))
                  .to_string()
                  .c_str());
  std::printf("  measured steady-state period : %s/iteration\n",
              Duration::ps(static_cast<std::int64_t>(measured_period))
                  .to_string()
                  .c_str());
  std::printf("  relative difference          : %.2f%%\n\n",
              100.0 * bound_rel_diff);

  // --- 4. event-cost sensitivity -------------------------------------------
  // The method's gain is (events saved) x (cost per event). Sweeping a
  // synthetic per-event cost shows the speed-up climbing from this
  // substrate's native value toward the kernel-event ratio — the regime of
  // the paper's SystemC/CoFluent measurements.
  gen::DidacticConfig scfg;
  scfg.tokens = 4000;
  const model::ArchitectureDesc sdesc = gen::make_didactic(scfg);
  ConsoleTable t4({"per-event cost", "speed-up", "kernel-event ratio"});
  for (double ns : {0.0, 250.0, 1000.0, 4000.0}) {
    study::ExperimentOptions opts;
    opts.repetitions = 1;
    opts.observe = false;
    opts.compare_traces = false;
    opts.event_overhead_ns = ns;
    const core::Comparison cmp = study::run_comparison(sdesc, opts);
    t4.add_row({ns == 0.0 ? "native" : format("+%.0fns", ns),
                format("%.2f", cmp.speedup),
                format("%.2f", cmp.kernel_event_ratio)});
  }
  std::printf("Ablation 4: event-cost sensitivity (didactic example)\n%s\n",
              t4.render().c_str());
  return 0;
}
