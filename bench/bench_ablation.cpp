/// \file bench_ablation.cpp
/// Ablations of the design choices docs/DESIGN.md §4 calls out that no
/// maxevbench workload measures (the others, by number, are answered by
/// its metrics; see docs/EXPERIMENTS.md §7):
///  1. graph folding (paper's Fig. 3 compact form) vs the raw
///     per-statement graph — same instants, different computation cost;
///  2. the analytic (max,+) throughput bound (maximum cycle ratio of the
///     TDG) vs the measured steady-state output period;
///  4. event-cost sensitivity (speed-up vs synthetic per-event cost);
///  5. batched vs isolated multi-instance composition (docs/DESIGN.md §9):
///     N same-description LTE receivers in one kernel, evaluated through
///     one shared tdg::BatchEngine program vs the N-fold merged graph,
///     swept over per-instance graph complexity (padding);
///  6. heterogeneous sub-batch grouping (docs/DESIGN.md §10): a mixed
///     4+4 composition of two carrier-aggregation receiver variants, each
///     equal-structure quad on its own shared program, vs the
///     fully-isolated merged graph.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "core/experiment.hpp"
#include "gen/didactic.hpp"
#include "lte/receiver.hpp"
#include "study/study.hpp"
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

/// Batched vs isolated wall clock of `parts` composed into one scenario,
/// swept over per-instance padding: best of 3 each, one table row per pad.
std::string batch_sweep(const std::string& name,
                        const std::vector<study::Scenario>& base_parts) {
  ConsoleTable t({"pad/instance", "isolated (s)", "batched (s)", "speed-up"});
  for (std::size_t pad : {0u, 100u, 400u}) {
    std::vector<study::Scenario> parts = base_parts;
    for (study::Scenario& s : parts) s.with_pad_nodes(pad);
    const study::Scenario composed = study::compose(name, parts);
    double wall[2] = {0.0, 0.0};
    for (int batched = 0; batched < 2; ++batched) {
      study::RunConfig rc;
      rc.batch_composed = batched == 1;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        auto model = study::Backend::equivalent().instantiate(composed, rc);
        const auto t0 = std::chrono::steady_clock::now();
        (void)model->run();
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
      }
      wall[batched] = best;
    }
    t.add_row({format("%zu", pad), format("%.3f", wall[0]),
               format("%.3f", wall[1]), format("%.2fx", wall[0] / wall[1])});
  }
  return t.render();
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
    core::ExperimentOptions opts;
    opts.repetitions = 1;
    opts.observe = false;
    opts.compare_traces = false;
    opts.event_overhead_ns = ns;
    const core::Comparison cmp = core::run_comparison(sdesc, opts);
    t4.add_row({ns == 0.0 ? "native" : format("+%.0fns", ns),
                format("%.2f", cmp.speedup),
                format("%.2f", cmp.kernel_event_ratio)});
  }
  std::printf("Ablation 4: event-cost sensitivity (didactic example)\n%s\n",
              t4.render().c_str());

  // --- 5. batched vs isolated multi-instance composition -------------------
  // N identical LTE receivers share one description (study::compose keeps
  // them batch-eligible) and run in one kernel either through the batched
  // equivalent model (one compiled program + shared frame arena) or the
  // isolated merged graph (RunConfig::batch_composed off). Padding
  // sweeps the per-instance TDG complexity: at pad 0 the composed receiver
  // is kernel-bound and batching is neutral; as computation grows (the
  // Fig. 5 regime) the shared-program fronts pull ahead.
  constexpr std::size_t kBatchInstances = 8;
  constexpr std::uint64_t kBatchSymbols = 2000;
  lte::ReceiverConfig bcfg;
  bcfg.symbols = kBatchSymbols;
  bcfg.seed = 2014;
  const model::DescPtr receiver = model::share(lte::make_receiver(bcfg));
  std::vector<study::Scenario> clones;
  for (std::size_t i = 0; i < kBatchInstances; ++i)
    clones.emplace_back("rx" + std::to_string(i), receiver);
  std::printf("Ablation 5: batched vs isolated composition (%zu LTE "
              "receivers, %s symbols each)\n%s\n",
              kBatchInstances,
              with_commas(static_cast<std::int64_t>(kBatchSymbols)).c_str(),
              batch_sweep("ca8", clones).c_str());

  // --- 6. heterogeneous sub-batch grouping ---------------------------------
  // A mixed composition: 4+4 receivers of two carrier-aggregation variants
  // (different bandwidths, hence structurally distinct descriptions). The
  // grouped path runs each equal-structure quad through its own shared
  // tdg::Program + BatchEngine; the isolated path compiles the 8-fold
  // merged graph. Same padding sweep as Ablation 5.
  constexpr std::size_t kMixedPerVariant = 4;
  constexpr std::uint64_t kMixedSymbols = 2000;
  std::vector<study::Scenario> mixed;
  for (const lte::CarrierVariant& v :
       lte::carrier_aggregation_variants(2, kMixedSymbols, 2014)) {
    const model::DescPtr d = model::share(lte::make_receiver(v.config));
    for (std::size_t i = 0; i < kMixedPerVariant; ++i)
      mixed.emplace_back(v.name + "rx" + std::to_string(i), d);
  }
  std::printf("Ablation 6: heterogeneous sub-batches (%zu+%zu receivers of "
              "two carrier variants, %s symbols each)\n%s\n",
              kMixedPerVariant, kMixedPerVariant,
              with_commas(static_cast<std::int64_t>(kMixedSymbols)).c_str(),
              batch_sweep("camix8", mixed).c_str());
  return 0;
}
