/// \file bench_lte.cpp
/// Reproduces the Section V case-study speed experiment: the LTE receiver
/// (8 functions, DSP + dedicated decoder) simulated with 20000 data symbols
/// under per-frame varying parameters, as a two-backend study::Study with
/// the event-driven baseline as reference.
///
/// Paper: "A simulation speed-up by a factor of 4 has been measured for the
/// simulation of 20000 data symbols, whereas the ratio of events between
/// models is 4.2", with an 11-node temporal dependency graph.
///
/// A second section scales the case study to a multi-instance workload:
/// 8 identical receivers (one shared description) in ONE kernel, comparing
/// the composed baseline, the batched equivalent model (the base program on
/// one tdg::Engine at width 8, docs/DESIGN.md §9) and the isolated
/// merged-graph equivalent model (the zero-group core::EquivalentModel: the
/// 8-fold merged program on one tdg::Engine at width 1).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/equivalent_model.hpp"
#include "lte/receiver.hpp"
#include "study/study.hpp"
#include "util/strings.hpp"

namespace {

using namespace maxev;

/// Wall-clock seconds of one complete run of \p m.
template <class M>
double timed_run(M& m) {
  const auto t0 = std::chrono::steady_clock::now();
  (void)m.run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The isolated leg of a composition: the zero-group equivalent model over
/// the merged description, padded once per instance.
std::unique_ptr<core::EquivalentModel> merged_model(
    const study::Scenario& composed) {
  core::EquivalentModel::Options opts;
  opts.pad_nodes = composed.options().pad_nodes * composed.instances().size();
  return std::make_unique<core::EquivalentModel>(
      composed.desc_ptr(), composed.options().group, opts);
}

}  // namespace

int main() {

  constexpr std::uint64_t kSymbols = 20000;
  std::printf(
      "LTE case study: %s OFDM symbols, varying PRB/modulation per frame\n\n",
      with_commas(static_cast<std::int64_t>(kSymbols)).c_str());

  lte::ReceiverConfig cfg;
  cfg.symbols = kSymbols;
  cfg.seed = 2014;

  study::Study st;
  st.add(study::Scenario("lte_rx", lte::make_receiver(cfg)));
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());

  study::StudyOptions opts;
  opts.repetitions = 3;
  const study::Report report = st.run(opts);

  const study::Cell& base = report.at("lte_rx", "baseline");
  const study::Cell& eq = report.at("lte_rx", "equivalent");

  ConsoleTable table({"Metric", "Baseline", "Equivalent model"});
  table.add_row({"model execution time (s)",
                 format("%.3f", base.metrics.wall_seconds),
                 format("%.3f", eq.metrics.wall_seconds)});
  table.add_row({"relation events",
                 with_commas(static_cast<std::int64_t>(base.metrics.relation_events)),
                 with_commas(static_cast<std::int64_t>(eq.metrics.relation_events))});
  table.add_row({"kernel events",
                 with_commas(static_cast<std::int64_t>(base.metrics.kernel_events)),
                 with_commas(static_cast<std::int64_t>(eq.metrics.kernel_events))});
  table.add_row({"context switches",
                 with_commas(static_cast<std::int64_t>(base.metrics.resumes)),
                 with_commas(static_cast<std::int64_t>(eq.metrics.resumes))});
  table.add_row({"simulated time",
                 base.metrics.sim_end.to_string(),
                 eq.metrics.sim_end.to_string()});
  std::printf("%s\n", table.render().c_str());

  const bool accurate = eq.errors.has_value() && eq.errors->exact();
  std::printf("simulation speed-up : %.2fx   (paper: 4x)\n",
              eq.speedup_vs_reference);
  std::printf("event ratio         : %.2f    (paper: 4.2)\n",
              eq.event_ratio_vs_reference);
  std::printf("kernel-event ratio  : %.2f\n",
              eq.kernel_event_ratio_vs_reference);
  std::printf("TDG nodes           : %zu live, %zu in the paper's counting "
              "(paper: 11)\n",
              eq.graph_nodes, eq.graph_paper_nodes);
  std::printf("accuracy            : %s\n",
              accurate ? "instants and resource usage identical" : "MISMATCH");
  if (!accurate) {
    if (eq.errors.has_value() && eq.errors->instant_mismatch)
      std::printf("  instants: %s\n", eq.errors->instant_mismatch->c_str());
    if (eq.errors.has_value() && eq.errors->usage_mismatch)
      std::printf("  usage: %s\n", eq.errors->usage_mismatch->c_str());
    return 1;
  }

  // --- Multi-instance composition: 8 receivers, one kernel ----------------
  constexpr std::size_t kReceivers = 8;
  constexpr std::uint64_t kMultiSymbols = 10000;
  lte::ReceiverConfig mcfg;
  mcfg.symbols = kMultiSymbols;
  mcfg.seed = 2014;
  const model::DescPtr shared_rx = model::share(lte::make_receiver(mcfg));
  std::vector<study::Scenario> parts;
  for (std::size_t i = 0; i < kReceivers; ++i)
    parts.emplace_back("rx" + std::to_string(i), shared_rx);
  const study::Scenario composed = study::compose("ca8", parts);

  study::Study multi;
  multi.add(composed);
  multi.add(study::Backend::baseline());
  multi.add(study::Backend::equivalent());
  study::StudyOptions mopts;
  mopts.repetitions = 3;  // equal-structure compositions run batched
  const study::Report mrep = multi.run(mopts);
  const study::Cell& mbase = mrep.at("ca8", "baseline");
  const study::Cell& meq = mrep.at("ca8", "equivalent");

  // The batched-vs-isolated ratio is measured with the same statistic on
  // both legs (best of 3) — the
  // Study above keeps its median for the baseline speed-up and the
  // accuracy verdict.
  double isolated_s = 1e100;
  double batched_s = 1e100;
  for (int rep = 0; rep < mopts.repetitions; ++rep)
    isolated_s = std::min(isolated_s, timed_run(*merged_model(composed)));
  for (int rep = 0; rep < mopts.repetitions; ++rep)
    batched_s = std::min(
        batched_s,
        timed_run(*study::Backend::equivalent().instantiate(composed)));

  std::printf("\nmulti-instance composition: %zu identical receivers, %s "
              "symbols each, one kernel\n",
              kReceivers,
              with_commas(static_cast<std::int64_t>(kMultiSymbols)).c_str());
  ConsoleTable mt({"Metric", "Baseline", "Equivalent (batched)"});
  mt.add_row({"model execution time (s)",
              format("%.3f", mbase.metrics.wall_seconds),
              format("%.3f", meq.metrics.wall_seconds)});
  mt.add_row({"kernel events",
              with_commas(static_cast<std::int64_t>(mbase.metrics.kernel_events)),
              with_commas(static_cast<std::int64_t>(meq.metrics.kernel_events))});
  mt.add_row({"TDG program nodes", "-", format("%zu", meq.graph_nodes)});
  std::printf("%s\n", mt.render().c_str());
  std::printf("speed-up vs composed baseline : %.2fx\n",
              meq.speedup_vs_reference);
  std::printf("batched vs isolated engine    : %.2fx (batched %.3f s, "
              "isolated %.3f s)\n",
              isolated_s / batched_s, batched_s, isolated_s);
  std::printf("accuracy                      : %s\n",
              meq.errors.has_value() && meq.errors->exact()
                  ? "instants and resource usage identical"
                  : "MISMATCH");
  if (!(meq.errors.has_value() && meq.errors->exact())) return 1;

  // --- Mixed composition: 4+4 receivers of two carrier variants -----------
  // The heterogeneous case (docs/DESIGN.md §10): two structurally distinct
  // receiver descriptions, four instances each, in ONE kernel. The grouped
  // equivalent model runs each equal-structure quad through its own shared
  // tdg::Program on a width-4 tdg::Engine; the fully-isolated leg compiles
  // the 8-fold merged graph onto a width-1 engine. Padding sweeps the
  // per-instance TDG complexity: at pad 0 the composition is kernel-bound
  // (both legs simulate the same boundary events, so batching is neutral);
  // the shared-program win appears as per-instance computation grows.
  constexpr std::size_t kPerVariant = 4;
  constexpr std::uint64_t kMixedSymbols = 10000;
  const auto variants =
      lte::carrier_aggregation_variants(2, kMixedSymbols, 2014);
  std::vector<model::DescPtr> variant_descs;
  for (const lte::CarrierVariant& v : variants)
    variant_descs.push_back(model::share(lte::make_receiver(v.config)));

  std::printf("\nmixed composition: %zu+%zu receivers of two carrier "
              "variants, %s symbols each, one kernel\n",
              kPerVariant, kPerVariant,
              with_commas(static_cast<std::int64_t>(kMixedSymbols)).c_str());
  ConsoleTable mixed_table(
      {"pad/instance", "isolated (s)", "batched (s)", "speed-up"});
  bool mixed_accurate = true;
  double peak_mixed_speedup = 0.0;
  for (const std::size_t pad : {0u, 200u}) {
    std::vector<study::Scenario> mixed_parts;
    for (std::size_t v = 0; v < variant_descs.size(); ++v) {
      for (std::size_t i = 0; i < kPerVariant; ++i) {
        study::Scenario s(variants[v].name + "rx" + std::to_string(i),
                          variant_descs[v]);
        s.with_pad_nodes(pad);
        mixed_parts.push_back(std::move(s));
      }
    }
    const study::Scenario mixed = study::compose("camix8", mixed_parts);

    // The last timed run of each leg keeps its traces.
    double wall[2] = {1e100, 1e100};
    std::unique_ptr<core::EquivalentModel> isolated;
    std::unique_ptr<study::Model> batched;
    for (int rep = 0; rep < mopts.repetitions; ++rep) {
      isolated = merged_model(mixed);
      wall[0] = std::min(wall[0], timed_run(*isolated));
    }
    for (int rep = 0; rep < mopts.repetitions; ++rep) {
      batched = study::Backend::equivalent().instantiate(mixed);
      wall[1] = std::min(wall[1], timed_run(*batched));
    }
    // Accuracy: the grouped and the fully-isolated legs must agree on the
    // complete composed trace set (compared on the timed runs' traces —
    // every repetition records, so no extra simulation is needed).
    mixed_accurate =
        mixed_accurate &&
        trace::compare_instants(isolated->instants(), batched->instants()) ==
            std::nullopt;

    const double speedup = wall[0] / wall[1];
    peak_mixed_speedup = std::max(peak_mixed_speedup, speedup);
    mixed_table.add_row({format("%zu", pad), format("%.3f", wall[0]),
                         format("%.3f", wall[1]), format("%.2fx", speedup)});
  }
  std::printf("%s\n", mixed_table.render().c_str());
  std::printf("peak batched-groups speed-up  : %.2fx\n", peak_mixed_speedup);
  std::printf("accuracy                      : %s\n",
              mixed_accurate ? "instants identical across legs" : "MISMATCH");
  return mixed_accurate ? 0 : 1;
}
