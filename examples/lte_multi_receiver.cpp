/// \file lte_multi_receiver.cpp
/// Multi-instance composition: a carrier-aggregation style sweep where N
/// LTE receiver instances — different component-carrier bandwidths and
/// platform sizings — run side by side in ONE simulation kernel
/// (study::compose). Trace labels are namespaced per instance
/// ("cc0/sym_in", "cc1/dsp", ...), so each instance's metrics stay
/// isolated: the report certifies the composed equivalent model is exact
/// against the composed baseline, and per-instance latency is read off the
/// namespaced traces.

#include <cstdio>
#include <string>
#include <vector>

#include "lte/receiver.hpp"
#include "lte/scenario.hpp"
#include "study/study.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace maxev;

  std::uint64_t symbols = 10 * lte::kSymbolsPerSubframe;
  int threads = 1;
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [symbol-count] [--threads N]\n", argv[0]);
    return 2;
  };
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--threads") {
      const auto n = ++a < argc ? parse_count(argv[a]) : std::nullopt;
      if (!n) return usage();
      threads = static_cast<int>(*n);
    } else {
      const auto n = parse_count(arg.c_str());
      if (!n) return usage();
      symbols = *n;
    }
  }

  // Four component carriers: bandwidth (fixed PRB allocation) and platform
  // sizing vary per instance; each gets its own frame schedule.
  const std::vector<lte::CarrierVariant> carriers =
      lte::carrier_aggregation_variants(4, symbols);

  std::vector<study::Scenario> receivers;
  for (const lte::CarrierVariant& cc : carriers)
    receivers.emplace_back(cc.name, lte::make_receiver(cc.config));

  const study::Scenario aggregate = study::compose("ca4", receivers);
  std::printf("carrier aggregation: %zu receivers, %s symbols each, one "
              "kernel (%zu functions, %zu relations)\n\n",
              receivers.size(),
              with_commas(static_cast<std::int64_t>(symbols)).c_str(),
              aggregate.desc().functions().size(),
              aggregate.desc().channels().size());

  // The composed scenario through both backends: the report certifies that
  // all four receivers' instants stay exact inside the shared kernel, and
  // measures the aggregate speed-up. keep_traces retains the run's
  // observation traces so the per-instance analysis below needs no second
  // simulation.
  study::Study st;
  st.add(aggregate);
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.keep_traces = true;
  // Both parallelism levers (docs/DESIGN.md §11): measure the two backend
  // cells concurrently, and drain equal-structure sub-batches on workers.
  // Each carrier builds its own description, so no sub-batch forms here
  // and group_threads has no effect; the composed run is the zero-group
  // equivalent model. Traces/report are identical at any setting.
  opts.threads = threads;
  opts.group_threads = threads;
  const study::Report report = st.run(opts);
  std::printf("%s\n", report.to_string().c_str());

  const study::Cell* eq = report.find("ca4", "equivalent");
  if (eq == nullptr || !eq->errors.has_value() || !eq->errors->exact()) {
    std::fprintf(stderr, "composed equivalent model is not exact\n");
    return 1;
  }

  // Per-instance isolation: each receiver's latency and DSP utilization,
  // extracted from the one composed run via the namespaced traces.
  const TimePoint end = eq->metrics.sim_end;
  ConsoleTable per_rx({"carrier", "PRB", "DSP (GOPS)", "worst latency (us)",
                       "DSP util"});
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    const std::string& name = receivers[i].name();
    const trace::InstantTraceSet instants =
        study::instance_instants(*eq->instants, name);
    const trace::UsageTraceSet usage = study::instance_usage(*eq->usage, name);
    const double worst_us = lte::worst_symbol_latency_us(instants);
    double util = 0.0;
    if (const trace::UsageTrace* dsp = usage.find("dsp"))
      util = dsp->utilization(end);
    per_rx.add_row({name, format("%d", carriers[i].n_prb),
                    format("%.0f", carriers[i].config.dsp_ops_per_second / 1e9),
                    format("%.1f", worst_us), format("%.0f%%", 100.0 * util)});
  }
  std::printf("%s\n", per_rx.render().c_str());
  std::printf("aggregate speed-up vs event-driven baseline: %.1fx "
              "(event ratio %.1f), instants exact per instance.\n",
              eq->speedup_vs_reference, eq->event_ratio_vs_reference);
  return 0;
}
