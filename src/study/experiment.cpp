#include "study/experiment.hpp"

#include <utility>

#include "study/study.hpp"
#include "util/error.hpp"

/// \file experiment.cpp
/// run_comparison / measure_baseline as thin wrappers over study::Study:
/// core provides the models, study orchestrates them. Behavior is identical
/// to the historical direct implementation — same run order (all baseline
/// repetitions, then all equivalent repetitions; rep-0 traces kept), same
/// median/ratio formulas, same exception types and messages, bit-identical
/// traces.

namespace maxev::study {

core::RunMetrics measure_baseline(const model::ArchitectureDesc& desc,
                                  int repetitions) {
  if (repetitions < 1) throw Error("measure_baseline: repetitions must be >= 1");
  Study st;
  st.add(Scenario("baseline", desc));
  st.add(Backend::baseline());
  StudyOptions opts;
  opts.repetitions = repetitions;
  opts.compare_traces = false;
  const Report report = st.run(opts);
  return report.cells.front().metrics;
}

core::Comparison run_comparison(const model::ArchitectureDesc& desc,
                                const ExperimentOptions& opts) {
  if (opts.repetitions < 1)
    throw Error("run_comparison: repetitions must be >= 1");

  Scenario scenario("comparison", desc);
  scenario.with_group(opts.group)
      .with_fold(opts.fold)
      .with_pad_nodes(opts.pad_nodes);

  Study st;
  st.add(std::move(scenario));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());

  StudyOptions sopts;
  sopts.repetitions = opts.repetitions;
  sopts.observe = opts.observe;
  sopts.compare_traces = opts.compare_traces;
  sopts.require_completion = opts.require_completion;
  sopts.event_overhead_ns = opts.event_overhead_ns;
  const Report report = st.run(sopts);

  const Cell* base = report.find("comparison", "baseline");
  const Cell* eq = report.find("comparison", "equivalent");

  core::Comparison cmp;
  cmp.baseline = base->metrics;
  cmp.equivalent = eq->metrics;
  cmp.speedup = eq->speedup_vs_reference;
  cmp.event_ratio = eq->event_ratio_vs_reference;
  cmp.kernel_event_ratio = eq->kernel_event_ratio_vs_reference;
  cmp.graph_nodes = eq->graph_nodes;
  cmp.graph_paper_nodes = eq->graph_paper_nodes;
  cmp.graph_arcs = eq->graph_arcs;
  if (eq->errors.has_value()) {
    cmp.instant_mismatch = eq->errors->instant_mismatch;
    cmp.usage_mismatch = eq->errors->usage_mismatch;
  }
  return cmp;
}

}  // namespace maxev::study
