#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/desc.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file scenario.hpp
/// A value-semantic scenario: *what* to evaluate. A Scenario couples shared
/// ownership of a validated model::ArchitectureDesc with a name, the
/// abstraction group, and the per-run modelling options (graph folding,
/// padding, observation-sink sizing). Scenarios are cheap to copy and safe
/// to build from temporaries — the dangling-reference hazards of the
/// reference-holding model constructors do not exist at this layer.
///
/// compose() merges N scenario instances into one scenario whose description
/// contains every instance side by side with namespaced names
/// ("<instance>/<name>"). Running a composed scenario on any backend puts
/// all instances into ONE simulation kernel — the multi-instance workloads
/// of the ROADMAP (N LTE receivers, carrier-aggregation variants) — while
/// instance_instants()/instance_usage() recover each instance's traces for
/// per-instance metric isolation.

namespace maxev::study {

/// Per-run modelling options of a scenario (consumed by the equivalent
/// backend; the baseline and loosely-timed backends ignore them).
struct ScenarioOptions {
  /// Abstraction group: per-function flags, true = replaced by the
  /// equivalent model. Empty = abstract every function.
  std::vector<bool> group;
  /// Fold pass-through completion nodes (paper's Fig. 3 compact form).
  bool fold = true;
  /// Insert this many pass-through padding nodes (Fig. 5 sweeps). For a
  /// composed scenario this is *per instance*: a sub-batch pads its base
  /// graph (evaluated once per member) and the inline remainder pads its
  /// graph once per instance it spans, so every leg executes the same
  /// padded workload.
  std::size_t pad_nodes = 0;
  /// Capacity hint for the observation sinks: expected iteration count.
  /// 0 = derive from the description (largest source token count).
  std::size_t expected_iterations = 0;
};

/// One equal-structure sub-batch of a composed scenario: the description
/// every member shares, the (base-level) abstraction group they agree on,
/// and the member instance indices in composition order. Grouping rules
/// (docs/DESIGN.md §10): members must hold the SAME model::DescPtr and the
/// same group vector. Pointer identity implies structural equality and
/// supplies the behavioural guarantee that model::structurally_equal
/// cannot (the opaque workload std::functions). Only groups of >= 2
/// members are recorded; everything else is the inline remainder the
/// equivalent model evaluates on its merged-description engine.
struct BatchGroup {
  model::DescPtr base;
  /// Base-level abstraction group, normalized to explicit per-function
  /// flags (an instance's empty "abstract everything" group and its
  /// explicit all-true form land in the same sub-batch).
  std::vector<bool> group;
  std::vector<std::size_t> members;  ///< indices into Scenario::instances()
};

/// One instance inside a composed scenario: its name and the half-open id
/// ranges it occupies in the merged description.
struct Instance {
  std::string name;
  std::size_t fn_begin = 0, fn_end = 0;
  std::size_t ch_begin = 0, ch_end = 0;
  std::size_t res_begin = 0, res_end = 0;
  std::size_t src_begin = 0, src_end = 0;
  std::size_t sink_begin = 0, sink_end = 0;
};

class Scenario {
 public:
  Scenario() = default;

  /// Take the description by value (validating it) into shared ownership.
  Scenario(std::string name, model::ArchitectureDesc desc);
  /// Adopt an already-shared description (no copy).
  Scenario(std::string name, model::DescPtr desc);

  /// \name Fluent per-run options
  /// @{
  Scenario& with_group(std::vector<bool> group);
  Scenario& with_fold(bool fold);
  Scenario& with_pad_nodes(std::size_t n);
  Scenario& with_expected_iterations(std::size_t n);
  /// @}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const model::ArchitectureDesc& desc() const { return *desc_; }
  [[nodiscard]] const model::DescPtr& desc_ptr() const { return desc_; }
  [[nodiscard]] const ScenarioOptions& options() const { return options_; }
  [[nodiscard]] bool valid() const { return desc_ != nullptr; }

  /// Instances of a composed scenario, in composition order. Empty for a
  /// plain (single-instance) scenario.
  [[nodiscard]] const std::vector<Instance>& instances() const {
    return instances_;
  }
  [[nodiscard]] bool composed() const { return !instances_.empty(); }

  /// The equal-structure sub-batches of a composed scenario (>= 2 members
  /// each; possibly several — the heterogeneous carrier-aggregation case,
  /// docs/DESIGN.md §10). Instances in no group form the inline remainder.
  /// Empty for plain scenarios and for compositions with no two instances
  /// sharing a description+group: the zero-group case of the equivalent
  /// model.
  [[nodiscard]] const std::vector<BatchGroup>& batch_groups() const {
    return batch_groups_;
  }

 private:
  friend Scenario compose(std::string, const std::vector<Scenario>&);

  std::string name_;
  model::DescPtr desc_;
  ScenarioOptions options_;
  std::vector<Instance> instances_;
  std::vector<BatchGroup> batch_groups_;
};

/// Merge N scenario instances into one scenario running in one kernel.
/// Every resource, channel, function, source and sink of instance i is
/// replicated under the name "<instance-name>/<original-name>"; schedule
/// order inside each instance is preserved; abstraction groups concatenate
/// (an instance with an empty group contributes all-true flags when any
/// other instance restricts its group). Instance names must be unique,
/// non-empty and free of '/' (the namespace separator), and all instances
/// must agree on the graph-transform options (fold, pad_nodes) — they
/// apply to the merged graph as a whole.
/// \throws maxev::DescriptionError on empty input, bad or duplicate names,
///         or disagreeing fold/pad options.
[[nodiscard]] Scenario compose(std::string name,
                               const std::vector<Scenario>& instances);

/// Extract one instance's evolution-instant traces from a composed run:
/// keeps the series named "<instance>/..." and strips the prefix, yielding
/// traces directly comparable with the instance's solo run.
[[nodiscard]] trace::InstantTraceSet instance_instants(
    const trace::InstantTraceSet& composed, const std::string& instance);

/// Same extraction for resource-usage traces (resource names and busy-
/// interval labels are both un-prefixed).
[[nodiscard]] trace::UsageTraceSet instance_usage(
    const trace::UsageTraceSet& composed, const std::string& instance);

}  // namespace maxev::study
