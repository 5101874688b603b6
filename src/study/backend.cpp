#include "study/backend.hpp"

#include <chrono>
#include <utility>

#include "core/batch_equivalent_model.hpp"
#include "core/equivalent_model.hpp"
#include "core/lt_runner.hpp"
#include "study/adaptive.hpp"
#include "util/error.hpp"

namespace maxev::study {

namespace {

void apply_overhead(sim::Kernel& kernel, double ns) {
  if (ns > 0) {
    kernel.set_synthetic_event_overhead(
        std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
  }
}

void apply_guards(sim::Kernel& kernel, const RunConfig& rc) {
  sim::RunGuards guards;
  guards.max_events = rc.max_events;
  if (rc.deadline_ms > 0.0) {
    guards.deadline = std::chrono::nanoseconds(
        static_cast<std::int64_t>(rc.deadline_ms * 1e6));
  }
  guards.cancel = rc.cancel;
  if (guards.any()) kernel.set_run_guards(guards);
}

class BaselineModel final : public Model {
 public:
  BaselineModel(const Scenario& s, const RunConfig& rc)
      : rt_(s.desc_ptr(), {}, rc.observe) {
    apply_overhead(rt_.kernel(), rc.event_overhead_ns);
    apply_guards(rt_.kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return rt_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return rt_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return rt_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return rt_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return rt_.relation_events();
  }
  TimePoint end_time() const override { return rt_.end_time(); }
  sim::Kernel& kernel() override { return rt_.kernel(); }

 private:
  model::ModelRuntime rt_;
};

class EquivalentBackendModel final : public Model {
 public:
  EquivalentBackendModel(const Scenario& s, const RunConfig& rc)
      : eq_(s.desc_ptr(), s.options().group, options_of(s, rc)) {
    apply_overhead(eq_.runtime().kernel(), rc.event_overhead_ns);
    apply_guards(eq_.runtime().kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return eq_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return eq_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return eq_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return eq_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return eq_.relation_events();
  }
  TimePoint end_time() const override { return eq_.end_time(); }
  sim::Kernel& kernel() override { return eq_.runtime().kernel(); }
  std::uint64_t instances_computed() const override {
    return eq_.engine().instances_computed();
  }
  std::uint64_t arc_terms_evaluated() const override {
    return eq_.engine().arc_terms_evaluated();
  }
  GraphShape graph_shape() const override {
    return {eq_.graph().node_count(), eq_.graph().paper_node_count(),
            eq_.graph().arc_count()};
  }

 private:
  static core::EquivalentModel::Options options_of(const Scenario& s,
                                                   const RunConfig& rc) {
    core::EquivalentModel::Options opts;
    opts.fold = s.options().fold;
    // pad_nodes is per instance (ScenarioOptions): the merged graph of a
    // composed scenario carries one padding block per instance, matching
    // the batched path's padded base graph evaluated N times.
    opts.pad_nodes = s.composed()
                         ? s.options().pad_nodes * s.instances().size()
                         : s.options().pad_nodes;
    opts.observe = rc.observe;
    opts.expected_iterations = s.options().expected_iterations;
    opts.compiled = rc.compiled;
    return opts;
  }

  core::EquivalentModel eq_;
};

/// The batched path for composed scenarios with equal-structure
/// sub-batches: one compiled program + shared frame arena per sub-batch,
/// the isolated remainder on the merged inline engine, all in one kernel
/// (docs/DESIGN.md §9–§10).
class BatchEquivalentBackendModel final : public Model {
 public:
  BatchEquivalentBackendModel(const Scenario& s, const RunConfig& rc)
      : eq_(s.desc_ptr(), specs_of(s), options_of(s, rc)) {
    apply_overhead(eq_.runtime().kernel(), rc.event_overhead_ns);
    apply_guards(eq_.runtime().kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return eq_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return eq_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return eq_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return eq_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return eq_.relation_events();
  }
  TimePoint end_time() const override { return eq_.end_time(); }
  sim::Kernel& kernel() override { return eq_.runtime().kernel(); }
  std::uint64_t instances_computed() const override {
    return eq_.instances_computed();
  }
  std::uint64_t arc_terms_evaluated() const override {
    return eq_.arc_terms_evaluated();
  }
  /// The *compiled programs'* shape — each sub-batch's base graph plus the
  /// remainder graph, not the N-fold merged graph the isolated path would
  /// build.
  GraphShape graph_shape() const override {
    const core::BatchEquivalentModel::CompiledShape shape =
        eq_.compiled_shape();
    return {shape.nodes, shape.paper_nodes, shape.arcs};
  }

 private:
  /// Equal-structure sub-batches, translated from the scenario's grouping
  /// (Scenario::batch_groups()) into merged-table spans.
  static std::vector<core::BatchEquivalentModel::GroupSpec> specs_of(
      const Scenario& s) {
    std::vector<core::BatchEquivalentModel::GroupSpec> specs;
    specs.reserve(s.batch_groups().size());
    for (const BatchGroup& bg : s.batch_groups()) {
      core::BatchEquivalentModel::GroupSpec spec;
      spec.base = bg.base;
      spec.group = bg.group;
      for (const std::size_t m : bg.members) {
        const Instance& inst = s.instances()[m];
        spec.names.push_back(inst.name);
        spec.spans.push_back({inst.fn_begin, inst.ch_begin, inst.res_begin,
                              inst.src_begin, inst.sink_begin});
      }
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  static core::BatchEquivalentModel::Options options_of(const Scenario& s,
                                                        const RunConfig& rc) {
    core::BatchEquivalentModel::Options opts;
    opts.fold = s.options().fold;
    // pad_nodes stays per instance across every leg (ScenarioOptions): each
    // sub-batch pads its base graph once (evaluated per member) and the
    // remainder graph is padded per remainder instance below, so a mixed
    // composition runs the same padded work batched or fully isolated.
    opts.pad_nodes = s.options().pad_nodes;
    opts.observe = rc.observe;
    opts.expected_iterations = s.options().expected_iterations;

    // The isolated remainder: instances in no sub-batch keep their
    // abstracted functions on the merged inline engine. Merged-level
    // flags: the composed group restricted to those instances (empty
    // composed group = abstract everything).
    std::vector<bool> grouped(s.instances().size(), false);
    for (const BatchGroup& bg : s.batch_groups())
      for (const std::size_t m : bg.members) grouped[m] = true;
    const std::vector<bool>& composed_group = s.options().group;
    std::vector<bool> isolated;
    std::size_t isolated_count = 0;
    for (std::size_t i = 0; i < s.instances().size(); ++i) {
      if (grouped[i]) continue;
      const Instance& inst = s.instances()[i];
      if (isolated.empty()) isolated.assign(s.desc().functions().size(), false);
      for (std::size_t f = inst.fn_begin; f < inst.fn_end; ++f)
        isolated[f] = composed_group.empty() ? true : composed_group[f];
      ++isolated_count;
    }
    // All-false flags mean "no remainder at all" to the model; drop them
    // when the leftover instances abstract nothing (fully simulated).
    bool any = false;
    for (const bool f : isolated) any = any || f;
    if (any) {
      opts.isolated_group = std::move(isolated);
      opts.isolated_instances = isolated_count;
    }
    opts.threads = rc.threads;
    opts.compiled = rc.compiled;
    return opts;
  }

  core::BatchEquivalentModel eq_;
};

class LooselyTimedBackendModel final : public Model {
 public:
  LooselyTimedBackendModel(const Scenario& s, const RunConfig& rc,
                           Duration quantum)
      : lt_(s.desc_ptr(), quantum, rc.observe) {
    apply_overhead(lt_.kernel(), rc.event_overhead_ns);
    apply_guards(lt_.kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return lt_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return lt_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return empty_usage_; }
  bool records_usage() const override { return false; }
  const sim::KernelStats& kernel_stats() const override {
    return lt_.kernel_stats();
  }
  std::uint64_t relation_events() const override { return 0; }
  TimePoint end_time() const override { return lt_.end_time(); }
  sim::Kernel& kernel() override { return lt_.kernel(); }

 private:
  core::LooselyTimedModel lt_;
  trace::UsageTraceSet empty_usage_;  // LT records no resource usage
};

}  // namespace

Backend Backend::baseline() {
  return Backend(Kind::kBaseline, "baseline", Duration::ps(0));
}

Backend Backend::equivalent() {
  return Backend(Kind::kEquivalent, "equivalent", Duration::ps(0));
}

Backend Backend::loosely_timed(Duration quantum) {
  return Backend(Kind::kLooselyTimed, "lt(" + quantum.to_string() + ")",
                 quantum);
}

Backend Backend::adaptive(AdaptiveOptions opts) {
  Backend b(Kind::kAdaptive, "adaptive", Duration::ps(0));
  b.adaptive_ = opts;
  return b;
}

std::unique_ptr<Model> Backend::instantiate(const Scenario& scenario,
                                            const RunConfig& config) const {
  if (!scenario.valid())
    throw DescriptionError("Backend::instantiate: invalid scenario");
  switch (kind_) {
    case Kind::kBaseline:
      return std::make_unique<BaselineModel>(scenario, config);
    case Kind::kEquivalent:
      // Any equal-structure sub-batch (>= 2 instances sharing one
      // description + group) routes through the batched model; the fully
      // homogeneous case is the one-group special case. Compositions with
      // no sub-batch at all — and plain scenarios — take the merged
      // inline engine.
      if (config.batch_composed && scenario.partially_batchable())
        return std::make_unique<BatchEquivalentBackendModel>(scenario, config);
      return std::make_unique<EquivalentBackendModel>(scenario, config);
    case Kind::kLooselyTimed:
      return std::make_unique<LooselyTimedBackendModel>(scenario, config,
                                                        quantum_);
    case Kind::kAdaptive:
      // Composed scenarios run on the merged graph: the batched drain owns
      // the timestep-hook slot the detector needs, and the merged path is
      // pinned bit-identical to it.
      return std::make_unique<AdaptiveModel>(scenario, config, adaptive_);
  }
  throw Error("Backend::instantiate: unreachable");
}

}  // namespace maxev::study
