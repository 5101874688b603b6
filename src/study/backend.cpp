#include "study/backend.hpp"

#include <chrono>
#include <utility>

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

/// The paper's method on any scenario: the zero-group model for plain
/// scenarios and compositions without a shared description, one
/// multi-lane tdg::Engine per equal-structure sub-batch plus the inline
/// remainder otherwise — all in one kernel (docs/DESIGN.md §9–§10).
class EquivalentBackendModel final : public Model {
 public:
  EquivalentBackendModel(const Scenario& s, const RunConfig& rc)
      : eq_(s.desc_ptr(), s.options().group,
            equivalent_options(s, rc, s.batch_groups()), specs_of(s)) {
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
  /// remainder graph, not the N-fold merged graph of a zero-group model.
  GraphShape graph_shape() const override {
    const core::EquivalentModel::CompiledShape shape = eq_.compiled_shape();
    return {shape.nodes, shape.paper_nodes, shape.arcs};
  }

 private:
  /// Equal-structure sub-batches, translated from the scenario's grouping
  /// (Scenario::batch_groups()) into merged-table spans.
  static std::vector<core::EquivalentModel::GroupSpec> specs_of(
      const Scenario& s) {
    std::vector<core::EquivalentModel::GroupSpec> specs;
    specs.reserve(s.batch_groups().size());
    for (const BatchGroup& bg : s.batch_groups()) {
      core::EquivalentModel::GroupSpec spec;
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

  core::EquivalentModel eq_;
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
      return std::make_unique<EquivalentBackendModel>(scenario, config);
    case Kind::kLooselyTimed:
      return std::make_unique<LooselyTimedBackendModel>(scenario, config,
                                                        quantum_);
    case Kind::kAdaptive:
      return std::make_unique<AdaptiveModel>(scenario, config, adaptive_);
  }
  throw Error("Backend::instantiate: unreachable");
}

}  // namespace maxev::study
