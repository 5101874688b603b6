#include "core/equivalent_model.hpp"

#include "util/error.hpp"

namespace maxev::core {

EquivalentModel::EquivalentModel(const model::ArchitectureDesc& desc,
                                 std::vector<bool> group)
    : EquivalentModel(std::make_shared<const model::ArchitectureDesc>(desc),
                      std::move(group), Options{}) {}

EquivalentModel::EquivalentModel(const model::ArchitectureDesc& desc,
                                 std::vector<bool> group, Options opts)
    : EquivalentModel(std::make_shared<const model::ArchitectureDesc>(desc),
                      std::move(group), opts) {}

EquivalentModel::EquivalentModel(model::DescPtr desc_in,
                                 std::vector<bool> group)
    : EquivalentModel(std::move(desc_in), std::move(group), Options{}) {}

EquivalentModel::EquivalentModel(model::DescPtr desc_in,
                                 std::vector<bool> group, Options opts)
    : desc_(std::move(desc_in)), group_(std::move(group)) {
  if (desc_ == nullptr)
    throw DescriptionError("EquivalentModel: null description");
  const model::ArchitectureDesc& desc = *desc_;
  if (group_.empty()) group_.assign(desc.functions().size(), true);
  group_.resize(desc.functions().size(), false);

  // Obtain the compiled abstraction (derive + fold + pad + freeze +
  // Program::compile) — from the provider's cache when one is given.
  compiled_ = obtain_compiled(
      opts.compiled, CompiledKey{desc_, group_, opts.fold, opts.pad_nodes});

  // Simulate everything outside the group (sharing the description).
  runtime_ = std::make_unique<model::ModelRuntime>(desc_, group_, opts.observe);
  tdg::Engine::Options eng_opts;
  if (opts.observe) {
    eng_opts.instant_sink = &runtime_->mutable_instants();
    eng_opts.usage_sink = &runtime_->mutable_usage();
    eng_opts.expected_iterations = opts.expected_iterations > 0
                                       ? opts.expected_iterations
                                       : desc.max_source_tokens();
  }
  engine_ = std::make_unique<tdg::Engine>(compiled_->graph, compiled_->program,
                                          eng_opts);

  // The reception/emission machinery; the abstraction speaks the
  // description's own ids, so no placement shift.
  boundary_.emplace(*runtime_, *compiled_, SoloLane(*engine_),
                    Boundary<SoloLane>::Placement{});
}

model::ModelRuntime::Outcome EquivalentModel::run(
    std::optional<TimePoint> until) {
  model::ModelRuntime::Outcome out = runtime_->run(until);
  if (!out.completed && (out.idle || sim::is_guard_stop(out.stop))) {
    // Only this layer knows which gated receptions parked an offer whose
    // computed completion never became known.
    boundary_->append_parked_gates(out.diagnostics.unresolved_gates);
    // Guard stops render the enriched summary; idle-stall wording stays
    // the runtime's (pinned).
    if (sim::is_guard_stop(out.stop)) out.stall_report = out.diagnostics.summary();
  }
  return out;
}

}  // namespace maxev::core
