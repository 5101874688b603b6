#include "core/equivalent_model.hpp"

#include <algorithm>
#include <utility>

#include "util/crew.hpp"
#include "util/error.hpp"

namespace maxev::core {

namespace {

/// Validate that the description's slice at \p span is a structural
/// replication of \p base under the "<name>/" namespace prefix, checking
/// the same surface as model::structurally_equal (table blocks, prefixed
/// names, resource policies/rates, channel kinds/capacities, function body
/// sizes, source token counts). Workload/schedule std::functions cannot be
/// compared; the study layer guarantees them by handing every member the
/// same shared description (docs/DESIGN.md §10).
void validate_replication(const model::ArchitectureDesc& merged,
                          const model::ArchitectureDesc& base,
                          const std::string& name,
                          const EquivalentModel::InstanceSpan& span) {
  const std::string prefix = name + "/";
  const auto mismatch = [&](const std::string& what) {
    throw DescriptionError(
        "EquivalentModel: merged description disagrees with the group "
        "base on " + what + " of instance '" + name + "'");
  };
  if (span.res + base.resources().size() > merged.resources().size() ||
      span.ch + base.channels().size() > merged.channels().size() ||
      span.fn + base.functions().size() > merged.functions().size() ||
      span.src + base.sources().size() > merged.sources().size() ||
      span.sink + base.sinks().size() > merged.sinks().size())
    throw DescriptionError(
        "EquivalentModel: instance '" + name +
        "' span exceeds the merged description's tables");
  for (std::size_t r = 0; r < base.resources().size(); ++r) {
    const auto& m = merged.resources()[span.res + r];
    const auto& b = base.resources()[r];
    if (m.name != prefix + b.name || m.policy != b.policy ||
        m.ops_per_second != b.ops_per_second)
      mismatch("resource '" + b.name + "'");
  }
  for (std::size_t c = 0; c < base.channels().size(); ++c) {
    const auto& m = merged.channels()[span.ch + c];
    const auto& b = base.channels()[c];
    if (m.name != prefix + b.name || m.kind != b.kind ||
        m.capacity != b.capacity)
      mismatch("channel '" + b.name + "'");
  }
  for (std::size_t f = 0; f < base.functions().size(); ++f) {
    const auto& m = merged.functions()[span.fn + f];
    const auto& b = base.functions()[f];
    if (m.name != prefix + b.name || m.body.size() != b.body.size())
      mismatch("function '" + b.name + "'");
  }
  for (std::size_t s = 0; s < base.sources().size(); ++s) {
    const auto& m = merged.sources()[span.src + s];
    const auto& b = base.sources()[s];
    if (m.name != prefix + b.name || m.count != b.count)
      mismatch("source '" + b.name + "'");
  }
}

}  // namespace

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

EquivalentModel::~EquivalentModel() = default;

EquivalentModel::EquivalentModel(model::DescPtr desc_in,
                                 std::vector<bool> group, Options opts,
                                 std::vector<GroupSpec> groups)
    : desc_(std::move(desc_in)), group_(std::move(group)) {
  if (desc_ == nullptr)
    throw DescriptionError("EquivalentModel: null description");
  if (opts.threads < 0)
    throw Error("EquivalentModel: threads must be >= 0 (1 = serial drain, "
                "0 = one per hardware thread)");
  const std::size_t n_fns = desc_->functions().size();

  groups_.reserve(groups.size());
  for (GroupSpec& spec : groups) {
    if (spec.base == nullptr)
      throw DescriptionError("EquivalentModel: null group base");
    if (spec.names.empty() || spec.names.size() != spec.spans.size())
      throw DescriptionError(
          "EquivalentModel: group needs matching member names/spans");
    Group g;
    g.base = std::move(spec.base);
    g.gflags = std::move(spec.group);
    if (g.gflags.empty()) g.gflags.assign(g.base->functions().size(), true);
    g.gflags.resize(g.base->functions().size(), false);
    g.names = std::move(spec.names);
    g.spans = std::move(spec.spans);
    for (std::size_t m = 0; m < g.names.size(); ++m)
      validate_replication(*desc_, *g.base, g.names[m], g.spans[m]);
    groups_.push_back(std::move(g));
  }

  // Members must occupy pairwise-disjoint blocks of the description's
  // tables: overlapping spans would pass each per-member replication check
  // yet wire two gated readers / emission processes onto one channel.
  // Checked on the function table (every instance owns >= 1 function, and
  // the other tables follow the same composition layout).
  std::vector<std::pair<std::size_t, std::size_t>> fn_blocks;
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      fn_blocks.emplace_back(span.fn, span.fn + g.base->functions().size());
  std::sort(fn_blocks.begin(), fn_blocks.end());
  for (std::size_t i = 1; i < fn_blocks.size(); ++i)
    if (fn_blocks[i].first < fn_blocks[i - 1].second)
      throw DescriptionError(
          "EquivalentModel: sub-batch member spans overlap");

  // The inline remainder's flags: the requested group (empty = all),
  // cleared inside every member block. Runtime skip flags: the remainder
  // plus every member's abstracted functions at its span.
  if (group_.empty()) group_.assign(n_fns, true);
  group_.resize(n_fns, false);
  std::vector<bool> skip = group_;
  for (const auto& [begin, end] : fn_blocks)
    for (std::size_t f = begin; f < end; ++f) group_[f] = false;
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      for (std::size_t f = 0; f < g.gflags.size(); ++f)
        skip[span.fn + f] = g.gflags[f];

  // Simulate everything outside the abstracted functions, sharing the
  // description: one runtime, so kernel behaviour (and every per-instance
  // trace) is the same whichever engine evaluates an instance.
  runtime_ = std::make_unique<model::ModelRuntime>(desc_, skip, opts.observe);

  for (Group& g : groups_) build_group(g, opts);
  build_remainder(opts);
  if (!groups_.empty()) install_drain(opts.threads);
}

void EquivalentModel::build_group(Group& grp, const Options& opts) {
  const model::ArchitectureDesc& bd = *grp.base;
  const std::size_t width = grp.names.size();

  // Obtain the group's compiled base abstraction once; every member shares
  // the resulting program (one tdg::Program per sub-batch). A provider
  // additionally deduplicates across groups, cells and runs.
  grp.compiled = obtain_compiled(
      opts.compiled,
      CompiledKey{grp.base, grp.gflags, opts.fold, opts.pad_nodes});

  tdg::Engine::Options eng_opts;
  eng_opts.instances.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    tdg::Engine::InstanceSinks& sinks = eng_opts.instances[i];
    sinks.scope = grp.names[i] + "/";
    if (opts.observe) {
      sinks.instant_sink = &runtime_->mutable_instants();
      sinks.usage_sink = &runtime_->mutable_usage();
    }
  }
  if (opts.observe) {
    eng_opts.expected_iterations = opts.expected_iterations > 0
                                       ? opts.expected_iterations
                                       : bd.max_source_tokens();
  }
  grp.engine = std::make_unique<tdg::Engine>(
      grp.compiled->graph, grp.compiled->program, std::move(eng_opts));

  // One boundary per member on its engine lane: the base abstraction's
  // channel and source ids shift to the member's merged-table span.
  grp.boundaries.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    const InstanceSpan& span = grp.spans[i];
    grp.boundaries.push_back(std::make_unique<Boundary<BatchLane>>(
        *runtime_, *grp.compiled, BatchLane(*grp.engine, i),
        Boundary<BatchLane>::Placement{
            static_cast<model::ChannelId>(span.ch),
            static_cast<model::SourceId>(span.src), grp.names[i] + "/"}));
  }
}

void EquivalentModel::build_remainder(const Options& opts) {
  if (!groups_.empty() &&
      std::find(group_.begin(), group_.end(), true) == group_.end())
    return;

  // One TDG derived from the description restricted to the remainder's
  // functions, evaluated by one width-1 tdg::Engine. Node and trace names
  // come from the description itself (instance prefixes included), so the
  // engine's sinks bind directly and no placement shift applies.
  compiled_ = obtain_compiled(
      opts.compiled, CompiledKey{desc_, group_, opts.fold,
                                 opts.pad_nodes * opts.remainder_instances});

  tdg::Engine::Options eng_opts;
  if (opts.observe) {
    eng_opts.instances[0].instant_sink = &runtime_->mutable_instants();
    eng_opts.instances[0].usage_sink = &runtime_->mutable_usage();
    eng_opts.expected_iterations = opts.expected_iterations > 0
                                       ? opts.expected_iterations
                                       : desc_->max_source_tokens();
  }
  engine_ = std::make_unique<tdg::Engine>(compiled_->graph, compiled_->program,
                                          std::move(eng_opts));
  boundary_.emplace(*runtime_, *compiled_, SoloLane(*engine_),
                    Boundary<SoloLane>::Placement{});
}

void EquivalentModel::install_drain(int threads) {
  // Iteration fronts drain at timestep boundaries: every instance's feeds
  // of one simulated instant accumulate before one batched propagation —
  // one hook flushing every sub-batch engine (the inline remainder's
  // SoloLane flushes after every feed and needs no hook).
  //
  // With >= 2 groups and threads > 1 a barrier at which at least two
  // engines have work splits into a parallel compute phase (each engine
  // flushes on a util::Crew slot with callbacks deferred — groups share no
  // frames, and every observer an engine touches during flush is
  // engine-private) and a serial publish phase firing the deferred
  // callbacks in group order. Callbacks may resume writer coroutines that
  // feed an engine again; those feeds land on its worklist and the hook's
  // `true` return re-invokes it at the same instant — the per-engine
  // callback sequence, and with it every per-instance trace, matches the
  // serial drain exactly (docs/DESIGN.md §11). A barrier with fewer busy
  // engines has nothing to overlap and takes the serial drain inline.
  const auto serial_drain = [this] {
    bool any = false;
    for (Group& g : groups_) any = g.engine->flush() || any;
    return any;
  };
  const std::size_t drain_threads = util::resolve_threads(threads);
  if (drain_threads <= 1 || groups_.size() <= 1) {
    runtime_->kernel().set_timestep_hook(serial_drain);
    return;
  }
  drained_.assign(groups_.size(), 0);
  drain_body_ = [this](std::size_t g) {
    drained_[g] = groups_[g].engine->flush_deferred() ? 1 : 0;
  };
  // The caller runs slot 0; the crew spawns at most one worker per
  // further group.
  crew_ = std::make_unique<util::Crew>(
      std::min(drain_threads, groups_.size()) - 1);
  runtime_->kernel().set_timestep_hook([this, serial_drain] {
    std::size_t busy = 0;
    for (const Group& g : groups_) busy += g.engine->has_work() ? 1 : 0;
    if (busy < 2) return serial_drain();
    crew_->run(groups_.size(), drain_body_);
    bool any = false;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      groups_[g].engine->fire_deferred();
      any = any || drained_[g] != 0;
    }
    return any;
  });
}

std::uint64_t EquivalentModel::instances_computed() const {
  std::uint64_t total = 0;
  for (const Group& g : groups_) total += g.engine->instances_computed();
  if (engine_ != nullptr) total += engine_->instances_computed();
  return total;
}

std::uint64_t EquivalentModel::arc_terms_evaluated() const {
  std::uint64_t total = 0;
  for (const Group& g : groups_) total += g.engine->arc_terms_evaluated();
  if (engine_ != nullptr) total += engine_->arc_terms_evaluated();
  return total;
}

EquivalentModel::CompiledShape EquivalentModel::compiled_shape() const {
  CompiledShape shape;
  const auto add = [&shape](const tdg::Graph& g) {
    shape.nodes += g.node_count();
    shape.paper_nodes += g.paper_node_count();
    shape.arcs += g.arc_count();
  };
  for (const Group& g : groups_) add(g.compiled->graph);
  if (compiled_ != nullptr) add(compiled_->graph);
  return shape;
}

model::ModelRuntime::Outcome EquivalentModel::run(
    std::optional<TimePoint> until) {
  model::ModelRuntime::Outcome out = runtime_->run(until);
  if (!out.completed && (out.idle || sim::is_guard_stop(out.stop))) {
    // Only this layer knows which gated receptions parked an offer whose
    // computed completion never became known: group members named
    // "<member>/<node>", the remainder by its description's node names.
    // Then each group member's token progress through the runtime's sinks
    // — diagnostics the runtime's stall report cannot attribute.
    for (const Group& g : groups_)
      for (const auto& b : g.boundaries)
        b->append_parked_gates(out.diagnostics.unresolved_gates);
    if (boundary_)
      boundary_->append_parked_gates(out.diagnostics.unresolved_gates);
    for (const Group& g : groups_) {
      std::uint64_t expected = 0;
      if (!g.base->sources().empty()) {
        expected = g.base->sources()[0].count;
        for (const auto& src : g.base->sources())
          expected = std::min(expected, src.count);
      }
      const std::size_t n_sinks = g.base->sinks().size();
      for (std::size_t m = 0; m < g.names.size(); ++m) {
        std::uint64_t done = expected;
        for (std::size_t s = 0; s < n_sinks; ++s)
          done = std::min(done,
                          runtime_->sink_received(static_cast<model::SinkId>(
                              g.spans[m].sink + s)));
        out.diagnostics.instances.push_back({g.names[m], done, expected});
      }
    }
    // Guard stops render the enriched summary; idle-stall wording stays
    // the runtime's (pinned).
    if (sim::is_guard_stop(out.stop)) out.stall_report = out.diagnostics.summary();
  }
  return out;
}

}  // namespace maxev::core
