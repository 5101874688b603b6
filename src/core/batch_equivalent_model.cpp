#include "core/batch_equivalent_model.hpp"

#include <algorithm>
#include <utility>

#include "tdg/simplify.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace maxev::core {

namespace {

/// Validate that the merged description's slice at \p span is a structural
/// replication of \p base under the "<name>/" namespace prefix, checking
/// the same surface as model::structurally_equal (table blocks, prefixed
/// names, resource policies/rates, channel kinds/capacities, function body
/// sizes, source token counts). Workload/schedule std::functions cannot be
/// compared; the study layer guarantees them by handing every member the
/// same shared description (docs/DESIGN.md §10).
void validate_replication(const model::ArchitectureDesc& merged,
                          const model::ArchitectureDesc& base,
                          const std::string& name,
                          const BatchEquivalentModel::InstanceSpan& span) {
  const std::string prefix = name + "/";
  const auto mismatch = [&](const std::string& what) {
    throw DescriptionError(
        "BatchEquivalentModel: merged description disagrees with the group "
        "base on " + what + " of instance '" + name + "'");
  };
  if (span.res + base.resources().size() > merged.resources().size() ||
      span.ch + base.channels().size() > merged.channels().size() ||
      span.fn + base.functions().size() > merged.functions().size() ||
      span.src + base.sources().size() > merged.sources().size() ||
      span.sink + base.sinks().size() > merged.sinks().size())
    throw DescriptionError(
        "BatchEquivalentModel: instance '" + name +
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

BatchEquivalentModel::~BatchEquivalentModel() = default;

BatchEquivalentModel::BatchEquivalentModel(model::DescPtr merged,
                                           std::vector<GroupSpec> groups,
                                           Options opts)
    : desc_(std::move(merged)) {
  if (desc_ == nullptr)
    throw DescriptionError("BatchEquivalentModel: null description");
  if (groups.empty())
    throw DescriptionError("BatchEquivalentModel: no sub-batches");

  groups_.reserve(groups.size());
  for (GroupSpec& spec : groups) {
    if (spec.base == nullptr)
      throw DescriptionError("BatchEquivalentModel: null group base");
    if (spec.names.empty() || spec.names.size() != spec.spans.size())
      throw DescriptionError(
          "BatchEquivalentModel: group needs matching member names/spans");
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

  // Members must occupy pairwise-disjoint blocks of the merged tables:
  // overlapping spans would pass each per-member replication check yet
  // wire two gated readers / emission processes onto one channel. Checked
  // on the function table (every instance owns >= 1 function, and the
  // other tables follow the same composition layout).
  std::vector<std::pair<std::size_t, std::size_t>> fn_blocks;
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      fn_blocks.emplace_back(span.fn, span.fn + g.base->functions().size());
  std::sort(fn_blocks.begin(), fn_blocks.end());
  for (std::size_t i = 1; i < fn_blocks.size(); ++i)
    if (fn_blocks[i].first < fn_blocks[i - 1].second)
      throw DescriptionError(
          "BatchEquivalentModel: sub-batch member spans overlap");

  // Simulate everything outside the abstracted functions from the merged
  // description — the identical runtime the merged equivalent model uses,
  // so kernel behaviour (and every per-instance trace) matches it bit for
  // bit. Skip flags: every group member's abstracted functions at its
  // span, plus the isolated remainder's merged-level flags.
  std::vector<bool> merged_skip(desc_->functions().size(), false);
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      for (std::size_t f = 0; f < g.gflags.size(); ++f)
        if (g.gflags[f]) merged_skip[span.fn + f] = true;
  if (!opts.isolated_group.empty()) {
    if (opts.isolated_group.size() != desc_->functions().size())
      throw DescriptionError(
          "BatchEquivalentModel: isolated_group must be merged-sized");
    for (std::size_t f = 0; f < merged_skip.size(); ++f) {
      if (!opts.isolated_group[f]) continue;
      if (merged_skip[f])
        throw DescriptionError(
            "BatchEquivalentModel: isolated_group overlaps a sub-batch");
      merged_skip[f] = true;
    }
  }
  runtime_ =
      std::make_unique<model::ModelRuntime>(desc_, merged_skip, opts.observe);

  for (std::size_t g = 0; g < groups_.size(); ++g) build_group(g, opts);
  build_isolated(opts);

  // Iteration fronts drain at timestep boundaries: every instance's feeds
  // of one simulated instant accumulate before one batched propagation —
  // one hook flushing every sub-batch engine (the isolated remainder's
  // inline engine propagates eagerly and needs no flush).
  //
  // With >= 2 groups and Options::threads > 1 the drain splits into a
  // parallel compute phase (each engine flushes on its own worker with
  // callbacks deferred — groups share no frames, and every observer an
  // engine touches during flush is engine-private) and a serial publish
  // phase firing the deferred callbacks in group order. Callbacks may
  // resume writer coroutines that feed an engine again; those feeds land
  // on its worklist and the hook's `true` return re-invokes it at the
  // same instant — the per-engine callback sequence, and with it every
  // per-instance trace, matches the serial drain exactly (docs/DESIGN.md
  // §11).
  const std::size_t drain_threads =
      opts.threads == 1 ? 1 : util::ThreadPool::resolve(opts.threads);
  if (drain_threads > 1 && groups_.size() > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        std::min(drain_threads, groups_.size()) - 1);  // caller participates
    drained_.assign(groups_.size(), 0);
    runtime_->kernel().set_timestep_hook([this] {
      pool_->parallel_for(groups_.size(), [this](std::size_t g) {
        drained_[g] = groups_[g].engine->flush_deferred() ? 1 : 0;
      });
      bool any = false;
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        groups_[g].engine->fire_deferred();
        any = any || drained_[g] != 0;
      }
      return any;
    });
  } else {
    runtime_->kernel().set_timestep_hook([this] {
      bool any = false;
      for (Group& g : groups_) any = g.engine->flush() || any;
      return any;
    });
  }
}

void BatchEquivalentModel::build_group(std::size_t gi, const Options& opts) {
  Group& grp = groups_[gi];
  const model::ArchitectureDesc& bd = *grp.base;
  const std::size_t width = grp.names.size();

  // Obtain the group's compiled base abstraction once; every member shares
  // the resulting program (one tdg::Program per sub-batch). A provider
  // additionally deduplicates across groups, cells and runs.
  grp.compiled = obtain_compiled(
      opts.compiled,
      CompiledKey{grp.base, grp.gflags, opts.fold, opts.pad_nodes});

  tdg::BatchEngine::Options eng_opts;
  eng_opts.instances.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    tdg::BatchEngine::InstanceSinks& sinks = eng_opts.instances[i];
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
  grp.engine = std::make_unique<tdg::BatchEngine>(
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

void BatchEquivalentModel::build_isolated(const Options& opts) {
  bool any = false;
  for (const bool f : opts.isolated_group) any = any || f;
  if (!any) return;

  // The isolated remainder IS the merged path, scoped to the leftover
  // instances: one TDG derived from the merged description restricted to
  // their abstracted functions, evaluated by one inline tdg::Engine. Node
  // and trace names already carry the instance prefixes (they come from
  // the merged description), so the engine's sinks bind directly.
  // pad_nodes is per instance: the remainder graph spans
  // isolated_instances of them (the same accounting the fully-isolated
  // merged path applies N-fold).
  iso_compiled_ = obtain_compiled(
      opts.compiled,
      CompiledKey{desc_, opts.isolated_group, opts.fold,
                  opts.pad_nodes * opts.isolated_instances});

  tdg::Engine::Options eng_opts;
  if (opts.observe) {
    eng_opts.instant_sink = &runtime_->mutable_instants();
    eng_opts.usage_sink = &runtime_->mutable_usage();
    eng_opts.expected_iterations = opts.expected_iterations > 0
                                       ? opts.expected_iterations
                                       : desc_->max_source_tokens();
  }
  iso_engine_ = std::make_unique<tdg::Engine>(iso_compiled_->graph,
                                              iso_compiled_->program, eng_opts);

  // The merged path's boundary, verbatim: merged ids, merged node names.
  iso_boundary_.emplace(*runtime_, *iso_compiled_, SoloLane(*iso_engine_),
                        Boundary<SoloLane>::Placement{});
}

std::uint64_t BatchEquivalentModel::instances_computed() const {
  std::uint64_t total = 0;
  for (const Group& g : groups_) total += g.engine->instances_computed();
  if (iso_engine_ != nullptr) total += iso_engine_->instances_computed();
  return total;
}

std::uint64_t BatchEquivalentModel::arc_terms_evaluated() const {
  std::uint64_t total = 0;
  for (const Group& g : groups_) total += g.engine->arc_terms_evaluated();
  if (iso_engine_ != nullptr) total += iso_engine_->arc_terms_evaluated();
  return total;
}

BatchEquivalentModel::CompiledShape BatchEquivalentModel::compiled_shape()
    const {
  CompiledShape shape;
  for (const Group& g : groups_) {
    shape.nodes += g.compiled->graph.node_count();
    shape.paper_nodes += g.compiled->graph.paper_node_count();
    shape.arcs += g.compiled->graph.arc_count();
  }
  if (iso_engine_ != nullptr) {
    shape.nodes += iso_compiled_->graph.node_count();
    shape.paper_nodes += iso_compiled_->graph.paper_node_count();
    shape.arcs += iso_compiled_->graph.arc_count();
  }
  return shape;
}

model::ModelRuntime::Outcome BatchEquivalentModel::run(
    std::optional<TimePoint> until) {
  model::ModelRuntime::Outcome out = runtime_->run(until);
  if (!out.completed && (out.idle || sim::is_guard_stop(out.stop))) {
    // Parked gated offers (group members named "<member>/<node>", the
    // remainder by its merged node names), then each group member's token
    // progress through the merged runtime's sinks — diagnostics the merged
    // stall report cannot attribute.
    for (const Group& g : groups_)
      for (const auto& b : g.boundaries)
        b->append_parked_gates(out.diagnostics.unresolved_gates);
    if (iso_boundary_)
      iso_boundary_->append_parked_gates(out.diagnostics.unresolved_gates);
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
    if (sim::is_guard_stop(out.stop)) out.stall_report = out.diagnostics.summary();
  }
  return out;
}

}  // namespace maxev::core
