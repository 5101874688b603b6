#include "core/batch_equivalent_model.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "tdg/simplify.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace maxev::core {

using model::ChannelKind;
using model::Token;

namespace {

/// Validate that the merged description's slice at \p span is a structural
/// replication of \p base under the "<name>/" namespace prefix — the
/// per-member generalization of the PR-4 N-fold validator, checking the
/// same surface as model::structurally_equal (table blocks, prefixed
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
                                           model::DescPtr base,
                                           std::vector<std::string> names,
                                           std::vector<bool> group)
    : BatchEquivalentModel(std::move(merged), std::move(base),
                           std::move(names), std::move(group), Options{}) {}

BatchEquivalentModel::BatchEquivalentModel(model::DescPtr merged,
                                           model::DescPtr base,
                                           std::vector<std::string> names,
                                           std::vector<bool> group,
                                           Options opts)
    : BatchEquivalentModel(
          std::move(merged),
          [&]() -> std::vector<GroupSpec> {
            if (base == nullptr)
              throw DescriptionError("BatchEquivalentModel: null description");
            GroupSpec spec;
            spec.base = base;
            spec.group = std::move(group);
            spec.names = std::move(names);
            // The homogeneous layout: instance i occupies the contiguous
            // block [i * n, (i + 1) * n) of every merged table.
            for (std::size_t i = 0; i < spec.names.size(); ++i) {
              InstanceSpan span;
              span.fn = i * base->functions().size();
              span.ch = i * base->channels().size();
              span.res = i * base->resources().size();
              span.src = i * base->sources().size();
              span.sink = i * base->sinks().size();
              spec.spans.push_back(span);
            }
            return {std::move(spec)};
          }(),
          std::move(opts)) {
  // The N-fold shape promised by the convenience signature: the merged
  // tables are *exactly* N base blocks (the grouped constructor only
  // bounds-checks each span, since groups may interleave with a
  // remainder).
  const model::ArchitectureDesc& bd = *groups_[0].base;
  const std::size_t width = groups_[0].names.size();
  if (desc_->functions().size() != width * bd.functions().size() ||
      desc_->channels().size() != width * bd.channels().size() ||
      desc_->resources().size() != width * bd.resources().size() ||
      desc_->sources().size() != width * bd.sources().size() ||
      desc_->sinks().size() != width * bd.sinks().size())
    throw DescriptionError(
        "BatchEquivalentModel: merged description is not an N-fold "
        "replication of the base description");
}

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

  for (std::size_t i = 0; i < inputs_.size(); ++i) wire_input(i);
  for (std::size_t i = 0; i < outputs_.size(); ++i) wire_output(i);
  for (std::size_t i = 0; i < iso_inputs_.size(); ++i) wire_iso_input(i);
  for (std::size_t i = 0; i < iso_outputs_.size(); ++i) wire_iso_output(i);
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

  // Resolve boundary nodes by name once (fold/pad preserve names; the node
  // ids are shared by every member).
  auto resolve = [&grp](const std::string& name) {
    if (name.empty()) return tdg::kNoNode;
    const tdg::NodeId n = grp.compiled->graph.find(name);
    if (n == tdg::kNoNode)
      throw Error("BatchEquivalentModel: boundary node '" + name +
                  "' missing after graph transforms");
    return n;
  };

  grp.in_begin = inputs_.size();
  grp.n_in = grp.compiled->inputs.size();
  grp.out_begin = outputs_.size();
  grp.n_out = grp.compiled->outputs.size();
  inputs_.reserve(inputs_.size() + width * grp.compiled->inputs.size());
  outputs_.reserve(outputs_.size() + width * grp.compiled->outputs.size());
  for (std::size_t i = 0; i < width; ++i) {
    const InstanceSpan& span = grp.spans[i];
    for (const auto& bi : grp.compiled->inputs) {
      InputState st;
      st.meta = bi;
      st.grp = gi;
      st.inst = i;
      st.src_base = static_cast<model::SourceId>(span.src);
      st.merged_channel =
          bi.channel + static_cast<model::ChannelId>(span.ch);
      st.u = resolve(bi.u_node);
      st.x = resolve(bi.x_node);
      st.xw = resolve(bi.xw_node);
      st.xr = resolve(bi.xr_node);
      inputs_.push_back(std::move(st));
    }
    for (const auto& bo : grp.compiled->outputs) {
      OutputState st;
      st.meta = bo;
      st.grp = gi;
      st.inst = i;
      st.src_base = static_cast<model::SourceId>(span.src);
      st.merged_channel =
          bo.channel + static_cast<model::ChannelId>(span.ch);
      st.offer = resolve(bo.offer_node);
      st.actual = resolve(bo.actual_node);
      st.xr_actual = resolve(bo.xr_actual_node);
      if (st.actual == st.offer) st.actual = tdg::kNoNode;  // single-node case
      outputs_.push_back(std::move(st));
    }
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

  auto resolve = [this](const std::string& name) {
    if (name.empty()) return tdg::kNoNode;
    const tdg::NodeId n = iso_compiled_->graph.find(name);
    if (n == tdg::kNoNode)
      throw Error("BatchEquivalentModel: boundary node '" + name +
                  "' missing after graph transforms");
    return n;
  };

  iso_inputs_.reserve(iso_compiled_->inputs.size());
  for (const auto& bi : iso_compiled_->inputs) {
    IsoInputState st;
    st.meta = bi;
    st.u = resolve(bi.u_node);
    st.x = resolve(bi.x_node);
    st.xw = resolve(bi.xw_node);
    st.xr = resolve(bi.xr_node);
    iso_inputs_.push_back(std::move(st));
  }
  iso_outputs_.reserve(iso_compiled_->outputs.size());
  for (const auto& bo : iso_compiled_->outputs) {
    IsoOutputState st;
    st.meta = bo;
    st.offer = resolve(bo.offer_node);
    st.actual = resolve(bo.actual_node);
    st.xr_actual = resolve(bo.xr_actual_node);
    if (st.actual == st.offer) st.actual = tdg::kNoNode;  // single-node case
    iso_outputs_.push_back(std::move(st));
  }
}

void BatchEquivalentModel::wire_input(std::size_t idx) {
  InputState& st = inputs_[idx];
  tdg::BatchEngine* engine = groups_[st.grp].engine.get();
  model::ChannelRt* ch = runtime_->channel(st.merged_channel);
  if (ch == nullptr)
    throw Error("BatchEquivalentModel: input channel not constructed");

  if (!st.meta.fifo) {
    // Rendezvous input: gated reader. On each offer, feed u(k) and the
    // token attributes, then answer inline when the completion x_in(k) is
    // already computable (resolve_now — the inline-resume fast path);
    // otherwise park, and the deferred engine computes x_in(k) at the
    // timestep boundary, completing the rendezvous there — at the same
    // simulated instant a solo run would.
    engine->on_known(st.inst, st.x, [this, idx](std::uint64_t k, TimePoint t) {
      InputState& s = inputs_[idx];
      if (s.parked && s.parked_k == k) {
        s.parked = false;
        model::ChannelRt* c = runtime_->channel(s.merged_channel);
        c->rendezvous->resolve_gated(t);
      }
    });
    ch->rendezvous->set_gated_reader(
        [this, idx, engine](TimePoint offer,
                            const Token& tok) -> std::optional<TimePoint> {
          InputState& s = inputs_[idx];
          const std::uint64_t k = s.next_k++;
          // Token sources carry merged ids; the engine speaks base ids.
          engine->set_attrs(s.inst, tok.source - s.src_base, k, tok.attrs);
          engine->set_external(s.inst, s.u, k, offer);
          // Pre-existing value: a guard disconnected x from u in an
          // earlier front (no on_known will fire again for it).
          if (auto v = engine->value(s.inst, s.x, k)) return *v;
          // Inline fast path: every prerequisite of x_in(k) is known, so
          // compute it now and answer without a queued resume.
          if (auto v = engine->resolve_now(s.inst, s.x, k)) return *v;
          s.parked = true;
          s.parked_k = k;
          return std::nullopt;
        });
  } else {
    // FIFO input: write instants are observed live; a virtual reader pops
    // tokens at the computed read instants.
    st.ready = std::make_unique<sim::Event>(runtime_->kernel(),
                                            "vread:" + std::to_string(idx));
    engine->on_known(st.inst, st.xr, [this, idx](std::uint64_t, TimePoint) {
      inputs_[idx].ready->notify();
    });
    ch->fifo->on_write_complete(
        [this, idx, engine](std::uint64_t k, TimePoint t, const Token& tok) {
          InputState& s = inputs_[idx];
          engine->set_attrs(s.inst, tok.source - s.src_base, k, tok.attrs);
          engine->set_external(s.inst, s.xw, k, t);
        });
    runtime_->kernel().spawn(
        "vreader:" + desc_->channels()[st.merged_channel].name,
        [this, idx] { return virtual_fifo_reader_proc(idx); });
  }
}

sim::Process BatchEquivalentModel::virtual_fifo_reader_proc(std::size_t idx) {
  InputState& st = inputs_[idx];
  tdg::BatchEngine* engine = groups_[st.grp].engine.get();
  model::ChannelRt* ch = runtime_->channel(st.merged_channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> t;
    while (!(t = engine->value(st.inst, st.xr, k)))
      co_await st.ready->wait();
    co_await runtime_->kernel().delay_until(*t);
    (void)co_await ch->fifo->read();
    st.consumed = k + 1;
    raise_retain_floor(st.grp, st.inst);
  }
}

void BatchEquivalentModel::wire_output(std::size_t idx) {
  OutputState& st = outputs_[idx];
  tdg::BatchEngine* engine = groups_[st.grp].engine.get();
  model::ChannelRt* ch = runtime_->channel(st.merged_channel);
  if (ch == nullptr)
    throw Error("BatchEquivalentModel: output channel not constructed");

  st.ready = std::make_unique<sim::Event>(runtime_->kernel(),
                                          "emit:" + std::to_string(idx));
  engine->on_known(st.inst, st.offer, [this, idx](std::uint64_t, TimePoint) {
    outputs_[idx].ready->notify();
  });

  if (!st.meta.fifo) {
    if (st.actual != tdg::kNoNode) {
      ch->rendezvous->on_transfer(
          [this, idx, engine](std::uint64_t k, TimePoint t, const Token&) {
            OutputState& s = outputs_[idx];
            engine->set_external(s.inst, s.actual, k, t);
          });
    }
  } else {
    ch->fifo->on_write_complete(
        [this, idx, engine](std::uint64_t k, TimePoint t, const Token&) {
          OutputState& s = outputs_[idx];
          engine->set_external(s.inst, s.actual, k, t);
        });
    ch->fifo->on_read_complete(
        [this, idx, engine](std::uint64_t k, TimePoint t, const Token&) {
          OutputState& s = outputs_[idx];
          engine->set_external(s.inst, s.xr_actual, k, t);
        });
  }

  runtime_->kernel().spawn(
      "emission:" + desc_->channels()[st.merged_channel].name,
      [this, idx] { return emission_proc(idx); });
}

sim::Process BatchEquivalentModel::emission_proc(std::size_t idx) {
  OutputState& st = outputs_[idx];
  tdg::BatchEngine* engine = groups_[st.grp].engine.get();
  model::ChannelRt* ch = runtime_->channel(st.merged_channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> y;
    while (!(y = engine->value(st.inst, st.offer, k)))
      co_await st.ready->wait();

    // Build the output token from the stored provenance attributes, under
    // the merged source id (what the merged model's consumers see).
    Token tok;
    tok.k = k;
    tok.source = st.meta.provenance + st.src_base;
    if (auto attrs = engine->attrs_of(st.inst, st.meta.provenance, k))
      tok.attrs = *attrs;

    co_await runtime_->kernel().delay_until(*y);
    if (!st.meta.fifo) {
      co_await ch->rendezvous->write(tok);
    } else {
      co_await ch->fifo->write(tok);
    }
    st.emitted = k + 1;
    raise_retain_floor(st.grp, st.inst);
  }
}

void BatchEquivalentModel::raise_retain_floor(std::size_t grp,
                                              std::size_t inst) {
  // Per-member floor: a member's frames may be reclaimed once every one of
  // *its* boundary consumers has moved past them; the group's shared arena
  // additionally waits for every other member (BatchEngine takes the
  // minimum across lanes). A group's boundary states are member-major
  // contiguous spans — this runs per emitted/consumed token and must not
  // scan the whole batch.
  const Group& g = groups_[grp];
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (std::size_t b = g.out_begin + inst * g.n_out;
       b < g.out_begin + (inst + 1) * g.n_out; ++b) {
    floor = std::min(floor, outputs_[b].emitted);
    any = true;
  }
  for (std::size_t b = g.in_begin + inst * g.n_in;
       b < g.in_begin + (inst + 1) * g.n_in; ++b) {
    if (!inputs_[b].meta.fifo) continue;
    floor = std::min(floor, inputs_[b].consumed);
    any = true;
  }
  if (any) g.engine->set_retain_floor(inst, floor);
}

void BatchEquivalentModel::wire_iso_input(std::size_t idx) {
  IsoInputState& st = iso_inputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  if (ch == nullptr)
    throw Error("BatchEquivalentModel: isolated input channel not constructed");

  if (!st.meta.fifo) {
    iso_engine_->on_known(st.x, [this, idx](std::uint64_t k, TimePoint t) {
      IsoInputState& s = iso_inputs_[idx];
      if (s.parked && s.parked_k == k) {
        s.parked = false;
        model::ChannelRt* c = runtime_->channel(s.meta.channel);
        c->rendezvous->resolve_gated(t);
      }
    });
    ch->rendezvous->set_gated_reader(
        [this, idx](TimePoint offer,
                    const Token& tok) -> std::optional<TimePoint> {
          IsoInputState& s = iso_inputs_[idx];
          const std::uint64_t k = s.next_k++;
          iso_engine_->set_attrs(tok.source, k, tok.attrs);
          iso_engine_->set_external(s.u, k, offer);
          if (auto v = iso_engine_->value(s.x, k)) return *v;
          s.parked = true;
          s.parked_k = k;
          return std::nullopt;
        });
  } else {
    st.ready = std::make_unique<sim::Event>(
        runtime_->kernel(), "iso-vread:" + std::to_string(idx));
    iso_engine_->on_known(st.xr, [this, idx](std::uint64_t, TimePoint) {
      iso_inputs_[idx].ready->notify();
    });
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token& tok) {
          IsoInputState& s = iso_inputs_[idx];
          iso_engine_->set_attrs(tok.source, k, tok.attrs);
          iso_engine_->set_external(s.xw, k, t);
        });
    runtime_->kernel().spawn(
        "vreader:" + desc_->channels()[st.meta.channel].name,
        [this, idx] { return iso_virtual_fifo_reader_proc(idx); });
  }
}

sim::Process BatchEquivalentModel::iso_virtual_fifo_reader_proc(
    std::size_t idx) {
  IsoInputState& st = iso_inputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> t;
    while (!(t = iso_engine_->value(st.xr, k))) co_await st.ready->wait();
    co_await runtime_->kernel().delay_until(*t);
    (void)co_await ch->fifo->read();
    st.consumed = k + 1;
    raise_iso_retain_floor();
  }
}

void BatchEquivalentModel::wire_iso_output(std::size_t idx) {
  IsoOutputState& st = iso_outputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  if (ch == nullptr)
    throw Error(
        "BatchEquivalentModel: isolated output channel not constructed");

  st.ready = std::make_unique<sim::Event>(runtime_->kernel(),
                                          "iso-emit:" + std::to_string(idx));
  iso_engine_->on_known(st.offer, [this, idx](std::uint64_t, TimePoint) {
    iso_outputs_[idx].ready->notify();
  });

  if (!st.meta.fifo) {
    if (st.actual != tdg::kNoNode) {
      ch->rendezvous->on_transfer(
          [this, idx](std::uint64_t k, TimePoint t, const Token&) {
            iso_engine_->set_external(iso_outputs_[idx].actual, k, t);
          });
    }
  } else {
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          iso_engine_->set_external(iso_outputs_[idx].actual, k, t);
        });
    ch->fifo->on_read_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          iso_engine_->set_external(iso_outputs_[idx].xr_actual, k, t);
        });
  }

  runtime_->kernel().spawn(
      "emission:" + desc_->channels()[st.meta.channel].name,
      [this, idx] { return iso_emission_proc(idx); });
}

sim::Process BatchEquivalentModel::iso_emission_proc(std::size_t idx) {
  IsoOutputState& st = iso_outputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> y;
    while (!(y = iso_engine_->value(st.offer, k))) co_await st.ready->wait();

    Token tok;
    tok.k = k;
    tok.source = st.meta.provenance;
    if (auto attrs = iso_engine_->attrs_of(st.meta.provenance, k))
      tok.attrs = *attrs;

    co_await runtime_->kernel().delay_until(*y);
    if (!st.meta.fifo) {
      co_await ch->rendezvous->write(tok);
    } else {
      co_await ch->fifo->write(tok);
    }
    st.emitted = k + 1;
    raise_iso_retain_floor();
  }
}

void BatchEquivalentModel::raise_iso_retain_floor() {
  // The remainder engine's frames are shared by all its boundaries (one
  // merged graph), so the floor is the minimum over every consumer —
  // exactly core::EquivalentModel::raise_retain_floor.
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const IsoOutputState& st : iso_outputs_) {
    floor = std::min(floor, st.emitted);
    any = true;
  }
  for (const IsoInputState& st : iso_inputs_) {
    if (!st.meta.fifo) continue;
    floor = std::min(floor, st.consumed);
    any = true;
  }
  if (any) iso_engine_->set_retain_floor(floor);
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
    // Batched-only knowledge: parked gated offers (named per member) and
    // each member instance's token progress through the merged runtime's
    // sinks — diagnostics the merged stall report cannot attribute.
    for (const InputState& st : inputs_) {
      if (!st.parked) continue;
      out.diagnostics.unresolved_gates.push_back(
          groups_[st.grp].names[st.inst] + "/" + st.meta.u_node + "@k=" +
          std::to_string(st.parked_k));
    }
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
