#include "core/equivalent_model.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace maxev::core {

using model::ChannelKind;
using model::Token;

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

  // Resolve boundary nodes by name (fold/pad preserve names) and wire the
  // reception/emission machinery.
  auto resolve = [this](const std::string& name) {
    if (name.empty()) return tdg::kNoNode;
    const tdg::NodeId n = compiled_->graph.find(name);
    if (n == tdg::kNoNode)
      throw Error("EquivalentModel: boundary node '" + name +
                  "' missing after graph transforms");
    return n;
  };

  inputs_.reserve(compiled_->inputs.size());
  for (const auto& bi : compiled_->inputs) {
    InputState st;
    st.meta = bi;
    st.u = resolve(bi.u_node);
    st.x = resolve(bi.x_node);
    st.xw = resolve(bi.xw_node);
    st.xr = resolve(bi.xr_node);
    inputs_.push_back(std::move(st));
  }
  outputs_.reserve(compiled_->outputs.size());
  for (const auto& bo : compiled_->outputs) {
    OutputState st;
    st.meta = bo;
    st.offer = resolve(bo.offer_node);
    st.actual = resolve(bo.actual_node);
    st.xr_actual = resolve(bo.xr_actual_node);
    if (st.actual == st.offer) st.actual = tdg::kNoNode;  // single-node case
    outputs_.push_back(std::move(st));
  }

  for (std::size_t i = 0; i < inputs_.size(); ++i) wire_input(i);
  for (std::size_t i = 0; i < outputs_.size(); ++i) wire_output(i);
}

void EquivalentModel::wire_input(std::size_t idx) {
  InputState& st = inputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  if (ch == nullptr)
    throw Error("EquivalentModel: input channel not constructed");

  if (!st.meta.fifo) {
    // Rendezvous input: gated reader. On each offer, feed u(k) and the
    // token attributes; complete at the computed x_in(k), or park until the
    // blocking external instant arrives.
    engine_->on_known(st.x, [this, idx](std::uint64_t k, TimePoint t) {
      InputState& s = inputs_[idx];
      if (s.parked && s.parked_k == k) {
        s.parked = false;
        model::ChannelRt* c = runtime_->channel(s.meta.channel);
        c->rendezvous->resolve_gated(t);
      }
    });
    ch->rendezvous->set_gated_reader(
        [this, idx](TimePoint offer, const Token& tok) -> std::optional<TimePoint> {
          InputState& s = inputs_[idx];
          const std::uint64_t k = s.next_k++;
          engine_->set_attrs(tok.source, k, tok.attrs);
          engine_->set_external(s.u, k, offer);
          if (auto v = engine_->value(s.x, k)) return *v;
          s.parked = true;
          s.parked_k = k;
          return std::nullopt;
        });
  } else {
    // FIFO input: write instants are observed live; a virtual reader pops
    // tokens at the computed read instants.
    st.ready = std::make_unique<sim::Event>(runtime_->kernel(),
                                            "vread:" + std::to_string(idx));
    engine_->on_known(st.xr, [this, idx](std::uint64_t, TimePoint) {
      inputs_[idx].ready->notify();
    });
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token& tok) {
          InputState& s = inputs_[idx];
          engine_->set_attrs(tok.source, k, tok.attrs);
          engine_->set_external(s.xw, k, t);
        });
    runtime_->kernel().spawn(
        "vreader:" + desc_->channels()[st.meta.channel].name,
        [this, idx] { return virtual_fifo_reader_proc(idx); });
  }
}

sim::Process EquivalentModel::virtual_fifo_reader_proc(std::size_t idx) {
  InputState& st = inputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> t;
    while (!(t = engine_->value(st.xr, k))) co_await st.ready->wait();
    co_await runtime_->kernel().delay_until(*t);
    (void)co_await ch->fifo->read();
    st.consumed = k + 1;
    raise_retain_floor();
  }
}

void EquivalentModel::wire_output(std::size_t idx) {
  OutputState& st = outputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  if (ch == nullptr)
    throw Error("EquivalentModel: output channel not constructed");

  st.ready = std::make_unique<sim::Event>(runtime_->kernel(),
                                          "emit:" + std::to_string(idx));
  engine_->on_known(st.offer, [this, idx](std::uint64_t, TimePoint) {
    outputs_[idx].ready->notify();
  });

  if (!st.meta.fifo) {
    if (st.actual != tdg::kNoNode) {
      ch->rendezvous->on_transfer(
          [this, idx](std::uint64_t k, TimePoint t, const Token&) {
            engine_->set_external(outputs_[idx].actual, k, t);
          });
    }
  } else {
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          engine_->set_external(outputs_[idx].actual, k, t);
        });
    ch->fifo->on_read_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          engine_->set_external(outputs_[idx].xr_actual, k, t);
        });
  }

  runtime_->kernel().spawn("emission:" + desc_->channels()[st.meta.channel].name,
                           [this, idx] { return emission_proc(idx); });
}

sim::Process EquivalentModel::emission_proc(std::size_t idx) {
  OutputState& st = outputs_[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> y;
    while (!(y = engine_->value(st.offer, k))) co_await st.ready->wait();

    // Build the output token from the stored provenance attributes.
    Token tok;
    tok.k = k;
    tok.source = st.meta.provenance;
    if (auto attrs = engine_->attrs_of(st.meta.provenance, k)) tok.attrs = *attrs;

    co_await runtime_->kernel().delay_until(*y);
    if (!st.meta.fifo) {
      co_await ch->rendezvous->write(tok);
    } else {
      co_await ch->fifo->write(tok);
    }
    // The rendezvous/fifo hooks have fed the actual completion back into
    // the engine by now; the frame window may advance past iteration k.
    st.emitted = k + 1;
    raise_retain_floor();
  }
}

void EquivalentModel::raise_retain_floor() {
  // Frames may be recycled once every boundary consumer has moved past
  // them: emission processes (output values, token attrs) and virtual FIFO
  // readers (read instants).
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const OutputState& st : outputs_) {
    floor = std::min(floor, st.emitted);
    any = true;
  }
  for (const InputState& st : inputs_) {
    if (!st.meta.fifo) continue;
    floor = std::min(floor, st.consumed);
    any = true;
  }
  if (any) engine_->set_retain_floor(floor);
}

model::ModelRuntime::Outcome EquivalentModel::run(
    std::optional<TimePoint> until) {
  model::ModelRuntime::Outcome out = runtime_->run(until);
  if (!out.completed && (out.idle || sim::is_guard_stop(out.stop))) {
    // Only this layer knows which gated receptions parked an offer whose
    // computed completion never became known.
    for (const InputState& st : inputs_) {
      if (!st.parked) continue;
      out.diagnostics.unresolved_gates.push_back(
          st.meta.u_node + "@k=" + std::to_string(st.parked_k));
    }
    // Guard-stop messages are new in this PR, so they may render the
    // enriched summary; idle-stall wording stays the runtime's (pinned).
    if (sim::is_guard_stop(out.stop)) out.stall_report = out.diagnostics.summary();
  }
  return out;
}

}  // namespace maxev::core
