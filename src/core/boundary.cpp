#include "core/boundary.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace maxev::core {

using model::Token;

template <class Lane>
Boundary<Lane>::Boundary(model::ModelRuntime& runtime,
                         const CompiledAbstraction& compiled, Lane lane,
                         Placement at)
    : runtime_(runtime), lane_(lane), at_(std::move(at)) {
  // Resolve boundary nodes by name (fold/pad preserve names).
  auto resolve = [&compiled](const std::string& name) {
    if (name.empty()) return tdg::kNoNode;
    const tdg::NodeId n = compiled.graph.find(name);
    if (n == tdg::kNoNode)
      throw Error("Boundary: node '" + name +
                  "' missing after graph transforms");
    return n;
  };

  inputs_.reserve(compiled.inputs.size());
  for (const auto& bi : compiled.inputs) {
    InputState st;
    st.meta = bi;
    st.channel = bi.channel + at_.channel_offset;
    st.u = resolve(bi.u_node);
    st.x = resolve(bi.x_node);
    st.xw = resolve(bi.xw_node);
    st.xr = resolve(bi.xr_node);
    inputs_.push_back(std::move(st));
  }
  outputs_.reserve(compiled.outputs.size());
  for (const auto& bo : compiled.outputs) {
    OutputState st;
    st.meta = bo;
    st.channel = bo.channel + at_.channel_offset;
    st.offer = resolve(bo.offer_node);
    st.actual = resolve(bo.actual_node);
    st.xr_actual = resolve(bo.xr_actual_node);
    if (st.actual == st.offer) st.actual = tdg::kNoNode;  // single-node case
    outputs_.push_back(std::move(st));
  }

  for (std::size_t i = 0; i < inputs_.size(); ++i) wire_input(i);
  for (std::size_t i = 0; i < outputs_.size(); ++i) wire_output(i);
}

template <class Lane>
void Boundary<Lane>::wire_input(std::size_t idx) {
  InputState& st = inputs_[idx];
  model::ChannelRt* ch = runtime_.channel(st.channel);
  if (ch == nullptr) throw Error("Boundary: input channel not constructed");

  if (!st.meta.fifo) {
    // Rendezvous input: gated reader. On each offer, feed u(k) and the
    // token attributes; complete at the computed x_in(k), or park until the
    // blocking external instant arrives.
    lane_.on_known(st.x, [this, idx](std::uint64_t k, TimePoint t) {
      InputState& s = inputs_[idx];
      if (s.parked && s.parked_k == k) {
        s.parked = false;
        runtime_.channel(s.channel)->rendezvous->resolve_gated(t);
      }
    });
    ch->rendezvous->set_gated_reader(
        [this, idx](TimePoint offer,
                    const Token& tok) -> std::optional<TimePoint> {
          InputState& s = inputs_[idx];
          const std::uint64_t k = s.next_k++;
          lane_.set_attrs(tok.source - at_.source_offset, k, tok.attrs);
          lane_.set_external(s.u, k, offer);
          // Pre-existing value: computed by the feed, or — on a deferred
          // lane — a guard disconnected x from u in an earlier front (no
          // on_known will fire again for it).
          if (auto v = lane_.value(s.x, k)) return *v;
          // Deferred lane, inline fast path: every prerequisite of x_in(k)
          // is known, so compute it now and answer without a queued resume.
          if (auto v = lane_.resolve_now(s.x, k)) return *v;
          s.parked = true;
          s.parked_k = k;
          return std::nullopt;
        });
  } else {
    // FIFO input: write instants are observed live; a virtual reader pops
    // tokens at the computed read instants.
    st.ready = std::make_unique<sim::Event>(runtime_.kernel(),
                                            "vread:" + std::to_string(idx));
    lane_.on_known(st.xr, [this, idx](std::uint64_t, TimePoint) {
      inputs_[idx].ready->notify();
    });
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token& tok) {
          InputState& s = inputs_[idx];
          lane_.set_attrs(tok.source - at_.source_offset, k, tok.attrs);
          lane_.set_external(s.xw, k, t);
        });
    runtime_.kernel().spawn(
        "vreader:" + runtime_.desc().channels()[st.channel].name,
        [this, idx] { return virtual_fifo_reader_proc(idx); });
  }
}

template <class Lane>
sim::Process Boundary<Lane>::virtual_fifo_reader_proc(std::size_t idx) {
  InputState& st = inputs_[idx];
  model::ChannelRt* ch = runtime_.channel(st.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> t;
    while (!(t = lane_.value(st.xr, k))) co_await st.ready->wait();
    co_await runtime_.kernel().delay_until(*t);
    (void)co_await ch->fifo->read();
    st.consumed = k + 1;
    raise_retain_floor();
  }
}

template <class Lane>
void Boundary<Lane>::wire_output(std::size_t idx) {
  OutputState& st = outputs_[idx];
  model::ChannelRt* ch = runtime_.channel(st.channel);
  if (ch == nullptr) throw Error("Boundary: output channel not constructed");

  st.ready = std::make_unique<sim::Event>(runtime_.kernel(),
                                          "emit:" + std::to_string(idx));
  lane_.on_known(st.offer, [this, idx](std::uint64_t, TimePoint) {
    outputs_[idx].ready->notify();
  });

  if (!st.meta.fifo) {
    if (st.actual != tdg::kNoNode) {
      ch->rendezvous->on_transfer(
          [this, idx](std::uint64_t k, TimePoint t, const Token&) {
            lane_.set_external(outputs_[idx].actual, k, t);
          });
    }
  } else {
    ch->fifo->on_write_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          lane_.set_external(outputs_[idx].actual, k, t);
        });
    ch->fifo->on_read_complete(
        [this, idx](std::uint64_t k, TimePoint t, const Token&) {
          lane_.set_external(outputs_[idx].xr_actual, k, t);
        });
  }

  runtime_.kernel().spawn(
      "emission:" + runtime_.desc().channels()[st.channel].name,
      [this, idx] { return emission_proc(idx); });
}

template <class Lane>
sim::Process Boundary<Lane>::emission_proc(std::size_t idx) {
  OutputState& st = outputs_[idx];
  model::ChannelRt* ch = runtime_.channel(st.channel);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> y;
    while (!(y = lane_.value(st.offer, k))) co_await st.ready->wait();

    // Build the output token from the stored provenance attributes, under
    // the runtime's source id (what the simulated consumers see).
    Token tok;
    tok.k = k;
    tok.source = st.meta.provenance + at_.source_offset;
    if (auto attrs = lane_.attrs_of(st.meta.provenance, k)) tok.attrs = *attrs;

    co_await runtime_.kernel().delay_until(*y);
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

template <class Lane>
void Boundary<Lane>::raise_retain_floor() {
  // Frames may be recycled once every consumer of this boundary has moved
  // past them: emission processes (output values, token attrs) and virtual
  // FIFO readers (read instants). A multi-lane engine's shared arena
  // further waits for its other lanes.
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
  if (any) lane_.set_retain_floor(floor);
}

template <class Lane>
void Boundary<Lane>::append_parked_gates(
    std::vector<std::string>& gates) const {
  for (const InputState& st : inputs_) {
    if (!st.parked) continue;
    gates.push_back(at_.gate_prefix + st.meta.u_node + "@k=" +
                    std::to_string(st.parked_k));
  }
}

template class Boundary<SoloLane>;
template class Boundary<BatchLane>;

}  // namespace maxev::core
