#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/token.hpp"
#include "sim/event.hpp"
#include "sim/process.hpp"
#include "tdg/engine.hpp"

/// \file boundary.hpp
/// The equivalent model's boundary protocol (paper Sections III-A and IV,
/// Fig. 4), written once for every engine that evaluates a TDG.
///
/// A Boundary connects one compiled abstraction (core::CompiledAbstraction)
/// to the simulated channels of a model::ModelRuntime:
///  * *Reception*: a boundary rendezvous input runs in gated-reader mode.
///    Each offer u(k) feeds the engine (token attributes, then the offer
///    instant), and the rendezvous completes at the computed x_in(k). When
///    x_in(k) is not yet known the offer parks, and the engine's on_known
///    callback resolves it later. A boundary FIFO input feeds its observed
///    write instants, and a *virtual reader* process pops tokens at the
///    computed read instants;
///  * *Emission*: one process per boundary output offers token k at the
///    computed instant y(k). The channel hooks feed the actual completion
///    (and, on a FIFO, the read instant) back into the engine, so
///    environment back-pressure reaches iteration k+1 exactly as in the
///    event-driven model;
///  * the *retain floor*: engine frames may be recycled once every emission
///    process and virtual reader of this boundary has moved past them;
///  * *diagnostics*: the gated offers still parked when a run stalls.
///
/// The engine side is a small lane adapter over one instance lane of a
/// tdg::Engine, so the per-token path is resolved at compile time. Feeds
/// only enqueue on the engine; the adapters differ in who drains it.
/// SoloLane is the eager policy: it flushes after every feed, so whatever
/// is computable is a value() by the time the feed returns (a flush from
/// inside a running drain is a no-op — that drain computes the feed).
/// BatchLane leaves the drain to the owner's timestep hook and answers a
/// gated offer out of band with resolve_now() when every prerequisite of
/// x_in(k) is known (the inline-resume fast path, docs/DESIGN.md §10).
///
/// A Placement locates the abstraction's ids in the runtime's tables: a
/// member of a composed sub-batch speaks its base description's ids and is
/// shifted to its merged-table span; a merged-description abstraction needs
/// no shift.

namespace maxev::core {

/// Eager adapter over the single lane of a width-1 tdg::Engine: every
/// feed is followed by a flush().
class SoloLane {
 public:
  explicit SoloLane(tdg::Engine& engine) : engine_(&engine) {}

  void on_known(tdg::NodeId n,
                std::function<void(std::uint64_t, TimePoint)> cb) {
    engine_->on_known(0, n, std::move(cb));
  }
  void set_external(tdg::NodeId n, std::uint64_t k, TimePoint t) {
    engine_->set_external(0, n, k, t);
    engine_->flush();
  }
  void set_attrs(model::SourceId s, std::uint64_t k,
                 const model::TokenAttrs& attrs) {
    engine_->set_attrs(0, s, k, attrs);
    engine_->flush();
  }
  [[nodiscard]] std::optional<TimePoint> value(tdg::NodeId n,
                                               std::uint64_t k) const {
    return engine_->value(0, n, k);
  }
  /// Propagation is eager: whatever is computable is already a value().
  [[nodiscard]] std::optional<TimePoint> resolve_now(tdg::NodeId,
                                                     std::uint64_t) {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
      model::SourceId s, std::uint64_t k) const {
    return engine_->attrs_of(0, s, k);
  }
  void set_retain_floor(std::uint64_t k) { engine_->set_retain_floor(0, k); }

 private:
  tdg::Engine* engine_;
};

/// Deferred adapter over instance lane \p inst of a tdg::Engine drained by
/// its owner.
class BatchLane {
 public:
  BatchLane(tdg::Engine& engine, std::size_t inst)
      : engine_(&engine), inst_(inst) {}

  void on_known(tdg::NodeId n,
                std::function<void(std::uint64_t, TimePoint)> cb) {
    engine_->on_known(inst_, n, std::move(cb));
  }
  void set_external(tdg::NodeId n, std::uint64_t k, TimePoint t) {
    engine_->set_external(inst_, n, k, t);
  }
  void set_attrs(model::SourceId s, std::uint64_t k,
                 const model::TokenAttrs& attrs) {
    engine_->set_attrs(inst_, s, k, attrs);
  }
  [[nodiscard]] std::optional<TimePoint> value(tdg::NodeId n,
                                               std::uint64_t k) const {
    return engine_->value(inst_, n, k);
  }
  [[nodiscard]] std::optional<TimePoint> resolve_now(tdg::NodeId n,
                                                     std::uint64_t k) {
    return engine_->resolve_now(inst_, n, k);
  }
  [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
      model::SourceId s, std::uint64_t k) const {
    return engine_->attrs_of(inst_, s, k);
  }
  void set_retain_floor(std::uint64_t k) {
    engine_->set_retain_floor(inst_, k);
  }

 private:
  tdg::Engine* engine_;
  std::size_t inst_;
};

template <class Lane>
class Boundary {
 public:
  /// Where the abstraction's ids sit in the runtime's tables.
  struct Placement {
    /// Begin of the abstraction's channel block in the runtime's tables.
    model::ChannelId channel_offset = 0;
    /// Begin of its source block: token sources arrive with runtime ids
    /// and leave with them; the engine speaks abstraction ids.
    model::SourceId source_offset = 0;
    /// Prepended to parked-gate names in the stall diagnostics.
    std::string gate_prefix;
  };

  /// Wire \p compiled's boundary onto \p runtime's channels and spawn the
  /// emission processes and virtual readers. \p runtime, the engine behind
  /// \p lane and \p compiled must outlive the boundary.
  Boundary(model::ModelRuntime& runtime, const CompiledAbstraction& compiled,
           Lane lane, Placement at);

  Boundary(const Boundary&) = delete;
  Boundary& operator=(const Boundary&) = delete;

  /// Append "<prefix><offer node>@k=<k>" for every gated offer still parked
  /// awaiting a computed completion.
  void append_parked_gates(std::vector<std::string>& gates) const;

 private:
  struct InputState {
    tdg::BoundaryInput meta;
    model::ChannelId channel = model::kInvalidId;  // runtime id
    tdg::NodeId u = tdg::kNoNode;        // rendezvous offer node
    tdg::NodeId x = tdg::kNoNode;        // rendezvous completion node
    tdg::NodeId xw = tdg::kNoNode;       // fifo external write node
    tdg::NodeId xr = tdg::kNoNode;       // fifo computed read node
    std::uint64_t next_k = 0;            // next offer index
    bool parked = false;                 // rendezvous offer awaiting resolution
    std::uint64_t parked_k = 0;
    std::uint64_t consumed = 0;          // fifo: virtual-reader progress
    std::unique_ptr<sim::Event> ready;   // fifo: xr(k) became known
  };

  struct OutputState {
    tdg::BoundaryOutput meta;
    model::ChannelId channel = model::kInvalidId;  // runtime id
    tdg::NodeId offer = tdg::kNoNode;
    tdg::NodeId actual = tdg::kNoNode;      // kNoNode when offer == completion
    tdg::NodeId xr_actual = tdg::kNoNode;   // fifo read instants
    std::uint64_t emitted = 0;              // consumer progress (retain floor)
    std::unique_ptr<sim::Event> ready;      // offer(k) became known
  };

  void wire_input(std::size_t idx);
  void wire_output(std::size_t idx);
  sim::Process virtual_fifo_reader_proc(std::size_t idx);
  sim::Process emission_proc(std::size_t idx);
  void raise_retain_floor();

  model::ModelRuntime& runtime_;
  Lane lane_;
  Placement at_;
  std::vector<InputState> inputs_;
  std::vector<OutputState> outputs_;
};

extern template class Boundary<SoloLane>;
extern template class Boundary<BatchLane>;

}  // namespace maxev::core
