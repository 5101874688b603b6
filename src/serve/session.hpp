#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/equivalent_model.hpp"
#include "model/token.hpp"
#include "serve/program_cache.hpp"
#include "serve/wire.hpp"
#include "sim/kernel.hpp"
#include "util/time.hpp"

/// \file session.hpp
/// Streaming evaluation sessions (docs/DESIGN.md §13): a scenario whose
/// source tokens arrive incrementally instead of from a pre-known table.
///
/// A Session wraps one core::EquivalentModel (simulation kernel + TDG
/// engine) over a copy of a decoded scenario template (ScenarioTemplate).
/// Sources marked `{"type": "stream"}` in the wire document are bound to
/// the session's own feedable token buffers; everything else behaves
/// exactly as in a one-shot run. The model's compiled lookups go through
/// the template's description, so sessions built from one template share
/// its compiled program. Each poll() advances the kernel to the *stream
/// watermark* — the largest horizon at which no behavioural function of an
/// unfed token can be evaluated — using the kernel's pinned horizon-resume
/// primitive, so the concatenation of incremental advances is bit-identical
/// to a single uninterrupted run over the same tokens. poll() then streams
/// the instants and busy intervals recorded since the previous poll.
///
/// checkpoint() serializes the session as a deterministic-replay document:
/// the original scenario text, every fed token, and the horizon advanced
/// to. restore() rebuilds the model from scratch, re-feeds, checks the
/// checkpointed progress against the fed tokens, re-advances, and
/// validates the kernel's time and dispatched-event counters against the
/// checkpointed values — replay divergence is a SessionError, not a silent
/// drift.

namespace maxev::serve {

/// Session-protocol violations: feeding a non-stream source, non-monotone
/// feeds, malformed or diverging checkpoints.
class SessionError : public Error {
 public:
  using Error::Error;
};

class Session final {
 public:
  struct Options {
    /// Execution limits applied to every advance (sim::RunGuards).
    sim::RunGuards guards;
    /// Observation-sink capacity hint (see core::EquivalentModel).
    std::size_t expected_iterations = 0;
    /// Shared program cache; null = compile privately.
    core::CompiledProvider* compiled = nullptr;
  };

  /// One fed token of a stream source.
  struct FedToken {
    std::int64_t earliest_ps = 0;
    model::TokenAttrs attrs;
  };

  /// Build a session from a `{"maxev_wire": 1, ...}` scenario document,
  /// decoded into a private template. The text is retained verbatim for
  /// checkpoints.
  explicit Session(std::string scenario_json);
  Session(std::string scenario_json, Options opts);
  /// Build a session on a shared template: a copy of its description with
  /// the stream sources bound to this session's buffers.
  Session(TemplatePtr scenario, Options opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Append tokens to stream source \p source (index into the wire
  /// document's source array). Earliest instants must be non-decreasing,
  /// both within the batch and against what is already fed; params must be
  /// finite (a checkpoint could not carry anything else); the total may
  /// not exceed the source's declared count. A rejected batch feeds
  /// nothing.
  void feed(std::size_t source, const std::vector<FedToken>& tokens);

  /// Newly recorded instants of one relation since the previous poll.
  struct SeriesDelta {
    std::string series;
    std::uint64_t start_k = 0;  ///< iteration index of instants_ps[0]
    std::vector<std::int64_t> instants_ps;
  };

  /// Newly recorded busy intervals of one resource since the previous poll.
  struct UsageDelta {
    std::string resource;
    std::uint64_t start_index = 0;
    std::vector<std::int64_t> starts_ps;
    std::vector<std::int64_t> ends_ps;
    std::vector<std::int64_t> ops;
    std::vector<std::string> labels;
  };

  struct Delta {
    bool ran = false;        ///< an advance happened
    bool blocked = false;    ///< a stream source has no usable token yet
    bool completed = false;  ///< the scenario ran to completion
    sim::StopReason stop = sim::StopReason::kIdle;  ///< last advance outcome
    std::string stall_report;  ///< non-empty when stalled or guard-stopped
    std::int64_t now_ps = 0;   ///< kernel time after the advance
    std::vector<SeriesDelta> instants;
    std::vector<UsageDelta> usage;
  };

  /// Advance to the current stream watermark (unbounded once every stream
  /// source is fully fed) and collect the trace deltas.
  Delta poll();

  /// Serialize for deterministic replay. \pre not mid-advance.
  [[nodiscard]] std::string checkpoint() const;

  /// Rebuild a session from a checkpoint() document: re-feed, check the
  /// checkpointed horizon against the fed tokens, re-advance, validate the
  /// replayed kernel counters. Throws SessionError on malformed documents,
  /// progress the fed tokens cannot support, or replay divergence. With
  /// \p scenarios the checkpoint's scenario document resolves to that
  /// cache's shared template; without, it is decoded privately.
  [[nodiscard]] static std::unique_ptr<Session> restore(
      std::string_view checkpoint_json);
  [[nodiscard]] static std::unique_ptr<Session> restore(
      std::string_view checkpoint_json, Options opts,
      ProgramCache* scenarios = nullptr);

  /// \name Introspection
  /// @{
  [[nodiscard]] const model::ArchitectureDesc& desc() const { return *desc_; }
  [[nodiscard]] const core::EquivalentModel& model() const { return *model_; }
  [[nodiscard]] bool is_stream_source(std::size_t source) const;
  /// Tokens fed so far to stream source \p source.
  [[nodiscard]] std::uint64_t fed(std::size_t source) const;
  [[nodiscard]] bool completed() const { return completed_; }
  /// @}

 private:
  /// Feedable token buffer of one stream source. The functors handed to
  /// the description share ownership, so the buffer outlives the model.
  struct Stream {
    std::size_t source_index = 0;
    std::string name;
    std::uint64_t count = 0;
    std::vector<std::int64_t> earliest_ps;
    std::vector<model::TokenAttrs> attrs;
  };

  /// nullopt = blocked; otherwise the horizon to run to (nullopt inside
  /// the optional pair is expressed via `unbounded`).
  struct Watermark {
    bool blocked = false;
    bool unbounded = false;
    TimePoint until = TimePoint::origin();
  };
  [[nodiscard]] Watermark watermark() const;

  /// Run the kernel to \p w if it extends past what has already run;
  /// updates advanced_/completed_ and the outcome fields of \p d.
  void advance(const Watermark& w, Delta& d);
  void collect_deltas(Delta& d);

  TemplatePtr template_;
  Options opts_;
  std::vector<std::shared_ptr<Stream>> streams_;  // in source order
  std::map<std::size_t, std::size_t> stream_by_source_;
  model::DescPtr desc_;
  std::unique_ptr<core::EquivalentModel> model_;

  std::optional<std::int64_t> advanced_ps_;  ///< highest bounded horizon run
  bool completed_ = false;
  sim::StopReason last_stop_ = sim::StopReason::kIdle;
  std::string last_stall_report_;
  std::map<std::string, std::size_t> instant_cursors_;
  std::map<std::string, std::size_t> usage_cursors_;
};

}  // namespace maxev::serve
