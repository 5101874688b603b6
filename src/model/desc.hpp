#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/load.hpp"
#include "model/token.hpp"
#include "util/time.hpp"

/// \file desc.hpp
/// Declarative architecture description: application functions (cyclic
/// read/execute/write statement lists), relations (channels), platform
/// resources, the mapping layer, environment sources and sinks.
///
/// This single description is the common root of the two execution paths
/// the paper compares:
///  * the event-driven baseline (model::ModelRuntime simulates every
///    function as a kernel process), and
///  * the equivalent model (tdg::derive_tdg compiles the description into a
///    temporal dependency graph executed by ComputeInstant()).
///
/// Scheduling model (paper Section I: "statically scheduled architectures
/// with no pre-emption"): functions mapped to a sequential resource execute
/// in a fixed cyclic order — the order in which they were added. The first
/// statement of f_i's iteration k is gated by the completion of f_{i-1}'s
/// iteration k (f_{i-1} wrapping to the last function's iteration k-1).

namespace maxev::model {

using ChannelId = std::int32_t;
using FunctionId = std::int32_t;
using ResourceId = std::int32_t;
using SourceId = std::int32_t;
using SinkId = std::int32_t;

inline constexpr std::int32_t kInvalidId = -1;

enum class ChannelKind : std::uint8_t {
  kRendezvous,  ///< blocking, unbuffered; the paper's protocol
  kFifo,        ///< bounded FIFO
};

enum class ResourcePolicy : std::uint8_t {
  kSequentialCyclic,  ///< one function at a time, fixed cyclic schedule (DSP)
  kConcurrent,        ///< dedicated hardware: every function has its own unit
};

enum class StatementKind : std::uint8_t { kRead, kExecute, kWrite };

struct ChannelDesc {
  std::string name;
  ChannelKind kind = ChannelKind::kRendezvous;
  std::size_t capacity = 0;  ///< FIFO only
};

struct ResourceDesc {
  std::string name;
  ResourcePolicy policy = ResourcePolicy::kSequentialCyclic;
  double ops_per_second = 1e9;

  /// Simulated execution time of \p ops operations on this resource
  /// (model::arith::duration_ps, which the dynamic computation path calls
  /// with the same rate, so both see bit-identical durations).
  [[nodiscard]] Duration duration_for(std::int64_t ops) const;
};

struct StatementDesc {
  StatementKind kind = StatementKind::kExecute;
  ChannelId channel = kInvalidId;  ///< read/write
  LoadFn load;                     ///< execute
  std::string label;               ///< execute: unique "<fn>.e<i>" label
};

struct FunctionDesc {
  std::string name;
  ResourceId resource = kInvalidId;
  std::vector<StatementDesc> body;  ///< repeated forever
};

struct SourceDesc {
  std::string name;
  ChannelId channel = kInvalidId;
  std::uint64_t count = 0;  ///< number of tokens produced
  /// Earliest absolute offer instant of token k (e.g. k * period).
  std::function<TimePoint(std::uint64_t)> earliest;
  /// Extra gap after the previous offer completed (burst shaping).
  std::function<Duration(std::uint64_t)> gap;
  /// Attributes of token k.
  std::function<TokenAttrs(std::uint64_t)> attrs;
};

struct SinkDesc {
  std::string name;
  ChannelId channel = kInvalidId;
  /// Delay before the sink becomes ready for token k (back-pressure
  /// modelling); null = always ready.
  std::function<Duration(std::uint64_t)> consume_delay;
};

/// Resolved endpoints of a channel (filled in by validate()).
struct ChannelEndpoints {
  FunctionId writer_fn = kInvalidId;
  std::int32_t writer_stmt = -1;
  SourceId writer_source = kInvalidId;
  FunctionId reader_fn = kInvalidId;
  std::int32_t reader_stmt = -1;
  SinkId reader_sink = kInvalidId;

  [[nodiscard]] bool written_by_source() const { return writer_source != kInvalidId; }
  [[nodiscard]] bool read_by_sink() const { return reader_sink != kInvalidId; }
};

/// The complete architecture description. Build with the fluent add_*/fn_*
/// API, then call validate() once; the runtime and the TDG derivation both
/// require a validated description.
class ArchitectureDesc {
 public:
  /// \name Construction
  /// @{
  ResourceId add_resource(std::string name, ResourcePolicy policy,
                          double ops_per_second);
  ChannelId add_rendezvous(std::string name);
  ChannelId add_fifo(std::string name, std::size_t capacity);
  /// Mapping order on a sequential resource is the order of add_function
  /// calls — this *is* the static cyclic schedule.
  FunctionId add_function(std::string name, ResourceId resource);
  void fn_read(FunctionId f, ChannelId ch);
  void fn_execute(FunctionId f, LoadFn load);
  void fn_write(FunctionId f, ChannelId ch);
  SourceId add_source(std::string name, ChannelId ch, std::uint64_t count,
                      std::function<TimePoint(std::uint64_t)> earliest,
                      std::function<TokenAttrs(std::uint64_t)> attrs,
                      std::function<Duration(std::uint64_t)> gap = nullptr);
  SinkId add_sink(std::string name, ChannelId ch,
                  std::function<Duration(std::uint64_t)> consume_delay = nullptr);
  /// Replace source \p s's token functions (its gap stays). The structural
  /// surface (and with it validation) is untouched, so one decoded
  /// description can be copied and rebound many times: serve::Session binds
  /// its own token buffers into a copy of a shared template. No compiled
  /// program reads source functions, so a description and a rebound copy
  /// compile alike.
  void rebind_source(SourceId s,
                     std::function<TimePoint(std::uint64_t)> earliest,
                     std::function<TokenAttrs(std::uint64_t)> attrs);
  /// @}

  /// Structural validation; resolves channel endpoints and the per-resource
  /// schedules. Throws maxev::DescriptionError with a precise message on the
  /// first violation. Idempotent.
  void validate();
  [[nodiscard]] bool validated() const { return validated_; }

  /// \name Accessors (validated description)
  /// @{
  [[nodiscard]] const std::vector<ChannelDesc>& channels() const { return channels_; }
  [[nodiscard]] const std::vector<FunctionDesc>& functions() const { return functions_; }
  [[nodiscard]] const std::vector<ResourceDesc>& resources() const { return resources_; }
  [[nodiscard]] const std::vector<SourceDesc>& sources() const { return sources_; }
  [[nodiscard]] const std::vector<SinkDesc>& sinks() const { return sinks_; }
  [[nodiscard]] const ChannelEndpoints& endpoints(ChannelId ch) const;
  /// Functions mapped to a resource, in schedule order.
  [[nodiscard]] const std::vector<FunctionId>& schedule(ResourceId r) const;
  /// Schedule position of a function on its resource.
  [[nodiscard]] std::size_t schedule_position(FunctionId f) const;
  /// Total tokens offered by all sources.
  [[nodiscard]] std::uint64_t total_source_tokens() const;
  /// Largest per-source token count — the expected iteration count of any
  /// single relation (observation-sink capacity hint).
  [[nodiscard]] std::uint64_t max_source_tokens() const;
  /// @}

 private:
  void check_channel(ChannelId ch, const char* what) const;
  void check_function(FunctionId f, const char* what) const;

  std::vector<ChannelDesc> channels_;
  std::vector<FunctionDesc> functions_;
  std::vector<ResourceDesc> resources_;
  std::vector<SourceDesc> sources_;
  std::vector<SinkDesc> sinks_;

  // Filled by validate():
  std::vector<ChannelEndpoints> endpoints_;
  std::vector<std::vector<FunctionId>> schedules_;  // per resource
  std::vector<std::size_t> schedule_pos_;           // per function
  bool validated_ = false;
};

/// \name Structural equality contract
/// The *structural surface* of a description is everything declarative and
/// comparable: table sizes and order, entity names, resource policies and
/// rates, channel kinds and capacities, statement kinds / channel targets /
/// execute labels, and source token counts. The opaque behavioural members
/// — execute loads, source earliest/gap/attrs, sink consume delays, all
/// `std::function`s — are NOT part of it (they cannot be compared).
///
/// Consequence for batching (docs/DESIGN.md §10): structural equality is a
/// *necessary* condition for two instances to share one compiled
/// tdg::Program, never a sufficient one. The study layer supplies the
/// missing behavioural guarantee by shared ownership — instances holding
/// the same model::DescPtr provably evaluate the same workload functions —
/// so study::compose() groups instances by (DescPtr identity, abstraction
/// group), and the compiled-program cache (core::CompiledKey) keys on the
/// DescPtr the same way. Two equal-but-distinct descriptions stay in
/// different sub-batches and compile separately.
/// @{

/// Deep comparison of the structural surface. Ignores the opaque
/// behavioural std::function members (see the contract above).
[[nodiscard]] bool structurally_equal(const ArchitectureDesc& a,
                                      const ArchitectureDesc& b);
/// @}

/// Shared-ownership handle to a validated architecture description. Model
/// runtimes hold one of these for their whole lifetime, so one description
/// can be shared between models (and between the instances of a
/// multi-instance study) without lifetime footguns.
using DescPtr = std::shared_ptr<const ArchitectureDesc>;

/// Move a description into shared ownership (validating it on the way when
/// needed). The natural way to build a study::Scenario.
[[nodiscard]] DescPtr share(ArchitectureDesc desc);

}  // namespace maxev::model
