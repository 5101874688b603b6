#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/desc.hpp"
#include "model/shaping.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

/// \file wire.hpp
/// The versioned JSON wire format of the serve subsystem
/// (docs/DESIGN.md §13): scenario descriptions as line-transportable
/// documents.
///
/// One document type, wrapped in a version envelope:
/// `{"maxev_wire": 1, "desc": {...}}` — a model::ArchitectureDesc.
/// Declarative members serialize exactly; the behavioural std::function
/// members serialize as tagged *specs* when they wrap one of the
/// introspectable functor types (model::ConstantOpsFn et al. for loads,
/// the Table*/Periodic* functors below for source/sink shaping) and as
/// `{"type": "opaque"}` otherwise. Load classification is shared with the
/// opcode layer (tdg::ops::classify_load), so every load the engines
/// dispatch through opcode tables also crosses the wire concretely. Opaque
/// specs deserialize to throwing stubs: the loaded description is
/// structurally faithful (model::structurally_equal) and fully usable for
/// cache keying and graph derivation, but running it requires every
/// behavioural spec to be concrete — the stub names the source entity when
/// hit. Compiled programs never cross the wire: a receiver recompiles from
/// the description (see the cache-keying rules).
///
/// The loader validates shape and referential integrity (id ranges) and
/// throws serve::WireError with the offending member named.

namespace maxev::serve {

/// Wire-format version stamped into (and required of) every document.
inline constexpr std::int64_t kWireVersion = 1;

/// Malformed or version-incompatible wire documents.
class WireError : public Error {
 public:
  using Error::Error;
};

/// \name Introspectable shaping functors
/// Wire-built descriptions wrap named functor types so a later
/// desc_to_json() can recover the parameters (std::function::target).
/// The types themselves live in model/shaping.hpp (the adaptive backend
/// certifies against the same vocabulary); these aliases preserve the
/// historical serve:: spellings — and, because they are aliases, type
/// identity for target<T>() introspection.
/// @{
using TableTimeFn = model::TableTimeFn;
using PeriodicTimeFn = model::PeriodicTimeFn;
using ConstantDurationFn = model::ConstantDurationFn;
using TableDurationFn = model::TableDurationFn;
using ConstantAttrsFn = model::ConstantAttrsFn;
using TableAttrsFn = model::TableAttrsFn;
/// @}

/// Supplies the behavioural functions of `{"type": "stream"}` sources —
/// tokens that arrive incrementally instead of from a table. The scenario
/// template decoder implements it with throwing stubs (decode_template);
/// absent a factory, stream specs are a WireError.
class StreamSourceFactory {
 public:
  struct Fns {
    std::function<TimePoint(std::uint64_t)> earliest;
    std::function<model::TokenAttrs(std::uint64_t)> attrs;
  };

  virtual ~StreamSourceFactory() = default;

  /// Called once per stream-typed source, in source order.
  [[nodiscard]] virtual Fns make_stream_source(std::size_t source_index,
                                               const std::string& name,
                                               std::uint64_t count) = 0;
};

/// \name Description documents
/// @{

/// Serialize a validated description. Deterministic: equal descriptions
/// (including functor parameters) produce byte-identical documents.
[[nodiscard]] std::string desc_to_json(const model::ArchitectureDesc& desc);

/// Load and validate a description document. \p streams binds
/// stream-typed sources (null = reject them).
[[nodiscard]] model::ArchitectureDesc desc_from_json(
    const JsonValue& doc, StreamSourceFactory* streams = nullptr);
[[nodiscard]] model::ArchitectureDesc desc_from_json(
    std::string_view text, StreamSourceFactory* streams = nullptr);
/// @}

/// \name Scenario templates
/// A scenario document decoded once, for every session on it
/// (docs/DESIGN.md §13): the validated description, with each stream-typed
/// source bound to a stub that throws if it is ever called, and the list of
/// those sources. A serve::Session copies the description and binds the
/// stubs to its own token buffers (model::ArchitectureDesc::rebind_source),
/// so the template never holds a session's tokens and a wrong binding fails
/// loudly instead of reading another session's.
/// @{
struct ScenarioTemplate {
  std::string document;  ///< the document text, byte for byte
  model::DescPtr desc;
  std::vector<std::size_t> stream_sources;  ///< ascending source indices
};
using TemplatePtr = std::shared_ptr<const ScenarioTemplate>;

/// Decode \p document into a template. Throws as desc_from_json.
[[nodiscard]] TemplatePtr decode_template(std::string document);
/// @}

}  // namespace maxev::serve
