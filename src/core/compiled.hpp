#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "model/desc.hpp"
#include "tdg/derive.hpp"
#include "tdg/graph.hpp"
#include "tdg/program.hpp"

/// \file compiled.hpp
/// The reusable compilation artifact of one abstraction: everything
/// derive → fold → pad → freeze → Program::compile produces, bundled with
/// the key that identifies it. core::EquivalentModel consumes these (one
/// per sub-batch base and one for its inline remainder) instead of
/// re-deriving per run, and serve::ProgramCache stores them across runs
/// (the study-matrix speed-up of docs/DESIGN.md §13).
///
/// Sharing rule (the Desc structural-surface contract, desc.hpp): a
/// compiled tdg::Program holds the description's *behavioural*
/// std::functions (guards, loads), which structural equality cannot see.
/// Cache keys therefore compare and hash the model::DescPtr by POINTER
/// IDENTITY — only instances provably evaluating the same workload
/// functions share an artifact. The key holds the shared_ptr, so a cached
/// address cannot be reused by another description. The serve layer adds
/// document identity on top: sessions on one scenario document compile
/// through its one decoded template (serve/program_cache.hpp).

namespace maxev::core {

/// Identity of a compiled abstraction. `group` is stored normalized
/// (empty → all functions abstracted; sized to functions().size()), the
/// same normalization EquivalentModel applies, so solo and sub-batch
/// requests for the same abstraction unify.
struct CompiledKey {
  model::DescPtr desc;
  std::vector<bool> group;
  bool fold = true;
  std::size_t pad_nodes = 0;

  /// Build a key with the group normalized against \p desc.
  /// \throws maxev::DescriptionError when desc is null.
  [[nodiscard]] static CompiledKey make(model::DescPtr desc,
                                        std::vector<bool> group, bool fold,
                                        std::size_t pad_nodes);

  /// Pointer-identity on the description (see the sharing rule above).
  friend bool operator==(const CompiledKey& a, const CompiledKey& b) {
    return a.desc.get() == b.desc.get() && a.fold == b.fold &&
           a.pad_nodes == b.pad_nodes && a.group == b.group;
  }
};

/// Hash consistent with CompiledKey equality: the description's address
/// combined with the group/fold/pad fields.
[[nodiscard]] std::size_t hash_value(const CompiledKey& key);

/// The artifact: frozen graph, compiled program (including its opcode
/// tables — Program::compile builds them, so cached artifacts carry the
/// enum-dispatched form for free), boundary metadata. Pins the
/// description alive (tdg::Graph references it by raw pointer).
struct CompiledAbstraction {
  CompiledKey key;
  tdg::Graph graph;  ///< frozen
  tdg::Program program;
  std::vector<tdg::BoundaryInput> inputs;
  std::vector<tdg::BoundaryOutput> outputs;

  /// Hoisted loads that resisted opcode compilation (hand-written
  /// lambdas): the std::function calls left on this artifact's hot path.
  /// 0 = the program dispatches entirely through tdg::ops tables.
  [[nodiscard]] std::size_t opaque_loads() const {
    return program.load_ops.opaque;
  }
  /// Opcode kind (tdg::ops::Kind) of hoisted load \p i — introspection
  /// for stats/serialization; serve/wire uses the same classification.
  [[nodiscard]] tdg::ops::Kind load_kind(std::size_t i) const {
    return static_cast<tdg::ops::Kind>(program.load_ops.kind[i]);
  }
};

using CompiledPtr = std::shared_ptr<const CompiledAbstraction>;

/// Run the full compilation chain for \p key:
/// derive_tdg → fold_pass_through? → pad_graph? → freeze → Program::compile.
[[nodiscard]] CompiledPtr compile_abstraction(const CompiledKey& key);

/// Source of compiled abstractions. The null provider is "compile every
/// time"; serve::ProgramCache implements the caching one. get() must be
/// thread-safe (study cells may request concurrently).
class CompiledProvider {
 public:
  virtual ~CompiledProvider() = default;

  /// Return the artifact for \p key, compiling on demand. When \p was_hit
  /// is non-null it reports whether the artifact already existed.
  [[nodiscard]] virtual CompiledPtr get(const CompiledKey& key,
                                        bool* was_hit = nullptr) = 0;
};

/// get() through \p provider when non-null, else compile directly.
[[nodiscard]] CompiledPtr obtain_compiled(CompiledProvider* provider,
                                          const CompiledKey& key);

}  // namespace maxev::core
