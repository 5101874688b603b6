#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/compiled.hpp"
#include "serve/wire.hpp"

/// \file program_cache.hpp
/// Bounded, thread-safe LRU cache of compiled abstractions
/// (core::CompiledAbstraction) and of decoded scenario documents
/// (serve::ScenarioTemplate), the artifact-reuse half of the serve
/// subsystem (docs/DESIGN.md §13). Study matrix cells, composed sub-batches
/// and serve sessions requesting the same (description, group, fold, pad)
/// combination share one derive → fold → pad → freeze → Program::compile
/// product instead of redoing it.
///
/// Sharing rule, two levels:
///  * Compiled entries (get()) are keyed by model::DescPtr POINTER
///    identity, both for hashing and for equality — a compiled program
///    embeds the description's behavioural std::functions, so only
///    provably-same-workload requests may share it (see core/compiled.hpp).
///    This is the rule for library callers: two equal but distinct
///    descriptions compile separately.
///  * Scenario entries (scenario()) are keyed by DOCUMENT identity: the
///    serve layer decodes each distinct document text once, and every
///    session on it compiles through the template's one description, so
///    identical documents share one template and one program. Lookup
///    hashes the text; equality compares every byte. A decoded document's
///    behaviour is a function of its bytes (concrete specs, throwing
///    opaque stubs, and stream stubs that no program reads), so equal
///    bytes are the same workload.
///
/// Both kinds share one LRU order and one capacity. An entry pins its
/// description alive (a compiled key holds the DescPtr, a template owns
/// its own); dropping every external reference to a description therefore
/// does NOT evict its entries — evict by capacity, or clear() between
/// unrelated workloads.

namespace maxev::serve {

class ProgramCache final : public core::CompiledProvider {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< compiled lookups served from the cache
    std::uint64_t misses = 0;  ///< compiled lookups that compiled
    std::uint64_t evictions = 0;
    std::size_t size = 0;  ///< resident entries (both kinds) at sample time
  };

  /// Default bound; also the capacity the study layer's serial-replay
  /// attribution simulates, so keep the two in sync via this constant.
  static constexpr std::size_t kDefaultCapacity = 128;

  /// \param capacity maximum resident entries (>= 1).
  explicit ProgramCache(std::size_t capacity = kDefaultCapacity);

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  /// Return (compiling on a miss) the artifact for \p key, marking it
  /// most-recently-used. Thread-safe. The compile itself runs under the
  /// lock: concurrent requests for one key never compile twice, which is
  /// the deterministic-attribution anchor the study layer relies on.
  [[nodiscard]] core::CompiledPtr get(const core::CompiledKey& key,
                                      bool* was_hit = nullptr) override;

  /// Return (decoding on a miss, serve::decode_template) the template of
  /// the scenario document \p document, marking it most-recently-used.
  /// Thread-safe; not counted in Stats::hits/misses, which count compiled
  /// lookups. Throws what decode_template throws, caching nothing.
  [[nodiscard]] TemplatePtr scenario(std::string_view document);

  /// Whether \p key is resident (no LRU touch, no counter change).
  [[nodiscard]] bool contains(const core::CompiledKey& key) const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every entry (counters keep accumulating).
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const core::CompiledKey& k) const {
      return core::hash_value(k);
    }
  };
  /// A compiled entry (key.desc set) or a scenario entry (scenario set).
  struct Entry {
    core::CompiledKey key;
    core::CompiledPtr value;
    TemplatePtr scenario;
  };
  using LruList = std::list<Entry>;

  /// Insert \p e as most recently used and evict down to capacity.
  /// \pre mu_ is held.
  void insert(Entry e);

  std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<core::CompiledKey, LruList::iterator, KeyHash> index_;
  /// Keyed by views of the resident templates' own document text.
  std::unordered_map<std::string_view, LruList::iterator> scenarios_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace maxev::serve
