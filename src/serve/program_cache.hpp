#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/compiled.hpp"

/// \file program_cache.hpp
/// Bounded, thread-safe LRU cache of compiled abstractions
/// (core::CompiledAbstraction), the artifact-reuse half of the serve
/// subsystem (docs/DESIGN.md §13). Study matrix cells, composed sub-batches
/// and serve sessions requesting the same (description, group, fold, pad)
/// combination share one derive → fold → pad → freeze → Program::compile
/// product instead of redoing it.
///
/// Keying (see core/compiled.hpp): model::DescPtr POINTER identity, both
/// for hashing and for equality — a compiled program embeds the
/// description's behavioural std::functions, so only provably-same-workload
/// requests may share it. An entry pins its description alive (the key
/// holds the DescPtr); dropping every external reference to a description
/// therefore does NOT evict its entries — evict by capacity, or clear()
/// between unrelated workloads.

namespace maxev::serve {

class ProgramCache final : public core::CompiledProvider {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;  ///< resident entries at sample time
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
  struct Entry {
    core::CompiledKey key;
    core::CompiledPtr value;
  };
  using LruList = std::list<Entry>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<core::CompiledKey, LruList::iterator, KeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace maxev::serve
