#include "serve/program_cache.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"

namespace maxev::serve {

ProgramCache::ProgramCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0)
    throw DescriptionError("ProgramCache: capacity must be >= 1");
}

core::CompiledPtr ProgramCache::get(const core::CompiledKey& key_in,
                                    bool* was_hit) {
  // Canonicalize so normalized and shorthand (empty = all) groups unify.
  const core::CompiledKey key = core::CompiledKey::make(
      key_in.desc, key_in.group, key_in.fold, key_in.pad_nodes);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++hits_;
    if (was_hit != nullptr) *was_hit = true;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
    return it->second->value;
  }

  ++misses_;
  if (was_hit != nullptr) *was_hit = false;
  core::CompiledPtr compiled = core::compile_abstraction(key);
  insert(Entry{compiled->key, compiled, nullptr});
  return compiled;
}

TemplatePtr ProgramCache::scenario(std::string_view document) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = scenarios_.find(document);
  if (it != scenarios_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->scenario;
  }
  TemplatePtr decoded = decode_template(std::string(document));
  insert(Entry{{}, nullptr, decoded});
  return decoded;
}

void ProgramCache::insert(Entry e) {
  lru_.push_front(std::move(e));
  const Entry& front = lru_.front();
  if (front.scenario != nullptr)
    scenarios_.emplace(front.scenario->document, lru_.begin());
  else
    index_.emplace(front.key, lru_.begin());
  while (lru_.size() > capacity_) {
    const Entry& back = lru_.back();
    if (back.scenario != nullptr)
      scenarios_.erase(back.scenario->document);
    else
      index_.erase(back.key);
    lru_.pop_back();
    ++evictions_;
  }
}

bool ProgramCache::contains(const core::CompiledKey& key_in) const {
  const core::CompiledKey key = core::CompiledKey::make(
      key_in.desc, key_in.group, key_in.fold, key_in.pad_nodes);
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, evictions_, lru_.size()};
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  scenarios_.clear();
  lru_.clear();
}

}  // namespace maxev::serve
