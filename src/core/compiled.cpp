#include "core/compiled.hpp"

#include <functional>
#include <utility>

#include "tdg/simplify.hpp"
#include "util/error.hpp"

namespace maxev::core {

CompiledKey CompiledKey::make(model::DescPtr desc, std::vector<bool> group,
                              bool fold, std::size_t pad_nodes) {
  if (desc == nullptr) throw DescriptionError("CompiledKey: null description");
  if (group.empty()) group.assign(desc->functions().size(), true);
  group.resize(desc->functions().size(), false);
  return CompiledKey{std::move(desc), std::move(group), fold, pad_nodes};
}

std::size_t hash_value(const CompiledKey& key) {
  // Consistent with operator== (pointer identity); boost-style combine.
  std::size_t h = std::hash<const model::ArchitectureDesc*>{}(key.desc.get());
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(key.group.size());
  std::size_t bits = 0;
  for (std::size_t i = 0; i < key.group.size(); ++i) {
    bits = (bits << 1) | (key.group[i] ? 1u : 0u);
    if (i % 61 == 60) {
      mix(bits);
      bits = 0;
    }
  }
  mix(bits);
  mix(key.fold ? 0x1234u : 0x4321u);
  mix(key.pad_nodes);
  return h;
}

CompiledPtr compile_abstraction(const CompiledKey& key) {
  if (key.desc == nullptr)
    throw DescriptionError("compile_abstraction: null description");
  auto out = std::make_shared<CompiledAbstraction>();
  out->key = key;

  tdg::DerivedTdg derived = tdg::derive_tdg(*key.desc, key.group);
  tdg::Graph g = std::move(derived.graph);
  if (key.fold) g = tdg::fold_pass_through(g);
  if (key.pad_nodes > 0) g = tdg::pad_graph(g, key.pad_nodes);
  g.freeze();
  out->graph = std::move(g);
  out->program = tdg::Program::compile(out->graph);
  out->inputs = std::move(derived.inputs);
  out->outputs = std::move(derived.outputs);
  return out;
}

CompiledPtr obtain_compiled(CompiledProvider* provider,
                            const CompiledKey& key) {
  if (provider != nullptr) return provider->get(key);
  return compile_abstraction(key);
}

}  // namespace maxev::core
