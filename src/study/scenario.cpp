#include "study/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace maxev::study {

using model::ArchitectureDesc;
using model::ChannelKind;

Scenario::Scenario(std::string name, ArchitectureDesc desc)
    : name_(std::move(name)), desc_(model::share(std::move(desc))) {}

Scenario::Scenario(std::string name, model::DescPtr desc)
    : name_(std::move(name)), desc_(std::move(desc)) {
  if (desc_ == nullptr)
    throw DescriptionError("Scenario '" + name_ + "': null description");
  if (!desc_->validated())
    throw DescriptionError("Scenario '" + name_ +
                           "': description must be validated");
}

Scenario& Scenario::with_group(std::vector<bool> group) {
  options_.group = std::move(group);
  return *this;
}

Scenario& Scenario::with_fold(bool fold) {
  options_.fold = fold;
  return *this;
}

Scenario& Scenario::with_pad_nodes(std::size_t n) {
  options_.pad_nodes = n;
  return *this;
}

Scenario& Scenario::with_expected_iterations(std::size_t n) {
  options_.expected_iterations = n;
  return *this;
}

Scenario compose(std::string name, const std::vector<Scenario>& instances) {
  if (instances.empty())
    throw DescriptionError("compose '" + name + "': no instances");
  std::set<std::string> seen;
  for (const Scenario& inst : instances) {
    if (!inst.valid())
      throw DescriptionError("compose '" + name + "': invalid instance");
    // '/' is the namespace separator: a name containing it would make one
    // instance a path-prefix of another and corrupt trace extraction.
    if (inst.name().empty() || inst.name().find('/') != std::string::npos)
      throw DescriptionError("compose '" + name + "': instance name '" +
                             inst.name() + "' must be non-empty and without '/'");
    if (!seen.insert(inst.name()).second)
      throw DescriptionError("compose '" + name + "': duplicate instance '" +
                             inst.name() + "'");
    // Graph transforms apply to the merged graph as a whole; silently
    // running an instance under options it did not ask for would make its
    // composed equivalent model differ from its solo run.
    if (inst.options().fold != instances.front().options().fold ||
        inst.options().pad_nodes != instances.front().options().pad_nodes)
      throw DescriptionError("compose '" + name + "': instance '" +
                             inst.name() +
                             "' disagrees on fold/pad_nodes options");
  }

  // Abstraction groups concatenate. An instance with an empty group means
  // "abstract everything" — only expanded when some instance restricts its
  // group; otherwise the composed group stays empty (same meaning).
  bool any_partial = false;
  for (const Scenario& inst : instances)
    if (!inst.options().group.empty()) any_partial = true;

  ArchitectureDesc merged;
  std::vector<Instance> spans;
  std::vector<bool> group;
  for (const Scenario& part : instances) {
    const ArchitectureDesc& d = part.desc();
    const std::string prefix = part.name() + "/";
    Instance span;
    span.name = part.name();
    span.res_begin = merged.resources().size();
    span.ch_begin = merged.channels().size();
    span.fn_begin = merged.functions().size();
    span.src_begin = merged.sources().size();
    span.sink_begin = merged.sinks().size();

    std::vector<model::ResourceId> rmap;
    rmap.reserve(d.resources().size());
    for (const auto& r : d.resources())
      rmap.push_back(
          merged.add_resource(prefix + r.name, r.policy, r.ops_per_second));

    std::vector<model::ChannelId> cmap;
    cmap.reserve(d.channels().size());
    for (const auto& c : d.channels()) {
      cmap.push_back(c.kind == ChannelKind::kRendezvous
                         ? merged.add_rendezvous(prefix + c.name)
                         : merged.add_fifo(prefix + c.name, c.capacity));
    }

    // Functions in creation order: creation order IS the static cyclic
    // schedule on each sequential resource, so replaying preserves it.
    for (const auto& f : d.functions()) {
      const model::FunctionId nf =
          merged.add_function(prefix + f.name, rmap[f.resource]);
      for (const auto& s : f.body) {
        switch (s.kind) {
          case model::StatementKind::kRead:
            merged.fn_read(nf, cmap[s.channel]);
            break;
          case model::StatementKind::kExecute:
            merged.fn_execute(nf, s.load);
            break;
          case model::StatementKind::kWrite:
            merged.fn_write(nf, cmap[s.channel]);
            break;
        }
      }
    }

    for (const auto& s : d.sources())
      merged.add_source(prefix + s.name, cmap[s.channel], s.count, s.earliest,
                        s.attrs, s.gap);
    for (const auto& s : d.sinks())
      merged.add_sink(prefix + s.name, cmap[s.channel], s.consume_delay);

    span.res_end = merged.resources().size();
    span.ch_end = merged.channels().size();
    span.fn_end = merged.functions().size();
    span.src_end = merged.sources().size();
    span.sink_end = merged.sinks().size();
    spans.push_back(std::move(span));

    if (any_partial) {
      std::vector<bool> g = part.options().group;
      if (g.empty()) g.assign(d.functions().size(), true);
      g.resize(d.functions().size(), false);
      group.insert(group.end(), g.begin(), g.end());
    }
  }

  Scenario out(std::move(name), std::move(merged));
  out.options_.group = std::move(group);
  // Checked equal across instances above.
  out.options_.fold = instances.front().options().fold;
  out.options_.pad_nodes = instances.front().options().pad_nodes;
  // Capacity hints: any single relation of the merged description sees at
  // most the largest instance's iteration count. A hint-less instance
  // contributes what the model would derive for it (its largest source),
  // so one instance's small explicit hint cannot shrink another's sinks.
  bool any_hint = false;
  for (const Scenario& part : instances)
    if (part.options().expected_iterations > 0) any_hint = true;
  if (any_hint) {
    for (const Scenario& part : instances) {
      const std::size_t effective =
          part.options().expected_iterations > 0
              ? part.options().expected_iterations
              : static_cast<std::size_t>(part.desc().max_source_tokens());
      out.options_.expected_iterations =
          std::max(out.options_.expected_iterations, effective);
    }
  }
  out.instances_ = std::move(spans);

  // Partition the instances into equal-structure sub-batches
  // (docs/DESIGN.md §10): membership requires the same model::DescPtr and
  // the same abstraction group. Pointer identity is deliberate — it implies
  // structural equality, and equal-but-distinct descriptions hold distinct
  // std::function workloads that cannot be proven equivalent, so they stay
  // in separate sub-batches (and fall to the inline remainder when
  // alone).
  std::vector<BatchGroup> candidates;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Scenario& part = instances[i];
    // Normalize the group key: an empty group means "abstract everything",
    // so it must land in the same sub-batch as its explicit all-true form.
    std::vector<bool> key_group = part.options().group;
    if (key_group.empty())
      key_group.assign(part.desc().functions().size(), true);
    else
      key_group.resize(part.desc().functions().size(), false);
    auto home = std::find_if(
        candidates.begin(), candidates.end(), [&](const BatchGroup& c) {
          return c.base == part.desc_ptr() && c.group == key_group;
        });
    if (home == candidates.end()) {
      candidates.push_back({part.desc_ptr(), std::move(key_group), {}});
      home = std::prev(candidates.end());
    }
    home->members.push_back(i);
  }
  for (BatchGroup& c : candidates)
    if (c.members.size() >= 2)  // singletons: inline remainder
      out.batch_groups_.push_back(std::move(c));
  return out;
}

namespace {

/// "prefix/rest" -> "rest"; nullptr when the name is outside the instance.
const char* strip(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() + 1) return nullptr;
  if (name.compare(0, prefix.size(), prefix) != 0) return nullptr;
  if (name[prefix.size()] != '/') return nullptr;
  return name.c_str() + prefix.size() + 1;
}

}  // namespace

trace::InstantTraceSet instance_instants(const trace::InstantTraceSet& composed,
                                         const std::string& instance) {
  trace::InstantTraceSet out;
  for (const auto& [name, series] : composed.all()) {
    const char* rest = strip(name, instance);
    if (rest == nullptr) continue;
    trace::InstantSeries& s = out.series(rest);
    s.reserve(series.size());
    for (const TimePoint t : series.values()) s.push(t);
  }
  return out;
}

trace::UsageTraceSet instance_usage(const trace::UsageTraceSet& composed,
                                    const std::string& instance) {
  trace::UsageTraceSet out;
  for (const auto& [resource, tr] : composed.all()) {
    const char* rest = strip(resource, instance);
    if (rest == nullptr) continue;
    trace::UsageTrace& t = out.trace(rest);
    t.reserve(tr.size());
    // Each composed label is stripped and interned once, on first use, so
    // the intern order matches appending the intervals one by one.
    std::vector<std::int32_t> ids(tr.labels().size(), -1);
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const std::int32_t from = tr.label_ids()[i];
      std::int32_t& to = ids.at(static_cast<std::size_t>(from));
      if (to < 0) {
        const std::string& label = tr.label(from);
        const char* lr = strip(label, instance);
        to = t.intern_label(lr != nullptr ? std::string(lr) : label);
      }
      t.push(tr.starts()[i], tr.ends()[i], tr.ops()[i], to);
    }
  }
  return out;
}

}  // namespace maxev::study
