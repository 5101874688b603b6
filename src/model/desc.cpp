#include "model/desc.hpp"

#include <algorithm>

#include "model/arith.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace maxev::model {

Duration ResourceDesc::duration_for(std::int64_t ops) const {
  return Duration::ps(arith::duration_ps(ops, ops_per_second));
}

ResourceId ArchitectureDesc::add_resource(std::string name,
                                          ResourcePolicy policy,
                                          double ops_per_second) {
  if (!(ops_per_second > 0.0))
    throw DescriptionError("resource '" + name + "': rate must be positive");
  validated_ = false;
  resources_.push_back({std::move(name), policy, ops_per_second});
  return static_cast<ResourceId>(resources_.size()) - 1;
}

ChannelId ArchitectureDesc::add_rendezvous(std::string name) {
  validated_ = false;
  channels_.push_back({std::move(name), ChannelKind::kRendezvous, 0});
  return static_cast<ChannelId>(channels_.size()) - 1;
}

ChannelId ArchitectureDesc::add_fifo(std::string name, std::size_t capacity) {
  if (capacity == 0)
    throw DescriptionError("fifo '" + name + "': capacity must be >= 1");
  validated_ = false;
  channels_.push_back({std::move(name), ChannelKind::kFifo, capacity});
  return static_cast<ChannelId>(channels_.size()) - 1;
}

FunctionId ArchitectureDesc::add_function(std::string name,
                                          ResourceId resource) {
  if (resource < 0 || resource >= static_cast<ResourceId>(resources_.size()))
    throw DescriptionError("function '" + name + "': unknown resource");
  validated_ = false;
  functions_.push_back({std::move(name), resource, {}});
  return static_cast<FunctionId>(functions_.size()) - 1;
}

void ArchitectureDesc::check_channel(ChannelId ch, const char* what) const {
  if (ch < 0 || ch >= static_cast<ChannelId>(channels_.size()))
    throw DescriptionError(std::string(what) + ": unknown channel id " +
                           std::to_string(ch));
}

void ArchitectureDesc::check_function(FunctionId f, const char* what) const {
  if (f < 0 || f >= static_cast<FunctionId>(functions_.size()))
    throw DescriptionError(std::string(what) + ": unknown function id " +
                           std::to_string(f));
}

void ArchitectureDesc::fn_read(FunctionId f, ChannelId ch) {
  check_function(f, "fn_read");
  check_channel(ch, "fn_read");
  validated_ = false;
  functions_[f].body.push_back({StatementKind::kRead, ch, nullptr, {}});
}

void ArchitectureDesc::fn_execute(FunctionId f, LoadFn load) {
  check_function(f, "fn_execute");
  if (!load) throw DescriptionError("fn_execute: null load expression");
  validated_ = false;
  std::size_t execs = 0;
  for (const auto& s : functions_[f].body)
    if (s.kind == StatementKind::kExecute) ++execs;
  std::string label = functions_[f].name + ".e" + std::to_string(execs);
  functions_[f].body.push_back(
      {StatementKind::kExecute, kInvalidId, std::move(load), std::move(label)});
}

void ArchitectureDesc::fn_write(FunctionId f, ChannelId ch) {
  check_function(f, "fn_write");
  check_channel(ch, "fn_write");
  validated_ = false;
  functions_[f].body.push_back({StatementKind::kWrite, ch, nullptr, {}});
}

SourceId ArchitectureDesc::add_source(
    std::string name, ChannelId ch, std::uint64_t count,
    std::function<TimePoint(std::uint64_t)> earliest,
    std::function<TokenAttrs(std::uint64_t)> attrs,
    std::function<Duration(std::uint64_t)> gap) {
  check_channel(ch, "add_source");
  if (count == 0)
    throw DescriptionError("source '" + name + "': count must be >= 1");
  if (!earliest)
    throw DescriptionError("source '" + name + "': earliest() is required");
  if (!attrs)
    throw DescriptionError("source '" + name + "': attrs() is required");
  validated_ = false;
  sources_.push_back({std::move(name), ch, count, std::move(earliest),
                      std::move(gap), std::move(attrs)});
  return static_cast<SourceId>(sources_.size()) - 1;
}

void ArchitectureDesc::rebind_source(
    SourceId s, std::function<TimePoint(std::uint64_t)> earliest,
    std::function<TokenAttrs(std::uint64_t)> attrs) {
  if (s < 0 || s >= static_cast<SourceId>(sources_.size()))
    throw DescriptionError("rebind_source: unknown source id " +
                           std::to_string(s));
  SourceDesc& src = sources_[static_cast<std::size_t>(s)];
  if (!earliest)
    throw DescriptionError("source '" + src.name + "': earliest() is required");
  if (!attrs)
    throw DescriptionError("source '" + src.name + "': attrs() is required");
  src.earliest = std::move(earliest);
  src.attrs = std::move(attrs);
}

SinkId ArchitectureDesc::add_sink(
    std::string name, ChannelId ch,
    std::function<Duration(std::uint64_t)> consume_delay) {
  check_channel(ch, "add_sink");
  validated_ = false;
  sinks_.push_back({std::move(name), ch, std::move(consume_delay)});
  return static_cast<SinkId>(sinks_.size()) - 1;
}

void ArchitectureDesc::validate() {
  if (validated_) return;

  endpoints_.assign(channels_.size(), ChannelEndpoints{});

  auto set_writer = [&](ChannelId ch, FunctionId f, std::int32_t stmt,
                        SourceId src) {
    ChannelEndpoints& ep = endpoints_[ch];
    if (ep.writer_fn != kInvalidId || ep.writer_source != kInvalidId)
      throw DescriptionError("channel '" + channels_[ch].name +
                             "': more than one writer");
    ep.writer_fn = f;
    ep.writer_stmt = stmt;
    ep.writer_source = src;
  };
  auto set_reader = [&](ChannelId ch, FunctionId f, std::int32_t stmt,
                        SinkId snk) {
    ChannelEndpoints& ep = endpoints_[ch];
    if (ep.reader_fn != kInvalidId || ep.reader_sink != kInvalidId)
      throw DescriptionError("channel '" + channels_[ch].name +
                             "': more than one reader");
    ep.reader_fn = f;
    ep.reader_stmt = stmt;
    ep.reader_sink = snk;
  };

  for (FunctionId f = 0; f < static_cast<FunctionId>(functions_.size()); ++f) {
    const FunctionDesc& fn = functions_[f];
    if (fn.body.empty())
      throw DescriptionError("function '" + fn.name + "': empty body");
    bool touches_channel = false;
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(fn.body.size());
         ++i) {
      const StatementDesc& s = fn.body[i];
      switch (s.kind) {
        case StatementKind::kRead:
          set_reader(s.channel, f, i, kInvalidId);
          touches_channel = true;
          break;
        case StatementKind::kWrite:
          set_writer(s.channel, f, i, kInvalidId);
          touches_channel = true;
          break;
        case StatementKind::kExecute:
          break;
      }
    }
    if (!touches_channel)
      throw DescriptionError("function '" + fn.name +
                             "': no read or write statement — the iteration "
                             "index is unobservable");
  }

  for (SourceId s = 0; s < static_cast<SourceId>(sources_.size()); ++s)
    set_writer(sources_[s].channel, kInvalidId, -1, s);
  for (SinkId s = 0; s < static_cast<SinkId>(sinks_.size()); ++s)
    set_reader(sinks_[s].channel, kInvalidId, -1, s);

  for (ChannelId c = 0; c < static_cast<ChannelId>(channels_.size()); ++c) {
    const ChannelEndpoints& ep = endpoints_[c];
    if (ep.writer_fn == kInvalidId && ep.writer_source == kInvalidId)
      throw DescriptionError("channel '" + channels_[c].name + "': no writer");
    if (ep.reader_fn == kInvalidId && ep.reader_sink == kInvalidId)
      throw DescriptionError("channel '" + channels_[c].name + "': no reader");
  }

  // Per-resource static schedules in mapping (insertion) order.
  schedules_.assign(resources_.size(), {});
  schedule_pos_.assign(functions_.size(), 0);
  for (FunctionId f = 0; f < static_cast<FunctionId>(functions_.size()); ++f) {
    schedule_pos_[f] = schedules_[functions_[f].resource].size();
    schedules_[functions_[f].resource].push_back(f);
  }

  validated_ = true;
}

const ChannelEndpoints& ArchitectureDesc::endpoints(ChannelId ch) const {
  if (!validated_)
    throw DescriptionError("ArchitectureDesc: validate() before endpoints()");
  check_channel(ch, "endpoints");
  return endpoints_[ch];
}

const std::vector<FunctionId>& ArchitectureDesc::schedule(ResourceId r) const {
  if (!validated_)
    throw DescriptionError("ArchitectureDesc: validate() before schedule()");
  if (r < 0 || r >= static_cast<ResourceId>(resources_.size()))
    throw DescriptionError("schedule: unknown resource");
  return schedules_[r];
}

std::size_t ArchitectureDesc::schedule_position(FunctionId f) const {
  if (!validated_)
    throw DescriptionError(
        "ArchitectureDesc: validate() before schedule_position()");
  check_function(f, "schedule_position");
  return schedule_pos_[f];
}

std::uint64_t ArchitectureDesc::total_source_tokens() const {
  std::uint64_t total = 0;
  for (const auto& s : sources_) total += s.count;
  return total;
}

std::uint64_t ArchitectureDesc::max_source_tokens() const {
  std::uint64_t max = 0;
  for (const auto& s : sources_) max = std::max(max, s.count);
  return max;
}

bool structurally_equal(const ArchitectureDesc& a, const ArchitectureDesc& b) {
  if (a.resources().size() != b.resources().size() ||
      a.channels().size() != b.channels().size() ||
      a.functions().size() != b.functions().size() ||
      a.sources().size() != b.sources().size() ||
      a.sinks().size() != b.sinks().size())
    return false;
  for (std::size_t i = 0; i < a.resources().size(); ++i) {
    const ResourceDesc& x = a.resources()[i];
    const ResourceDesc& y = b.resources()[i];
    if (x.name != y.name || x.policy != y.policy ||
        x.ops_per_second != y.ops_per_second)
      return false;
  }
  for (std::size_t i = 0; i < a.channels().size(); ++i) {
    const ChannelDesc& x = a.channels()[i];
    const ChannelDesc& y = b.channels()[i];
    if (x.name != y.name || x.kind != y.kind || x.capacity != y.capacity)
      return false;
  }
  for (std::size_t i = 0; i < a.functions().size(); ++i) {
    const FunctionDesc& x = a.functions()[i];
    const FunctionDesc& y = b.functions()[i];
    if (x.name != y.name || x.resource != y.resource ||
        x.body.size() != y.body.size())
      return false;
    for (std::size_t j = 0; j < x.body.size(); ++j) {
      const StatementDesc& s = x.body[j];
      const StatementDesc& t = y.body[j];
      if (s.kind != t.kind || s.channel != t.channel || s.label != t.label)
        return false;
    }
  }
  for (std::size_t i = 0; i < a.sources().size(); ++i) {
    const SourceDesc& x = a.sources()[i];
    const SourceDesc& y = b.sources()[i];
    if (x.name != y.name || x.channel != y.channel || x.count != y.count)
      return false;
  }
  for (std::size_t i = 0; i < a.sinks().size(); ++i) {
    const SinkDesc& x = a.sinks()[i];
    const SinkDesc& y = b.sinks()[i];
    if (x.name != y.name || x.channel != y.channel ||
        static_cast<bool>(x.consume_delay) != static_cast<bool>(y.consume_delay))
      return false;
  }
  return true;
}

DescPtr share(ArchitectureDesc desc) {
  desc.validate();
  return std::make_shared<const ArchitectureDesc>(std::move(desc));
}

}  // namespace maxev::model
