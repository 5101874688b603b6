#include "model/baseline.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace maxev::model {

ModelRuntime::ModelRuntime(const ArchitectureDesc& desc,
                           std::vector<bool> skip, bool observe)
    : ModelRuntime(std::make_shared<const ArchitectureDesc>(desc),
                   std::move(skip), observe) {}

ModelRuntime::ModelRuntime(DescPtr desc_in, std::vector<bool> skip,
                           bool observe)
    : desc_(std::move(desc_in)), skip_(std::move(skip)), observe_(observe) {
  if (desc_ == nullptr)
    throw DescriptionError("ModelRuntime: null description");
  const ArchitectureDesc& desc = *desc_;
  if (!desc.validated())
    throw DescriptionError("ModelRuntime: description must be validated");
  skip_.resize(desc.functions().size(), false);

  // Resolve the usage traces once; recording is a hot-path operation.
  // Labels are interned up front and the columns pre-sized to the expected
  // interval count so the observation path never allocates mid-run. Any
  // single relation sees at most the largest source's token count.
  const std::uint64_t expected = desc.max_source_tokens();
  if (observe_) {
    usage_by_resource_.reserve(desc.resources().size());
    for (const auto& r : desc.resources())
      usage_by_resource_.push_back(&usage_.trace(r.name));
    exec_labels_.resize(desc.functions().size());
    std::vector<std::size_t> execs_per_resource(desc.resources().size(), 0);
    for (FunctionId f = 0; f < static_cast<FunctionId>(desc.functions().size());
         ++f) {
      const FunctionDesc& fn = desc.functions()[f];
      for (const StatementDesc& s : fn.body) {
        if (s.kind != StatementKind::kExecute) continue;
        exec_labels_[f].push_back(
            usage_by_resource_[fn.resource]->intern_label(s.label));
        if (!skip_[f]) ++execs_per_resource[static_cast<std::size_t>(fn.resource)];
      }
    }
    for (std::size_t r = 0; r < desc.resources().size(); ++r)
      usage_by_resource_[r]->reserve(
          trace::saturating_product(execs_per_resource[r], expected));
  }

  // Channels. A channel whose two endpoints are both skipped functions is
  // internal to the abstraction group: it is not constructed, which is
  // precisely where the simulation events are saved.
  channels_.resize(desc.channels().size());
  for (ChannelId c = 0; c < static_cast<ChannelId>(desc.channels().size());
       ++c) {
    const ChannelEndpoints& ep = desc.endpoints(c);
    const bool writer_skipped =
        ep.writer_fn != kInvalidId && skip_[ep.writer_fn];
    const bool reader_skipped =
        ep.reader_fn != kInvalidId && skip_[ep.reader_fn];
    if (writer_skipped && reader_skipped) continue;  // internal to the group

    const ChannelDesc& cd = desc.channels()[c];
    auto rt = std::make_unique<ChannelRt>();
    rt->kind = cd.kind;
    if (cd.kind == ChannelKind::kRendezvous) {
      rt->rendezvous = std::make_unique<sim::Rendezvous<Token>>(kernel_, cd.name);
      if (observe_) {
        trace::InstantSeries* series = &instants_.series(cd.name);
        series->reserve(expected);
        rt->rendezvous->on_transfer(
            [series](std::uint64_t, TimePoint t, const Token&) {
              series->push(t);
            });
      }
    } else {
      rt->fifo = std::make_unique<sim::Fifo<Token>>(kernel_, cd.name, cd.capacity);
      if (observe_) {
        trace::InstantSeries* w = &instants_.series(cd.name + ".w");
        trace::InstantSeries* r = &instants_.series(cd.name + ".r");
        w->reserve(expected);
        r->reserve(expected);
        rt->fifo->on_write_complete(
            [w](std::uint64_t, TimePoint t, const Token&) { w->push(t); });
        rt->fifo->on_read_complete(
            [r](std::uint64_t, TimePoint t, const Token&) { r->push(t); });
      }
    }
    channels_[c] = std::move(rt);
  }

  // Completion counters for simulated functions.
  counters_.resize(desc.functions().size());
  for (FunctionId f = 0; f < static_cast<FunctionId>(desc.functions().size());
       ++f) {
    if (skip_[f]) continue;
    counters_[f] = std::make_unique<CompletionCounter>(
        kernel_, desc.functions()[f].name + ".done");
  }

  // Processes.
  for (FunctionId f = 0; f < static_cast<FunctionId>(desc.functions().size());
       ++f) {
    if (skip_[f]) continue;
    kernel_.spawn(desc.functions()[f].name,
                  [this, f] { return function_proc(f); });
  }
  sink_received_.assign(desc.sinks().size(), 0);
  for (SinkId s = 0; s < static_cast<SinkId>(desc.sinks().size()); ++s)
    kernel_.spawn(desc.sinks()[s].name, [this, s] { return sink_proc(s); });
  for (SourceId s = 0; s < static_cast<SourceId>(desc.sources().size()); ++s)
    kernel_.spawn(desc.sources()[s].name, [this, s] { return source_proc(s); });
}

bool ModelRuntime::gate_implied_by_first_read(FunctionId f,
                                              FunctionId pred) const {
  const FunctionDesc& fn = desc_->functions()[f];
  const StatementDesc& first = fn.body.front();
  if (first.kind != StatementKind::kRead) return false;
  const ChannelEndpoints& ep = desc_->endpoints(first.channel);
  if (ep.writer_fn != pred) return false;
  // The read implies the predecessor finished its iteration only when the
  // write is the predecessor's *final* statement.
  const FunctionDesc& pf = desc_->functions()[pred];
  return ep.writer_stmt == static_cast<std::int32_t>(pf.body.size()) - 1;
}

sim::Process ModelRuntime::function_proc(FunctionId f) {
  const FunctionDesc& fn = desc_->functions()[f];
  const ResourceDesc& res = desc_->resources()[fn.resource];
  const bool sequential = res.policy == ResourcePolicy::kSequentialCyclic;
  const auto& sched = desc_->schedule(fn.resource);

  // Resolve the static-schedule gate (see header).
  CompletionCounter* pred = nullptr;
  bool pred_prev_iteration = false;
  if (sequential && sched.size() > 1) {
    const std::size_t pos = desc_->schedule_position(f);
    const FunctionId p = sched[(pos + sched.size() - 1) % sched.size()];
    pred_prev_iteration = (pos == 0);
    // A gate satisfied exactly at the rendezvous instant of the first read
    // must be elided: the rendezvous itself enforces it (the predecessor's
    // final write and this function's first read complete simultaneously),
    // and waiting on the completion counter first would deadlock against
    // the predecessor's blocking write.
    if (!gate_implied_by_first_read(f, p)) {
      pred = counters_[p].get();
    }
  }

  Token tok{};  // current token: set by reads, forwarded by writes
  for (std::uint64_t k = 0;; ++k) {
    if (pred != nullptr) {
      const std::uint64_t need = pred_prev_iteration ? k : k + 1;
      while (pred->count() < need) co_await pred->event().wait();
    }
    std::size_t exec_idx = 0;
    for (const StatementDesc& s : fn.body) {
      switch (s.kind) {
        case StatementKind::kRead: {
          ChannelRt& ch = *channels_[s.channel];
          if (ch.kind == ChannelKind::kRendezvous)
            tok = co_await ch.rendezvous->read();
          else
            tok = co_await ch.fifo->read();
          break;
        }
        case StatementKind::kExecute: {
          const std::int64_t ops = s.load(tok.attrs, k);
          const Duration d = res.duration_for(ops);
          const TimePoint start = kernel_.now();
          co_await kernel_.delay(d);
          if (observe_) {
            usage_by_resource_[fn.resource]->push(start, kernel_.now(), ops,
                                                  exec_labels_[f][exec_idx]);
          }
          ++exec_idx;
          break;
        }
        case StatementKind::kWrite: {
          ChannelRt& ch = *channels_[s.channel];
          if (ch.kind == ChannelKind::kRendezvous)
            co_await ch.rendezvous->write(tok);
          else
            co_await ch.fifo->write(tok);
          break;
        }
      }
    }
    counters_[f]->mark();
  }
}

sim::Process ModelRuntime::source_proc(SourceId s) {
  const SourceDesc& src = desc_->sources()[s];
  ChannelRt& ch = *channels_[src.channel];
  for (std::uint64_t k = 0; k < src.count; ++k) {
    if (src.gap) {
      const Duration g = src.gap(k);
      if (!g.is_zero()) co_await kernel_.delay(g);
    }
    co_await kernel_.delay_until(src.earliest(k));
    Token tok{k, s, src.attrs(k)};
    if (ch.kind == ChannelKind::kRendezvous)
      co_await ch.rendezvous->write(std::move(tok));
    else
      co_await ch.fifo->write(std::move(tok));
  }
  ++sources_finished_;
}

sim::Process ModelRuntime::sink_proc(SinkId s) {
  const SinkDesc& snk = desc_->sinks()[s];
  ChannelRt& ch = *channels_[snk.channel];
  for (std::uint64_t k = 0;; ++k) {
    if (snk.consume_delay) {
      const Duration d = snk.consume_delay(k);
      if (!d.is_zero()) co_await kernel_.delay(d);
    }
    if (ch.kind == ChannelKind::kRendezvous)
      (void)co_await ch.rendezvous->read();
    else
      (void)co_await ch.fifo->read();
    ++sink_received_[s];
  }
}

ModelRuntime::Outcome ModelRuntime::run(std::optional<TimePoint> until) {
  const sim::StopReason result = kernel_.run(until);
  Outcome out;
  out.stop = result;
  out.idle = result == sim::StopReason::kIdle;

  // Expected number of tokens at each sink: in the aligned feed-forward
  // architectures this library models, every channel carries one token per
  // iteration, so each sink should see min(source counts) tokens.
  std::uint64_t expected = 0;
  if (!desc_->sources().empty()) {
    expected = desc_->sources()[0].count;
    for (const auto& src : desc_->sources())
      expected = std::min(expected, src.count);
  }

  bool writer_blocked = false;
  std::string blocked_channels;
  for (const auto& ch : channels_) {
    if (!ch) continue;
    const bool blocked = ch->rendezvous ? ch->rendezvous->writer_blocked()
                                        : ch->fifo->writer_blocked();
    if (blocked) {
      writer_blocked = true;
      const std::string& n =
          ch->rendezvous ? ch->rendezvous->name() : ch->fifo->name();
      blocked_channels += (blocked_channels.empty() ? "" : ", ") + n;
    }
  }

  bool sinks_ok = true;
  for (std::size_t s = 0; s < sink_received_.size(); ++s)
    sinks_ok = sinks_ok && sink_received_[s] >= expected;

  out.completed = out.idle &&
                  sources_finished_ == desc_->sources().size() &&
                  !writer_blocked && sinks_ok;

  if (!out.completed && (out.idle || sim::is_guard_stop(result))) {
    // Structured picture first: what stopped us, who is parked, how far
    // the tokens got. The model layers above (equivalent/batched) append
    // what only they can see (unresolved gates, per-instance progress).
    sim::RunDiagnostics& d = out.diagnostics;
    d.stop = result;
    d.events_processed = kernel_.events_dispatched();
    d.parked_processes = kernel_.blocked_process_names();
    std::string detail =
        format("sources finished %llu/%zu",
               static_cast<unsigned long long>(sources_finished_),
               desc_->sources().size());
    if (writer_blocked)
      detail += "; writers blocked on channels: " + blocked_channels;
    for (std::size_t s = 0; s < sink_received_.size(); ++s) {
      if (sink_received_[s] < expected) {
        detail += format("; sink '%s' received %llu of %llu",
                         desc_->sinks()[s].name.c_str(),
                         static_cast<unsigned long long>(sink_received_[s]),
                         static_cast<unsigned long long>(expected));
      }
    }
    d.detail = std::move(detail);

    if (out.idle) {
      // The historical stall wording, byte-for-byte (pinned by the PR 3
      // comparison wrappers); guard stops are new and render the summary.
      std::string report = "simulation stalled:";
      report += format(" sources finished %llu/%zu;",
                       static_cast<unsigned long long>(sources_finished_),
                       desc_->sources().size());
      if (writer_blocked)
        report += " writers blocked on channels: " + blocked_channels + ";";
      for (std::size_t s = 0; s < sink_received_.size(); ++s) {
        if (sink_received_[s] < expected) {
          report += format(" sink '%s' received %llu of %llu;",
                           desc_->sinks()[s].name.c_str(),
                           static_cast<unsigned long long>(sink_received_[s]),
                           static_cast<unsigned long long>(expected));
        }
      }
      const auto& blocked = d.parked_processes;
      if (!blocked.empty()) {
        report += " blocked processes:";
        for (const auto& b : blocked) report += " " + b;
      }
      out.stall_report = report;
    } else {
      out.stall_report = d.summary();
    }
  }
  return out;
}

ChannelRt* ModelRuntime::channel(ChannelId ch) {
  if (ch < 0 || ch >= static_cast<ChannelId>(channels_.size()))
    throw DescriptionError("ModelRuntime::channel: bad id");
  return channels_[ch].get();
}

std::uint64_t ModelRuntime::relation_events() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) {
    if (!ch) continue;
    if (ch->rendezvous) {
      n += ch->rendezvous->transfers();
    } else {
      n += ch->fifo->writes_completed() + ch->fifo->reads_completed();
    }
  }
  return n;
}

std::uint64_t ModelRuntime::sink_received(SinkId s) const {
  if (s < 0 || s >= static_cast<SinkId>(sink_received_.size()))
    throw DescriptionError("sink_received: bad id");
  return sink_received_[s];
}

bool ModelRuntime::function_skipped(FunctionId f) const {
  if (f < 0 || f >= static_cast<FunctionId>(skip_.size()))
    throw DescriptionError("function_skipped: bad id");
  return skip_[f];
}

}  // namespace maxev::model
