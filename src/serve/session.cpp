#include "serve/session.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "serve/decode.hpp"

namespace maxev::serve {

namespace {

std::uint64_t dispatched(const sim::KernelStats& s) {
  return s.resumes + s.callbacks - s.inline_resumes;
}

/// The compiled lookups of a session's model, sent through its template's
/// description. The session's copy differs from the template only in its
/// stream sources, which no compiled program reads, so every session on
/// one template shares one program: pointer identity on the template is
/// the sharing rule (core/compiled.hpp).
class TemplateLookup final : public core::CompiledProvider {
 public:
  TemplateLookup(core::CompiledProvider* next, const model::DescPtr& bound,
                 model::DescPtr shared)
      : next_(next), bound_(bound), shared_(std::move(shared)) {}

  core::CompiledPtr get(const core::CompiledKey& key,
                        bool* was_hit) override {
    core::CompiledKey k = key;
    if (k.desc == bound_) k.desc = shared_;
    if (next_ != nullptr) return next_->get(k, was_hit);
    if (was_hit != nullptr) *was_hit = false;
    return core::compile_abstraction(k);
  }

 private:
  core::CompiledProvider* next_;
  const model::DescPtr& bound_;
  model::DescPtr shared_;
};

}  // namespace

Session::Session(std::string scenario_json)
    : Session(std::move(scenario_json), Options()) {}

Session::Session(std::string scenario_json, Options opts)
    : Session(decode_template(std::move(scenario_json)), opts) {}

Session::Session(TemplatePtr scenario, Options opts)
    : template_(std::move(scenario)), opts_(opts) {
  if (template_ == nullptr)
    throw SessionError("session: null scenario template");
  model::ArchitectureDesc desc = *template_->desc;
  for (const std::size_t s : template_->stream_sources) {
    auto stream = std::make_shared<Stream>();
    stream->source_index = s;
    stream->name = desc.sources()[s].name;
    stream->count = desc.sources()[s].count;
    stream_by_source_[s] = streams_.size();
    streams_.push_back(stream);
    // The watermark guarantees the kernel never evaluates an unfed token;
    // reaching a throw means the watermark computation is wrong.
    desc.rebind_source(
        static_cast<model::SourceId>(s),
        [stream](std::uint64_t k) {
          if (k >= stream->earliest_ps.size())
            throw SessionError("stream source '" + stream->name +
                               "': token " + std::to_string(k) +
                               " evaluated before being fed");
          return TimePoint::at_ps(stream->earliest_ps[k]);
        },
        [stream](std::uint64_t k) {
          if (k >= stream->attrs.size())
            throw SessionError("stream source '" + stream->name +
                               "': attrs of " + std::to_string(k) +
                               " evaluated before being fed");
          return stream->attrs[k];
        });
  }
  desc_ = model::share(std::move(desc));

  TemplateLookup lookup(opts_.compiled, desc_, template_->desc);
  core::EquivalentModel::Options mopts;
  mopts.expected_iterations = opts_.expected_iterations;
  mopts.compiled = &lookup;
  model_ = std::make_unique<core::EquivalentModel>(
      desc_, std::vector<bool>{}, mopts);
  if (opts_.guards.any())
    model_->runtime().kernel().set_run_guards(opts_.guards);
}

bool Session::is_stream_source(std::size_t source) const {
  return stream_by_source_.count(source) != 0;
}

std::uint64_t Session::fed(std::size_t source) const {
  const auto it = stream_by_source_.find(source);
  if (it == stream_by_source_.end())
    throw SessionError("source " + std::to_string(source) +
                       " is not a stream source");
  return streams_[it->second]->earliest_ps.size();
}

void Session::feed(std::size_t source, const std::vector<FedToken>& tokens) {
  const auto it = stream_by_source_.find(source);
  if (it == stream_by_source_.end())
    throw SessionError("source " + std::to_string(source) +
                       " is not a stream source");
  Stream& st = *streams_[it->second];
  if (st.earliest_ps.size() + tokens.size() > st.count)
    throw SessionError("stream source '" + st.name + "': feeding " +
                       std::to_string(tokens.size()) + " tokens past the " +
                       "declared count of " + std::to_string(st.count));
  std::int64_t floor = st.earliest_ps.empty()
                           ? std::numeric_limits<std::int64_t>::min()
                           : st.earliest_ps.back();
  for (const FedToken& t : tokens) {
    if (t.earliest_ps < floor)
      throw SessionError("stream source '" + st.name +
                         "': earliest instants must be non-decreasing (" +
                         std::to_string(t.earliest_ps) + " after " +
                         std::to_string(floor) + ")");
    floor = t.earliest_ps;
    for (const double p : t.attrs.params)
      if (!std::isfinite(p))
        throw SessionError("stream source '" + st.name +
                           "': token params must be finite numbers");
  }
  for (const FedToken& t : tokens) {
    st.earliest_ps.push_back(t.earliest_ps);
    st.attrs.push_back(t.attrs);
  }
  // Fed tokens change the future workload: anything extrapolating from the
  // observed prefix (the adaptive backend's periodicity detector) must
  // restart its observation window.
  model_->runtime().notify_regime_change();
}

Session::Watermark Session::watermark() const {
  Watermark w;
  w.unbounded = true;
  std::int64_t min_ps = std::numeric_limits<std::int64_t>::max();
  for (const auto& stream : streams_) {
    const std::uint64_t fed = stream->earliest_ps.size();
    if (fed == stream->count) continue;  // exhausted: no constraint
    if (fed == 0) {
      w.blocked = true;
      w.unbounded = false;
      return w;
    }
    // After offering token fed-1 (at >= earliest(fed-1)) the source
    // coroutine evaluates earliest(fed), which is not known yet — so the
    // horizon must stop just short of the last fed token's release.
    min_ps = std::min(min_ps, stream->earliest_ps[fed - 1] - 1);
    w.unbounded = false;
  }
  if (!w.unbounded) {
    if (min_ps < 0) {
      w.blocked = true;  // nothing can run before the origin
    } else {
      w.until = TimePoint::at_ps(min_ps);
    }
  }
  return w;
}

void Session::advance(const Watermark& w, Delta& d) {
  if (completed_ || w.blocked) {
    d.blocked = !completed_ && w.blocked;
    return;
  }
  if (!w.unbounded && advanced_ps_ && w.until.count() <= *advanced_ps_ &&
      !sim::is_guard_stop(last_stop_))
    return;  // nothing new to run

  const std::optional<TimePoint> until =
      w.unbounded ? std::nullopt : std::optional<TimePoint>(w.until);
  model::ModelRuntime::Outcome out = model_->run(until);
  d.ran = true;
  last_stop_ = out.stop;
  last_stall_report_ = out.stall_report;
  if (!sim::is_guard_stop(out.stop) && !w.unbounded)
    advanced_ps_ = w.until.count();
  if (w.unbounded && out.completed) completed_ = true;
}

void Session::collect_deltas(Delta& d) {
  for (const auto& [name, series] : model_->instants().all()) {
    std::size_t& cursor = instant_cursors_[name];
    if (series.size() <= cursor) continue;
    SeriesDelta sd;
    sd.series = name;
    sd.start_k = cursor;
    sd.instants_ps.reserve(series.size() - cursor);
    for (std::size_t k = cursor; k < series.size(); ++k)
      sd.instants_ps.push_back(series.at(k).count());
    cursor = series.size();
    d.instants.push_back(std::move(sd));
  }
  for (const auto& [name, trace] : model_->usage().all()) {
    std::size_t& cursor = usage_cursors_[name];
    if (trace.size() <= cursor) continue;
    UsageDelta ud;
    ud.resource = name;
    ud.start_index = cursor;
    const std::size_t n = trace.size() - cursor;
    ud.starts_ps.reserve(n);
    ud.ends_ps.reserve(n);
    ud.ops.reserve(n);
    ud.labels.reserve(n);
    for (std::size_t i = cursor; i < trace.size(); ++i) {
      ud.starts_ps.push_back(trace.starts()[i].count());
      ud.ends_ps.push_back(trace.ends()[i].count());
      ud.ops.push_back(trace.ops()[i]);
      ud.labels.push_back(trace.label(trace.label_ids()[i]));
    }
    cursor = trace.size();
    d.usage.push_back(std::move(ud));
  }
}

Session::Delta Session::poll() {
  Delta d;
  advance(watermark(), d);
  d.completed = completed_;
  d.stop = last_stop_;
  d.stall_report = last_stall_report_;
  d.now_ps = model_->end_time().count();
  collect_deltas(d);
  return d;
}

std::string Session::checkpoint() const {
  if (sim::is_guard_stop(last_stop_))
    throw SessionError(
        "checkpoint: the last advance was guard-stopped; resume (poll) past "
        "the guard before checkpointing");
  JsonWriter w;
  w.begin_object().field("maxev_checkpoint", kWireVersion);
  w.field("scenario_json", template_->document);
  w.key("streams").begin_array();
  for (const auto& stream : streams_) {
    w.begin_object();
    w.field("source", static_cast<std::uint64_t>(stream->source_index));
    w.key("earliest_ps").int64_array(stream->earliest_ps);
    w.key("attrs").begin_array();
    for (const model::TokenAttrs& a : stream->attrs) {
      w.begin_object().field("size", a.size).key("params").begin_array();
      for (const double p : a.params) w.value(p);
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.key("advanced_ps");
  if (advanced_ps_)
    w.value(*advanced_ps_);
  else
    w.null_value();
  w.field("completed", completed_);
  w.key("instant_cursors").begin_object();
  for (const auto& [name, cursor] : instant_cursors_)
    w.field(name, static_cast<std::uint64_t>(cursor));
  w.end_object();
  w.key("usage_cursors").begin_object();
  for (const auto& [name, cursor] : usage_cursors_)
    w.field(name, static_cast<std::uint64_t>(cursor));
  w.end_object();
  w.field("now_ps", model_->end_time().count());
  w.field("events_dispatched", dispatched(model_->kernel_stats()));
  w.end_object();
  return w.str();
}

std::unique_ptr<Session> Session::restore(std::string_view checkpoint_json) {
  return restore(checkpoint_json, Options());
}

std::unique_ptr<Session> Session::restore(std::string_view checkpoint_json,
                                          Options opts,
                                          ProgramCache* scenarios) {
  Checkpoint cp;
  try {
    cp = read_checkpoint(checkpoint_json);
  } catch (const Error& e) {
    throw SessionError(std::string("restore: ") + e.what());
  }
  const JsonValue& doc = cp.fields;
  if (!doc.is_object() || doc.find("maxev_checkpoint") == nullptr)
    throw SessionError("restore: not a maxev_checkpoint document");
  if (!doc.at("maxev_checkpoint").is_int64() ||
      doc.at("maxev_checkpoint").as_int64() != kWireVersion)
    throw SessionError("restore: unsupported checkpoint version");

  const std::string& scenario_json = doc.at("scenario_json").as_string();
  auto session = std::make_unique<Session>(
      scenarios != nullptr ? scenarios->scenario(scenario_json)
                           : decode_template(scenario_json),
      opts);

  // The streams were decoded with the feed rules; their faults surface
  // here, in the order a walk over the document meets them.
  (void)doc.at("streams");
  cp.streams_fault.rethrow();
  for (const CheckpointStream& s : cp.streams) {
    s.fault.rethrow();
    session->feed(s.source, s.tokens);
  }

  // The checkpointed progress must be one the fed tokens allow: a live
  // session completes only once every stream is fully fed, and advances
  // no further than the stream watermark. Anything else would fail deep in
  // the replay, on an unfed token.
  const bool completed = doc.at("completed").as_bool();
  Watermark replay;
  if (completed) {
    for (const auto& stream : session->streams_)
      if (stream->earliest_ps.size() != stream->count)
        throw SessionError("restore: the checkpoint is completed but stream "
                           "source '" + stream->name + "' is fed " +
                           std::to_string(stream->earliest_ps.size()) +
                           " of " + std::to_string(stream->count) +
                           " tokens");
    replay.unbounded = true;
  } else if (!doc.at("advanced_ps").is_null()) {
    const std::int64_t advanced_ps = doc.at("advanced_ps").as_int64();
    const Watermark w = session->watermark();
    if (w.blocked || (!w.unbounded && advanced_ps > w.until.count()))
      throw SessionError(
          "restore: advanced_ps " + std::to_string(advanced_ps) +
          " is past the stream watermark of the fed tokens (" +
          (w.blocked ? std::string("blocked")
                     : std::to_string(w.until.count()) + " ps") +
          ")");
    replay.until = TimePoint::at_ps(advanced_ps);
  } else {
    replay.blocked = true;  // nothing was run
  }

  // Replay the advance. Incremental horizon-resume is pinned bit-identical
  // to a single run, so one run to the checkpointed horizon reproduces the
  // exact kernel state.
  Delta scratch;
  session->advance(replay, scratch);

  // Validate the replay before trusting it.
  const std::int64_t now_ps = doc.at("now_ps").as_int64();
  const std::uint64_t events = doc.at("events_dispatched").as_uint64();
  if (session->model_->end_time().count() != now_ps ||
      dispatched(session->model_->kernel_stats()) != events ||
      session->completed_ != completed)
    throw SessionError(
        "restore: replay diverged from the checkpoint (now " +
        std::to_string(session->model_->end_time().count()) + " vs " +
        std::to_string(now_ps) + " ps, " +
        std::to_string(dispatched(session->model_->kernel_stats())) + " vs " +
        std::to_string(events) + " events)");

  const auto load_cursors = [&doc](const char* key,
                                   std::map<std::string, std::size_t>& out) {
    for (const auto& [name, v] : doc.at(key).members())
      out[name] = static_cast<std::size_t>(v.as_uint64());
  };
  load_cursors("instant_cursors", session->instant_cursors_);
  load_cursors("usage_cursors", session->usage_cursors_);
  for (const auto& [name, cursor] : session->instant_cursors_) {
    const trace::InstantSeries* s = session->model_->instants().find(name);
    if ((s == nullptr ? 0 : s->size()) < cursor)
      throw SessionError("restore: instant cursor of '" + name +
                         "' is past the replayed trace");
  }
  return session;
}

}  // namespace maxev::serve
