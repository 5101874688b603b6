#include "serve/protocol.hpp"

#include <utility>

#include "serve/decode.hpp"
#include "sim/diagnostics.hpp"
#include "util/json.hpp"

namespace maxev::serve {

namespace {

std::string error_response(const std::string& what) {
  JsonWriter w;
  w.begin_object().field("ok", false).field("error", what).end_object();
  return w.str();
}

const std::string& session_name(const JsonValue& req) {
  const JsonValue* s = req.find("session");
  if (s == nullptr || !s->is_string())
    throw SessionError("protocol: request needs a string 'session'");
  return s->as_string();
}

void write_delta(JsonWriter& w, const Session::Delta& d) {
  w.field("ok", true);
  w.field("ran", d.ran);
  w.field("blocked", d.blocked);
  w.field("completed", d.completed);
  w.field("stop", sim::to_string(d.stop));
  w.field("now_ps", d.now_ps);
  if (!d.stall_report.empty()) w.field("stall_report", d.stall_report);
  w.key("instants").begin_array();
  for (const Session::SeriesDelta& s : d.instants) {
    w.begin_object();
    w.field("series", s.series);
    w.field("start_k", s.start_k);
    w.key("instants_ps").int64_array(s.instants_ps);
    w.end_object();
  }
  w.end_array();
  w.key("usage").begin_array();
  for (const Session::UsageDelta& u : d.usage) {
    w.begin_object();
    w.field("resource", u.resource);
    w.field("start_index", u.start_index);
    w.key("starts_ps").int64_array(u.starts_ps);
    w.key("ends_ps").int64_array(u.ends_ps);
    w.key("ops").int64_array(u.ops);
    w.key("labels").begin_array();
    for (const std::string& l : u.labels) w.value(l);
    w.end_array().end_object();
  }
  w.end_array();
}

}  // namespace

Server::Server() : Server(Options{}) {}

Server::Server(Options opts)
    : opts_(opts), cache_(opts.cache_capacity == 0
                              ? ProgramCache::kDefaultCapacity
                              : opts.cache_capacity) {}

std::string Server::handle(std::string_view line) {
  try {
    // One pass over the line; shape faults in `tokens` wait for the walk
    // below, so grammar errors anywhere in the line come first.
    const Request request = read_request(line);
    const JsonValue& req = request.fields;
    const JsonValue* cmd = req.find("cmd");
    if (cmd == nullptr || !cmd->is_string())
      throw SessionError("protocol: request needs a string 'cmd'");
    const std::string& verb = cmd->as_string();

    if (verb == "stats") {
      const ProgramCache::Stats s = cache_.stats();
      JsonWriter w;
      w.begin_object()
          .field("ok", true)
          .field("sessions", static_cast<std::uint64_t>(sessions_.size()))
          .key("cache")
          .begin_object()
          .field("hits", s.hits)
          .field("misses", s.misses)
          .field("evictions", s.evictions)
          .field("size", static_cast<std::uint64_t>(s.size))
          .end_object()
          .end_object();
      return w.str();
    }

    const std::string& name = session_name(req);

    if (verb == "submit" || verb == "restore") {
      if (sessions_.count(name) != 0)
        throw SessionError("protocol: session '" + name + "' already exists");
      Session::Options sopts;
      sopts.guards = opts_.guards;
      sopts.compiled = &cache_;
      if (const JsonValue* me = req.find("max_events"))
        sopts.guards.max_events = me->as_uint64();
      if (const JsonValue* ei = req.find("expected_iterations"))
        sopts.expected_iterations = static_cast<std::size_t>(ei->as_uint64());

      std::unique_ptr<Session> session;
      if (verb == "submit") {
        std::string scenario;
        if (const JsonValue* obj = req.find("scenario"); obj != nullptr)
          scenario = json_dump(*obj);
        else
          scenario = req.at("scenario_json").as_string();
        session = std::make_unique<Session>(cache_.scenario(scenario), sopts);
      } else {
        session =
            Session::restore(req.at("checkpoint").as_string(), sopts, &cache_);
      }

      JsonWriter w;
      w.begin_object().field("ok", true).field("session", name);
      w.key("stream_sources").begin_array();
      const auto& sources = session->desc().sources();
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (!session->is_stream_source(i)) continue;
        w.begin_object()
            .field("source", static_cast<std::uint64_t>(i))
            .field("name", sources[i].name)
            .field("count", sources[i].count)
            .field("fed", session->fed(i))
            .end_object();
      }
      w.end_array().end_object();
      sessions_.emplace(name, std::move(session));
      return w.str();
    }

    const auto it = sessions_.find(name);
    if (it == sessions_.end())
      throw SessionError("protocol: no session '" + name + "'");
    Session& session = *it->second;

    if (verb == "feed") {
      const std::size_t source =
          static_cast<std::size_t>(req.at("source").as_uint64());
      (void)req.at("tokens");
      request.tokens_fault.rethrow();
      session.feed(source, request.tokens);
      JsonWriter w;
      w.begin_object()
          .field("ok", true)
          .field("source", static_cast<std::uint64_t>(source))
          .field("fed", session.fed(source))
          .end_object();
      return w.str();
    }
    if (verb == "poll") {
      const Session::Delta d = session.poll();
      JsonWriter w;
      w.begin_object();
      write_delta(w, d);
      w.end_object();
      return w.str();
    }
    if (verb == "checkpoint") {
      const std::string doc = session.checkpoint();
      JsonWriter w;
      w.begin_object().field("ok", true).field("checkpoint", doc).end_object();
      return w.str();
    }
    if (verb == "close") {
      sessions_.erase(it);
      JsonWriter w;
      w.begin_object().field("ok", true).field("closed", name).end_object();
      return w.str();
    }
    throw SessionError("protocol: unknown cmd '" + verb + "'");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

}  // namespace maxev::serve
