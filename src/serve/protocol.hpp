#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "serve/program_cache.hpp"
#include "serve/session.hpp"

/// \file protocol.hpp
/// Line-delimited JSON request/response protocol over serve::Session
/// (docs/DESIGN.md §13), the transport-agnostic half of the `maxev_serve`
/// example binary: one request object per line in, one response object per
/// line out. A Server multiplexes named sessions over one shared
/// ProgramCache, which holds both the decoded scenario documents and their
/// compiled programs. Sharing goes by DOCUMENT identity here: every
/// `submit` and `restore` of the same scenario text (the canonical dump of
/// a `scenario` object, or the `scenario_json` string byte for byte) finds
/// one decoded template and, through the template's description, one
/// compiled program; only its stream buffers are the session's own. So a
/// repeated document skips the decode → derive → compile pipeline, and
/// documents that differ in any byte never share. Library callers that
/// build sessions from text keep the pointer-identity rule (one private
/// template per Session).
///
/// Requests (`cmd` selects the verb; `session` names the target):
///   {"cmd":"submit","session":S,"scenario":{...}}        create a session
///   {"cmd":"feed","session":S,"source":i,"tokens":[...]} append tokens
///   {"cmd":"poll","session":S}                           advance + deltas
///   {"cmd":"checkpoint","session":S}                     replay document
///   {"cmd":"restore","session":S,"checkpoint":"..."}     rebuild from one
///   {"cmd":"close","session":S}                          drop the session
///   {"cmd":"stats"}                                      cache/session stats
///
/// Every response carries `"ok"`; failures are `{"ok":false,"error":...}`
/// and never tear down the server or other sessions.

namespace maxev::serve {

class Server {
 public:
  struct Options {
    /// Shared program-cache capacity (entries).
    std::size_t cache_capacity = ProgramCache::kDefaultCapacity;
    /// Guards applied to every session's advances (0/none = unlimited).
    sim::RunGuards guards;
  };

  Server();
  explicit Server(Options opts);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handle one request line; always returns a single-line JSON response
  /// (protocol errors are reported in-band, never thrown).
  [[nodiscard]] std::string handle(std::string_view line);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] const ProgramCache& cache() const { return cache_; }

 private:
  Options opts_;
  ProgramCache cache_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace maxev::serve
