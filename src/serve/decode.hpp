#pragma once

#include <cstddef>
#include <exception>
#include <string_view>
#include <vector>

#include "serve/session.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

/// \file decode.hpp
/// One-pass decoding of the token-bearing serve documents (docs/DESIGN.md
/// §13). A feed request's `tokens` and a checkpoint's `streams` go from the
/// JsonReader straight into Session::FedToken values; every other member
/// becomes a JsonValue tree, which the protocol and restore walk as before.
///
/// A shape fault (a missing member, a wrong type, params that are not an
/// array of four numbers) is recorded, not thrown, and decoding reads on,
/// so a grammar error later in the text still wins, as it does when the
/// whole text goes through json_parse first. The decoders keep the first
/// fault in the order a walk over the tree meets it, with that walk's error
/// text: the tree's own accessors raise it.

namespace maxev::serve {

/// The first failed step of a deferred walk.
class Fault {
 public:
  /// Run one step of the walk unless an earlier step failed, and keep the
  /// maxev::Error it throws.
  template <typename Step>
  void check(Step&& step) {
    if (fault_) return;
    try {
      step();
    } catch (const Error&) {
      fault_ = std::current_exception();
    }
  }
  /// Keep \p later's fault unless one is kept already.
  void take(const Fault& later) {
    if (!fault_) fault_ = later.fault_;
  }
  /// Throw the kept fault, if any.
  void rethrow() const {
    if (fault_) std::rethrow_exception(fault_);
  }
  explicit operator bool() const { return fault_ != nullptr; }

 private:
  std::exception_ptr fault_;
};

/// A request line. `fields` holds every member but `tokens` (present as a
/// null), or the whole document when it is not an object.
struct Request {
  JsonValue fields;
  std::vector<Session::FedToken> tokens;
  /// Fault of the feed walk over `tokens`.
  Fault tokens_fault;
};

/// Read a request line in one pass. Grammar errors throw maxev::Error as
/// json_parse does.
[[nodiscard]] Request read_request(std::string_view line);

/// One entry of a checkpoint's `streams`.
struct CheckpointStream {
  std::size_t source = 0;
  std::vector<Session::FedToken> tokens;
  /// Fault of the restore walk over this entry.
  Fault fault;
};

/// A checkpoint document. `fields` holds every member but `streams`
/// (present as a null), or the whole document when it is not an object.
struct Checkpoint {
  JsonValue fields;
  std::vector<CheckpointStream> streams;
  /// Fault of `streams` itself: a non-empty object where an array belongs.
  Fault streams_fault;
};

/// Read a checkpoint document in one pass. Grammar errors throw
/// maxev::Error as json_parse does.
[[nodiscard]] Checkpoint read_checkpoint(std::string_view text);

}  // namespace maxev::serve
