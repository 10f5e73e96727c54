#pragma once

#include <string>
#include <vector>

namespace naas::search {
enum class StoreStatus;
}

namespace naas::serve {

/// The transport-facing contract of anything that can answer the line-JSON
/// protocol: the warm evaluator itself (EvalService) and the fleet router
/// (fleet::Router), which shards lines across N remote EvalServices. The
/// line front end (serve_lines: stdin, or TCP via serve::Server) is written
/// against this interface, so every transport works unchanged in front of
/// either — and the byte-identity contract ("a response depends only on the
/// request and the evaluation options, never on which process computed
/// it") is what makes the two implementations interchangeable.
class LineHandler {
 public:
  virtual ~LineHandler() = default;

  /// Answers one response line per request line, in request order. Must
  /// not throw; malformed input becomes a structured error response.
  /// Driven from one front-end thread at a time (not reentrant).
  virtual std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) = 0;

  /// Periodic persistence hook (store flush / replication pull). Handlers
  /// with nothing to persist return StoreStatus::kOk.
  virtual search::StoreStatus refresh() = 0;

  /// Front-end notification hooks for requests rejected before they ever
  /// reach handle_lines (admission shed, expired deadline, protocol-limit
  /// reject). Called from the thread that drives handle_lines, between
  /// calls: serve::Server calls them from its one loop thread.
  virtual void note_shed() = 0;
  virtual void note_timeout() = 0;
  virtual void note_protocol_reject() = 0;
};

}  // namespace naas::serve
