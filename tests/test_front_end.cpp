// serve::serve_lines, the one line front end of naas_serve and
// naas_router, driven in-process over a pipe: which LineHandler calls each
// stdin line causes (batches, refreshes, protocol rejects), and the order
// of the responses.

#include "serve/front_end.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace naas {
namespace {

/// Records every LineHandler call in order and answers "re:<line>".
class RecordingHandler final : public serve::LineHandler {
 public:
  std::vector<std::string> calls;

  std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) override {
    std::string call = "lines(";
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      call += line + ";";
      responses.push_back("re:" + line);
    }
    calls.push_back(call + ")");
    return responses;
  }
  search::StoreStatus refresh() override {
    calls.push_back("refresh");
    return search::StoreStatus::kOk;
  }
  void note_shed() override { calls.push_back("shed"); }
  void note_timeout() override { calls.push_back("timeout"); }
  void note_protocol_reject() override { calls.push_back("reject"); }
};

/// Serves `input` through serve_lines in stdin mode; returns what it wrote
/// to its output. The summary callback records itself as a call.
std::string serve_stdin(RecordingHandler& handler,
                        const serve::ServerOptions& options,
                        const std::string& input) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  // Inputs here are far below the pipe's capacity, so all of it fits
  // before anything reads.
  EXPECT_EQ(::write(fds[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(fds[1]);
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  EXPECT_EQ(serve::serve_lines(
                handler, false, options, "test",
                [&handler] { handler.calls.push_back("summary"); }, fds[0],
                out),
            0);
  ::close(fds[0]);
  std::string written;
  std::rewind(out);
  for (int c; (c = std::fgetc(out)) != EOF;) written += static_cast<char>(c);
  std::fclose(out);
  return written;
}

TEST(FrontEnd, BlankLinesSubmitBatchesAndRefreshOnCadence) {
  RecordingHandler handler;
  serve::ServerOptions options;
  options.refresh_every_batches = 2;
  // A second blank line and a whitespace-only one submit nothing; the
  // last line has no newline and goes at end of input.
  const std::string out =
      serve_stdin(handler, options, "a\nb\n\n\n \t\r\nc\n\t\nd");
  EXPECT_EQ(handler.calls,
            (std::vector<std::string>{"lines(a;b;)", "lines(c;)", "refresh",
                                      "lines(d;)", "summary"}));
  EXPECT_EQ(out, "re:a\nre:b\nre:c\nre:d\n");
}

TEST(FrontEnd, RefreshEveryZeroNeverRefreshes) {
  RecordingHandler handler;
  serve::ServerOptions options;
  options.refresh_every_batches = 0;
  serve_stdin(handler, options, "a\n\nb\n\nc\n");
  EXPECT_EQ(handler.calls,
            (std::vector<std::string>{"lines(a;)", "lines(b;)", "lines(c;)",
                                      "summary"}));
}

TEST(FrontEnd, ProtocolRejectsHoldTheirSlots) {
  RecordingHandler handler;
  serve::ServerOptions options;
  options.max_line_bytes = 8;
  options.max_batch_requests = 2;
  options.refresh_every_batches = 1;
  // Batch 1: an over-long line between two admitted ones does not use up
  // a slot; the third admitted line is past the cap and keeps its id.
  // Batch 2 holds only an over-long line, yet still calls handle_lines.
  const std::string out = serve_stdin(
      handler, options,
      "a\nxxxxxxxxx\nb\n{\"id\":7}\n\nyyyyyyyyy\n\n");
  EXPECT_EQ(handler.calls,
            (std::vector<std::string>{"reject", "reject", "lines(a;b;)",
                                      "refresh", "reject", "lines()",
                                      "refresh", "summary"}));
  const std::string too_long = serve::line_too_long_response(8).dump();
  const std::string too_many =
      serve::batch_too_large_response(serve::Json::integer(7), 2).dump();
  EXPECT_EQ(out, "re:a\n" + too_long + "\nre:b\n" + too_many + "\n" +
                     too_long + "\n");
}

TEST(FrontEnd, EmptyInputServesNothing) {
  RecordingHandler handler;
  EXPECT_EQ(serve_stdin(handler, serve::ServerOptions{}, ""), "");
  EXPECT_EQ(handler.calls, std::vector<std::string>{"summary"});
}

TEST(FrontEnd, ListenerThatCannotStartExitsOneWithoutSummary) {
  RecordingHandler handler;
  serve::ServerOptions options;
  options.host = "not-an-address";
  EXPECT_EQ(serve::serve_lines(handler, true, options, "test",
                               [&handler] {
                                 handler.calls.push_back("summary");
                               }),
            1);
  EXPECT_TRUE(handler.calls.empty());
}

}  // namespace
}  // namespace naas
