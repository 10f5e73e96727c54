#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "net/client.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve/stdin_reader.hpp"

namespace naas {
namespace {

using core::ScopedFaults;
using net::LineClient;
using serve::EvalService;
using serve::Json;
using serve::ServeOptions;
using serve::Server;
using serve::ServerOptions;

/// Tiny budget keeps searches fast; tests only need determinism.
ServeOptions tiny_options() {
  ServeOptions opts;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.num_threads = 1;
  return opts;
}

ServerOptions loopback_options() {
  ServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;  // ephemeral
  return opts;
}

std::string search_line(int id, int index = 0) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"search_mapping\",\"arch\":{\"preset\":\"nvdla256\"},"
         "\"layer\":{\"network\":\"squeezenet\",\"index\":" +
         std::to_string(index) + "}}";
}

Json parse_response(const std::string& line) {
  std::string error;
  Json j = Json::parse(line, &error);
  EXPECT_TRUE(error.empty()) << error << ": " << line;
  EXPECT_TRUE(j.is_object()) << line;
  return j;
}

std::string error_code_of(const Json& response) {
  const Json* error = response.get("error");
  if (!error || !error->is_object()) return "";
  const Json* code = error->get("code");
  return code ? code->as_string() : "";
}

/// EvalService + started Server + its run() thread, torn down in order.
struct TestServer {
  EvalService service;
  Server server;
  std::thread runner;

  explicit TestServer(ServerOptions opts = loopback_options(),
                      ServeOptions serve_opts = tiny_options())
      : service(serve_opts), server(service, std::move(opts)) {}

  ~TestServer() { stop(); }

  bool start() {
    std::string err;
    if (!server.start(&err)) {
      ADD_FAILURE() << err;
      return false;
    }
    runner = std::thread([this] { server.run(); });
    return true;
  }

  void stop() {
    server.request_stop();
    if (runner.joinable()) runner.join();
  }

  LineClient connect() {
    LineClient client;
    std::string err;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port(), 5000, &err)) << err;
    return client;
  }
};

constexpr int kReadTimeoutMs = 30000;

TEST(Server, ResponsesIdenticalToStdinMode) {
  const std::vector<std::string> lines = {search_line(1, 0), search_line(2, 1)};
  // The reference: the exact stdin-mode code path on a fresh service with
  // the same options.
  EvalService reference(tiny_options());
  const std::vector<std::string> expected = reference.handle_lines(lines);

  TestServer ts;
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  for (const std::string& line : lines) ASSERT_TRUE(client.send_line(line));
  for (const std::string& want : expected) {
    std::string got;
    ASSERT_TRUE(client.read_line(&got, kReadTimeoutMs));
    EXPECT_EQ(got, want);  // byte-identical, not merely equivalent
  }
  client.close();
  ts.stop();
  EXPECT_EQ(ts.server.stats().requests_admitted, 2);
  EXPECT_EQ(ts.server.stats().connections_accepted, 1);
}

TEST(Server, UnknownLayerKindReturnsStructuredBadRequestOverTcp) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_line(
      "{\"id\":1,\"method\":\"search_mapping\",\"arch\":{\"preset\":"
      "\"nvdla256\"},\"layer\":{\"kind\":\"softmax\",\"out_h\":8}}"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  const Json response = parse_response(line);
  EXPECT_FALSE(response.get("ok")->as_bool());
  EXPECT_EQ(error_code_of(response), "bad_request");
  const std::string msg =
      response.get("error")->get("message")->as_string();
  // The error names the offending kind and every supported one.
  EXPECT_NE(msg.find("softmax"), std::string::npos) << msg;
  for (const char* kind : {"conv", "dwconv", "fc", "matmul", "attention"})
    EXPECT_NE(msg.find(kind), std::string::npos) << msg;
  // The connection survives and keeps serving.
  ASSERT_TRUE(client.send_line(search_line(2)));
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_TRUE(parse_response(line).get("ok")->as_bool());
  client.close();
  ts.stop();
}

TEST(Server, PipelinedResponsesKeepRequestOrder) {
  // Request 2 dies instantly ("deadline_ms":0 expires on arrival) while
  // request 1 takes real evaluation time; the reorder buffer must still
  // deliver 1 before 2.
  TestServer ts;
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_raw(
      search_line(1) + "\n" +
      "{\"id\":2,\"method\":\"cache_stats\",\"deadline_ms\":0}\n"));

  std::string first, second;
  ASSERT_TRUE(client.read_line(&first, kReadTimeoutMs));
  ASSERT_TRUE(client.read_line(&second, kReadTimeoutMs));
  const Json r1 = parse_response(first);
  const Json r2 = parse_response(second);
  EXPECT_EQ(r1.get("id")->as_int(), 1);
  EXPECT_TRUE(r1.get("ok")->as_bool());
  EXPECT_EQ(r2.get("id")->as_int(), 2);
  EXPECT_EQ(error_code_of(r2), "deadline_exceeded");
  ts.stop();
  EXPECT_GE(ts.server.stats().requests_timed_out, 1);
  EXPECT_GE(ts.service.requests_timed_out(), 1);
}

TEST(Server, PipelinedAnswerLeavesBeforeTheNextBatchRuns) {
  // One batch per loop pass, and its answers are written in that pass: the
  // cheap first answer leaves before the next batch, a cold network that
  // takes tens of milliseconds, starts. Held for the next pass, it would
  // leave in one write with the cold answer.
  ServerOptions opts = loopback_options();
  opts.max_batch_requests = 1;
  ServeOptions serve_opts = tiny_options();
  serve_opts.mapping.population = 24;
  serve_opts.mapping.iterations = 30;
  TestServer ts(opts, serve_opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_raw(
      "{\"id\":1,\"method\":\"cache_stats\"}\n"
      "{\"id\":2,\"method\":\"evaluate_network\",\"arch\":{\"preset\":"
      "\"nvdla256\"},\"network\":\"resnet50\"}\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_EQ(parse_response(line).get("id")->as_int(), 1);
  // The cold answer is still being computed, so it did not arrive with the
  // first (a zero timeout only looks at what was already read).
  ASSERT_FALSE(client.read_line(&line, 0));
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_EQ(parse_response(line).get("id")->as_int(), 2);
  EXPECT_TRUE(parse_response(line).get("ok")->as_bool()) << line;
}

TEST(Server, DefaultDeadlineAppliesWithoutRequestField) {
  ServerOptions opts = loopback_options();
  opts.default_deadline_ms = 1;
  // One request per dispatched batch: the second request must wait in the
  // queue for the full first evaluation, so its default deadline expires
  // before dispatch. The first request carries its own generous deadline:
  // on a loaded host even it can wait over 1 ms in the queue, and only the
  // second one tests the default.
  opts.max_batch_requests = 1;
  // Both lines arrive in one segment, so one read pass stamps them before
  // the loop evaluates anything. The first evaluation must then outlast the
  // second line's 1 ms default with a wide margin, even on a loaded host: a
  // large network at a realistic mapping budget keeps the loop busy for
  // tens of milliseconds.
  ServeOptions serve_opts = tiny_options();
  serve_opts.mapping.population = 12;
  serve_opts.mapping.iterations = 10;
  TestServer ts(opts, serve_opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_raw(
      "{\"id\":1,\"method\":\"evaluate_network\",\"arch\":{\"preset\":"
      "\"nvdla256\"},\"network\":\"unet\",\"deadline_ms\":60000}\n"
      "{\"id\":2,\"method\":\"cache_stats\"}\n"));

  std::string first, second;
  ASSERT_TRUE(client.read_line(&first, kReadTimeoutMs));
  ASSERT_TRUE(client.read_line(&second, kReadTimeoutMs));
  EXPECT_TRUE(parse_response(first).get("ok")->as_bool()) << first;
  EXPECT_EQ(error_code_of(parse_response(second)), "deadline_exceeded")
      << second;
}

TEST(Server, SecondConnectionIsAnsweredAfterTheRunningBatch) {
  // One thread reads and evaluates. A request on a second connection that
  // arrives while a cold batch runs is read after that batch and answered
  // after it, and each connection's responses keep its own request order.
  ServeOptions serve_opts = tiny_options();
  serve_opts.mapping.population = 12;
  serve_opts.mapping.iterations = 10;
  const std::string network =
      "{\"id\":1,\"method\":\"evaluate_network\",\"arch\":{\"preset\":"
      "\"nvdla256\"},\"network\":\"unet\"}";
  EvalService reference(serve_opts);
  reference.handle_line(network);
  const long long cold_searches = reference.evaluator().mapping_searches();
  ASSERT_GT(cold_searches, 0);

  TestServer ts(loopback_options(), serve_opts);
  ASSERT_TRUE(ts.start());
  LineClient first = ts.connect();
  LineClient second = ts.connect();
  ASSERT_TRUE(first.send_raw(network + "\n" + search_line(2) + "\n"));
  // The cold network takes tens of milliseconds; this lands inside it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(second.send_raw("{\"id\":10,\"method\":\"cache_stats\"}\n"
                              "{\"id\":11,\"method\":\"cache_stats\"}\n"));

  std::string line;
  for (const int id : {10, 11}) {
    ASSERT_TRUE(second.read_line(&line, kReadTimeoutMs));
    const Json r = parse_response(line);
    EXPECT_EQ(r.get("id")->as_int(), id);
    // Every search of the cold batch finished before this was evaluated.
    ASSERT_TRUE(r.get("ok")->as_bool()) << line;
    EXPECT_GE(r.get("result")->get("mapping_searches")->as_int(),
              cold_searches)
        << line;
  }
  for (const int id : {1, 2}) {
    ASSERT_TRUE(first.read_line(&line, kReadTimeoutMs));
    const Json r = parse_response(line);
    EXPECT_EQ(r.get("id")->as_int(), id);
    EXPECT_TRUE(r.get("ok")->as_bool()) << line;
  }
  ts.stop();
  EXPECT_EQ(ts.server.stats().requests_admitted, 4);
}

TEST(Server, ZeroQueueShedsWithStructuredOverloaded) {
  ServerOptions opts = loopback_options();
  opts.max_queue_requests = 0;
  TestServer ts(opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_line("{\"id\":7,\"method\":\"cache_stats\"}"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  const Json response = parse_response(line);
  EXPECT_EQ(response.get("id")->as_int(), 7);  // id echoed without evaluation
  EXPECT_EQ(error_code_of(response), "overloaded");
  ts.stop();
  EXPECT_EQ(ts.server.stats().requests_shed, 1);
  EXPECT_EQ(ts.service.requests_shed(), 1);
  EXPECT_EQ(ts.server.stats().requests_admitted, 0);
}

TEST(Server, OversizedFramedLineRejectedConnectionSurvives) {
  ServerOptions opts = loopback_options();
  opts.max_line_bytes = 64;
  TestServer ts(opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_line(std::string(100, 'x')));
  ASSERT_TRUE(client.send_line("{\"id\":2,\"method\":\"cache_stats\"}"));

  std::string first, second;
  ASSERT_TRUE(client.read_line(&first, kReadTimeoutMs));
  ASSERT_TRUE(client.read_line(&second, kReadTimeoutMs));
  const Json r1 = parse_response(first);
  EXPECT_EQ(error_code_of(r1), "bad_request");
  EXPECT_TRUE(r1.get("id")->is_null());  // the over-cap line is never parsed
  EXPECT_TRUE(parse_response(second).get("ok")->as_bool());
  ts.stop();
  EXPECT_EQ(ts.server.stats().protocol_rejects, 1);
}

TEST(Server, FramesCrlfAndBlankLinesInOneRead) {
  // One segment with CRLF line ends, whitespace-only lines and lines exactly
  // at the cap: each carriage return is stripped before the length check,
  // blank lines are skipped, and every request is answered in order.
  const std::string first = "{\"id\":1,\"method\":\"cache_stats\"}";
  const std::string second = "{\"id\":2,\"method\":\"cache_stats\"}";
  ServerOptions opts = loopback_options();
  opts.max_line_bytes = first.size();
  TestServer ts(opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_raw("\r\n \t\n" + first + "\r\n\n" + second + "\r\n"));
  for (const int id : {1, 2}) {
    std::string line;
    ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
    const Json response = parse_response(line);
    EXPECT_EQ(response.get("id")->as_int(), id);
    EXPECT_TRUE(response.get("ok")->as_bool()) << line;
  }
  ts.stop();
  EXPECT_EQ(ts.server.stats().lines_received, 2);
  EXPECT_EQ(ts.server.stats().protocol_rejects, 0);
}

TEST(Server, UnframedOversizedLineRejectsAndCloses) {
  ServerOptions opts = loopback_options();
  opts.max_line_bytes = 64;
  TestServer ts(opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  // 100 bytes, no newline: the server cannot resynchronize, so it answers
  // bad_request and closes.
  ASSERT_TRUE(client.send_raw(std::string(100, 'y')));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_EQ(error_code_of(parse_response(line)), "bad_request");
  EXPECT_FALSE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_TRUE(client.eof());
}

TEST(Server, AbortiveClientResetDoesNotKillServer) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  {
    LineClient rude = ts.connect();
    ASSERT_TRUE(rude.send_line(search_line(1)));
    rude.reset();  // SO_LINGER 0: RST with a request in flight
  }
  // The server must shrug it off and keep serving everyone else.
  LineClient polite = ts.connect();
  ASSERT_TRUE(polite.send_line("{\"id\":2,\"method\":\"cache_stats\"}"));
  std::string line;
  ASSERT_TRUE(polite.read_line(&line, kReadTimeoutMs));
  EXPECT_TRUE(parse_response(line).get("ok")->as_bool());
  ts.stop();
  EXPECT_EQ(ts.server.stats().connections_accepted, 2);
}

TEST(Server, IdleConnectionsAreReaped) {
  ServerOptions opts = loopback_options();
  opts.idle_timeout_ms = 50;
  TestServer ts(opts);
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  ASSERT_TRUE(client.send_line("{\"id\":1,\"method\":\"cache_stats\"}"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  // No further traffic: the server closes the connection from its side.
  EXPECT_FALSE(client.read_line(&line, 5000));
  EXPECT_TRUE(client.eof());
  ts.stop();
  EXPECT_GE(ts.server.stats().connections_reaped, 1);
}

TEST(Server, DrainFinishesAdmittedWorkBeforeExit) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  // Both requests arrive in one segment, so they are admitted in the same
  // framing pass; once the first response is back, the second is
  // *admitted* work by construction.
  ASSERT_TRUE(client.send_raw("{\"id\":1,\"method\":\"cache_stats\"}\n" +
                              search_line(2) + "\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  EXPECT_EQ(parse_response(line).get("id")->as_int(), 1);
  // Stop now: the admitted search must still be answered before run()
  // returns (a drain finishes what it took; it only stops taking more).
  ts.server.request_stop();
  ASSERT_TRUE(client.read_line(&line, kReadTimeoutMs));
  const Json r2 = parse_response(line);
  EXPECT_EQ(r2.get("id")->as_int(), 2);
  EXPECT_TRUE(r2.get("ok")->as_bool());
  ts.stop();
  EXPECT_EQ(ts.server.stats().requests_admitted, 2);
}

TEST(Server, SurvivesInjectedSocketWeather) {
  // Short reads, EINTRs, short writes, and occasional stalls on *every*
  // socket in the process (the client suffers them too). The protocol must
  // come through byte-identical anyway.
  const std::vector<std::string> lines = {search_line(1, 0), search_line(2, 1),
                                          search_line(3, 2)};
  EvalService reference(tiny_options());
  const std::vector<std::string> expected = reference.handle_lines(lines);

  ScopedFaults faults(
      "seed=11,sock_read_short=0.3,sock_read_eintr=0.2,"
      "sock_write_short=0.3,sock_write_stall=0.2@25");
  TestServer ts;
  ASSERT_TRUE(ts.start());
  LineClient client = ts.connect();
  for (const std::string& line : lines) ASSERT_TRUE(client.send_line(line));
  for (const std::string& want : expected) {
    std::string got;
    ASSERT_TRUE(client.read_line(&got, kReadTimeoutMs));
    EXPECT_EQ(got, want);
  }
}

TEST(Server, ManyClientsInterleavedGetTheirOwnAnswers) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  constexpr int kClients = 4;
  std::vector<LineClient> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::string err;
    ASSERT_TRUE(clients[c].connect("127.0.0.1", ts.server.port(), 5000, &err))
        << err;
  }
  // Interleave submissions across connections; ids encode the owner.
  for (int c = 0; c < kClients; ++c)
    ASSERT_TRUE(clients[c].send_line(search_line(100 + c, c % 3)));
  for (int c = 0; c < kClients; ++c) {
    std::string line;
    ASSERT_TRUE(clients[c].read_line(&line, kReadTimeoutMs));
    const Json response = parse_response(line);
    EXPECT_EQ(response.get("id")->as_int(), 100 + c);
    EXPECT_TRUE(response.get("ok")->as_bool());
  }
  ts.stop();
  EXPECT_EQ(ts.server.stats().connections_accepted, kClients);
  EXPECT_EQ(ts.server.stats().requests_admitted, kClients);
}

// ------------------------------------------------------ stdin front end

/// A pipe whose read end feeds a StdinLineReader; both ends close on exit.
struct InputPipe {
  int fds[2] = {-1, -1};
  InputPipe() { EXPECT_EQ(::pipe(fds), 0); }
  InputPipe(const InputPipe&) = delete;
  InputPipe& operator=(const InputPipe&) = delete;
  ~InputPipe() {
    close_write();
    ::close(fds[0]);
  }
  void write(const std::string& bytes) {
    EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(StdinLineReader, SplitsLinesLikeGetline) {
  InputPipe in;
  serve::StdinLineReader reader(in.fds[0]);
  in.write("a\nbb\n");
  in.write("\ncc");
  in.write("c");  // a final line without a newline still counts
  in.close_write();
  std::vector<std::string> lines;
  std::string line;
  while (reader.next(line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "bb", "", "ccc"}));
}

TEST(StdinLineReader, StopWakesABlockedReadAndDropsUntakenLines) {
  InputPipe in;  // write end stays open: next() has nothing to return
  serve::StdinLineReader reader(in.fds[0]);
  bool got_line = true;
  std::thread blocked([&] {
    std::string line;
    got_line = reader.next(line);
  });
  // Whether stop() lands before the read blocks or while it waits, the
  // read must return; the sleep only makes the second case the usual one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  reader.stop();
  blocked.join();
  EXPECT_FALSE(got_line);

  in.write("late\n");  // arrived after the stop: never handed out
  std::string line;
  EXPECT_FALSE(reader.next(line));
}

}  // namespace
}  // namespace naas
