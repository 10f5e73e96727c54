#include "fleet/router.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "fleet/replicator.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace naas {
namespace {

using core::ScopedFaults;

serve::ServeOptions tiny_options() {
  serve::ServeOptions opts;
  opts.mapping.population = 4;
  opts.mapping.iterations = 2;
  opts.mapping.seed = 1;
  opts.num_threads = 1;
  return opts;
}

/// In-process worker: EvalService + TCP front end + its loop thread.
struct TestWorker {
  serve::EvalService service;
  serve::Server server;
  std::thread loop_thread;
  bool ok = false;

  explicit TestWorker(const serve::ServeOptions& opts = tiny_options())
      : service(opts), server(service, ephemeral()) {
    std::string err;
    ok = server.start(&err);
    if (!ok) {
      ADD_FAILURE() << "worker start failed: " << err;
      return;
    }
    loop_thread = std::thread([this] { server.run(); });
  }

  ~TestWorker() { stop(); }

  void stop() {
    if (loop_thread.joinable()) {
      server.request_stop();
      loop_thread.join();
    }
  }

  int port() const { return server.port(); }

  static serve::ServerOptions ephemeral() {
    serve::ServerOptions o;
    o.port = 0;
    return o;
  }
};

fleet::RouterOptions router_options(const std::vector<int>& ports) {
  fleet::RouterOptions opts;
  for (const int port : ports) opts.workers.push_back({"127.0.0.1", port});
  opts.connect_timeout_ms = 2000;
  opts.forward_timeout_ms = 30000;  // evaluation, not I/O, dominates
  opts.reconnect_backoff_ms = 10;
  opts.reconnect_backoff_cap_ms = 100;
  return opts;
}

std::string search_line(int id, const char* preset, const char* net,
                        int index) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%d,\"method\":\"search_mapping\",\"arch\":"
                "{\"preset\":\"%s\"},\"layer\":{\"network\":\"%s\","
                "\"index\":%d}}",
                id, preset, net, index);
  return buf;
}

std::vector<std::string> mixed_session() {
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i)
    lines.push_back(search_line(static_cast<int>(lines.size()), "nvdla256",
                                "squeezenet", i));
  for (int i = 0; i < 3; ++i)
    lines.push_back(search_line(static_cast<int>(lines.size()), "edgetpu",
                                "mobilenetv2", i));
  lines.push_back(
      "{\"id\":100,\"method\":\"evaluate_network\",\"arch\":{\"preset\":"
      "\"nvdla256\"},\"network\":\"squeezenet\"}");
  lines.push_back("{\"id\":101,\"method\":\"nonsense\"}");
  lines.push_back("{\"id\":102,\"method\":\"search_mapping\"}");  // bad_request
  lines.push_back("this is not json");
  return lines;
}

/// Line-wise reference: responses are pure per line, so the single
/// service is authoritative regardless of how the router batched.
std::vector<std::string> reference_responses(
    const std::vector<std::string>& lines) {
  serve::EvalService reference(tiny_options());
  return reference.handle_lines(lines);
}

TEST(Router, MatchesSingleServiceByteForByte) {
  TestWorker w0, w1, w2;
  ASSERT_TRUE(w0.ok && w1.ok && w2.ok);
  fleet::Router router(
      router_options({w0.port(), w1.port(), w2.port()}));

  const std::vector<std::string> lines = mixed_session();
  const std::vector<std::string> expected = reference_responses(lines);
  const std::vector<std::string> got = router.handle_lines(lines);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "line " << i << ": " << lines[i];

  const fleet::RouterStats stats = router.stats();
  EXPECT_EQ(stats.lines, static_cast<long long>(lines.size()));
  EXPECT_EQ(stats.degraded_lines, 0);
  EXPECT_EQ(stats.failovers, 0);
  // The three unkeyable lines (unknown method, bad request, non-JSON)
  // rode raw-line hashes.
  EXPECT_EQ(stats.unroutable_lines, 3);
}

TEST(Router, FailsOverWhenAWorkerDiesMidSession) {
  auto w0 = std::make_unique<TestWorker>();
  auto w1 = std::make_unique<TestWorker>();
  ASSERT_TRUE(w0->ok && w1->ok);
  fleet::Router router(router_options({w0->port(), w1->port()}));

  const std::vector<std::string> lines = mixed_session();
  const std::vector<std::string> expected = reference_responses(lines);

  // Warm pass with both workers up: pools connections to both.
  EXPECT_EQ(router.handle_lines(lines), expected);

  // Kill worker 0 (graceful here; the SIGKILL flavor is the soak's job).
  // Its pooled connection goes EOF, every group it owned fails over to
  // worker 1, and the client-visible bytes must not change at all.
  w0->stop();
  w0.reset();
  const std::vector<std::string> got = router.handle_lines(lines);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "line " << i;

  const fleet::RouterStats stats = router.stats();
  EXPECT_EQ(stats.degraded_lines, 0);
  EXPECT_GT(stats.forward_failures, 0);
  EXPECT_GT(stats.failovers, 0);
}

TEST(Router, DegradedResponsesWhenEveryWorkerIsDown) {
  // Bind-then-close: ports guaranteed to refuse connections.
  net::TcpListener l0, l1;
  std::string err;
  ASSERT_TRUE(l0.listen("127.0.0.1", 0, 4, &err));
  ASSERT_TRUE(l1.listen("127.0.0.1", 0, 4, &err));
  const int p0 = l0.port(), p1 = l1.port();
  l0.close();
  l1.close();

  fleet::RouterOptions opts = router_options({p0, p1});
  opts.connect_timeout_ms = 200;
  fleet::Router router(opts);

  const std::vector<std::string> lines = {
      search_line(1, "nvdla256", "squeezenet", 0),
      search_line(2, "edgetpu", "squeezenet", 1)};
  const std::vector<std::string> got = router.handle_lines(lines);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NE(got[i].find("\"ok\":false"), std::string::npos) << got[i];
    EXPECT_NE(got[i].find("\"degraded\""), std::string::npos) << got[i];
    EXPECT_NE(got[i].find("safe to resubmit"), std::string::npos) << got[i];
  }
  // ids echo through so the client can retry the right requests.
  EXPECT_NE(got[0].find("\"id\":1"), std::string::npos) << got[0];
  EXPECT_NE(got[1].find("\"id\":2"), std::string::npos) << got[1];
  EXPECT_EQ(router.stats().degraded_lines, 2);
  EXPECT_EQ(router.workers_up(), 0u);
}

TEST(Router, InjectedForwardFaultFailsOverNotDegrades) {
  TestWorker w0, w1;
  ASSERT_TRUE(w0.ok && w1.ok);
  fleet::Router router(router_options({w0.port(), w1.port()}));

  const std::vector<std::string> lines = {
      search_line(1, "nvdla256", "squeezenet", 0),
      search_line(2, "nvdla256", "squeezenet", 1),
      search_line(3, "edgetpu", "squeezenet", 0)};
  const std::vector<std::string> expected = reference_responses(lines);

  ScopedFaults faults("seed=5,router_forward_fail=1@1");
  const std::vector<std::string> got = router.handle_lines(lines);
  EXPECT_EQ(got, expected);
  const fleet::RouterStats stats = router.stats();
  EXPECT_GE(stats.forward_failures, 1);
  EXPECT_EQ(stats.degraded_lines, 0);
}

TEST(Router, InjectedStallEatsDeadlineThenFailsOver) {
  TestWorker w0, w1;
  ASSERT_TRUE(w0.ok && w1.ok);
  fleet::RouterOptions opts = router_options({w0.port(), w1.port()});
  opts.forward_timeout_ms = 300;  // the stalled attempt must die fast
  fleet::Router router(opts);

  const std::vector<std::string> lines = {
      "{\"id\":1,\"method\":\"nonsense\"}"};  // cheap, pure response
  const std::vector<std::string> expected = reference_responses(lines);

  ScopedFaults faults("seed=2,router_forward_stall=1@1");
  const std::vector<std::string> got = router.handle_lines(lines);
  EXPECT_EQ(got, expected);
  EXPECT_GE(router.stats().forward_failures, 1);
}

TEST(Router, ProbeNowTracksLivenessAndRecovers) {
  auto worker = std::make_unique<TestWorker>();
  ASSERT_TRUE(worker->ok);
  fleet::Router router(router_options({worker->port()}));

  EXPECT_EQ(router.workers_up(), 0u);  // nothing connected yet
  router.probe_now();                  // down worker: reconnect attempt
  EXPECT_EQ(router.workers_up(), 1u);
  router.probe_now();                  // up worker: real ping round trip
  EXPECT_GE(router.stats().pings_ok, 1);

  ScopedFaults faults("router_ping_fail=1@1");
  router.probe_now();  // injected ping failure marks it down
  EXPECT_EQ(router.workers_up(), 0u);
  EXPECT_GE(router.stats().ping_failures, 1);
}

TEST(Router, AnswersControlMethodsLocally) {
  TestWorker worker;
  ASSERT_TRUE(worker.ok);
  fleet::Router router(router_options({worker.port()}));

  const std::vector<std::string> got = router.handle_lines(
      {"{\"id\":1,\"method\":\"ping\"}",
       "{\"id\":2,\"method\":\"cache_stats\"}",
       "{\"id\":3,\"method\":\"refresh\"}",
       "{\"id\":4,\"method\":\"pull_store\"}"});
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}");
  EXPECT_NE(got[1].find("\"router\":true"), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("\"workers\":1"), std::string::npos) << got[1];
  EXPECT_NE(got[2].find("\"refreshed\":1"), std::string::npos) << got[2];
  EXPECT_NE(got[3].find("worker-local"), std::string::npos) << got[3];
  EXPECT_EQ(router.stats().local_lines, 4);
}

TEST(Router, ParseWorkerListAcceptsAndRejects) {
  std::vector<fleet::WorkerAddr> out;
  std::string err;
  ASSERT_TRUE(fleet::parse_worker_list("9001,localhost:9002,:9003", &out,
                                       &err));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].host, "127.0.0.1");
  EXPECT_EQ(out[0].port, 9001);
  EXPECT_EQ(out[1].host, "localhost");
  EXPECT_EQ(out[1].port, 9002);
  EXPECT_EQ(out[2].host, "127.0.0.1");
  EXPECT_EQ(out[2].port, 9003);

  for (const char* bad : {"", "host:", "host:0", "host:99999", "a:1,,b:2",
                          "host:12x4"}) {
    EXPECT_FALSE(fleet::parse_worker_list(bad, &out, &err)) << bad;
    EXPECT_TRUE(out.empty()) << bad;
  }
}

TEST(Replicator, RestartedWorkerRewarmsFromPeerWithZeroSearches) {
  // Worker A pays for some searches.
  TestWorker peer;
  ASSERT_TRUE(peer.ok);
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i)
    lines.push_back(search_line(i, "nvdla256", "squeezenet", i));
  const std::vector<std::string> expected = peer.service.handle_lines(lines);
  ASSERT_GT(peer.service.evaluator().mapping_searches(), 0);

  // "Restarted" worker B: empty cache, pulls from A before serving.
  serve::EvalService fresh(tiny_options());
  fleet::ReplicatorOptions opts;
  opts.peers.push_back({"127.0.0.1", peer.port()});
  fleet::Replicator replicator(opts);
  const std::size_t adopted = replicator.pull_once(fresh);
  EXPECT_GT(adopted, 0u);
  EXPECT_EQ(replicator.stats().fetch_failures, 0);

  // The replayed session must be answered entirely from adopted entries —
  // zero mapping searches — and byte-identically (determinism + purity).
  EXPECT_EQ(fresh.handle_lines(lines), expected);
  EXPECT_EQ(fresh.evaluator().mapping_searches(), 0);
}

TEST(Replicator, TornFetchIsSalvagedOrRejectedNeverWrong) {
  TestWorker peer;
  ASSERT_TRUE(peer.ok);
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i)
    lines.push_back(search_line(i, "nvdla256", "squeezenet", i));
  const std::vector<std::string> expected = peer.service.handle_lines(lines);

  serve::EvalService fresh(tiny_options());
  fleet::ReplicatorOptions opts;
  opts.peers.push_back({"127.0.0.1", peer.port()});
  fleet::Replicator replicator(opts);
  {
    ScopedFaults faults("repl_fetch_torn=1");
    replicator.pull_once(fresh);
  }
  EXPECT_GE(replicator.stats().torn_fetches, 1);
  // Whatever survived the checksum gauntlet, serving stays *correct*:
  // adopted prefixes answer warm, the torn tail is recomputed.
  EXPECT_EQ(fresh.handle_lines(lines), expected);
}

TEST(Replicator, UnreachablePeerIsCountedAndSkipped) {
  net::TcpListener l;
  std::string err;
  ASSERT_TRUE(l.listen("127.0.0.1", 0, 4, &err));
  const int dead_port = l.port();
  l.close();

  serve::EvalService fresh(tiny_options());
  fleet::ReplicatorOptions opts;
  opts.peers.push_back({"127.0.0.1", dead_port});
  opts.connect_timeout_ms = 200;
  fleet::Replicator replicator(opts);
  EXPECT_EQ(replicator.pull_once(fresh), 0u);
  EXPECT_EQ(replicator.stats().fetch_failures, 1);
}

}  // namespace
}  // namespace naas
