#include "core/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "search/cma_es.hpp"

namespace naas {
namespace {

// ------------------------------------------------------------ scheduling

TEST(TaskGraph, RunsEveryTaskOnce) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::vector<std::atomic<int>> runs(64);
    for (std::size_t i = 0; i < runs.size(); ++i)
      graph.submit([&runs, i] { runs[i].fetch_add(1); });
    graph.run();
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1) << threads;
    EXPECT_EQ(graph.stats().tasks_executed, 64) << threads;
  }
}

TEST(TaskGraph, DependenciesOrderExecution) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::mutex m;
    std::vector<int> order;
    const auto log = [&](int id) {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(id);
    };
    // Diamond: 0 -> {1, 2} -> 3.
    const auto a = graph.submit([&] { log(0); });
    const auto b = graph.submit([&] { log(1); }, {a});
    const auto c = graph.submit([&] { log(2); }, {a});
    graph.submit([&] { log(3); }, {b, c});
    graph.run();
    ASSERT_EQ(order.size(), 4u) << threads;
    EXPECT_EQ(order.front(), 0) << threads;
    EXPECT_EQ(order.back(), 3) << threads;
  }
}

TEST(TaskGraph, DependencyOnCompletedTaskIsSatisfied) {
  core::TaskGraph graph(nullptr);  // serial inline mode
  int x = 0;
  const auto a = graph.submit([&] { x = 1; });
  graph.run();
  // `a` already completed; a dependent submitted afterwards runs normally.
  graph.submit([&] { x = 2; }, {a});
  graph.run();
  EXPECT_EQ(x, 2);
}

TEST(TaskGraph, NestedSubmissionFromTaskBody) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::atomic<int> leaves{0};
    graph.submit([&] {
      for (int i = 0; i < 8; ++i) {
        graph.submit([&] {
          // Two levels of nesting: tasks submitted by a nested task.
          graph.submit([&] { leaves.fetch_add(1); });
        });
      }
    });
    graph.run();
    EXPECT_EQ(leaves.load(), 8) << threads;
  }
}

TEST(TaskGraph, PromiseGatesDependentsUntilFulfilled) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    std::atomic<bool> chain_done{false};
    std::atomic<bool> dependent_saw_done{false};
    const auto done = graph.make_promise();
    // The chain grows dynamically: the first task submits the second, the
    // second fulfills the promise — exactly how run_naas's evolution
    // exposes one id before its last generation exists.
    graph.submit([&] {
      graph.submit([&] {
        chain_done.store(true);
        graph.fulfill(done);
      });
    });
    graph.submit([&] { dependent_saw_done.store(chain_done.load()); },
                 {done});
    graph.run();
    EXPECT_TRUE(dependent_saw_done.load()) << threads;
  }
}

// ---------------------------------------------------------------- errors

TEST(TaskGraph, ExceptionPropagatesAndCancelsRemainder) {
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::TaskGraph graph(&pool);
    const auto boom = graph.submit(
        [] { throw std::runtime_error("task failed"); });
    std::atomic<bool> dependent_ran{false};
    graph.submit([&] { dependent_ran.store(true); }, {boom});
    EXPECT_THROW(graph.run(), std::runtime_error) << threads;
    // run() rethrew after quiescing; the dependent's body was skipped, not
    // run, and every task is accounted for as executed or skipped.
    EXPECT_FALSE(dependent_ran.load()) << threads;
    EXPECT_EQ(graph.stats().tasks_executed + graph.stats().tasks_skipped, 2)
        << threads;
  }
}

TEST(TaskGraph, ErrorWithUnfulfilledPromiseStillTerminates) {
  core::TaskGraph graph(nullptr);
  const auto done = graph.make_promise();
  std::atomic<bool> dependent_ran{false};
  graph.submit([&] { dependent_ran.store(true); }, {done});
  // The task that would have fulfilled the promise throws first.
  graph.submit([] { throw std::runtime_error("fulfiller died"); });
  EXPECT_THROW(graph.run(), std::runtime_error);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(TaskGraph, StalledPromiseFailsLoudlyInsteadOfHanging) {
  core::TaskGraph graph(nullptr);
  const auto never = graph.make_promise();
  graph.submit([] {}, {never});
  EXPECT_THROW(graph.run(), std::logic_error);
}

TEST(TaskGraph, UnknownDependencyIsRejected) {
  core::TaskGraph graph(nullptr);
  EXPECT_THROW(graph.submit([] {}, {12345}), std::invalid_argument);
}

// --------------------------------------------------- serial bit-identity

TEST(TaskGraph, SerialFallbackBitIdenticalToPooledRun) {
  // A miniature pipeline with slot-keyed writes and an ordered reduction —
  // the determinism shape the search stack relies on. The serial (1-thread)
  // inline mode and a 4-thread pooled run must produce identical bytes.
  const auto run_pipeline = [](core::ThreadPool* pool) {
    core::TaskGraph graph(pool);
    std::vector<double> slots(32);
    std::vector<core::TaskGraph::TaskId> deps;
    for (std::size_t i = 0; i < slots.size(); ++i)
      deps.push_back(graph.submit([&slots, i] {
        double v = 1.0;
        for (std::size_t k = 0; k <= i; ++k) v = v * 1.0000001 + k * 1e-9;
        slots[i] = v;
      }));
    double reduced = 0;
    graph.submit(
        [&] {
          for (const double v : slots) reduced += v;  // fixed fold order
        },
        deps);
    graph.run();
    return std::make_pair(slots, reduced);
  };

  const auto serial = run_pipeline(nullptr);
  core::ThreadPool pool(4);
  const auto pooled = run_pipeline(&pool);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);  // bit-identical fold
}

// --------------------------------------------------- CmaEs step API

TEST(CmaEsStepApi, TellPartialMatchesBarrierAskTell) {
  search::CmaEsOptions opts;
  opts.dim = 4;
  opts.population = 8;
  opts.seed = 11;
  search::CmaEs barrier(opts);
  search::CmaEs stepped(opts);

  const auto fitness_of = [](const std::vector<double>& x) {
    double f = 0;
    for (const double v : x) f += (v - 0.3) * (v - 0.3);
    return f;
  };

  for (int gen = 0; gen < 5; ++gen) {
    const auto pop_a = barrier.ask();
    std::vector<double> fit(pop_a.size());
    for (std::size_t i = 0; i < pop_a.size(); ++i)
      fit[i] = fitness_of(pop_a[i]);
    barrier.tell(pop_a, fit);

    const auto& pop_b = stepped.begin_generation();
    ASSERT_EQ(pop_b, pop_a) << gen;  // identical stream
    EXPECT_TRUE(stepped.generation_open());
    // Report slots out of order: completion triggers on the last one.
    bool completed = false;
    for (std::size_t i = pop_b.size(); i-- > 0;) {
      EXPECT_FALSE(completed);
      completed = stepped.tell_partial(i, fitness_of(pop_b[i]));
    }
    EXPECT_TRUE(completed);
    EXPECT_FALSE(stepped.generation_open());
    ASSERT_EQ(stepped.mean(), barrier.mean()) << gen;  // identical update
    EXPECT_EQ(stepped.sigma(), barrier.sigma()) << gen;
  }
}

}  // namespace
}  // namespace naas
