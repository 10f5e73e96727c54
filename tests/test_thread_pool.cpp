#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "arch/presets.hpp"
#include "arch/resources.hpp"
#include "search/accelerator_search.hpp"
#include "search/eval_cache.hpp"
#include "search/mapping_search.hpp"

namespace naas {
namespace {

// ---------------------------------------------------------------- pool core

TEST(ThreadPool, ResultsAssembledByIndex) {
  core::ThreadPool pool(4);
  const std::size_t n = 100;
  // Later indices get less work, so completion order runs counter to index
  // order under any real scheduling; the output must be index-ordered
  // regardless.
  const auto out = pool.parallel_map<int>(n, [&](std::size_t i) {
    if (i < 10) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  core::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  core::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing loop and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  core::ThreadPool pool(1);
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.size(), 1);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.parallel_for(16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPool, NestedLoopsDoNotDeadlock) {
  core::ThreadPool pool(4);
  std::atomic<long long> total{0};
  pool.parallel_for(8, [&](std::size_t i) {
    pool.parallel_for(8, [&](std::size_t j) {
      total.fetch_add(static_cast<long long>(i * 8 + j));
    });
  });
  EXPECT_EQ(total.load(), 64 * 63 / 2);
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  core::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

// ---------------------------------------------------------------- eval cache

TEST(EvalCache, PublishKeepsFirstEntryAndReportsWinner) {
  search::EvalCache cache;
  EXPECT_EQ(cache.find(42), nullptr);

  search::MappingSearchResult a;
  a.best_edp = 1.0;
  bool inserted = false;
  const auto& ea = cache.publish(42, std::move(a), &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_DOUBLE_EQ(ea.best_edp, 1.0);

  search::MappingSearchResult b;
  b.best_edp = 2.0;
  const auto& eb = cache.publish(42, std::move(b), &inserted);
  EXPECT_FALSE(inserted);  // the race loser's duplicate is discarded
  EXPECT_DOUBLE_EQ(eb.best_edp, 1.0);
  EXPECT_EQ(&ea, &eb);  // entry references are stable
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------- determinism

nn::Network small_test_network() {
  nn::Network net("tiny", {});
  net.add(nn::make_conv("stem", 3, 16, 3, 2, 28));
  net.add(nn::make_conv("block", 16, 16, 3, 1, 28));
  net.add(nn::make_conv("head", 16, 32, 1, 1, 14));
  return net;
}

search::NaasOptions small_naas_options(int num_threads) {
  search::NaasOptions opts;
  opts.resources = arch::nvdla_256_resources();
  opts.population = 6;
  opts.iterations = 3;
  opts.seed = 11;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.mapping.seed = 11;
  opts.num_threads = num_threads;
  return opts;
}

TEST(ParallelDeterminism, RunNaasMatchesSerial) {
  const cost::CostModel model;
  const std::vector<nn::Network> benchmarks{small_test_network()};

  const auto serial = search::run_naas(model, small_naas_options(1),
                                       benchmarks);
  const auto parallel = search::run_naas(model, small_naas_options(4),
                                         benchmarks);

  EXPECT_EQ(serial.best_geomean_edp, parallel.best_geomean_edp);
  EXPECT_EQ(serial.cost_evaluations, parallel.cost_evaluations);
  EXPECT_EQ(serial.mapping_searches, parallel.mapping_searches);
  ASSERT_EQ(serial.population_best_edp.size(),
            parallel.population_best_edp.size());
  for (std::size_t i = 0; i < serial.population_best_edp.size(); ++i) {
    EXPECT_EQ(serial.population_best_edp[i], parallel.population_best_edp[i]);
    EXPECT_EQ(serial.population_mean_edp[i], parallel.population_mean_edp[i]);
  }
  ASSERT_FALSE(parallel.best_networks.empty());
  EXPECT_EQ(serial.best_networks.front().edp,
            parallel.best_networks.front().edp);
}

// ------------------------------------------------------------ layer dedup

TEST(LayerDedup, RepeatedBlocksCostOneSearch) {
  const cost::CostModel model;
  search::MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 3;

  nn::Network once("one-block", {});
  once.add(nn::make_conv("b", 32, 32, 3, 1, 14));

  nn::Network repeated("eight-blocks", {});
  for (int i = 0; i < 8; ++i)
    repeated.add(nn::make_conv("b" + std::to_string(i), 32, 32, 3, 1, 14));

  const auto arch = arch::nvdla_256_arch();

  search::ArchEvaluator eval_once(model, mopts);
  eval_once.evaluate(arch, once);
  search::ArchEvaluator eval_repeated(model, mopts);
  const auto nc = eval_repeated.evaluate(arch, repeated);

  // All eight identical blocks share one mapping search: the duplicated
  // network consumes exactly as many cost evaluations as the single block.
  EXPECT_EQ(eval_repeated.mapping_searches(), 1);
  EXPECT_EQ(eval_repeated.cost_evaluations(), eval_once.cost_evaluations());
  ASSERT_EQ(nc.per_layer.size(), 1u);
  EXPECT_EQ(nc.per_layer.front().count, 8);

  // Re-evaluating the same network is pure cache assembly: zero new cost
  // evaluations (the seed code re-ran the cost model per unique layer).
  const long long before = eval_repeated.cost_evaluations();
  eval_repeated.evaluate(arch, repeated);
  EXPECT_EQ(eval_repeated.cost_evaluations(), before);
}

TEST(LayerDedup, EvaluatePopulationMatchesSequentialCalls) {
  const cost::CostModel model;
  search::MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 2;
  const std::vector<nn::Network> benchmarks{small_test_network()};

  const std::vector<arch::ArchConfig> archs{
      arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::shidiannao_arch()};

  core::ThreadPool pool(4);
  search::ArchEvaluator batched(model, mopts, &pool);
  const auto edps = batched.evaluate_population(archs, benchmarks);

  search::ArchEvaluator sequential(model, mopts);
  ASSERT_EQ(edps.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(edps[i], sequential.geomean_edp(archs[i], benchmarks));
  }
  EXPECT_EQ(batched.cost_evaluations(), sequential.cost_evaluations());
  EXPECT_EQ(batched.mapping_searches(), sequential.mapping_searches());
}

}  // namespace
}  // namespace naas
