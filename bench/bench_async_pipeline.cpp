// Async task-graph pipeline: per-candidate barrier scheduling vs one
// interleaved task graph on a mixed-layer workload. Emits BENCH_async.json
// for CI trend tracking.
//
// One property is asserted, not assumed: bit_identical_to_barrier — the
// interleaved graph (4 threads) produces exactly the per-candidate
// sequential engine's EDPs and work meters.
// The pool-idle-fraction comparison is the perf story: a barrier between
// candidates parks every worker on the slowest layer chain's tail, the
// interleaved graph keeps them fed. (On a 1-core CI box both fractions
// collapse toward the same value; the assert is the *no-worse* direction,
// the reduction shows on multi-core hosts.)

#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/task_graph.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "nn/layer.hpp"

namespace {

using namespace naas;

/// Deliberately heterogeneous layer set: a heavyweight stem conv, a mid
/// conv, a depthwise layer, and a tiny FC — the straggler mix where
/// barrier scheduling wastes the most pool time.
nn::Network mixed_network() {
  nn::Network net("bench-mixed", {});
  net.add(nn::make_conv("stem", 3, 64, 7, 2, 112));
  net.add(nn::make_conv("mid", 64, 128, 3, 1, 28));
  net.add(nn::make_dwconv("dw", 96, 3, 1, 56));
  net.add(nn::make_conv("tail", 128, 256, 3, 1, 14));
  net.add(nn::make_fc("fc", 1024, 1000));
  return net;
}

std::vector<arch::ArchConfig> candidate_population() {
  return {arch::nvdla_256_arch(), arch::eyeriss_arch(),
          arch::shidiannao_arch(), arch::nvdla_1024_arch(),
          arch::edge_tpu_arch()};
}

struct ModeResult {
  std::vector<double> edps;
  long long cost_evaluations = 0;
  long long mapping_searches = 0;
  long long tasks_executed = 0;
  double idle_fraction = 0;
  double wall_seconds = 0;
};

/// Old-engine shape: one candidate at a time, each evaluate() a fork-join
/// on the pool (a barrier between candidates).
ModeResult run_barrier(const cost::CostModel& model,
                       const search::MappingSearchOptions& mopts,
                       const std::vector<arch::ArchConfig>& archs,
                       const nn::Network& net) {
  core::ThreadPool pool(4);
  search::ArchEvaluator evaluator(model, mopts, &pool);
  core::Timer timer;
  ModeResult out;
  for (const auto& arch : archs)
    out.edps.push_back(evaluator.geomean_edp(arch, {net}));
  out.wall_seconds = timer.seconds();
  out.cost_evaluations = evaluator.cost_evaluations();
  out.mapping_searches = evaluator.mapping_searches();
  out.tasks_executed = evaluator.tasks_executed();
  out.idle_fraction = evaluator.scheduler_stats().idle_fraction();
  return out;
}

/// Async engine: the whole population on one interleaved task graph.
ModeResult run_async(const cost::CostModel& model,
                     const search::MappingSearchOptions& mopts,
                     const std::vector<arch::ArchConfig>& archs,
                     const nn::Network& net) {
  core::ThreadPool pool(4);
  search::ArchEvaluator evaluator(model, mopts, &pool);
  core::Timer timer;
  ModeResult out;
  out.edps = evaluator.evaluate_population(archs, {net});
  out.wall_seconds = timer.seconds();
  out.cost_evaluations = evaluator.cost_evaluations();
  out.mapping_searches = evaluator.mapping_searches();
  out.tasks_executed = evaluator.tasks_executed();
  out.idle_fraction = evaluator.scheduler_stats().idle_fraction();
  return out;
}

void reproduce_async(const bench::Budget& budget) {
  bench::print_header(
      "Async pipeline: barrier-between-candidates vs interleaved graph");

  const cost::CostModel model;
  const nn::Network net = mixed_network();
  const auto archs = candidate_population();
  search::MappingSearchOptions mopts;
  mopts.population = budget.map_population;
  mopts.iterations = budget.map_iterations;
  mopts.seed = budget.seed;

  const ModeResult barrier = run_barrier(model, mopts, archs, net);
  const ModeResult async = run_async(model, mopts, archs, net);

  const bool identical =
      barrier.edps == async.edps &&
      barrier.cost_evaluations == async.cost_evaluations &&
      barrier.mapping_searches == async.mapping_searches;

  core::Table t({"Mode", "Wall (s)", "Graph tasks", "Pool idle fraction",
                 "Cost evals"});
  t.add_row({"barrier (per-candidate joins)",
             core::Table::fmt(barrier.wall_seconds, 3),
             core::Table::fmt_int(barrier.tasks_executed),
             core::Table::fmt(barrier.idle_fraction, 3),
             core::Table::fmt_int(barrier.cost_evaluations)});
  t.add_row({"async (one interleaved graph)",
             core::Table::fmt(async.wall_seconds, 3),
             core::Table::fmt_int(async.tasks_executed),
             core::Table::fmt(async.idle_fraction, 3),
             core::Table::fmt_int(async.cost_evaluations)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("bit-identical to barrier engine: %s\n",
              identical ? "yes" : "NO (BUG)");

  FILE* f = std::fopen("BENCH_async.json", "w");
  if (!f) {
    std::printf("could not open BENCH_async.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"async_pipeline\",\n");
  std::fprintf(f, "  \"scenario\": \"mixed_layer_population\",\n");
  std::fprintf(f, "  \"network\": \"%s\",\n", net.name().c_str());
  std::fprintf(f, "  \"candidates\": %zu,\n", archs.size());
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               core::ThreadPool::default_num_threads());
  std::fprintf(f, "  \"barrier_wall_seconds\": %.6f,\n",
               barrier.wall_seconds);
  std::fprintf(f, "  \"async_wall_seconds\": %.6f,\n", async.wall_seconds);
  std::fprintf(f, "  \"barrier_idle_fraction\": %.4f,\n",
               barrier.idle_fraction);
  std::fprintf(f, "  \"async_idle_fraction\": %.4f,\n", async.idle_fraction);
  std::fprintf(f, "  \"idle_fraction_reduction\": %.4f,\n",
               barrier.idle_fraction - async.idle_fraction);
  std::fprintf(f, "  \"barrier_tasks_executed\": %lld,\n",
               barrier.tasks_executed);
  std::fprintf(f, "  \"async_tasks_executed\": %lld,\n",
               async.tasks_executed);
  std::fprintf(f, "  \"bit_identical_to_barrier\": %s\n",
               identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_async.json\n");
}

void BM_TaskGraphSubmitRun(benchmark::State& state) {
  core::ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<double> out(512);
  for (auto _ : state) {
    core::TaskGraph graph(&pool);
    for (std::size_t i = 0; i < out.size(); ++i)
      graph.submit([&out, i] { out[i] = static_cast<double>(i) * 1.5; });
    graph.run();
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TaskGraphSubmitRun)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_AsyncPopulation(benchmark::State& state) {
  const cost::CostModel model;
  const nn::Network net = mixed_network();
  const auto archs = candidate_population();
  search::MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 2;
  const bool barrier_mode = state.range(0) == 0;
  for (auto _ : state) {
    if (barrier_mode) {
      const auto r = run_barrier(model, mopts, archs, net);
      benchmark::DoNotOptimize(r.edps.data());
    } else {
      const auto r = run_async(model, mopts, archs, net);
      benchmark::DoNotOptimize(r.edps.data());
    }
  }
}
BENCHMARK(BM_AsyncPopulation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_async(naas::bench::Budget::from_env());
  return naas::bench::run_microbenchmarks(argc, argv);
}
