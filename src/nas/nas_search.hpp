#pragma once

#include "arch/resources.hpp"
#include "nn/accuracy_model.hpp"
#include "nn/ofa_space.hpp"
#include "search/accelerator_search.hpp"

namespace naas::nas {

/// Budget for the neural-architecture evolution level (Section II-C): an
/// OFA-style evolutionary loop (accuracy-constrained sampling, then
/// mutation + crossover of the lowest-EDP parents).
struct SubnetEvolutionOptions {
  double min_accuracy = 78.6;  ///< predictor top-1 constraint (percent)
  int population = 8;
  int iterations = 5;
  double mutate_rate = 0.15;
  std::uint64_t seed = 1;
  int max_sample_attempts = 200;  ///< rejection budget for the constraint
  /// Restricts the space to width multiplier + expand ratios at fixed
  /// classic depths (3/4/6/3) and 224x224 input. Models the weaker neural
  /// space of NHAS [12] (per-layer channels + quantization on a fixed
  /// topology) for the Fig. 10 comparison.
  bool width_and_expand_only = false;
};

/// Best subnet found for one accelerator candidate.
struct SubnetResult {
  nn::OfaConfig config;
  double accuracy = 0;
  double edp = 0;  ///< +inf if no accuracy-feasible subnet was found
};

/// Evolves an OFA-ResNet50 subnet minimizing EDP on a *fixed* accelerator,
/// subject to the accuracy constraint. Exposed separately because both the
/// full co-search (below) and the NHAS baseline reuse it.
///
/// Runs in phases: the initial population's sampling rounds, then one per
/// breeding round. A phase proposes its subnets from the rng and the
/// accuracy predictor alone, makes their layers resident with one
/// evaluator.fill(), and then scores them in proposal order: bit for bit
/// what scoring each subnet as it is drawn returns. It throws
/// std::logic_error if an accuracy-feasible child scores non-finite on an
/// accelerator that maps a population member (see run_cosearch).
SubnetResult evolve_subnet(search::ArchEvaluator& evaluator,
                           const arch::ArchConfig& arch,
                           const nn::OfaSpace& space,
                           const nn::AccuracyPredictor& predictor,
                           const SubnetEvolutionOptions& options);

/// Full three-level co-search configuration (Fig. 1 with the NAS level).
struct CoSearchOptions {
  arch::ResourceConstraint resources;
  int hw_population = 8;
  int hw_iterations = 6;
  std::uint64_t seed = 1;
  search::OrderEncoding hw_encoding = search::OrderEncoding::kImportance;
  /// false restricts the accelerator level to sizing only (used by the
  /// NHAS baseline).
  bool search_connectivity = true;
  /// Warm-start the accelerator level with the envelope's published
  /// baseline preset when one exists (see NaasOptions::seed_baseline).
  bool seed_baseline = true;
  search::MappingSearchOptions mapping;
  SubnetEvolutionOptions subnet;
  /// Threads of the pool the co-search runs on. A generation's subnet
  /// evolutions advance in lockstep: each phase's mapping searches run as
  /// one fill across the pool, and the evolutions propose and score their
  /// subnets as pool loops. Results are bit-identical for every value.
  /// 0 => hardware default, 1 => serial, in candidate order.
  int num_threads = 0;
  /// Persistent mapping-result store (see NaasOptions::cache_path): loaded
  /// before the co-search, flushed after it unless cache_readonly.
  std::string cache_path;
  bool cache_readonly = false;
};

/// Outcome of the accelerator + mapping + neural-architecture co-search.
struct CoSearchResult {
  arch::ArchConfig best_arch;
  nn::OfaConfig best_net;
  double best_accuracy = 0;
  double best_edp = 0;
  long long cost_evaluations = 0;
  long long mapping_searches = 0;
  /// Batched-cost-model meters (see ArchEvaluator::generations_batched).
  long long generations_batched = 0;
  long long candidates_batch_evaluated = 0;
  /// Always 0. Kept only because the frozen benchmark source
  /// (naasbench/src/search_workloads.cpp) still reads them; drop them with
  /// the next benchmark change.
  long long tasks_executed = 0;
  long long speculative_hits = 0;
  long long speculative_wasted = 0;
  /// Entries warm-started from CoSearchOptions::cache_path.
  long long store_entries_loaded = 0;
  double wall_seconds = 0;
};

/// Runs the joint search: the outer CMA-ES proposes accelerator candidates;
/// for each, an accuracy-constrained subnet evolution finds the best
/// network (with per-layer mapping search inside); the subnet's EDP is the
/// accelerator's reward. Returns the best matched (accelerator, network,
/// mapping) tuple.
///
/// Each generation's evolutions (generation 0's include the seed design's,
/// which never feeds the optimizer) advance in lockstep, phase by phase
/// (see evolve_subnet): every evolution proposes, one ArchEvaluator::fill
/// covers the distinct (accelerator, layer) units of all of them, so a
/// layer shape several accelerators need draws its normal stream once, and
/// every evolution scores its subnets. Breeding rounds can propose before
/// scoring because, on one accelerator, either every layer maps or none
/// does (MappingSearch.MappabilityIsAPropertyOfTheAccelerator). The best is
/// folded in design order, the seed design first. An evolution depends
/// only on its (accelerator, seed), and every cached mapping result is a
/// pure function of its key, so the result and the work meters are
/// bit-identical for any thread count.
CoSearchResult run_cosearch(const cost::CostModel& model,
                            const CoSearchOptions& options);

}  // namespace naas::nas
