#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/accelerator.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"
#include "search/encoding.hpp"

namespace naas::search {

/// Budget and configuration of the per-layer compiler-mapping search
/// (Section II-B): a CMA-ES loop over the mapping encoding vector.
struct MappingSearchOptions {
  int population = 12;
  int iterations = 10;
  std::uint64_t seed = 1;
  MapEncodingSpec encoding;
  /// Also evaluate the three canonical dataflow mappings up front and keep
  /// whichever candidate (searched or canonical) is best. Models a compiler
  /// that always considers its preset dataflows; disable to measure raw
  /// search quality (Fig. 9's encoding ablation does).
  bool seed_canonical = true;
};

/// Outcome of one per-layer mapping search.
struct MappingSearchResult {
  mapping::Mapping best;
  cost::CostReport report;     ///< cost of `best`
  double best_edp = 0;
  long long evaluations = 0;   ///< cost-model calls consumed
  /// Batched-path work meters (not persisted by ResultStore — like
  /// `evaluations` on preloaded entries, they meter only work this process
  /// performed): CMA generations evaluated through
  /// CostModel::evaluate_batch, and candidates that flowed through it
  /// (including the canonical dataflow seeds).
  long long generations_batched = 0;
  long long candidates_batch_evaluated = 0;
};

/// The standard normals one search under `options` consumes, in order:
/// iterations x population x genome_size draws from Rng(options.seed).
/// A function of the seed and the budget alone, never of the arch or the
/// layer, so searches that share a seed can share one stream.
std::vector<double> mapping_normals(const MappingSearchOptions& options);

/// Streams mapping_normals has drawn in this process so far. It pins the
/// evaluator's grouping: a fill draws one stream per layer shape it
/// searches, not one per (arch, layer) unit.
long long mapping_normals_drawn();

/// Searches the mapping space of `layer` on `arch`, returning the best
/// (lowest-EDP) mapping found. One plain loop on the calling thread: build
/// the layer context, score the canonical seeds, then per CMA generation
/// sample from the next population x genome_size values of `normals`,
/// decode every candidate, score the whole generation with one
/// CostModel::evaluate_batch call, and fold fitness in candidate order.
/// Callers parallelize across searches (ArchEvaluator::fill runs each
/// layer's searches as one parallel_for index that draws the stream once),
/// never inside one.
///
/// `normals` must be mapping_normals(options); any other length throws
/// std::invalid_argument. Given that stream the result is bit-identical
/// to the overload below.
MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   std::span<const double> normals);

/// search_mapping drawing its own stream (mapping_normals(options)).
/// Deterministic for a fixed seed.
///
/// `pool` is unused. It stays only because the frozen benchmark source
/// (naasbench/src/probes.cpp) passes one; drop it with the next benchmark
/// change.
MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   core::ThreadPool* pool = nullptr);

}  // namespace naas::search
