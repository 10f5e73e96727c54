#pragma once

#include <cstdint>

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

/// Searches the mapping space of `layer` on `arch`, returning the best
/// (lowest-EDP) mapping found. One plain loop on the calling thread: build
/// the layer context, score the canonical seeds, then per CMA generation
/// sample, decode every candidate, score the whole generation with one
/// CostModel::evaluate_batch call, and fold fitness in candidate order.
/// Deterministic for a fixed seed. Callers parallelize across searches
/// (EvalPipeline runs each as one task), never inside one.
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
