#include "search/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"

namespace naas::search {
namespace {

/// Rounds `v` down to the nearest positive multiple of `stride`.
long long round_stride(double v, int stride) {
  const auto scaled = static_cast<long long>(v / stride);
  return std::max<long long>(1, scaled) * stride;
}

/// Log-scale interpolation: gene 0 -> lo, gene 1 -> hi.
double log_lerp(double gene, double lo, double hi) {
  gene = std::clamp(gene, 0.0, 1.0);
  return std::exp(std::log(lo) + gene * (std::log(hi) - std::log(lo)));
}

/// Builds a full loop order from an ordered list of the six searchable
/// dims, prepending N.
mapping::LoopOrder with_batch_outer(const std::array<nn::Dim, 6>& inner) {
  mapping::LoopOrder order;
  order[0] = nn::Dim::kN;
  for (std::size_t i = 0; i < 6; ++i) order[i + 1] = inner[i];
  return order;
}

/// Tile gene -> tile in [1, bound]: log_lerp(gene, 1, bound), rounded.
/// log(1) is +0, so log_lerp's exp(log(1) + gene * (log(bound) - log(1)))
/// is exp(+0 + p) with p = gene * log(bound), and +0 + p is p except for
/// p = -0, where exp gives 1 either way. A bound of 1 clamps any value to 1.
int tile_from_gene(double gene, int bound) {
  if (bound == 1) return 1;
  const double t = std::exp(std::clamp(gene, 0.0, 1.0) *
                            std::log(static_cast<double>(bound)));
  return std::clamp(static_cast<int>(std::lround(t)), 1, bound);
}

/// Indices 0..5 by descending importance, ties in index order: the result
/// of std::stable_sort, which heap-allocates a merge buffer (this runs five
/// times per decoded mapping). Without NaN, index i's position is the count
/// of indices ranked before it: those with a larger importance, and those
/// tied with it (+0 and -0 tie) at a lower index. A NaN compares false both
/// ways, which no count reproduces, so a vector holding one takes the
/// insertion sort.
std::array<int, 6> rank_descending(const std::array<double, 6>& imp) {
  std::array<int, 6> idx{0, 1, 2, 3, 4, 5};
  if (std::any_of(imp.begin(), imp.end(),
                  [](double v) { return std::isnan(v); })) {
    for (std::size_t i = 1; i < idx.size(); ++i) {
      const int v = idx[i];
      const double key = imp[static_cast<std::size_t>(v)];
      std::size_t j = i;
      for (; j > 0 && key > imp[static_cast<std::size_t>(idx[j - 1])]; --j)
        idx[j] = idx[j - 1];
      idx[j] = v;
    }
    return idx;
  }
  for (std::size_t i = 0; i < imp.size(); ++i) {
    std::size_t pos = 0;
    for (std::size_t j = 0; j < imp.size(); ++j)
      pos += (imp[j] > imp[i]) | ((imp[j] == imp[i]) & (j < i));
    idx[pos] = static_cast<int>(i);
  }
  return idx;
}

}  // namespace

mapping::LoopOrder order_from_importance(const std::array<double, 6>& imp) {
  const std::array<int, 6> idx = rank_descending(imp);
  std::array<nn::Dim, 6> sorted{};
  for (std::size_t i = 0; i < 6; ++i)
    sorted[i] = searchable_dims()[static_cast<std::size_t>(idx[i])];
  return with_batch_outer(sorted);
}

mapping::LoopOrder order_from_index(double gene) {
  gene = std::clamp(gene, 0.0, 1.0 - 1e-12);
  long long index = static_cast<long long>(gene * 720.0);  // 6! permutations
  const auto dims = searchable_dims();
  std::vector<nn::Dim> pool(dims.begin(), dims.end());
  std::array<nn::Dim, 6> sorted{};
  long long radix = 120;  // 5!
  for (std::size_t pos = 0; pos < 6; ++pos) {
    const auto pick = static_cast<std::size_t>(index / radix);
    index %= radix;
    sorted[pos] = pool[std::min(pick, pool.size() - 1)];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(pick, pool.size() - 1)));
    if (pos + 1 < 6) radix /= static_cast<long long>(5 - pos);
  }
  return with_batch_outer(sorted);
}

std::vector<nn::Dim> parallel_from_importance(const std::array<double, 6>& imp,
                                              int k) {
  const std::array<int, 6> idx = rank_descending(imp);
  std::vector<nn::Dim> out;
  for (int i = 0; i < std::clamp(k, 1, 6); ++i)
    out.push_back(searchable_dims()[static_cast<std::size_t>(
        idx[static_cast<std::size_t>(i)])]);
  return out;
}

std::vector<nn::Dim> parallel_from_index(double gene, int k) {
  k = std::clamp(k, 1, 6);
  long long count = 1;  // P(6, k)
  for (int i = 0; i < k; ++i) count *= 6 - i;
  gene = std::clamp(gene, 0.0, 1.0 - 1e-12);
  long long index = static_cast<long long>(gene * static_cast<double>(count));
  const auto dims = searchable_dims();
  std::vector<nn::Dim> pool(dims.begin(), dims.end());
  std::vector<nn::Dim> out;
  long long radix = count / 6;
  for (int pos = 0; pos < k; ++pos) {
    const auto pick = static_cast<std::size_t>(index / radix);
    index %= radix;
    const std::size_t safe = std::min(pick, pool.size() - 1);
    out.push_back(pool[safe]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(safe));
    if (pos + 1 < k) radix /= static_cast<long long>(pool.size());
  }
  return out;
}

std::uint64_t arch_fingerprint(const arch::ArchConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(cfg.num_array_dims));
  for (int a = 0; a < arch::kMaxArrayDims; ++a) {
    mix(static_cast<std::uint64_t>(cfg.array_dims[static_cast<std::size_t>(a)]));
    mix(static_cast<std::uint64_t>(
        static_cast<int>(cfg.parallel_dims[static_cast<std::size_t>(a)])));
  }
  mix(static_cast<std::uint64_t>(cfg.l1_bytes));
  mix(static_cast<std::uint64_t>(cfg.l2_bytes));
  mix(static_cast<std::uint64_t>(cfg.noc_bandwidth));
  mix(static_cast<std::uint64_t>(cfg.dram_bandwidth));
  return h;
}

// ---------------------------------------------------------------------------
// HwEncodingSpec
// ---------------------------------------------------------------------------

int HwEncodingSpec::genome_size() const {
  if (!search_connectivity) return 5;  // l1, l2, bw, #PE, aspect
  // l1, l2, bw, #dims, #PE + 2 split genes, parallel choice genes
  return 7 + (parallel_encoding == OrderEncoding::kImportance ? 6 : 1);
}

arch::ArchConfig HwEncodingSpec::decode(
    const std::vector<double>& genome) const {
  arch::ArchConfig cfg;
  cfg.name = "naas";
  cfg.dram_bandwidth = resources.dram_bandwidth;
  cfg.noc_bandwidth = static_cast<int>(round_stride(
      genome[2] * resources.max_noc_bandwidth, 8));
  cfg.noc_bandwidth =
      std::clamp(cfg.noc_bandwidth, 8, resources.max_noc_bandwidth);

  // Buffer sizing happens after the array shape is known so the L1/L2
  // genes can split the *remaining* on-chip budget — this way nearly every
  // decoded sample is envelope-valid and the optimizer spends its budget
  // on quality rather than on dodging the constraint boundary.
  auto size_buffers = [this, &genome](arch::ArchConfig& c) {
    const double pes = c.num_pes();
    const double l1_cap = std::min(
        2048.0,
        std::max(64.0, static_cast<double>(resources.max_onchip_bytes) /
                           (2.0 * pes)));
    c.l1_bytes =
        round_stride(log_lerp(genome[0], 64.0, l1_cap), arch::kBufferStride);
    const double l2_cap = std::max(
        16.0 * 1024.0, static_cast<double>(resources.max_onchip_bytes) -
                           static_cast<double>(c.l1_bytes) * pes);
    c.l2_bytes = round_stride(log_lerp(genome[1], 16.0 * 1024.0, l2_cap),
                              arch::kBufferStride);
  };

  if (!search_connectivity) {
    // Sizing-only baseline: #PEs and aspect-ratio genes on the *given*
    // connectivity (the design being resized keeps its dataflow wiring).
    const int pes = static_cast<int>(round_stride(
        log_lerp(genome[3], 16.0, static_cast<double>(resources.max_pes)),
        arch::kPeStride));
    const double ratio = log_lerp(genome[4], 1.0 / 8.0, 8.0);  // rows/cols
    int rows = static_cast<int>(round_stride(
        std::sqrt(static_cast<double>(pes) * ratio), arch::kArrayDimStride));
    rows = std::max(2, rows);
    int cols = std::max(2, pes / rows);
    cols -= cols % 2;
    cols = std::max(2, cols);
    cfg.num_array_dims = 2;
    cfg.array_dims = {rows, cols, 1};
    cfg.parallel_dims = {fixed_parallel_dims[0], fixed_parallel_dims[1],
                         nn::Dim::kXp};
    // Keep the inactive third slot distinct from the active pair.
    for (nn::Dim d : searchable_dims()) {
      if (d != fixed_parallel_dims[0] && d != fixed_parallel_dims[1]) {
        cfg.parallel_dims[2] = d;
        break;
      }
    }
    size_buffers(cfg);
    return cfg;
  }

  cfg.num_array_dims = std::clamp(
      1 + static_cast<int>(genome[3] * 3.0), 1, 3);
  // Gene 4 sets the total PE count (log scale up to the envelope), genes
  // 5..6 split it across the active axes. Parameterizing the *product*
  // directly keeps the optimizer's mass near the PE budget — independent
  // per-axis sizes under a product cap would concentrate valid samples on
  // tiny arrays.
  {
    const int k = cfg.num_array_dims;
    const double total = log_lerp(
        genome[4], 8.0, static_cast<double>(resources.max_pes));
    double weights[arch::kMaxArrayDims] = {1.0, 0.0, 0.0};
    double weight_sum = 1.0;
    for (int a = 1; a < k; ++a) {
      weights[a] = 0.25 + 1.5 * genome[static_cast<std::size_t>(4 + a)];
      weight_sum += weights[a];
    }
    int product = 1;
    for (int a = 0; a < arch::kMaxArrayDims; ++a) {
      if (a >= k) {
        cfg.array_dims[static_cast<std::size_t>(a)] = 1;
        continue;
      }
      const double frac = weights[a] / weight_sum;
      const int dim = static_cast<int>(round_stride(
          std::pow(total, frac), arch::kArrayDimStride));
      cfg.array_dims[static_cast<std::size_t>(a)] = std::max(2, dim);
      product *= cfg.array_dims[static_cast<std::size_t>(a)];
    }
    // Rounding can overshoot the budget; shrink the largest axis until the
    // product fits so nearly every decode is envelope-valid.
    while (product > resources.max_pes) {
      int largest = 0;
      for (int a = 1; a < k; ++a)
        if (cfg.array_dims[static_cast<std::size_t>(a)] >
            cfg.array_dims[static_cast<std::size_t>(largest)])
          largest = a;
      int& d = cfg.array_dims[static_cast<std::size_t>(largest)];
      if (d <= 2) break;
      product /= d;
      d -= arch::kArrayDimStride;
      product *= d;
    }
  }

  std::vector<nn::Dim> par;
  if (parallel_encoding == OrderEncoding::kImportance) {
    std::array<double, 6> imp{};
    for (std::size_t i = 0; i < 6; ++i) imp[i] = genome[7 + i];
    par = parallel_from_importance(imp, cfg.num_array_dims);
  } else {
    par = parallel_from_index(genome[7], cfg.num_array_dims);
  }
  for (int a = 0; a < arch::kMaxArrayDims; ++a) {
    cfg.parallel_dims[static_cast<std::size_t>(a)] =
        a < static_cast<int>(par.size())
            ? par[static_cast<std::size_t>(a)]
            : searchable_dims()[static_cast<std::size_t>(a)];
  }
  // Ensure inactive axes hold distinct dims (structural validity).
  for (int a = cfg.num_array_dims; a < arch::kMaxArrayDims; ++a) {
    for (nn::Dim d : searchable_dims()) {
      bool taken = false;
      for (int b = 0; b < a; ++b)
        taken |= cfg.parallel_dims[static_cast<std::size_t>(b)] == d;
      if (!taken) {
        cfg.parallel_dims[static_cast<std::size_t>(a)] = d;
        break;
      }
    }
  }
  size_buffers(cfg);
  return cfg;
}

bool HwEncodingSpec::valid(const std::vector<double>& genome) const {
  return resources.allows(decode(genome));
}

HwEncodingSpec make_hw_spec(const arch::ResourceConstraint& resources,
                            OrderEncoding parallel_encoding,
                            bool search_connectivity) {
  HwEncodingSpec spec;
  spec.resources = resources;
  spec.parallel_encoding = parallel_encoding;
  spec.search_connectivity = search_connectivity;
  if (!search_connectivity) {
    try {
      const arch::ArchConfig baseline = arch::baseline_for(resources);
      spec.fixed_parallel_dims = {baseline.parallel_dims[0],
                                  baseline.parallel_dims[1]};
    } catch (const std::invalid_argument&) {
      // Custom envelope: keep the NVDLA-style C x K default.
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// MapEncodingSpec
// ---------------------------------------------------------------------------

int MapEncodingSpec::genome_size() const {
  const int tiles = 12;  // 6 dram + 6 pe tile ratios
  if (!search_order) return tiles;
  const int order_genes =
      order_encoding == OrderEncoding::kImportance ? 6 : 1;
  return tiles + 3 * order_genes;  // dram order, pe order, register order
}

mapping::Mapping MapEncodingSpec::decode(const std::vector<double>& genome,
                                         const arch::ArchConfig& arch,
                                         const nn::Workload& layer) const {
  const mapping::TileBounds bounds(layer, arch);
  mapping::Mapping m;
  std::size_t g = 0;

  auto read_order = [&]() -> mapping::LoopOrder {
    if (order_encoding == OrderEncoding::kImportance) {
      std::array<double, 6> imp{};
      for (std::size_t i = 0; i < 6; ++i) imp[i] = genome[g + i];
      g += 6;
      return order_from_importance(imp);
    }
    return order_from_index(genome[g++]);
  };
  // Tile genes play two roles: the initial scaling ratio of each dim and
  // the priority order in which grow_to_fit hands out remaining buffer
  // capacity (higher gene => grown first). This keeps every genome in the
  // productive "buffers full" region while the genes still decide which
  // dims own the capacity.
  std::array<double, 6> dram_tile_genes{};
  std::array<double, 6> pe_tile_genes{};
  auto read_tiles = [&](auto bound_of, std::array<double, 6>& kept_genes) {
    mapping::TileSizes tiles{1, 1, 1, 1, 1, 1, 1};
    std::size_t i = 0;
    for (nn::Dim dim : searchable_dims()) {
      const auto d = static_cast<std::size_t>(static_cast<int>(dim));
      kept_genes[i++] = genome[g];
      tiles[d] = tile_from_gene(genome[g++], std::max(1, bound_of(d)));
    }
    tiles[0] = bounds.dim[0];  // N
    return tiles;
  };
  // Growth priority: dims sorted by their tile gene, N last.
  auto growth_priority = [](const std::array<double, 6>& genes) {
    mapping::LoopOrder order = order_from_importance(genes);
    std::rotate(order.begin(), order.begin() + 1, order.end());  // N to back
    return order;
  };

  if (search_order) {
    m.dram.order = read_order();
  } else {
    m.dram.order = mapping::canonical_order(fixed_dataflow);
  }
  m.dram.tile = read_tiles([&](std::size_t d) { return bounds.dim[d]; },
                           dram_tile_genes);

  if (search_order) {
    m.pe.order = read_order();
  } else {
    m.pe.order = mapping::canonical_order(fixed_dataflow);
  }
  m.pe.tile = read_tiles(
      [&](std::size_t d) { return bounds.share(m.dram.tile, d); },
      pe_tile_genes);

  m.pe_order = search_order ? read_order()
                            : mapping::canonical_order(fixed_dataflow);

  m = mapping::repair(std::move(m), layer, arch, bounds);
  if (!grow_tiles) return m;
  return mapping::grow_to_fit(std::move(m), layer, arch, bounds,
                              growth_priority(dram_tile_genes),
                              growth_priority(pe_tile_genes));
}

}  // namespace naas::search
