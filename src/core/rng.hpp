#pragma once

#include <cstdint>
#include <vector>

namespace naas::core {

/// Deterministic, seedable pseudo-random generator used everywhere in NAAS.
///
/// Implements the PCG-XSH-RR 64/32 generator (O'Neill, 2014): small state,
/// excellent statistical quality, and fully reproducible across platforms —
/// important because every experiment in EXPERIMENTS.md must be re-runnable
/// bit-for-bit. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Creates a generator from a 64-bit seed. Distinct seeds give
  /// statistically independent streams for practical purposes.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  /// Re-initializes the state from `seed`, discarding history.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  /// Next raw 32-bit output.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal deviate (Box–Muller with caching of the second value).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Vector of `n` standard normal deviates.
  std::vector<double> normal_vector(int n);

  /// Returns true with probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniformly shuffles `v` in place (Fisher–Yates).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
      std::swap(v[static_cast<std::size_t>(i)],
                v[static_cast<std::size_t>(uniform_int(0, i))]);
    }
  }

  /// Picks a uniformly random element index of a container of size `n` (> 0).
  int index(int n) { return uniform_int(0, n - 1); }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Derives the seed of an independent substream from a base seed and a
/// stream id (SplitMix64 finalization over both). Keying auxiliary
/// generators off the primary seed this way means their draws never
/// advance (and therefore never perturb) the primary stream.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Convenience: an Rng seeded with stream_seed(seed, stream).
inline Rng rng_stream(std::uint64_t seed, std::uint64_t stream) {
  return Rng(stream_seed(seed, stream));
}

}  // namespace naas::core
