#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace naas::search {

/// Options for the CMA-ES optimizer.
struct CmaEsOptions {
  int dim = 1;            ///< search-space dimensionality
  int population = 16;    ///< lambda: candidates per generation
  int parents = 0;        ///< mu: selected parents (0 => population/2)
  double sigma0 = 0.25;   ///< initial step size (space is [0,1]^dim)
  std::uint64_t seed = 1;
  int max_resample = 64;  ///< validity-rejection resamples per candidate
};

/// Covariance-Matrix-Adaptation Evolution Strategy (Hansen), the search
/// engine behind both NAAS optimization levels (Section II-A-c): sample a
/// population from a multivariate normal over [0,1]^dim, select the
/// lowest-EDP parents, recenter the distribution on their weighted mean and
/// adapt the covariance (rank-one + rank-mu) and step size (CSA) to
/// increase the likelihood of sampling near the parents.
///
/// Candidates are clipped to [0,1]; an optional validity predicate triggers
/// rejection-resampling ("rule out the invalid accelerator samples and keep
/// sampling", Section II-A-c).
class CmaEs {
 public:
  explicit CmaEs(const CmaEsOptions& options);

  /// Samples one generation of candidates. If `valid` is provided, each
  /// candidate is resampled until the predicate passes (up to
  /// max_resample, after which the clamped mean is returned instead —
  /// see resample_exhausted()).
  std::vector<std::vector<double>> ask(
      const std::function<bool(const std::vector<double>&)>& valid = nullptr);

  /// Samples one generation from caller-supplied standard normals instead
  /// of this optimizer's own stream: candidate k transforms
  /// normals[k * dim, (k + 1) * dim), so `normals` must hold exactly
  /// population * dim values. No validity predicate. Bit-identical to
  /// ask() when `normals` are the draws ask() would have made next, which
  /// lets searches that share a seed draw their stream once (see
  /// mapping_normals).
  std::vector<std::vector<double>> ask_from(std::span<const double> normals);

  /// Reports fitness for the generation returned by the matching ask()
  /// (lower is better) and updates mean, covariance, and step size.
  void tell(const std::vector<std::vector<double>>& population,
            const std::vector<double>& fitness);

  /// --- Non-blocking step API (the task-graph evaluation pipeline) ---
  ///
  /// begin_generation() samples a generation through exactly the same
  /// stream and rejection logic as ask(), but retains it: the pending
  /// population is readable (const, stable storage) while its candidates
  /// evaluate as concurrently-scheduled tasks. Fitness comes back one slot
  /// at a time via tell_partial(); the call that fills the last open slot
  /// applies the full tell() update and returns true, so a generation's
  /// *completion* — not a join — is what schedules the next one.
  const std::vector<std::vector<double>>& begin_generation(
      const std::function<bool(const std::vector<double>&)>& valid = nullptr);

  /// True while a begun generation still has unreported slots.
  bool generation_open() const { return pending_remaining_ > 0; }

  /// Reports fitness for pending candidate `index` (each slot exactly
  /// once). Returns true when this report completed the generation and the
  /// distribution update was applied. Not thread-safe: serialize calls
  /// (run_naas does so with a mutex).
  bool tell_partial(std::size_t index, double fitness);

  /// Current distribution mean.
  const std::vector<double>& mean() const { return mean_; }

  /// Current global step size.
  double sigma() const { return sigma_; }

  /// Generations processed so far.
  int generation() const { return generation_; }

  /// Configured parent count mu. tell() consumes fitness values ONLY
  /// through the rank order of the best min(mu, lambda) candidates — the
  /// update never reads a fitness numerically — so a candidate whose
  /// reported fitness is strictly worse than the generation's mu-th best
  /// influences the distribution identically no matter what that value is.
  /// The surrogate pruning gate in run_naas rests on this contract.
  int parents() const { return mu_; }

  /// Candidates that exhausted max_resample and fell back to the clamped
  /// mean. ask() therefore never returns a point the caller's decode cannot
  /// handle; a rapidly growing counter means the validity predicate rejects
  /// nearly all of the current distribution's mass.
  long long resample_exhausted() const { return resample_exhausted_; }

 private:
  /// One candidate from fresh standard normals, drawn in index order.
  std::vector<double> sample_one();

  /// x <- clamp(mean + sigma * L x), in place over the standard normals x
  /// of each of the N candidates x[0..N): the one transform every sampling
  /// path shares. Each candidate's sums run in the same order for any N.
  template <std::size_t N>
  void transform(std::vector<double>* x) const;

  CmaEsOptions opts_;
  core::Rng rng_;
  int dim_;
  int mu_;
  std::vector<double> weights_;  ///< recombination weights (size mu)
  double mu_eff_ = 0;
  double c_sigma_ = 0, d_sigma_ = 0, c_c_ = 0, c_1_ = 0, c_mu_ = 0;
  double chi_n_ = 0;  ///< E||N(0,I)||

  std::vector<double> mean_;
  double sigma_;
  core::Matrix cov_;       ///< covariance C
  core::Matrix chol_;      ///< lower Cholesky factor of C
  std::vector<double> path_sigma_;
  std::vector<double> path_c_;
  int generation_ = 0;
  long long resample_exhausted_ = 0;

  /// Step-API state: the retained generation and its partially-filled
  /// fitness vector (see begin_generation/tell_partial).
  std::vector<std::vector<double>> pending_population_;
  std::vector<double> pending_fitness_;
  std::vector<bool> pending_reported_;
  std::size_t pending_remaining_ = 0;
};

}  // namespace naas::search
