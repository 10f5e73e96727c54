#include "search/cma_es.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <string>

#include "core/log.hpp"

namespace naas::search {

CmaEs::CmaEs(const CmaEsOptions& options)
    : opts_(options),
      rng_(options.seed),
      dim_(options.dim),
      mu_(options.parents > 0 ? options.parents
                              : std::max(1, options.population / 2)),
      mean_(static_cast<std::size_t>(options.dim), 0.5),
      sigma_(options.sigma0),
      cov_(core::Matrix::identity(options.dim)),
      chol_(core::Matrix::identity(options.dim)),
      path_sigma_(static_cast<std::size_t>(options.dim), 0.0),
      path_c_(static_cast<std::size_t>(options.dim), 0.0) {
  assert(dim_ >= 1 && opts_.population >= 2);
  // Standard log-rank recombination weights.
  weights_.resize(static_cast<std::size_t>(mu_));
  for (int i = 0; i < mu_; ++i)
    weights_[static_cast<std::size_t>(i)] =
        std::log(mu_ + 0.5) - std::log(i + 1.0);
  const double wsum =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  for (auto& w : weights_) w /= wsum;
  double w2 = 0.0;
  for (const auto& w : weights_) w2 += w * w;
  mu_eff_ = 1.0 / w2;

  const double n = dim_;
  c_sigma_ = (mu_eff_ + 2.0) / (n + mu_eff_ + 5.0);
  d_sigma_ = 1.0 + 2.0 * std::max(0.0, std::sqrt((mu_eff_ - 1.0) / (n + 1.0)) -
                                           1.0) +
             c_sigma_;
  c_c_ = (4.0 + mu_eff_ / n) / (n + 4.0 + 2.0 * mu_eff_ / n);
  c_1_ = 2.0 / ((n + 1.3) * (n + 1.3) + mu_eff_);
  c_mu_ = std::min(1.0 - c_1_, 2.0 * (mu_eff_ - 2.0 + 1.0 / mu_eff_) /
                                   ((n + 2.0) * (n + 2.0) + mu_eff_));
  chi_n_ = std::sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n));
}

template <std::size_t N>
void CmaEs::transform(std::vector<double>* x) const {
  // Row r of L reads x[0..r] only, so walking the rows bottom-up
  // overwrites each x[r] after the last row that reads it. The strict
  // upper triangle of L is exactly zero, and a sum that starts at +0 never
  // changes by adding +-0, so summing only the lower triangle keeps every
  // bit of the full product. Each candidate keeps its own sum in that
  // order; one pass over a row feeds all N, so their chains overlap.
  double* v[N];
  for (std::size_t k = 0; k < N; ++k) v[k] = x[k].data();
  for (int r = dim_ - 1; r >= 0; --r) {
    const double* l = chol_.row(r);
    double acc[N] = {};
    for (int c = 0; c <= r; ++c)
      for (std::size_t k = 0; k < N; ++k) acc[k] += l[c] * v[k][c];
    const double mean = mean_[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < N; ++k)
      v[k][r] = std::clamp(mean + sigma_ * acc[k], 0.0, 1.0);
  }
}

std::vector<double> CmaEs::sample_one() {
  std::vector<double> x(static_cast<std::size_t>(dim_));
  for (double& v : x) v = rng_.normal();
  transform<1>(&x);
  return x;
}

std::vector<std::vector<double>> CmaEs::ask_from(
    std::span<const double> normals) {
  const auto dim = static_cast<std::size_t>(dim_);
  assert(normals.size() == static_cast<std::size_t>(opts_.population) * dim);
  std::vector<std::vector<double>> pop;
  pop.reserve(static_cast<std::size_t>(opts_.population));
  for (std::size_t at = 0; at < normals.size(); at += dim) {
    const auto z = normals.subspan(at, dim);
    pop.emplace_back(z.begin(), z.end());
  }
  // Blocks of four candidates, then the rest one at a time.
  std::size_t k = 0;
  for (; k + 4 <= pop.size(); k += 4) transform<4>(&pop[k]);
  for (; k < pop.size(); ++k) transform<1>(&pop[k]);
  return pop;
}

std::vector<std::vector<double>> CmaEs::ask(
    const std::function<bool(const std::vector<double>&)>& valid) {
  std::vector<std::vector<double>> pop;
  pop.reserve(static_cast<std::size_t>(opts_.population));
  for (int k = 0; k < opts_.population; ++k) {
    std::vector<double> x = sample_one();
    if (valid) {
      for (int attempt = 0; attempt < opts_.max_resample && !valid(x);
           ++attempt) {
        x = sample_one();
      }
      if (!valid(x)) {
        // Every resample landed outside the feasible space. Never hand a
        // known-invalid random point downstream: fall back to the clamped
        // mean, which is always inside [0,1]^dim and is the distribution's
        // best in-space guess.
        x = mean_;
        for (double& v : x) v = std::clamp(v, 0.0, 1.0);
        ++resample_exhausted_;
        core::log_debug("CmaEs::ask: resample budget exhausted, falling "
                        "back to clamped mean (count=" +
                        std::to_string(resample_exhausted_) + ")");
      }
    }
    pop.push_back(std::move(x));
  }
  return pop;
}

const std::vector<std::vector<double>>& CmaEs::begin_generation(
    const std::function<bool(const std::vector<double>&)>& valid) {
  assert(!generation_open());
  pending_population_ = ask(valid);
  pending_fitness_.assign(pending_population_.size(), 0.0);
  pending_reported_.assign(pending_population_.size(), false);
  pending_remaining_ = pending_population_.size();
  return pending_population_;
}

bool CmaEs::tell_partial(std::size_t index, double fitness) {
  assert(generation_open() && index < pending_population_.size() &&
         !pending_reported_[index]);
  pending_fitness_[index] = fitness;
  pending_reported_[index] = true;
  if (--pending_remaining_ > 0) return false;
  // Last slot filled: the assembled fitness vector is in candidate order
  // regardless of the order reports arrived in, so the distribution update
  // is bit-identical to a barrier-style ask()/tell() round trip.
  tell(pending_population_, pending_fitness_);
  return true;
}

void CmaEs::tell(const std::vector<std::vector<double>>& population,
                 const std::vector<double>& fitness) {
  assert(population.size() == fitness.size());
  const int lambda = static_cast<int>(population.size());
  const int mu = std::min(mu_, lambda);

  // Rank candidates by fitness (ascending; lower is better).
  std::vector<int> order(static_cast<std::size_t>(lambda));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return fitness[static_cast<std::size_t>(a)] <
           fitness[static_cast<std::size_t>(b)];
  });

  const std::vector<double> old_mean = mean_;

  // Truncated-parent case (lambda < configured mu): the weight prefix no
  // longer sums to 1, which would shrink the recombined mean toward the
  // origin. Renormalize the prefix and recompute the effective selection
  // mass used by this update's path coefficients.
  const std::vector<double>* weights = &weights_;
  double mu_eff = mu_eff_;
  std::vector<double> trunc_weights;
  if (mu < mu_) {
    trunc_weights.assign(weights_.begin(), weights_.begin() + mu);
    const double wsum =
        std::accumulate(trunc_weights.begin(), trunc_weights.end(), 0.0);
    double w2 = 0.0;
    for (auto& w : trunc_weights) {
      w /= wsum;
      w2 += w * w;
    }
    mu_eff = 1.0 / w2;
    weights = &trunc_weights;
  }

  // Weighted recombination of the mu best.
  std::vector<double> new_mean(static_cast<std::size_t>(dim_), 0.0);
  for (int i = 0; i < mu; ++i) {
    const auto& x = population[static_cast<std::size_t>(
        order[static_cast<std::size_t>(i)])];
    const double w = (*weights)[static_cast<std::size_t>(i)];
    for (int d = 0; d < dim_; ++d)
      new_mean[static_cast<std::size_t>(d)] +=
          w * x[static_cast<std::size_t>(d)];
  }
  mean_ = new_mean;

  // Mean displacement in sigma-normalized coordinates.
  std::vector<double> y_w(static_cast<std::size_t>(dim_));
  for (int d = 0; d < dim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    y_w[s] = (mean_[s] - old_mean[s]) / sigma_;
  }

  // z_w = L^-1 y_w approximates C^(-1/2) y_w (Cholesky CMA-ES variant).
  std::vector<double> z_w(static_cast<std::size_t>(dim_), 0.0);
  for (int r = 0; r < dim_; ++r) {
    const double* l = chol_.row(r);
    double acc = y_w[static_cast<std::size_t>(r)];
    for (int c = 0; c < r; ++c) acc -= l[c] * z_w[static_cast<std::size_t>(c)];
    z_w[static_cast<std::size_t>(r)] = acc / l[r];
  }

  // Step-size path and CSA update. The population was sampled with the
  // current sigma; capture it before CSA moves it — the covariance vectors
  // below must be normalized by the sampling sigma, not the updated one.
  const double sampled_sigma = sigma_;
  const double cs_coef = std::sqrt(c_sigma_ * (2.0 - c_sigma_) * mu_eff);
  double ps_norm2 = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    path_sigma_[s] = (1.0 - c_sigma_) * path_sigma_[s] + cs_coef * z_w[s];
    ps_norm2 += path_sigma_[s] * path_sigma_[s];
  }
  const double ps_norm = std::sqrt(ps_norm2);
  sigma_ *= std::exp((c_sigma_ / d_sigma_) * (ps_norm / chi_n_ - 1.0));
  sigma_ = std::clamp(sigma_, 1e-8, 1.0);

  // Covariance path (with stall indicator h_sigma).
  const double h_sigma =
      ps_norm / std::sqrt(1.0 - std::pow(1.0 - c_sigma_,
                                         2.0 * (generation_ + 1))) <
              (1.4 + 2.0 / (dim_ + 1.0)) * chi_n_
          ? 1.0
          : 0.0;
  const double cc_coef = std::sqrt(c_c_ * (2.0 - c_c_) * mu_eff);
  for (int d = 0; d < dim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    path_c_[s] = (1.0 - c_c_) * path_c_[s] + h_sigma * cc_coef * y_w[s];
  }

  // Covariance update: decay, then the rank-one (path) term, then the
  // rank-mu (parent) terms in parent order, applied to each entry in that
  // order in one pass over C. Each term is (scale * u[r]) * u[c] with the
  // left product hoisted per row, which is the same rounding sequence as
  // applying the three updates to the whole matrix one after another.
  const double c1a =
      c_1_ * (1.0 - (1.0 - h_sigma * h_sigma) * c_c_ * (2.0 - c_c_));
  const double decay = 1.0 - c1a - c_mu_;
  const auto n = static_cast<std::size_t>(dim_);
  std::vector<double> parent_y(static_cast<std::size_t>(mu) * n);
  std::vector<double> parent_scale(static_cast<std::size_t>(mu));
  for (int i = 0; i < mu; ++i) {
    const auto& x = population[static_cast<std::size_t>(
        order[static_cast<std::size_t>(i)])];
    double* y = parent_y.data() + static_cast<std::size_t>(i) * n;
    for (std::size_t d = 0; d < n; ++d)
      y[d] = (x[d] - old_mean[d]) / sampled_sigma;
    parent_scale[static_cast<std::size_t>(i)] =
        c_mu_ * (*weights)[static_cast<std::size_t>(i)];
  }
  for (std::size_t r = 0; r < n; ++r) {
    double* row = cov_.row(static_cast<int>(r));
    const double path_r = c_1_ * path_c_[r];
    for (std::size_t c = 0; c < n; ++c)
      row[c] = row[c] * decay + path_r * path_c_[c];
    for (int i = 0; i < mu; ++i) {
      const double* y = parent_y.data() + static_cast<std::size_t>(i) * n;
      const double y_r = parent_scale[static_cast<std::size_t>(i)] * y[r];
      for (std::size_t c = 0; c < n; ++c) row[c] += y_r * y[c];
    }
  }
  cov_.symmetrize();
  cov_.cholesky_into(chol_);
  ++generation_;
}

}  // namespace naas::search
