#include "search/cma_es.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/rng.hpp"
#include "core/serialize.hpp"

namespace naas::search {
namespace {

double sphere(const std::vector<double>& x, double target = 0.3) {
  double acc = 0;
  for (double v : x) acc += (v - target) * (v - target);
  return acc;
}

double rosenbrock01(const std::vector<double>& x) {
  // Rosenbrock mapped into [0,1]^n (optimum at ~0.75 per coordinate after
  // the affine map x' = 4x - 2).
  double acc = 0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = 4.0 * x[i] - 2.0;
    const double b = 4.0 * x[i + 1] - 2.0;
    acc += 100.0 * (b - a * a) * (b - a * a) + (1.0 - a) * (1.0 - a);
  }
  return acc;
}

TEST(CmaEs, PopulationShapesAndBounds) {
  CmaEsOptions opts;
  opts.dim = 5;
  opts.population = 12;
  CmaEs cma(opts);
  const auto pop = cma.ask();
  ASSERT_EQ(pop.size(), 12u);
  for (const auto& x : pop) {
    ASSERT_EQ(x.size(), 5u);
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(CmaEs, ConvergesOnSphere) {
  CmaEsOptions opts;
  opts.dim = 8;
  opts.population = 16;
  opts.seed = 3;
  CmaEs cma(opts);
  double best = 1e9;
  for (int iter = 0; iter < 60; ++iter) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& x : pop) {
      fit.push_back(sphere(x));
      best = std::min(best, fit.back());
    }
    cma.tell(pop, fit);
  }
  EXPECT_LT(best, 1e-4);
  for (double m : cma.mean()) EXPECT_NEAR(m, 0.3, 0.05);
}

TEST(CmaEs, ImprovesRosenbrock) {
  CmaEsOptions opts;
  opts.dim = 4;
  opts.population = 16;
  opts.seed = 11;
  CmaEs cma(opts);
  double first_gen_best = 0, best = 1e18;
  for (int iter = 0; iter < 80; ++iter) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& x : pop) {
      fit.push_back(rosenbrock01(x));
      best = std::min(best, fit.back());
    }
    if (iter == 0)
      first_gen_best = *std::min_element(fit.begin(), fit.end());
    cma.tell(pop, fit);
  }
  EXPECT_LT(best, first_gen_best / 50.0);
}

TEST(CmaEs, DeterministicForSeed) {
  CmaEsOptions opts;
  opts.dim = 3;
  opts.population = 8;
  opts.seed = 42;
  CmaEs a(opts), b(opts);
  const auto pa = a.ask();
  const auto pb = b.ask();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(CmaEs, ValidityPredicateRespected) {
  CmaEsOptions opts;
  opts.dim = 2;
  opts.population = 20;
  opts.seed = 5;
  CmaEs cma(opts);
  // Accept only the lower-left quadrant (plenty of mass remains).
  const auto pop = cma.ask(
      [](const std::vector<double>& x) { return x[0] < 0.5 && x[1] < 0.5; });
  int ok = 0;
  for (const auto& x : pop) ok += x[0] < 0.5 && x[1] < 0.5;
  EXPECT_GE(ok, 18);  // nearly all should satisfy after resampling
}

TEST(CmaEs, SigmaStaysPositiveAndBounded) {
  CmaEsOptions opts;
  opts.dim = 6;
  opts.population = 12;
  CmaEs cma(opts);
  for (int iter = 0; iter < 30; ++iter) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& x : pop) fit.push_back(sphere(x, 0.7));
    cma.tell(pop, fit);
    EXPECT_GT(cma.sigma(), 0.0);
    EXPECT_LE(cma.sigma(), 1.0);
  }
  EXPECT_EQ(cma.generation(), 30);
}

TEST(CmaEs, ConvergesOnIllConditionedQuadratic) {
  // Regression for the sigma-ordering bug: the rank-mu covariance vectors
  // were normalized by the *post*-CSA sigma instead of the sigma the
  // population was sampled with, mis-scaling every covariance update by the
  // CSA factor. On an ill-conditioned quadratic the covariance must learn
  // the axis scaling to converge this far this fast.
  CmaEsOptions opts;
  opts.dim = 6;
  opts.population = 14;
  opts.seed = 17;
  CmaEs cma(opts);
  double best = 1e18;
  for (int iter = 0; iter < 150; ++iter) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& x : pop) {
      // Axis-aligned ellipsoid, condition number 10^4, optimum at 0.4.
      double acc = 0;
      for (std::size_t d = 0; d < x.size(); ++d) {
        const double scale = std::pow(
            10.0, 4.0 * static_cast<double>(d) /
                      static_cast<double>(x.size() - 1));
        acc += scale * (x[d] - 0.4) * (x[d] - 0.4);
      }
      fit.push_back(acc);
      best = std::min(best, acc);
    }
    cma.tell(pop, fit);
  }
  EXPECT_LT(best, 1e-8);
  for (double m : cma.mean()) EXPECT_NEAR(m, 0.4, 1e-3);
}

TEST(CmaEs, RankMuNormalizedBySamplingSigma) {
  // White-box regression for the sigma-ordering bug: the rank-mu vectors
  // y_i must be normalized by the sigma the population was *sampled* with,
  // not the sigma CSA just produced. We engineer one generation where CSA
  // grows sigma substantially and compare the post-update sampling spread
  // against the standard CMA-ES formulas (computable in closed form for
  // dim = 1); the buggy normalization lands ~26% low, far outside
  // sampling noise.
  CmaEsOptions opts;
  opts.dim = 1;
  opts.population = 400;
  opts.seed = 5;
  CmaEs cma(opts);

  // Spec constants for n = 1, lambda = 400, mu = 200 (Hansen's tutorial
  // formulas, the ones the constructor implements).
  const int mu = 200;
  std::vector<double> w(static_cast<std::size_t>(mu));
  for (int i = 0; i < mu; ++i)
    w[static_cast<std::size_t>(i)] = std::log(mu + 0.5) - std::log(i + 1.0);
  double wsum = 0;
  for (double v : w) wsum += v;
  double w2 = 0;
  for (double& v : w) {
    v /= wsum;
    w2 += v * v;
  }
  const double mu_eff = 1.0 / w2;
  const double n = 1.0;
  const double cs = (mu_eff + 2.0) / (n + mu_eff + 5.0);
  const double ds =
      1.0 +
      2.0 * std::max(0.0, std::sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + cs;
  const double cc = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n);
  const double c1 = 2.0 / ((n + 1.3) * (n + 1.3) + mu_eff);
  const double cmu =
      std::min(1.0 - c1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) /
                             ((n + 2.0) * (n + 2.0) + mu_eff));
  const double chi =
      std::sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n));

  // One generation with every candidate at 0.6: the mean moves 0.5 -> 0.6
  // and the step-size path jumps, so CSA grows sigma well clear of its old
  // value.
  const double old_sigma = cma.sigma();
  const std::vector<std::vector<double>> pop(400, std::vector<double>{0.6});
  std::vector<double> fit(400);
  std::iota(fit.begin(), fit.end(), 0.0);
  cma.tell(pop, fit);

  const double y = (0.6 - 0.5) / old_sigma;
  const double ps = std::sqrt(cs * (2.0 - cs) * mu_eff) * y;
  const double sigma_new = std::clamp(
      old_sigma * std::exp((cs / ds) * (std::abs(ps) / chi - 1.0)), 1e-8,
      1.0);
  ASSERT_NEAR(cma.sigma(), sigma_new, 1e-12);  // constants really match
  ASSERT_GT(sigma_new / old_sigma, 1.2);  // the scenario does move sigma
  const double h =
      std::abs(ps) / std::sqrt(1.0 - std::pow(1.0 - cs, 2.0)) <
              (1.4 + 2.0 / (n + 1.0)) * chi
          ? 1.0
          : 0.0;
  const double pc = h * std::sqrt(cc * (2.0 - cc) * mu_eff) * y;
  const double c1a = c1 * (1.0 - (1.0 - h * h) * cc * (2.0 - cc));
  // All parents share y_i = y and the weights sum to 1.
  const double cov = (1.0 - c1a - cmu) + c1 * pc * pc + cmu * y * y;
  const double expected_std = sigma_new * std::sqrt(cov);

  double sum = 0, sq = 0;
  int count = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& x : cma.ask()) {
      sum += x[0];
      sq += x[0] * x[0];
      ++count;
    }
  }
  const double mean = sum / count;
  const double stdev = std::sqrt(sq / count - mean * mean);
  // 8000 draws put sampling noise ~1%; the bug shifts the spread ~26%.
  EXPECT_NEAR(stdev, expected_std, 0.06 * expected_std);
}

TEST(CmaEs, TruncatedTellRenormalizesWeights) {
  // Regression for the truncated-weight bug: reporting fewer candidates
  // than the configured parent count left the weight prefix summing to
  // less than 1, shrinking the recombined mean toward the origin. With all
  // candidates at the same point, the new mean must be exactly that point.
  CmaEsOptions opts;
  opts.dim = 4;
  opts.population = 16;
  opts.parents = 8;
  opts.seed = 7;
  CmaEs cma(opts);
  (void)cma.ask();

  const std::vector<std::vector<double>> pop(3, std::vector<double>(4, 0.7));
  cma.tell(pop, {1.0, 2.0, 3.0});
  for (double m : cma.mean()) EXPECT_NEAR(m, 0.7, 1e-12);
}

TEST(CmaEs, TruncatedTellMatchesUntruncatedMeanSemantics) {
  // Same property on asymmetric points: the recombined mean must be a
  // convex combination of the reported candidates (weights sum to 1), so
  // it lies inside their coordinate-wise hull.
  CmaEsOptions opts;
  opts.dim = 2;
  opts.population = 12;
  opts.parents = 6;
  opts.seed = 21;
  CmaEs cma(opts);
  (void)cma.ask();

  const std::vector<std::vector<double>> pop{{0.6, 0.8}, {0.7, 0.9}};
  cma.tell(pop, {1.0, 2.0});
  EXPECT_GE(cma.mean()[0], 0.6);
  EXPECT_LE(cma.mean()[0], 0.7);
  EXPECT_GE(cma.mean()[1], 0.8);
  EXPECT_LE(cma.mean()[1], 0.9);
}

TEST(CmaEs, AskFallsBackToClampedMeanWhenResampleExhausted) {
  // Regression for the ask() invariant: an unsatisfiable predicate used to
  // leak the last invalid random sample downstream. Now every candidate is
  // either predicate-valid or the clamped mean.
  CmaEsOptions opts;
  opts.dim = 3;
  opts.population = 10;
  opts.max_resample = 5;
  opts.seed = 13;
  CmaEs cma(opts);

  const auto pop =
      cma.ask([](const std::vector<double>&) { return false; });
  ASSERT_EQ(pop.size(), 10u);
  for (const auto& x : pop) {
    ASSERT_EQ(x.size(), cma.mean().size());
    for (std::size_t d = 0; d < x.size(); ++d)
      EXPECT_EQ(x[d], std::clamp(cma.mean()[d], 0.0, 1.0));
  }
  EXPECT_EQ(cma.resample_exhausted(), 10);
}

TEST(CmaEs, AskNeverReturnsInvalidNonMeanPoints) {
  // Tight-but-satisfiable predicate with a tiny resample budget: every
  // returned candidate is either valid or the documented mean fallback.
  CmaEsOptions opts;
  opts.dim = 2;
  opts.population = 30;
  opts.max_resample = 2;
  opts.seed = 29;
  CmaEs cma(opts);
  const auto valid = [](const std::vector<double>& x) {
    return x[0] < 0.35 && x[1] < 0.35;
  };
  const auto pop = cma.ask(valid);
  const auto& mean = cma.mean();
  for (const auto& x : pop) {
    EXPECT_TRUE(valid(x) || x == mean)
        << "invalid non-mean candidate leaked from ask()";
  }
}

TEST(CmaEs, HandlesInfiniteFitness) {
  // Invalid candidates are scored +inf; the optimizer must keep working.
  CmaEsOptions opts;
  opts.dim = 3;
  opts.population = 10;
  opts.seed = 9;
  CmaEs cma(opts);
  for (int iter = 0; iter < 20; ++iter) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& x : pop) {
      fit.push_back(x[0] > 0.8 ? std::numeric_limits<double>::infinity()
                               : sphere(x));
    }
    cma.tell(pop, fit);
  }
  EXPECT_LT(cma.mean()[0], 0.8);
  EXPECT_TRUE(std::isfinite(cma.mean()[1]));
}

TEST(CmaEs, AskTellStreamMatchesRecordedDigest) {
  // Pins every bit the optimizer produces over a run: each sampled
  // candidate, and the mean and step size after each update. Dim 13 is the
  // hardware genome (sampled through a validity predicate, so the
  // resampling path runs); dim 30 is the mapping genome. The fitness is an
  // ill-conditioned rotated quadratic, so the covariance develops large
  // off-diagonal terms and every Cholesky entry matters. The expected
  // values were recorded from the straightforward row-order
  // implementation; a change that reorders any sum changes them. Never
  // re-record them to make a change pass.
  const auto fitness = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t d = 0; d + 1 < x.size(); ++d) {
      const double u = x[d] + 0.5 * x[d + 1] - 0.6;
      acc += std::pow(10.0, static_cast<double>(d % 4)) * u * u;
    }
    return acc;
  };
  const auto valid = [](const std::vector<double>& x) {
    return x[0] + x[1] + x[2] < 1.8;
  };
  for (const auto& [dim, expected] :
       {std::pair<int, std::uint64_t>{13, 0xc359918a0c106996ULL},
        std::pair<int, std::uint64_t>{30, 0xeb7b29d7a7d82e16ULL}}) {
    CmaEsOptions opts;
    opts.dim = dim;
    opts.population = 8;
    opts.seed = 100 + static_cast<std::uint64_t>(dim);
    CmaEs cma(opts);
    core::ByteWriter bits;
    for (int gen = 0; gen < 40; ++gen) {
      const auto pop = dim == 13 ? cma.ask(valid) : cma.ask();
      std::vector<double> fit;
      for (const auto& x : pop) {
        for (double v : x) bits.f64(v);
        fit.push_back(fitness(x));
      }
      cma.tell(pop, fit);
      for (double m : cma.mean()) bits.f64(m);
      bits.f64(cma.sigma());
    }
    bits.i64(cma.resample_exhausted());
    EXPECT_EQ(core::fnv1a64(bits.bytes()), expected) << "dim " << dim;
  }
}

TEST(CmaEs, AskFromNormalsMatchesDrawnAsk) {
  // An optimizer fed its own next normals through ask_from must match a
  // twin that draws them in ask(), bit for bit: every sample, and the mean
  // and step size after every update. Dims 13 (hardware genome) and 30
  // (mapping genome); population 7 makes each generation's draw count odd
  // at dim 13, so the Box-Muller pair carried across a generation boundary
  // is covered too. ask_from transforms candidates in blocks of four:
  // population 8 is two full blocks, 7 a block and three left over, and 3
  // no full block.
  const auto fitness = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t d = 0; d + 1 < x.size(); ++d) {
      const double u = x[d] + 0.5 * x[d + 1] - 0.6;
      acc += std::pow(10.0, static_cast<double>(d % 4)) * u * u;
    }
    return acc;
  };
  for (const auto& [dim, population] :
       {std::pair{13, 7}, std::pair{30, 7}, std::pair{30, 8},
        std::pair{13, 3}}) {
    CmaEsOptions opts;
    opts.dim = dim;
    opts.population = population;
    opts.seed = 300 + static_cast<std::uint64_t>(dim);
    CmaEs drawn(opts), fed(opts);
    core::Rng stream(opts.seed);
    for (int gen = 0; gen < 6; ++gen) {
      std::vector<double> normals(
          static_cast<std::size_t>(opts.population * dim));
      for (double& z : normals) z = stream.normal();
      const auto a = drawn.ask();
      const auto b = fed.ask_from(normals);
      ASSERT_EQ(a.size(), b.size());
      std::vector<double> fit;
      for (std::size_t k = 0; k < a.size(); ++k) {
        for (std::size_t d = 0; d < a[k].size(); ++d)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k][d]),
                    std::bit_cast<std::uint64_t>(b[k][d]))
              << "dim " << dim << " population " << population << " gen "
              << gen << " sample " << k;
        fit.push_back(fitness(a[k]));
      }
      drawn.tell(a, fit);
      fed.tell(b, fit);
      for (std::size_t d = 0; d < drawn.mean().size(); ++d)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(drawn.mean()[d]),
                  std::bit_cast<std::uint64_t>(fed.mean()[d]))
            << "dim " << dim << " gen " << gen;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(drawn.sigma()),
                std::bit_cast<std::uint64_t>(fed.sigma()))
          << "dim " << dim << " gen " << gen;
    }
  }
}

}  // namespace
}  // namespace naas::search
