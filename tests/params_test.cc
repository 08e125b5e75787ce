// Tests for parameter selection (§4.4): neighborhood entropy, the sweep
// profile, simulated annealing, and the end-to-end heuristic.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "common/rng.h"
#include "params/entropy.h"
#include "params/parameter_heuristic.h"
#include "params/simulated_annealing.h"
#include "traj/segment_store.h"

namespace traclus::params {
namespace {

using distance::SegmentDistance;
using geom::Point;
using geom::Segment;

TEST(EntropyTest, UniformDistributionIsMaximal) {
  // n equal masses ⇒ H = log2(n) (Formula (10) with p_i = 1/n).
  const std::vector<size_t> uniform(16, 3);
  EXPECT_NEAR(NeighborhoodEntropy(uniform), 4.0, 1e-12);
}

TEST(EntropyTest, SkewLowersEntropy) {
  const std::vector<size_t> uniform = {4, 4, 4, 4};
  const std::vector<size_t> skewed = {13, 1, 1, 1};
  EXPECT_LT(NeighborhoodEntropy(skewed), NeighborhoodEntropy(uniform));
}

TEST(EntropyTest, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(NeighborhoodEntropy(std::vector<size_t>{}), 0.0);
  EXPECT_DOUBLE_EQ(NeighborhoodEntropy(std::vector<size_t>{0, 0}), 0.0);
}

TEST(EntropyTest, WeightedOverloadMatchesUnweightedOnIntegers) {
  const std::vector<size_t> counts = {1, 2, 3, 4};
  const std::vector<double> masses = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(NeighborhoodEntropy(counts), NeighborhoodEntropy(masses));
}

traj::SegmentStore TwoBundlesAndNoise(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  auto bundle = [&](double x, double y, int count, int tid0) {
    for (int i = 0; i < count; ++i) {
      segs.emplace_back(Point(x, y + 0.4 * i), Point(x + 12, y + 0.4 * i),
                        static_cast<geom::SegmentId>(segs.size()), tid0 + i);
    }
  };
  bundle(0, 0, 8, 0);
  bundle(60, 40, 8, 20);
  for (int i = 0; i < 8; ++i) {
    const Point s(rng.Uniform(0, 80), rng.Uniform(0, 80));
    segs.emplace_back(s, Point(s.x() + rng.Uniform(-8, 8),
                               s.y() + rng.Uniform(-8, 8)),
                      static_cast<geom::SegmentId>(segs.size()), 40 + i);
  }
  return traj::SegmentStore(std::move(segs));
}

TEST(NeighborhoodProfileTest, MatchesDirectQueriesAtEveryGridPoint) {
  const auto segs = TwoBundlesAndNoise(1);
  const SegmentDistance dist;
  const std::vector<double> grid = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  const NeighborhoodProfile profile(segs, dist, grid);
  const cluster::BruteForceNeighborhood provider(segs, dist);
  for (size_t g = 0; g < grid.size(); ++g) {
    const auto direct = NeighborhoodSizes(provider, grid[g]);
    EXPECT_EQ(profile.SizesAt(g), direct) << "eps = " << grid[g];
  }
}

TEST(NeighborhoodProfileTest, CountsAreMonotoneInEps) {
  const auto segs = TwoBundlesAndNoise(2);
  const SegmentDistance dist;
  std::vector<double> grid;
  for (int i = 1; i <= 30; ++i) grid.push_back(static_cast<double>(i));
  const NeighborhoodProfile profile(segs, dist, grid);
  for (size_t g = 1; g < grid.size(); ++g) {
    const auto& prev = profile.SizesAt(g - 1);
    const auto& cur = profile.SizesAt(g);
    for (size_t i = 0; i < cur.size(); ++i) EXPECT_GE(cur[i], prev[i]);
  }
}

TEST(NeighborhoodProfileTest, TinyEpsGivesSingletonsLargeEpsGivesAll) {
  const auto segs = TwoBundlesAndNoise(3);
  const SegmentDistance dist;
  const NeighborhoodProfile profile(segs, dist, {1e-9, 1e9});
  for (const size_t s : profile.SizesAt(0)) EXPECT_EQ(s, 1u);
  for (const size_t s : profile.SizesAt(1)) EXPECT_EQ(s, segs.size());
  // §4.4: both extremes are near-uniform ⇒ entropy ≈ log2(n).
  const double h_max = std::log2(static_cast<double>(segs.size()));
  EXPECT_NEAR(profile.EntropyAt(0), h_max, 1e-9);
  EXPECT_NEAR(profile.EntropyAt(1), h_max, 1e-9);
}

TEST(NeighborhoodProfileTest, EntropyDipsAtClusterScale) {
  // The structured data set must have an interior entropy minimum well below
  // the uniform extremes — the §4.4 selection signal.
  const auto segs = TwoBundlesAndNoise(4);
  const SegmentDistance dist;
  std::vector<double> grid;
  for (int i = 1; i <= 60; ++i) grid.push_back(static_cast<double>(i));
  const NeighborhoodProfile profile(segs, dist, grid);
  const size_t best = profile.MinEntropyPosition();
  EXPECT_GT(best, 0u);
  EXPECT_LT(best, grid.size() - 1);
  const double h_max = std::log2(static_cast<double>(segs.size()));
  EXPECT_LT(profile.EntropyAt(best), h_max - 0.05);
}

TEST(NeighborhoodProfileTest, AvgNeighborhoodSizeMatchesCounts) {
  const auto segs = TwoBundlesAndNoise(5);
  const SegmentDistance dist;
  const NeighborhoodProfile profile(segs, dist, {5.0});
  const auto& sizes = profile.SizesAt(0);
  double sum = 0.0;
  for (const size_t s : sizes) sum += static_cast<double>(s);
  EXPECT_DOUBLE_EQ(profile.AvgNeighborhoodSizeAt(0), sum / sizes.size());
}

TEST(NeighborhoodProfileTest, BlockStreamedParallelPassIsIdentical) {
  // The parallel profile pass streams its count increments through bounded
  // blocks instead of staging threads × grid × n buffers; counts must be
  // identical to the serial pass for every thread count and block size,
  // down to block = 1.
  const auto segs = TwoBundlesAndNoise(8);
  const SegmentDistance dist;
  std::vector<double> grid;
  for (int i = 1; i <= 24; ++i) grid.push_back(0.75 * i);
  const NeighborhoodProfile serial(segs, dist, grid, /*num_threads=*/1);
  for (const int threads : {2, 4}) {
    for (const size_t block : {size_t{1}, size_t{3}, size_t{256}, size_t{0}}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, block "
                                      << block);
      const NeighborhoodProfile parallel(segs, dist, grid, threads, block);
      for (size_t g = 0; g < grid.size(); ++g) {
        ASSERT_EQ(parallel.SizesAt(g), serial.SizesAt(g)) << "grid " << g;
      }
    }
  }
}

TEST(SimulatedAnnealingTest, FindsMinimumOfConvexFunction) {
  AnnealingOptions opt;
  opt.lo = -10;
  opt.hi = 10;
  opt.iterations = 500;
  const auto r = Minimize1D([](double x) { return (x - 3) * (x - 3); }, opt);
  EXPECT_NEAR(r.best_x, 3.0, 0.3);
  EXPECT_LT(r.best_value, 0.1);
}

TEST(SimulatedAnnealingTest, EscapesLocalMinimum) {
  // Double well: local minimum at x ≈ -2 (value 1), global at x ≈ 2 (value 0).
  auto f = [](double x) {
    const double a = (x + 2) * (x + 2) + 1.0;
    const double b = (x - 2) * (x - 2);
    return std::min(a, b);
  };
  AnnealingOptions opt;
  opt.lo = -6;
  opt.hi = 6;
  opt.iterations = 800;
  opt.initial_temp = 2.0;
  const auto r = Minimize1D(f, opt);
  EXPECT_NEAR(r.best_x, 2.0, 0.5);
}

TEST(SimulatedAnnealingTest, DeterministicForFixedSeed) {
  AnnealingOptions opt;
  opt.lo = 0;
  opt.hi = 1;
  auto f = [](double x) { return std::sin(13 * x) + x; };
  const auto a = Minimize1D(f, opt);
  const auto b = Minimize1D(f, opt);
  EXPECT_DOUBLE_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
}

TEST(SimulatedAnnealingTest, StaysWithinBounds) {
  AnnealingOptions opt;
  opt.lo = 2.0;
  opt.hi = 3.0;
  opt.step_fraction = 2.0;  // Huge proposals force reflection.
  const auto r = Minimize1D([](double x) { return x; }, opt);
  EXPECT_GE(r.best_x, 2.0);
  EXPECT_LE(r.best_x, 3.0);
  EXPECT_NEAR(r.best_x, 2.0, 0.2);
}

TEST(ParameterHeuristicTest, RecoversClusterScaleEps) {
  const auto segs = TwoBundlesAndNoise(6);
  const SegmentDistance dist;
  HeuristicOptions opt;
  opt.eps_lo = 0.5;
  opt.eps_hi = 40.0;
  opt.grid_points = 80;
  const ParameterEstimate est = EstimateParameters(segs, dist, opt);
  // The bundles are ~3 units tall; the entropy-minimal ε must be at cluster
  // scale, far from both extremes.
  EXPECT_GT(est.eps, 0.5);
  EXPECT_LT(est.eps, 25.0);
  EXPECT_GT(est.avg_neighborhood_size, 1.0);
  EXPECT_DOUBLE_EQ(est.min_lns_low, est.avg_neighborhood_size + 1.0);
  EXPECT_DOUBLE_EQ(est.min_lns_high, est.avg_neighborhood_size + 3.0);
  EXPECT_EQ(est.grid_eps.size(), est.grid_entropy.size());
  EXPECT_EQ(est.grid_eps.size(), 80u);
}

TEST(ParameterHeuristicTest, SizesAndEstimateAreThreadCountIndependent) {
  const auto segs = TwoBundlesAndNoise(8);
  const SegmentDistance dist;
  const cluster::GridNeighborhoodIndex index(segs, dist);
  const cluster::BruteForceNeighborhood brute(segs, dist);
  for (const double eps : {0.5, 3.0, 12.0}) {
    const std::vector<size_t> serial = NeighborhoodSizes(index, eps, 1);
    EXPECT_EQ(NeighborhoodSizes(index, eps, 4), serial) << "eps " << eps;
    EXPECT_EQ(NeighborhoodSizes(brute, eps, 1), serial) << "eps " << eps;
    EXPECT_EQ(NeighborhoodSizes(brute, eps, 4), serial) << "eps " << eps;
  }

  HeuristicOptions opt;
  opt.eps_lo = 0.5;
  opt.eps_hi = 40.0;
  opt.grid_points = 40;
  opt.refine_with_annealing = true;
  opt.annealing.iterations = 100;
  opt.num_threads = 1;
  const ParameterEstimate one = EstimateParameters(segs, dist, opt);
  opt.num_threads = 4;
  const ParameterEstimate four = EstimateParameters(segs, dist, opt);
  EXPECT_EQ(one.eps, four.eps);
  EXPECT_EQ(one.entropy, four.entropy);
  EXPECT_EQ(one.avg_neighborhood_size, four.avg_neighborhood_size);
  EXPECT_EQ(one.grid_entropy, four.grid_entropy);
}

TEST(ParameterHeuristicTest, AnnealingRefinementDoesNotRegress) {
  const auto segs = TwoBundlesAndNoise(7);
  const SegmentDistance dist;
  HeuristicOptions grid_only;
  grid_only.eps_lo = 0.5;
  grid_only.eps_hi = 40.0;
  grid_only.grid_points = 40;
  const ParameterEstimate base = EstimateParameters(segs, dist, grid_only);

  HeuristicOptions refined = grid_only;
  refined.refine_with_annealing = true;
  refined.annealing.iterations = 100;
  const ParameterEstimate ref = EstimateParameters(segs, dist, refined);
  EXPECT_LE(ref.entropy, base.entropy + 1e-9);
}

}  // namespace
}  // namespace traclus::params
