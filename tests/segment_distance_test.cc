// Tests for the TRACLUS line-segment distance function (§2.3, Definitions 1-3)
// and the naive endpoint baselines (Appendix A).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "distance/endpoint_distance.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::distance {
namespace {

using geom::Point;
using geom::Segment;

// Worked example used throughout: Li horizontal (0,0)→(10,0), Lj = (2,2)→(5,4).
//   l⊥1 = 2, l⊥2 = 4            ⇒ d⊥ = (4 + 16) / (2 + 4) = 10/3
//   ps = (2,0) ⇒ l∥1 = 2; pe = (5,0) ⇒ l∥2 = 5 ⇒ d∥ = 2
//   sinθ = 2/√13, ‖Lj‖ = √13    ⇒ dθ = 2
class WorkedExampleTest : public ::testing::Test {
 protected:
  const Segment li_{Point(0, 0), Point(10, 0)};
  const Segment lj_{Point(2, 2), Point(5, 4)};
  const SegmentDistance dist_{};
};

TEST_F(WorkedExampleTest, PerpendicularIsLehmerMeanOfOrder2) {
  EXPECT_NEAR(dist_.Perpendicular(li_, lj_), 10.0 / 3.0, 1e-12);
}

TEST_F(WorkedExampleTest, ParallelIsMinOfProjectionGaps) {
  EXPECT_NEAR(dist_.Parallel(li_, lj_), 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, AngleIsShorterLengthTimesSine) {
  EXPECT_NEAR(dist_.Angle(li_, lj_), 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, TotalIsWeightedSum) {
  EXPECT_NEAR(dist_(li_, lj_), 10.0 / 3.0 + 2.0 + 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, ComponentsBundleMatchesIndividualCalls) {
  const DistanceComponents c = dist_.Components(li_, lj_);
  EXPECT_DOUBLE_EQ(c.perpendicular, dist_.Perpendicular(li_, lj_));
  EXPECT_DOUBLE_EQ(c.parallel, dist_.Parallel(li_, lj_));
  EXPECT_DOUBLE_EQ(c.angle, dist_.Angle(li_, lj_));
}

TEST_F(WorkedExampleTest, CustomWeightsScaleComponents) {
  SegmentDistanceConfig cfg;
  cfg.w_perpendicular = 2.0;
  cfg.w_parallel = 0.5;
  cfg.w_angle = 3.0;
  const SegmentDistance weighted(cfg);
  EXPECT_NEAR(weighted(li_, lj_), 2.0 * 10.0 / 3.0 + 0.5 * 2.0 + 3.0 * 2.0,
              1e-12);
}

TEST(SegmentDistanceTest, IdenticalSegmentsHaveZeroDistance) {
  const Segment s(Point(3, 4), Point(8, 1));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist(s, s), 0.0);
}

TEST(SegmentDistanceTest, EnclosedParallelSegmentUsesNearestEndpointGap) {
  // Lj strictly inside Li's span, offset by 1 vertically.
  const Segment li(Point(0, 0), Point(100, 0));
  const Segment lj(Point(40, 1), Point(60, 1));
  const SegmentDistance dist;
  EXPECT_NEAR(dist.Perpendicular(li, lj), 1.0, 1e-12);
  // ps=(40,0): min(40,60)=40; pe=(60,0): min(60,40)=40 ⇒ d∥ = 40.
  EXPECT_NEAR(dist.Parallel(li, lj), 40.0, 1e-12);
  EXPECT_NEAR(dist.Angle(li, lj), 0.0, 1e-12);
}

TEST(SegmentDistanceTest, AdjacentSegmentsOfATrajectoryHaveZeroParallel) {
  // §4.1.1: "the parallel distance between two adjacent line segments in a
  // trajectory is always zero" — they share an endpoint, so one projection gap
  // is zero.
  const Segment a(Point(0, 0), Point(10, 0));
  const Segment b(Point(10, 0), Point(15, 7));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Parallel(a, b), 0.0);
}

TEST(SegmentDistanceTest, DirectedAngleUsesFullLengthBeyond90Degrees) {
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment opposite(Point(5, 1), Point(1, 1));  // θ = 180°.
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Angle(li, opposite), 4.0);  // ‖Lj‖.

  const Segment backward_diag(Point(5, 1), Point(2, 4));  // θ = 135°.
  EXPECT_DOUBLE_EQ(dist.Angle(li, backward_diag), backward_diag.Length());
}

TEST(SegmentDistanceTest, UndirectedAngleFoldsBeyond90Degrees) {
  SegmentDistanceConfig cfg;
  cfg.directed = false;
  const SegmentDistance dist(cfg);
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment opposite(Point(5, 1), Point(1, 1));  // θ = 180° folds to 0°.
  EXPECT_NEAR(dist.Angle(li, opposite), 0.0, 1e-12);

  const Segment backward_diag(Point(5, 1), Point(2, 4));  // 135° folds to 45°.
  EXPECT_NEAR(dist.Angle(li, backward_diag),
              backward_diag.Length() * std::sin(M_PI / 4), 1e-12);
}

TEST(SegmentDistanceTest, PointLikeSegmentHasZeroAngle) {
  // §4.1.3: a very short segment has no directional strength; the limit case
  // (zero length) must contribute zero angle distance, not NaN.
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment pt(Point(5, 3), Point(5, 3));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Angle(li, pt), 0.0);
  EXPECT_TRUE(std::isfinite(dist(li, pt)));
}

TEST(SegmentDistanceTest, ShortSegmentShrinksAngleDistanceFig11) {
  // Fig. 11: with L1 and L3 at a fixed mutual angle, a very short connector L2
  // yields small dθ to both, while a long L2 yields large dθ — the
  // over-clustering hazard the partition-suppression heuristic addresses.
  const Segment l1(Point(0, 0), Point(10, 0));
  const Segment short_l2(Point(11, 0.5), Point(11.5, 1.0));
  const Segment long_l2(Point(11, 0.5), Point(16, 5.5));
  const SegmentDistance dist;
  EXPECT_LT(dist.Angle(l1, short_l2), 0.51);
  EXPECT_GT(dist.Angle(l1, long_l2), 4.9);
}

// --- Symmetry (Lemma 2) as a parameterized property over random pairs. ---

class SymmetryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymmetryPropertyTest, DistanceIsSymmetric) {
  common::Rng rng(GetParam());
  const SegmentDistance dist;
  SegmentDistanceConfig undirected_cfg;
  undirected_cfg.directed = false;
  const SegmentDistance undirected(undirected_cfg);
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              /*id=*/2 * i, /*trajectory_id=*/0);
    Segment b(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              /*id=*/2 * i + 1, /*trajectory_id=*/1);
    EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a)) << a.ToString() << " / "
                                             << b.ToString();
    EXPECT_DOUBLE_EQ(undirected(a, b), undirected(b, a));
  }
}

TEST_P(SymmetryPropertyTest, EqualLengthTieBreakIsStillSymmetric) {
  // Equal-length pairs exercise the id / lexicographic tie-breaks.
  common::Rng rng(GetParam() + 1000);
  const SegmentDistance dist;
  for (int i = 0; i < 100; ++i) {
    const Point s1(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    const Point s2(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    const double angle1 = rng.Uniform(0, 2 * M_PI);
    const double angle2 = rng.Uniform(0, 2 * M_PI);
    const double len = rng.Uniform(0.5, 10.0);
    Segment a(s1, s1 + Point(std::cos(angle1), std::sin(angle1)) * len);
    Segment b(s2, s2 + Point(std::cos(angle2), std::sin(angle2)) * len);
    EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  }
}

TEST_P(SymmetryPropertyTest, ComponentsAreNonNegativeAndFinite) {
  common::Rng rng(GetParam() + 2000);
  const SegmentDistance dist;
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)));
    Segment b(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)));
    const DistanceComponents c = dist.Components(a, b);
    EXPECT_GE(c.perpendicular, 0.0);
    EXPECT_GE(c.parallel, 0.0);
    EXPECT_GE(c.angle, 0.0);
    EXPECT_TRUE(std::isfinite(c.perpendicular));
    EXPECT_TRUE(std::isfinite(c.parallel));
    EXPECT_TRUE(std::isfinite(c.angle));
  }
}

TEST_P(SymmetryPropertyTest, LowerBoundHoldsForRandomWeights) {
  // DESIGN.md §4.1: dist ≥ min(w⊥/2, w∥) · EuclideanSegmentDistance — the
  // inequality that makes exact grid-index pruning possible.
  common::Rng rng(GetParam() + 3000);
  for (int i = 0; i < 100; ++i) {
    SegmentDistanceConfig cfg;
    cfg.w_perpendicular = rng.Uniform(0.1, 3.0);
    cfg.w_parallel = rng.Uniform(0.1, 3.0);
    cfg.w_angle = rng.Uniform(0.0, 3.0);
    cfg.directed = rng.Bernoulli(0.5);
    const SegmentDistance dist(cfg);
    Segment a(Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)),
              Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)));
    Segment b(Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)),
              Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)));
    const double lower =
        dist.LowerBoundFactor() * geom::SegmentToSegmentDistance(a, b);
    EXPECT_GE(dist(a, b), lower - 1e-9)
        << a.ToString() << " / " << b.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetryPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(SegmentDistanceTest, TriangleInequalityCanFail) {
  // §4.2: the distance is not a metric. Collinear chain: L2 touches both L1 and
  // L3 (distance 0 each) while L1 and L3 are 10 apart.
  const SegmentDistance dist;
  const Segment l1(Point(0, 0), Point(10, 0));
  const Segment l2(Point(10, 0), Point(20, 0));
  const Segment l3(Point(20, 0), Point(30, 0));
  EXPECT_DOUBLE_EQ(dist(l1, l2), 0.0);
  EXPECT_DOUBLE_EQ(dist(l2, l3), 0.0);
  EXPECT_GT(dist(l1, l3), dist(l1, l2) + dist(l2, l3));
}

TEST(SegmentDistanceTest, ThreeDimensionalSegmentsSupported) {
  const SegmentDistance dist;
  const Segment a(Point(0, 0, 0), Point(10, 0, 0));
  const Segment b(Point(2, 3, 4), Point(7, 3, 4));
  const DistanceComponents c = dist.Components(a, b);
  EXPECT_NEAR(c.perpendicular, 5.0, 1e-12);  // Both offsets are √(9+16) = 5.
  EXPECT_NEAR(c.angle, 0.0, 1e-12);
  EXPECT_NEAR(c.parallel, 2.0, 1e-12);  // ps=(2,0,0) → min(2, 8) = 2.
}

TEST(SegmentDistanceTest, TranslationInvariance) {
  common::Rng rng(77);
  const SegmentDistance dist;
  for (int i = 0; i < 50; ++i) {
    const Point shift(rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000));
    Segment a(Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)),
              Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)));
    Segment b(Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)),
              Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)));
    Segment a2(a.start() + shift, a.end() + shift);
    Segment b2(b.start() + shift, b.end() + shift);
    EXPECT_NEAR(dist(a, b), dist(a2, b2), 1e-7);
  }
}

// --- Appendix A baselines. ---

TEST(EndpointDistanceTest, AppendixAExampleNaiveMeasureCannotRank) {
  const Segment l1(Point(0, 0), Point(200, 0));
  const Segment l2(Point(100, 100), Point(300, 100));
  const Segment l3(Point(100, 100), Point(200, 200));
  // Both nearest-endpoint sums are exactly 200·√2 — the naive measure ties.
  const double expected = 200.0 * std::sqrt(2.0);
  EXPECT_NEAR(DirectedNearestEndpointSum(l1, l2), expected, 1e-9);
  EXPECT_NEAR(DirectedNearestEndpointSum(l1, l3), expected, 1e-9);
  // The TRACLUS distance ranks L2 (parallel) closer than L3 (45° rotated).
  const SegmentDistance dist;
  EXPECT_LT(dist(l1, l2), dist(l1, l3));
}

TEST(EndpointDistanceTest, CorrespondingSumIsOrientationInsensitive) {
  const Segment a(Point(0, 0), Point(10, 0));
  const Segment b(Point(10, 1), Point(0, 1));  // Reversed parallel.
  EXPECT_NEAR(EndpointSumDistance(a, b), 2.0, 1e-12);
}

TEST(EndpointDistanceTest, SymmetrizedNearestEndpointIsSymmetric) {
  common::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)),
              Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)));
    Segment b(Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)),
              Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)));
    EXPECT_DOUBLE_EQ(NearestEndpointSumDistance(a, b),
                     NearestEndpointSumDistance(b, a));
  }
}

TEST(EndpointDistanceTest, IdenticalSegmentsAreZeroUnderAllMeasures) {
  const Segment s(Point(1, 2), Point(3, 4));
  EXPECT_DOUBLE_EQ(EndpointSumDistance(s, s), 0.0);
  EXPECT_DOUBLE_EQ(NearestEndpointSumDistance(s, s), 0.0);
}

// --- Batched kernels (distance/batch_kernels.h): bitwise equality with the
// --- cached pair path, refine equivalence at every block size, and prune
// --- admissibility.

// Adversarial segment corpus: general-position, degenerate (point-like),
// exactly tied lengths (translates, with and without usable ids), shared
// endpoints, and collinear chains — every branch of the canonical kernel.
traj::SegmentStore AdversarialStore(uint64_t seed, bool three_d) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  auto random_point = [&](double lo, double hi) {
    return three_d ? Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi),
                           rng.Uniform(lo, hi))
                   : Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi));
  };
  const auto id_of = [&](size_t k) {
    // A sprinkle of -1 ids forces the lexicographic tie-break path.
    return k % 7 == 3 ? geom::SegmentId{-1}
                      : static_cast<geom::SegmentId>(k);
  };
  // General position.
  for (int i = 0; i < 40; ++i) {
    segs.emplace_back(random_point(-50, 50), random_point(-50, 50),
                      id_of(segs.size()),
                      static_cast<geom::TrajectoryId>(i % 5));
  }
  // Point-like (zero-length) segments.
  for (int i = 0; i < 6; ++i) {
    const Point p = random_point(-50, 50);
    segs.emplace_back(p, p, id_of(segs.size()), 0);
  }
  // Exact translates: identical FP lengths, so the Lemma 2 tie-breaks fire.
  for (int i = 0; i < 6; ++i) {
    const Point s = random_point(-40, 40);
    const Point d = random_point(-5, 5);
    const Point shift = random_point(-20, 20);
    segs.emplace_back(s, s + d, id_of(segs.size()), 1);
    segs.emplace_back(s + shift, s + shift + d, id_of(segs.size()), 2);
  }
  // Shared endpoints / collinear chain (zero parallel / zero perpendicular
  // regimes).
  const Point base = random_point(-10, 10);
  const Point step = three_d ? Point(7, 0, 0) : Point(7, 0);
  for (int i = 0; i < 5; ++i) {
    segs.emplace_back(base + step * static_cast<double>(i),
                      base + step * static_cast<double>(i + 1),
                      id_of(segs.size()), 3);
  }
  return traj::SegmentStore(std::move(segs));
}

std::vector<SegmentDistanceConfig> KernelTestConfigs() {
  SegmentDistanceConfig defaults;
  SegmentDistanceConfig undirected;
  undirected.directed = false;
  SegmentDistanceConfig weighted;
  weighted.w_perpendicular = 2.5;
  weighted.w_parallel = 0.25;
  weighted.w_angle = 1.75;
  SegmentDistanceConfig no_bound;  // LowerBoundFactor == 0: prune disabled.
  no_bound.w_parallel = 0.0;
  return {defaults, undirected, weighted, no_bound};
}

std::vector<BatchKernel> AvailableKernels() {
  std::vector<BatchKernel> kernels = {BatchKernel::kScalar};
  if (SimdAvailable()) kernels.push_back(BatchKernel::kSimd);
  return kernels;
}

// Bit-level equality matters: EXPECT_EQ on doubles would treat -0.0 == +0.0
// and NaN != NaN; the kernels promise the same bit pattern.
void ExpectBitEqual(double a, double b, const char* what, size_t q, size_t j) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ab, bb) << what << " mismatch at pair (" << q << ", " << j
                    << "): " << a << " vs " << b;
}

// Chunk-local store over segments [lo, hi) of `store` — what a
// ChunkedSegmentStore hands the two-store kernels for one chunk.
traj::SegmentStore ChunkStore(const traj::SegmentStore& store, size_t lo,
                              size_t hi) {
  return traj::SegmentStore::FromSegments(std::vector<Segment>(
      store.segments().begin() + static_cast<std::ptrdiff_t>(lo),
      store.segments().begin() + static_cast<std::ptrdiff_t>(hi)));
}

TEST(BatchKernelTest, DistanceBatchBitIdenticalToCachedPairPath) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(19, three_d);
    const size_t n = store.size();
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const BatchKernel kernel : AvailableKernels()) {
        std::vector<double> out(n);
        for (size_t q = 0; q < n; ++q) {
          DistanceBatch(store, dist, q,
                        common::Span<const size_t>(all.data(), n),
                        common::Span<double>(out.data(), n), kernel);
          for (size_t j = 0; j < n; ++j) {
            ExpectBitEqual(out[j], dist(store, q, j),
                           BatchKernelName(kernel), q, j);
          }
        }
      }
    }
  }
}

// AdversarialStore plus the pairs on which the Lemma 2 role decision
// (internal::CrossCanonicalSwap) is not antisymmetric, so each direction
// keeps its own query as Li: equal lengths with endpoints that compare equal
// and ids that cannot break the tie, and NaN lengths. Also exact duplicates
// and infinite segments.
traj::SegmentStore SymmetryStore(uint64_t seed, bool three_d) {
  std::vector<Segment> segs = AdversarialStore(seed, three_d).segments();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto pt = [three_d](double x, double y) {
    return three_d ? Point(x, y, -0.0) : Point(x, y);
  };
  const auto add = [&segs](const Point& s, const Point& e,
                           geom::SegmentId id) {
    segs.emplace_back(s, e, id, 4);
  };
  // Id −1 and endpoints that differ only by +0.0 / −0.0.
  add(pt(0.0, 1.0), pt(2.0, 0.0), -1);
  add(pt(-0.0, 1.0), pt(2.0, -0.0), -1);
  add(pt(0.0, -0.0), pt(0.0, 3.0), -1);
  add(pt(-0.0, 0.0), pt(-0.0, 3.0), -1);
  add(pt(0.0, 0.0), pt(0.0, 0.0), -1);
  add(pt(-0.0, -0.0), pt(-0.0, -0.0), -1);
  // Exact duplicates: under one id, under −1 and under distinct ids.
  for (const geom::SegmentId id : {geom::SegmentId{900}, geom::SegmentId{900},
                                   geom::SegmentId{-1}, geom::SegmentId{-1},
                                   geom::SegmentId{901}, geom::SegmentId{902}}) {
    add(pt(3.0, 4.0), pt(5.5, 1.25), id);
  }
  // NaN and ±inf coordinates: NaN lengths (a NaN coordinate, or inf − inf
  // along an axis) and infinite ones, some tied under id −1.
  add(pt(nan, 1.0), pt(2.0, 3.0), -1);
  add(pt(1.0, 2.0), pt(1.0, nan), 910);
  add(pt(-inf, 0.0), pt(-inf, 1.0), -1);
  add(pt(inf, 0.0), pt(inf, 0.0), 911);
  add(pt(0.0, inf), pt(0.0, -inf), -1);
  add(pt(1.0, -inf), pt(1.0, inf), -1);
  add(pt(inf, 2.0), pt(4.0, 2.0), 912);
  add(pt(-inf, -inf), pt(0.0, 0.0), -1);
  return traj::SegmentStore(std::move(segs));
}

// The premise of the symmetric ε-join (cluster::TileJoin refines each
// unordered pair once): dist(i, j) and dist(j, i) are bit-equal (any two
// NaNs match), and every kernel's ≤ ε decision agrees in both directions.
TEST(BatchKernelTest, DistanceAndRefineAreSymmetricInThePair) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = SymmetryStore(73, three_d);
    const size_t n = store.size();
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < i; ++j) {
          const double ij = dist(store, i, j);
          const double ji = dist(store, j, i);
          if (std::isnan(ij) && std::isnan(ji)) continue;
          ExpectBitEqual(ij, ji, "dist(i, j) vs dist(j, i)", i, j);
        }
      }
      for (const BatchKernel kernel : AvailableKernels()) {
        BatchOptions options;
        options.kernel = kernel;
        for (const double eps : {0.0, 0.5, 3.0, 20.0, dist(store, 3, 11)}) {
          std::vector<std::vector<char>> within(n, std::vector<char>(n, 0));
          std::vector<size_t> out;
          const IndexRun everything{0, n};
          for (size_t q = 0; q < n; ++q) {
            out.clear();
            EpsilonRefineRuns(store, dist, q, store, {&everything, 1}, eps, 0,
                              out, options);
            for (const size_t j : out) within[q][j] = 1;
          }
          for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < i; ++j) {
              EXPECT_EQ(within[i][j], within[j][i])
                  << BatchKernelName(kernel) << " eps " << eps << " pair ("
                  << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, EpsilonRefineMatchesPerPairLoopAtEveryBlockSize) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(29, three_d);
    const size_t n = store.size();
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    // The same database cut into three chunk-local stores, for the
    // two-store entry points.
    const std::vector<size_t> bounds = {0, n / 3, 2 * n / 3, n};
    std::vector<traj::SegmentStore> chunks;
    for (size_t c = 0; c + 1 < bounds.size(); ++c) {
      chunks.push_back(ChunkStore(store, bounds[c], bounds[c + 1]));
    }
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const double eps : {0.01, 2.0, 9.0, 40.0}) {
        for (size_t q = 0; q < n; q += 3) {
          // The reference: the per-pair cached path, candidate order kept.
          std::vector<size_t> expect;
          for (const size_t j : all) {
            if (j == q || dist(store, q, j) <= eps) expect.push_back(j);
          }
          // The two-store refines never see the query among the candidates
          // (their contract), so they must reproduce `expect` minus q.
          std::vector<size_t> expect_cross;
          for (const size_t j : expect) {
            if (j != q) expect_cross.push_back(j);
          }
          size_t qc = 0;
          while (q >= bounds[qc + 1]) ++qc;
          const size_t q_local = q - bounds[qc];
          for (const BatchKernel kernel : AvailableKernels()) {
            for (const size_t block : {size_t{1}, size_t{2}, size_t{3},
                                       size_t{7}, size_t{256}}) {
              BatchOptions options;
              options.kernel = kernel;
              options.block = block;
              std::vector<size_t> got;
              RefineStats stats;
              const IndexRun everything{0, n};
              EpsilonRefineRuns(store, dist, q, store, {&everything, 1}, eps,
                                0, got, options, &stats);
              EXPECT_EQ(got, expect)
                  << BatchKernelName(kernel) << " block " << block << " eps "
                  << eps << " query " << q;
              EXPECT_EQ(stats.candidates, n);
              EXPECT_EQ(stats.pruned + stats.refined, n);
              EXPECT_EQ(stats.accepted, got.size());

              // One store as runs: three ranges covering it (the middle one
              // empty) reproduce the single-run refine, self included.
              std::vector<size_t> got_runs;
              RefineStats runs_stats;
              const IndexRun thirds[] = {{0, n / 3}, {n / 3, n / 3},
                                         {n / 3, n}};
              EpsilonRefineRuns(store, dist, q, store, {thirds, 3}, eps, 0,
                                got_runs, options, &runs_stats);
              EXPECT_EQ(got_runs, expect)
                  << "runs " << BatchKernelName(kernel) << " block " << block
                  << " eps " << eps << " query " << q;
              EXPECT_EQ(runs_stats.candidates, stats.candidates);
              EXPECT_EQ(runs_stats.pruned, stats.pruned);
              EXPECT_EQ(runs_stats.refined, stats.refined);
              EXPECT_EQ(runs_stats.accepted, stats.accepted);

              // Query from its chunk, candidates chunk by chunk, shifted by
              // out_base = the chunk's first global index: once as runs
              // split around the query, once cut into runs of at most 5.
              std::vector<size_t> got_list, got_range;
              RefineStats list_stats, range_stats;
              for (size_t c = 0; c < chunks.size(); ++c) {
                const size_t len = chunks[c].size();
                const bool own = c == qc;
                const size_t split = own ? q_local : len;
                std::vector<IndexRun> pieces;
                for (size_t j = 0; j < len; j += 5) {
                  const size_t end = std::min(len, j + 5);
                  if (j <= split && split < end) {
                    pieces.push_back({j, split});
                    pieces.push_back({split + 1, end});
                  } else {
                    pieces.push_back({j, end});
                  }
                }
                EpsilonRefineRuns(chunks[qc], dist, q_local, chunks[c],
                                  {pieces.data(), pieces.size()}, eps,
                                  bounds[c], got_list, options, &list_stats);
                const IndexRun around[] = {{0, split},
                                           {std::min(split + 1, len), len}};
                EpsilonRefineRuns(chunks[qc], dist, q_local, chunks[c],
                                  {around, 2}, eps, bounds[c], got_range,
                                  options, &range_stats);
              }
              EXPECT_EQ(got_list, expect_cross)
                  << "cross-pieces " << BatchKernelName(kernel) << " block "
                  << block
                  << " eps " << eps << " query " << q;
              EXPECT_EQ(got_range, expect_cross)
                  << "cross-runs " << BatchKernelName(kernel) << " block "
                  << block << " eps " << eps << " query " << q;
              for (const RefineStats& cross : {list_stats, range_stats}) {
                EXPECT_EQ(cross.candidates, n - 1);
                EXPECT_EQ(cross.pruned, stats.pruned);
                EXPECT_EQ(cross.refined, stats.refined - 1);
                EXPECT_EQ(cross.accepted, expect_cross.size());
              }
            }
          }
        }
      }
    }
  }
}

// `x` moved by `steps` ulps (down for a negative count).
double Ulps(double x, int steps) {
  const double toward = steps < 0 ? -std::numeric_limits<double>::infinity()
                                  : std::numeric_limits<double>::infinity();
  for (int k = 0; k < std::abs(steps); ++k) x = std::nextafter(x, toward);
  return x;
}

// The perpendicular stage's edge cases, at the origin and translated by 10⁶
// and 10⁹, where the kernel's projection and the stage's cross products
// cancel at the scale of the coordinates (at 10⁹ the two drift about 10⁻⁷
// apart, which only the perpendicular margin covers when wθ = 0). A segment
// Li of length 10 along a direction (3-4-5 and 7-24-25 slopes, a 10⁻⁹ rad
// tilt; out of the plane in 3-D), and beside it
//   * parallel followers of length 4 level with Li's start, offset sideways
//     by exactly 1, by 1 ± 1, 2 and 4 ulps, and by 1.25, 1.5 and 1.75, and
//     one level with Li's end: d∥ = 0 and l⊥1 = l⊥2, so the stage's bound
//     w⊥·d⊥ is the whole distance;
//   * collinear ones (d⊥ = 0): from Li's start (distance 0), inside Li
//     (d∥ = 3) and past its end (d∥ = 1);
//   * an equal-length copy offset by 1, and zero-length segments beside Li
//     and on it.
// Ids continue from segs.size().
void AddPerpEdgeSegments(bool three_d, std::vector<Segment>& segs) {
  const auto add = [&segs](const Point& s, const Point& e) {
    segs.emplace_back(s, e, static_cast<geom::SegmentId>(segs.size()),
                      static_cast<geom::TrajectoryId>(segs.size() % 3));
  };
  struct Frame {
    Point dir;     // Unit direction of Li.
    Point normal;  // Unit, orthogonal to dir.
  };
  const std::vector<Frame> frames =
      three_d
          ? std::vector<Frame>{{Point(0.48, 0.6, 0.64), Point(-0.8, 0, 0.6)},
                               {Point(0.28, 0, 0.96), Point(0, 1, 0)},
                               {Point(0.6, 1e-9, 0.8), Point(-0.8, 0, 0.6)}}
          : std::vector<Frame>{{Point(0.6, 0.8), Point(-0.8, 0.6)},
                               {Point(0.28, 0.96), Point(-0.96, 0.28)},
                               {Point(1, 1e-9), Point(-1e-9, 1)}};
  for (const double t : {0.0, 1e6, 1e9}) {
    const Point s = three_d ? Point(t, t, t) : Point(t, t);
    for (const Frame& f : frames) {
      add(s, s + f.dir * 10.0);
      for (const double offset :
           {1.0, Ulps(1.0, -1), Ulps(1.0, -2), Ulps(1.0, -4), Ulps(1.0, 1),
            Ulps(1.0, 2), Ulps(1.0, 4), 1.25, 1.5, 1.75}) {
        const Point start = s + f.normal * offset;
        add(start, start + f.dir * 4.0);
      }
      const Point beside = s + f.normal * 1.25;
      add(beside + f.dir * 6.0, beside + f.dir * 10.0);
      add(s, s + f.dir * 4.0);
      add(s + f.dir * 3.0, s + f.dir * 7.0);
      add(s + f.dir * 11.0, s + f.dir * 14.0);
      add(s + f.normal, s + f.normal + f.dir * 10.0);
      add(s + f.normal + f.dir * 5.0, s + f.normal + f.dir * 5.0);
      add(s + f.dir * 5.0, s + f.dir * 5.0);
    }
  }
}

traj::SegmentStore PerpEdgeStore(bool three_d) {
  std::vector<Segment> segs;
  AddPerpEdgeSegments(three_d, segs);
  return traj::SegmentStore(std::move(segs));
}

TEST(BatchKernelTest, PruneIsAdmissible) {
  // The three-stage bound must NEVER prune a true ε-neighbor: whenever the
  // predicate fires, the exact distance must exceed ε, and no pair is
  // pruned at ε equal to its own distance. Swept over the adversarial
  // corpus and the perpendicular stage's edge cases, random weight
  // configurations (the last two trials with w∥ = 0, where c = 0 and only
  // the angle and perpendicular terms prune, and with wθ = 0), and an ε
  // ladder.
  common::Rng rng(41);
  for (const bool three_d : {false, true}) {
    for (const traj::SegmentStore& store :
         {AdversarialStore(37, three_d), PerpEdgeStore(three_d)}) {
      const size_t n = store.size();
      for (int trial = 0; trial < 10; ++trial) {
        SegmentDistanceConfig cfg;
        cfg.w_perpendicular = rng.Uniform(0.05, 3.0);
        cfg.w_parallel = trial == 8 ? 0.0 : rng.Uniform(0.05, 3.0);
        cfg.w_angle = trial == 9 ? 0.0 : rng.Uniform(0.0, 3.0);
        cfg.directed = rng.Bernoulli(0.5);
        const SegmentDistance dist(cfg);
        for (size_t q = 0; q < n; ++q) {
          for (size_t j = 0; j < n; ++j) {
            const double exact = dist(store, q, j);
            EXPECT_FALSE(PruneProvablyFar(store, dist, q, j, exact))
                << "pruned (" << q << ", " << j << ") at eps = its distance";
          }
        }
        for (const double eps : {0.01, 1.0, 5.0, 25.0, 120.0}) {
          size_t pruned = 0;
          for (size_t q = 0; q < n; ++q) {
            for (size_t j = 0; j < n; ++j) {
              if (!PruneProvablyFar(store, dist, q, j, eps)) continue;
              ++pruned;
              EXPECT_GT(dist(store, q, j), eps)
                  << "inadmissible prune at (" << q << ", " << j << ") eps "
                  << eps;
            }
          }
          // The sweep must actually exercise the prune somewhere.
          if (eps <= 1.0) {
            EXPECT_GT(pruned, 0u);
          }
        }
      }
    }
  }
}

// The angle stage's edge cases: directions at 0°, 10⁻⁹ rad (where the
// kernel's 1 − cos² cancels to 0 but |d_q × d_j| does not), 45°, exactly
// 90°, 135° and exactly 180° (antiparallel); zero-length and equal-length
// segments; short and long ones; nearly collinear neighbors whose
// midpoint bound is tight. 2-D or 3-D (the 3-D set tilts a copy of each
// segment out of the plane, so the cross product has all three components).
// The perpendicular stage's edge cases (AddPerpEdgeSegments) ride along.
traj::SegmentStore AngleEdgeStore(bool three_d) {
  std::vector<Segment> segs;
  const auto pt = [three_d](double x, double y, double z) {
    return three_d ? Point(x, y, z) : Point(x, y);
  };
  const auto add = [&](const Point& s, const Point& e) {
    segs.emplace_back(s, e, static_cast<geom::SegmentId>(segs.size()),
                      static_cast<geom::TrajectoryId>(segs.size() % 3));
  };
  const double pi = std::acos(-1.0);
  for (const double len : {0.0, 1.0, 3.0, 1000.0}) {
    for (const double angle : {0.0, 1e-9, pi / 4, pi / 2, 3 * pi / 4, pi}) {
      for (const double shift : {0.0, 0.5, 2.0}) {
        const double x = std::cos(angle) * len;
        const double y = angle == pi / 2 ? len : std::sin(angle) * len;
        add(pt(shift, shift, 0.0), pt(shift + x, shift + y, 0.0));
        if (three_d) {
          add(pt(shift, 0.0, shift), pt(shift + x, 0.25 * y, shift + y));
        }
      }
    }
  }
  // Exact axis-aligned right angles and reversals, equal lengths.
  add(pt(0, 0, 0), pt(2, 0, 0));
  add(pt(0, 0, 0), pt(0, 2, 0));
  add(pt(2, 0, 0), pt(0, 0, 0));
  add(pt(5, 1, 0), pt(5, 3, 0));
  // A long segment and nearly collinear followers past its end: the
  // followers tilt by 10⁻⁹ rad, so the kernel's dθ is 0 while A/L is about
  // 10⁻⁶, with w∥ = c the bound is tight, and only the angle margin keeps
  // such a pair (at ε = its distance) from being pruned.
  add(pt(0, 0, 0), pt(1000, 0, 0));
  for (const double gap : {0.25, 1.0, 4.0}) {
    add(pt(1000 + gap, 0, 0), pt(2000 + gap, 1e-6, 0));
    add(pt(1000 + gap, 0, 0), pt(2000 + gap, 0, 1e-6));
  }
  AddPerpEdgeSegments(three_d, segs);
  return traj::SegmentStore(std::move(segs));
}

std::vector<SegmentDistanceConfig> AngleEdgeConfigs() {
  std::vector<SegmentDistanceConfig> configs;
  for (const bool directed : {true, false}) {
    SegmentDistanceConfig defaults;
    defaults.directed = directed;
    SegmentDistanceConfig tight = defaults;  // c = w∥ = 1, wθ > w⊥.
    tight.w_perpendicular = 2.0;
    tight.w_angle = 3.0;
    SegmentDistanceConfig no_angle = defaults;
    no_angle.w_angle = 0.0;
    SegmentDistanceConfig no_parallel = defaults;  // c = 0.
    no_parallel.w_parallel = 0.0;
    SegmentDistanceConfig no_perpendicular = defaults;  // c = 0.
    no_perpendicular.w_perpendicular = 0.0;
    no_perpendicular.w_angle = 4.0;
    for (const SegmentDistanceConfig& cfg :
         {defaults, tight, no_angle, no_parallel, no_perpendicular}) {
      configs.push_back(cfg);
    }
  }
  return configs;
}

TEST(BatchKernelTest, PruneIsAdmissibleOnAngleEdgeCases) {
  // The three-stage prune never prunes a pair within ε — in particular a
  // pair at ε equal to its own exact distance, which on the parallel
  // followers at 1 ± ulps is the perpendicular stage's bound itself — and
  // the later stages do prune (with c = 0, where stage 1 cannot, too).
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AngleEdgeStore(three_d);
    const size_t n = store.size();
    for (const SegmentDistanceConfig& cfg : AngleEdgeConfigs()) {
      const SegmentDistance dist(cfg);
      SCOPED_TRACE(testing::Message()
                   << (three_d ? "3-D" : "2-D") << " w " << cfg.w_perpendicular
                   << "/" << cfg.w_parallel << "/" << cfg.w_angle
                   << (cfg.directed ? " directed" : " undirected"));
      size_t pruned = 0;
      for (size_t q = 0; q < n; ++q) {
        EXPECT_FALSE(PruneProvablyFar(store, dist, q, q, 0.0));
        for (size_t j = 0; j < n; ++j) {
          const double exact = dist(store, q, j);
          EXPECT_FALSE(PruneProvablyFar(store, dist, q, j, exact))
              << "pruned (" << q << ", " << j << ") at eps = its distance "
              << exact;
          for (const double eps : {0.0, 0.1, 1.0, 10.0}) {
            if (!PruneProvablyFar(store, dist, q, j, eps)) continue;
            ++pruned;
            EXPECT_GT(exact, eps) << "inadmissible prune at (" << q << ", "
                                  << j << ") eps " << eps;
          }
        }
      }
      if (cfg.w_angle > 0.0) {
        EXPECT_GT(pruned, 0u);
      }
    }
  }
}

TEST(BatchKernelTest, PerpendicularStagePrunesOffsetParallels) {
  // Li of length 10 and a parallel follower of length 4 starting level with
  // it, 1 to the side: the distance is w⊥·1. Their midpoints are √10 apart
  // against half-lengths summing to 7, and the angle term is 0, so stages 1
  // and 2 prove nothing; the perpendicular stage prunes the pair at ε = 0.5
  // in both orders, at the origin and translated by 10⁶ and 10⁹, but never
  // at ε = its distance. An equal-length follower is the same distance
  // away, and tied lengths leave this stage out.
  for (const bool three_d : {false, true}) {
    for (const double t : {0.0, 1e6, 1e9}) {
      const auto pt = [three_d, t](double x, double y) {
        return three_d ? Point(t + x, t + y, t) : Point(t + x, t + y);
      };
      const traj::SegmentStore store({Segment(pt(0, 0), pt(10, 0), 0, 0),
                                      Segment(pt(0, 1), pt(4, 1), 1, 1),
                                      Segment(pt(0, 1), pt(10, 1), 2, 2)});
      for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
        const SegmentDistance dist(cfg);
        SCOPED_TRACE(testing::Message()
                     << (three_d ? "3-D" : "2-D") << " t " << t << " w "
                     << cfg.w_perpendicular << "/" << cfg.w_parallel << "/"
                     << cfg.w_angle);
        const double eps = 0.5 * cfg.w_perpendicular;
        EXPECT_TRUE(PruneProvablyFar(store, dist, 0, 1, eps));
        EXPECT_TRUE(PruneProvablyFar(store, dist, 1, 0, eps));
        EXPECT_FALSE(PruneProvablyFar(store, dist, 0, 2, eps));
        EXPECT_GT(dist(store, 0, 2), eps);
        for (size_t a = 0; a < 3; ++a) {
          for (size_t b = 0; b < 3; ++b) {
            EXPECT_FALSE(
                PruneProvablyFar(store, dist, a, b, dist(store, a, b)))
                << a << " " << b;
          }
        }
      }
    }
  }
}

// Runs of every length mod 4 over a store, split unevenly.
std::vector<IndexRun> RaggedRuns(size_t n) {
  std::vector<IndexRun> runs;
  size_t first = 0;
  for (size_t len = 1; first < n; len = len % 7 + 1) {
    const size_t last = std::min(n, first + len + 2);
    runs.push_back({first, last});
    first = last + (len % 3 == 0 ? 1 : 0);  // Skip a position now and then.
  }
  return runs;
}

TEST(BatchKernelTest, PruneLoopsKeepIdenticalSurvivors) {
  // The AVX2 and scalar prune loops keep the same survivors over runs whose
  // lengths are not multiples of 4 (the AVX2 tail runs the scalar lane):
  // refining each run alone, both prune exactly the candidates
  // PruneProvablyFar prunes, and accept the same ones. Over shuffled index
  // lists (gathered lanes) both assign the same nearest candidate. The
  // angle edge store carries the perpendicular stage's shapes, so all three
  // stages decide lanes here (PerpendicularStagePrunesOffsetParallels shows
  // the third one pruning where the first two cannot).
  if (!SimdAvailable()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (const bool three_d : {false, true}) {
    for (const traj::SegmentStore& store :
         {AdversarialStore(97, three_d), SymmetryStore(97, three_d),
          AngleEdgeStore(three_d)}) {
      const size_t n = store.size();
      const std::vector<IndexRun> runs = RaggedRuns(n);
      std::vector<size_t> shuffled(n);
      for (size_t i = 0; i < n; ++i) shuffled[i] = (i * 7 + 3) % n;
      std::vector<SegmentDistanceConfig> configs = KernelTestConfigs();
      for (const SegmentDistanceConfig& cfg : AngleEdgeConfigs()) {
        configs.push_back(cfg);
      }
      for (const SegmentDistanceConfig& cfg : configs) {
        const SegmentDistance dist(cfg);
        for (const double eps : {0.0, 0.5, 3.0, 20.0}) {
          for (size_t q = 0; q < n; ++q) {
            for (const IndexRun& run : runs) {
              size_t expect_pruned = 0;
              for (size_t j = run.first; j < run.last; ++j) {
                if (PruneProvablyFar(store, dist, q, j, eps)) ++expect_pruned;
              }
              RefineStats stats[2];
              std::vector<size_t> out[2];
              for (const int k : {0, 1}) {
                BatchOptions options;
                options.kernel = k == 0 ? BatchKernel::kScalar
                                        : BatchKernel::kSimd;
                EpsilonRefineRuns(store, dist, q, store, {&run, 1}, eps, 0,
                                  out[k], options, &stats[k]);
              }
              ASSERT_EQ(stats[0].pruned, expect_pruned)
                  << "eps " << eps << " query " << q << " run " << run.first;
              ASSERT_EQ(stats[1].pruned, expect_pruned)
                  << "eps " << eps << " query " << q << " run " << run.first;
              ASSERT_EQ(out[1], out[0]) << "eps " << eps << " query " << q;
            }

            // Index lists (gathered lanes), with the query among them.
            size_t pos[2];
            double best[2];
            for (const int k : {0, 1}) {
              BatchOptions options;
              options.kernel = k == 0 ? BatchKernel::kScalar
                                      : BatchKernel::kSimd;
              options.block = 13;
              NearestWithinEps(store, dist, {&q, 1}, store,
                               {shuffled.data(), shuffled.size()}, eps,
                               {&pos[k], 1}, {&best[k], 1}, options);
            }
            EXPECT_EQ(pos[1], pos[0]) << "eps " << eps << " query " << q;
            ExpectBitEqual(best[1], best[0], "nearest", q, pos[0]);
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, DistanceTileRangeBitIdenticalToBatchAndPairPath) {
  // The contiguous-range loads behind DistanceTileRange must produce, for
  // every range shape — 1×1, ragged, skewed, full — the same bits as the
  // indexed one-vs-many batch and the cached pair path. The tile is just a
  // loop arrangement; splitting or regrouping a batch must never change a
  // single bit.
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(59, three_d);
    const size_t n = store.size();
    // {query_first, query_last, cand_first, cand_last}.
    const std::vector<std::vector<size_t>> shapes = {
        {0, 1, 0, 1}, {2, 3, 0, n}, {0, n, 5, 6},
        {3, 6, 1, 8}, {2, n - 1, 1, n - 4}, {0, n, 0, n}};
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const BatchKernel kernel : AvailableKernels()) {
        for (const std::vector<size_t>& shape : shapes) {
          const size_t q_first = shape[0], q_last = shape[1];
          const size_t c_first = shape[2], c_last = shape[3];
          const size_t mq = q_last - q_first, nc = c_last - c_first;
          const size_t ldo = nc + 3;  // Padded stride must be respected.
          std::vector<double> tile(mq * ldo, -1.0);
          DistanceTileRange(store, dist, q_first, q_last, c_first, c_last,
                            tile.data(), ldo, kernel);
          std::vector<size_t> cands(nc);
          for (size_t k = 0; k < nc; ++k) cands[k] = c_first + k;
          std::vector<double> row(nc);
          for (size_t qi = 0; qi < mq; ++qi) {
            const size_t q = q_first + qi;
            DistanceBatch(store, dist, q,
                          common::Span<const size_t>(cands.data(), nc),
                          common::Span<double>(row.data(), nc), kernel);
            for (size_t k = 0; k < nc; ++k) {
              ExpectBitEqual(tile[qi * ldo + k], row[k], "tile-vs-batch", q,
                             cands[k]);
              ExpectBitEqual(tile[qi * ldo + k], dist(store, q, cands[k]),
                             "tile-vs-pair", q, cands[k]);
            }
            for (size_t k = nc; k < ldo; ++k) {
              EXPECT_EQ(tile[qi * ldo + k], -1.0)
                  << "tile wrote past row width at (" << qi << ", " << k
                  << ")";
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, EpsilonRefineTileMatchesPerQueryRefine) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(67, three_d);
    const size_t n = store.size();
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const double eps : {0.01, 2.0, 9.0}) {
        for (const BatchKernel kernel : AvailableKernels()) {
          for (const size_t block : {size_t{1}, size_t{3}, size_t{256}}) {
            BatchOptions options;
            options.kernel = kernel;
            options.block = block;
            std::vector<size_t> queries;
            for (size_t q = 0; q < n; q += 2) queries.push_back(q);
            std::vector<std::vector<size_t>> lists(queries.size());
            EpsilonRefineTile(
                store, dist,
                common::Span<const size_t>(queries.data(), queries.size()), 0,
                n, eps, lists.data(), options);
            const IndexRun all{0, n};
            for (size_t k = 0; k < queries.size(); ++k) {
              std::vector<size_t> expect;
              EpsilonRefineRuns(store, dist, queries[k], store, {&all, 1}, eps,
                                0, expect, options);
              EXPECT_EQ(lists[k], expect)
                  << BatchKernelName(kernel) << " block " << block << " eps "
                  << eps << " query " << queries[k];
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, NearestWithinEpsMatchesReferenceArgmin) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(71, three_d);
    const size_t n = store.size();
    // Candidate set with duplicates: ties must resolve to the EARLIEST
    // position in the span, for every kernel.
    std::vector<size_t> cands;
    for (size_t j = 0; j < n; j += 2) cands.push_back(j);
    for (size_t j = 0; j < n; j += 5) cands.push_back(j);
    std::vector<size_t> queries;
    for (size_t q = 0; q < n; ++q) queries.push_back(q);
    // Two-store form: queries [0, q_hi) from one chunk-local store,
    // candidates [c_lo, n) from another. The chunks overlap, so some pairs
    // are one segment held by both stores.
    const size_t q_hi = 2 * n / 3, c_lo = n / 3;
    const traj::SegmentStore query_chunk = ChunkStore(store, 0, q_hi);
    const traj::SegmentStore cand_chunk = ChunkStore(store, c_lo, n);
    std::vector<size_t> chunk_queries, chunk_cands, global_cands;
    for (size_t q = 0; q < q_hi; ++q) chunk_queries.push_back(q);
    for (const size_t j : cands) {
      if (j < c_lo) continue;
      chunk_cands.push_back(j - c_lo);
      global_cands.push_back(j);
    }
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const double eps : {0.01, 2.0, 9.0, 1e300}) {
        // Reference: scan candidates in span order, strict-< argmin.
        std::vector<size_t> expect_pos(queries.size(), kNoNearest);
        std::vector<double> expect_dist(
            queries.size(), std::numeric_limits<double>::infinity());
        for (size_t k = 0; k < queries.size(); ++k) {
          for (size_t c = 0; c < cands.size(); ++c) {
            const double d = dist(store, queries[k], cands[c]);
            if (d <= eps && d < expect_dist[k]) {
              expect_dist[k] = d;
              expect_pos[k] = c;
            }
          }
        }
        for (const BatchKernel kernel : AvailableKernels()) {
          for (const size_t block : {size_t{1}, size_t{7}, size_t{256}}) {
            BatchOptions options;
            options.kernel = kernel;
            options.block = block;
            std::vector<size_t> pos(queries.size());
            std::vector<double> dmin(queries.size());
            NearestWithinEps(
                store, dist,
                common::Span<const size_t>(queries.data(), queries.size()),
                store, common::Span<const size_t>(cands.data(), cands.size()),
                eps, common::Span<size_t>(pos.data(), pos.size()),
                common::Span<double>(dmin.data(), dmin.size()), options);
            for (size_t k = 0; k < queries.size(); ++k) {
              EXPECT_EQ(pos[k], expect_pos[k])
                  << BatchKernelName(kernel) << " block " << block << " eps "
                  << eps << " query " << queries[k];
              if (expect_pos[k] != kNoNearest) {
                ExpectBitEqual(dmin[k], expect_dist[k], "nearest-dist", k,
                               expect_pos[k]);
              }
            }

            // The chunk-local call must match the one-store call over the
            // same global segments: same positions, same distance bits.
            std::vector<size_t> one_pos(q_hi), cross_pos(q_hi);
            std::vector<double> one_dist(q_hi), cross_dist(q_hi);
            NearestWithinEps(
                store, dist,
                common::Span<const size_t>(chunk_queries.data(), q_hi), store,
                common::Span<const size_t>(global_cands.data(),
                                           global_cands.size()),
                eps, common::Span<size_t>(one_pos.data(), q_hi),
                common::Span<double>(one_dist.data(), q_hi), options);
            NearestWithinEps(
                query_chunk, dist,
                common::Span<const size_t>(chunk_queries.data(), q_hi),
                cand_chunk,
                common::Span<const size_t>(chunk_cands.data(),
                                           chunk_cands.size()),
                eps, common::Span<size_t>(cross_pos.data(), q_hi),
                common::Span<double>(cross_dist.data(), q_hi), options);
            for (size_t q = 0; q < q_hi; ++q) {
              EXPECT_EQ(cross_pos[q], one_pos[q])
                  << "cross " << BatchKernelName(kernel) << " block "
                  << block << " eps " << eps << " query " << q;
              ExpectBitEqual(cross_dist[q], one_dist[q], "nearest-cross", q,
                             cross_pos[q]);
            }
          }
        }
      }
    }
  }

  // Near-parallel candidates at ε ± ulps: every segment of the
  // perpendicular edge store queries, at ε = 1 and 1 ± 1 ulp, the segments at
  // least 0.5 from it, so its nearest is a follower offset by 1 ± ulps (or
  // the segment it follows) on the boundary. The nearest within ε must be
  // the reference's in every kernel and block size.
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = PerpEdgeStore(three_d);
    const size_t n = store.size();
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (size_t q = 0; q < n; ++q) {
        std::vector<size_t> cands;
        for (size_t j = 0; j < n; ++j) {
          if (dist(store, q, j) >= 0.5) cands.push_back(j);
        }
        for (const double eps : {Ulps(1.0, -1), 1.0, Ulps(1.0, 1)}) {
          size_t expect_pos = kNoNearest;
          double expect_dist = std::numeric_limits<double>::infinity();
          for (size_t c = 0; c < cands.size(); ++c) {
            const double d = dist(store, q, cands[c]);
            if (d <= eps && d < expect_dist) {
              expect_dist = d;
              expect_pos = c;
            }
          }
          for (const BatchKernel kernel : AvailableKernels()) {
            for (const size_t block : {size_t{1}, size_t{7}, size_t{256}}) {
              BatchOptions options;
              options.kernel = kernel;
              options.block = block;
              size_t pos = 0;
              double dmin = 0.0;
              NearestWithinEps(store, dist, {&q, 1}, store,
                               {cands.data(), cands.size()}, eps, {&pos, 1},
                               {&dmin, 1}, options);
              EXPECT_EQ(pos, expect_pos)
                  << BatchKernelName(kernel) << " block " << block << " eps "
                  << eps << " query " << q;
              if (expect_pos != kNoNearest) {
                ExpectBitEqual(dmin, expect_dist, "near-parallel", q,
                               cands[expect_pos]);
              }
            }
          }
        }
      }
    }
  }
}

// Tie corpus for the gathered SIMD lanes: every segment of a family is a
// translate and per-axis sign flip of one base vector, so their lengths are
// bitwise equal (each squared component is unchanged and summed in the same
// order) and the Lemma 2 tie-break runs for every pair within a family. One
// id in three is -1, which sends some ties to the lexicographic tie-break.
// A few general-position segments add lanes that never tie.
traj::SegmentStore TieStore(uint64_t seed, bool three_d) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  auto random_point = [&](double lo, double hi) {
    return three_d ? Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi),
                           rng.Uniform(lo, hi))
                   : Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi));
  };
  const auto next_id = [&] {
    return segs.size() % 3 == 1 ? geom::SegmentId{-1}
                                : static_cast<geom::SegmentId>(segs.size());
  };
  const int flips = three_d ? 8 : 4;
  for (int family = 0; family < 3; ++family) {
    const Point d = random_point(-6, 6);
    for (int copy = 0; copy < 2; ++copy) {
      for (int f = 0; f < flips; ++f) {
        Point v = d;
        for (int axis = 0; axis < v.dims(); ++axis) {
          if ((f >> axis) & 1) v[axis] = -v[axis];
        }
        const Point s = random_point(-20, 20);
        segs.emplace_back(s, s + v, next_id(), family);
      }
    }
  }
  for (int i = 0; i < 9; ++i) {
    segs.emplace_back(random_point(-20, 20), random_point(-20, 20), next_id(),
                      7);
  }
  return traj::SegmentStore(std::move(segs));
}

// Candidate lists that feed the lane gather out of order: shuffled,
// descending, and with every index repeated, each cut to lengths ≡ 0, 1, 2
// and 3 mod 4 so the scalar tail runs at every width.
std::vector<std::vector<size_t>> GatherLists(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<size_t> shuffled(n);
  for (size_t i = 0; i < n; ++i) shuffled[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
  }
  std::vector<size_t> descending(n);
  for (size_t i = 0; i < n; ++i) descending[i] = n - 1 - i;
  std::vector<size_t> duplicated;
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r <= i % 3; ++r) duplicated.push_back(shuffled[i]);
  }
  std::vector<std::vector<size_t>> lists;
  for (const std::vector<size_t>* full : {&shuffled, &descending, &duplicated}) {
    for (size_t cut = 0; cut < 4; ++cut) {
      const size_t len = full->size() - full->size() % 4 - cut;
      lists.emplace_back(full->begin(),
                         full->begin() + static_cast<std::ptrdiff_t>(len));
    }
  }
  return lists;
}

TEST(BatchKernelTest, GatheredLanesMatchPairPathOnUnorderedTiedLists) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = TieStore(83, three_d);
    const size_t n = store.size();
    // Two chunk-local stores: queries from one, candidates from the other.
    const size_t half = n / 2;
    const traj::SegmentStore lo_chunk = ChunkStore(store, 0, half);
    const traj::SegmentStore hi_chunk = ChunkStore(store, half, n);
    const auto lists = GatherLists(n, 89);
    const auto hi_lists = GatherLists(n - half, 97);
    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const BatchKernel kernel : AvailableKernels()) {
        // Lane positions (k mod 4 inside full 4-lane steps) at which the
        // candidate's length equals the query's: the tie patch must be
        // exercised in every lane.
        unsigned tie_lanes = 0;
        for (size_t q = 0; q < n; ++q) {
          for (const std::vector<size_t>& list : lists) {
            std::vector<double> out(list.size());
            DistanceBatch(store, dist, q,
                          common::Span<const size_t>(list.data(), list.size()),
                          common::Span<double>(out.data(), out.size()),
                          kernel);
            for (size_t k = 0; k < list.size(); ++k) {
              ExpectBitEqual(out[k], dist(store, q, list[k]),
                             BatchKernelName(kernel), q, list[k]);
              if (k < list.size() - list.size() % 4 &&
                  store.length(list[k]) == store.length(q)) {
                tie_lanes |= 1u << (k % 4);
              }
            }
          }
        }
        EXPECT_EQ(tie_lanes, 0xFu) << BatchKernelName(kernel);

        for (const double eps : {2.0, 9.0, 40.0}) {
          for (const size_t block : {size_t{3}, size_t{256}}) {
            BatchOptions options;
            options.kernel = kernel;
            options.block = block;
            // The refine across the two stores, over runs of every length
            // mod 4.
            const std::vector<IndexRun> runs = RaggedRuns(n - half);
            for (size_t q = 0; q < half; ++q) {
              std::vector<size_t> expect;
              for (const IndexRun& run : runs) {
                for (size_t j = run.first; j < run.last; ++j) {
                  if (dist(store, q, half + j) <= eps) {
                    expect.push_back(half + j);
                  }
                }
              }
              std::vector<size_t> got;
              EpsilonRefineRuns(lo_chunk, dist, q, hi_chunk,
                                {runs.data(), runs.size()}, eps, half, got,
                                options);
              EXPECT_EQ(got, expect)
                  << BatchKernelName(kernel) << " block " << block << " eps "
                  << eps << " query " << q;
            }

            // Nearest assignment across the two stores; duplicates make
            // the earliest-position tie rule observable.
            for (const std::vector<size_t>& list : hi_lists) {
              std::vector<size_t> queries(half);
              for (size_t q = 0; q < half; ++q) queries[q] = q;
              std::vector<size_t> pos(half);
              std::vector<double> dmin(half);
              NearestWithinEps(
                  lo_chunk, dist,
                  common::Span<const size_t>(queries.data(), half), hi_chunk,
                  common::Span<const size_t>(list.data(), list.size()), eps,
                  common::Span<size_t>(pos.data(), half),
                  common::Span<double>(dmin.data(), half), options);
              for (size_t q = 0; q < half; ++q) {
                size_t expect_pos = kNoNearest;
                double expect_dist = std::numeric_limits<double>::infinity();
                for (size_t c = 0; c < list.size(); ++c) {
                  const double d = dist(store, q, half + list[c]);
                  if (d <= eps && d < expect_dist) {
                    expect_dist = d;
                    expect_pos = c;
                  }
                }
                EXPECT_EQ(pos[q], expect_pos)
                    << BatchKernelName(kernel) << " block " << block
                    << " eps " << eps << " query " << q;
                if (expect_pos != kNoNearest) {
                  ExpectBitEqual(dmin[q], expect_dist, "nearest", q,
                                 expect_pos);
                }
              }
            }
          }
        }
      }
    }
  }
}

// Bitwise equality, except that any two NaNs match: which NaN an operation
// returns when several are involved (sign and payload) depends on operand
// order the compiler may commute, and differs between optimization levels.
void ExpectBitEqualOrBothNaN(double a, double b, const char* what, size_t q,
                             size_t j) {
  if (std::isnan(a) && std::isnan(b)) return;
  ExpectBitEqual(a, b, what, q, j);
}

TEST(BatchKernelTest, SingleSqrtParallelMatchesFourRootReference) {
  // d∥ is computed as √min of four squared gaps in the store and batch
  // kernels, and as the MIN of four roots in the geom::Segment reference
  // path. The two must agree bit for bit on non-finite segments (NaN and
  // ±inf coordinates: a NaN gap must win the MIN in the same positions, so
  // d∥ is NaN exactly when the reference's is) and on projections that land
  // exactly on an endpoint of Li (zero and tied gaps). This corpus stays out
  // of AdversarialStore: the prune admissibility test shares that one and
  // needs finite distances.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Segment> segs = {
      // Li along x, and segments whose endpoints project exactly onto its
      // endpoints (u = 0 and u = 1), or onto one endpoint twice.
      Segment(Point(0, 0), Point(8, 0), 0),
      Segment(Point(0, 3), Point(8, 5), 1),
      Segment(Point(8, -2), Point(0, 1), 2),
      Segment(Point(0, 2), Point(0, 4), 3),
      Segment(Point(8, 1), Point(8, -1), 4),
      Segment(Point(-3, 4), Point(0, 0), 5),
      // A 3-4-5 Li and a projection onto its far endpoint.
      Segment(Point(0, 0), Point(3, 4), 6),
      Segment(Point(7, 1), Point(3, 4), 7),
      // Non-finite coordinates: NaN in either endpoint, ±inf, and an
      // overflowing squared length.
      Segment(Point(nan, 0), Point(5, 5), 8),
      Segment(Point(1, 1), Point(2, nan), 9),
      Segment(Point(inf, 0), Point(5, 5), 10),
      Segment(Point(-inf, 2), Point(0, -inf), 11),
      Segment(Point(1, 2), Point(inf, inf), 12),
      Segment(Point(1e200, 0), Point(-1e200, 1), 13),
      Segment(Point(0, nan), Point(nan, 0), -1),
      Segment(Point(2, 2), Point(2, 2), 15),
  };
  const traj::SegmentStore store(std::move(segs));
  const size_t n = store.size();
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  SegmentDistanceConfig parallel_only;
  parallel_only.w_perpendicular = 0.0;
  parallel_only.w_angle = 0.0;
  std::vector<SegmentDistanceConfig> configs = KernelTestConfigs();
  configs.push_back(parallel_only);
  for (const SegmentDistanceConfig& cfg : configs) {
    const SegmentDistance dist(cfg);
    for (size_t q = 0; q < n; ++q) {
      for (size_t j = 0; j < n; ++j) {
        ExpectBitEqualOrBothNaN(
            dist.Components(store, q, j).parallel,
            dist.Parallel(store.segment(q), store.segment(j)), "parallel", q,
            j);
      }
      for (const BatchKernel kernel : AvailableKernels()) {
        std::vector<double> out(n);
        DistanceBatch(store, dist, q, common::Span<const size_t>(all.data(), n),
                      common::Span<double>(out.data(), n), kernel);
        for (size_t j = 0; j < n; ++j) {
          ExpectBitEqualOrBothNaN(out[j], dist(store, q, j),
                                  BatchKernelName(kernel), q, j);
        }
      }
    }
  }
}

TEST(BatchKernelTest, KernelSelectionHelpers) {
  EXPECT_STREQ(BatchKernelName(BatchKernel::kAuto), "auto");
  EXPECT_STREQ(BatchKernelName(BatchKernel::kScalar), "scalar");
  EXPECT_STREQ(BatchKernelName(BatchKernel::kSimd), "simd");
  // Round trip: every kernel's name parses back to itself through the one
  // string→kernel path in the tree.
  for (const BatchKernel k :
       {BatchKernel::kAuto, BatchKernel::kScalar, BatchKernel::kSimd}) {
    const auto parsed = ParseBatchKernel(BatchKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  const auto bad = ParseBatchKernel("avx512");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), common::StatusCode::kInvalidArgument);
  // Resolution never yields kAuto, and kSimd only when available.
  EXPECT_NE(ResolveBatchKernel(BatchKernel::kAuto), BatchKernel::kAuto);
  EXPECT_EQ(ResolveBatchKernel(BatchKernel::kScalar), BatchKernel::kScalar);
  if (!SimdAvailable()) {
    EXPECT_EQ(ResolveBatchKernel(BatchKernel::kSimd), BatchKernel::kScalar);
  } else {
    EXPECT_EQ(ResolveBatchKernel(BatchKernel::kSimd), BatchKernel::kSimd);
  }
}

// The kernel is picked at run time from what the CPU reports, in every
// build: kAuto is the AVX2 kernel exactly when the CPU has AVX2.
TEST(BatchKernelTest, AutoIsSimdIffTheCpuReportsAvx2) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool cpu_avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool cpu_avx2 = false;
#endif
  EXPECT_EQ(SimdAvailable(), cpu_avx2);
  EXPECT_EQ(ResolveBatchKernel(BatchKernel::kAuto) == BatchKernel::kSimd,
            cpu_avx2);
}

}  // namespace
}  // namespace traclus::distance
