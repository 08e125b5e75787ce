// SegmentStore: the invariant cache must be indistinguishable — bit for bit —
// from recomputing each quantity from the segment endpoints, and the
// invariant-aware distance fast path must reproduce the Segment-based
// distance exactly. Randomized segments cover degenerate (zero-length),
// equal-length (Lemma 2 tie-break), unidentified (id -1), weighted, and 3-D
// cases; bitwise equality is asserted with EXPECT_EQ on doubles on purpose.

#include "traj/segment_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"

namespace traclus {
namespace {

std::vector<geom::Segment> RandomSegments(size_t n, uint64_t seed,
                                          bool three_d = false) {
  common::Rng rng(seed);
  std::vector<geom::Segment> segs;
  segs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    geom::Point s;
    geom::Point e;
    if (three_d) {
      s = geom::Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                      rng.Uniform(-50, 50));
      e = geom::Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                      rng.Uniform(-50, 50));
    } else {
      s = geom::Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50));
      e = geom::Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50));
    }
    // Sprinkle the edge cases the distance kernel branches on.
    if (i % 11 == 0) e = s;                     // Degenerate segment.
    const auto id = i % 7 == 0 ? geom::SegmentId{-1}
                               : static_cast<geom::SegmentId>(i);
    segs.emplace_back(s, e, id, static_cast<geom::TrajectoryId>(i % 13),
                      rng.Uniform(0.5, 3.0));
  }
  // Exact duplicates force the equal-length tie-break paths.
  if (n > 4) {
    segs[3] = geom::Segment(segs[2].start(), segs[2].end(), 3, 5, 1.0);
    segs[4] = geom::Segment(segs[2].start(), segs[2].end(), -1, 6, 1.0);
  }
  return segs;
}

TEST(SegmentStoreTest, InvariantsMatchFreshComputation) {
  for (const bool three_d : {false, true}) {
    SCOPED_TRACE(three_d ? "3d" : "2d");
    const auto segs = RandomSegments(200, 42, three_d);
    const traj::SegmentStore store(segs);
    ASSERT_EQ(store.size(), segs.size());
    EXPECT_EQ(store.dims(), three_d ? 3 : 2);
    for (size_t i = 0; i < segs.size(); ++i) {
      const geom::Segment& s = segs[i];
      EXPECT_EQ(store.segment(i), s);
      EXPECT_EQ(store.length(i), s.Length());
      EXPECT_EQ(store.squared_length(i), s.Direction().SquaredNorm());
      EXPECT_EQ(store.inv_length(i),
                s.Length() > 0.0 ? 1.0 / s.Length() : 0.0);
      for (int d = 0; d < s.dims(); ++d) {
        EXPECT_EQ(store.direction(i)[d], s.Direction()[d]);
        EXPECT_EQ(store.unit_direction(i)[d],
                  s.Direction()[d] * store.inv_length(i));
        EXPECT_EQ(store.midpoint(i)[d], s.Midpoint()[d]);
      }
      EXPECT_EQ(store.id(i), s.id());
      EXPECT_EQ(store.trajectory_id(i), s.trajectory_id());
      EXPECT_EQ(store.weight(i), s.weight());
    }
  }
}

TEST(SegmentStoreTest, EmptyStoreIsWellFormed) {
  const traj::SegmentStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.dims(), 2);
}

// The heart of the refactor: the fast path must agree with the Segment path
// to the last bit, on every pair, for every distance configuration the
// pipeline uses.
TEST(SegmentStoreTest, DistanceFastPathIsBitIdentical) {
  const auto segs = RandomSegments(120, 7);
  const traj::SegmentStore store(segs);
  for (const bool directed : {true, false}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    distance::SegmentDistanceConfig config;
    config.directed = directed;
    config.w_perpendicular = 1.0;
    config.w_parallel = 0.75;
    config.w_angle = 1.25;
    const distance::SegmentDistance dist(config);
    for (size_t i = 0; i < segs.size(); ++i) {
      for (size_t j = 0; j < segs.size(); ++j) {
        const auto slow = dist.Components(segs[i], segs[j]);
        const auto fast = dist.Components(store, i, j);
        ASSERT_EQ(fast.perpendicular, slow.perpendicular) << i << "," << j;
        ASSERT_EQ(fast.parallel, slow.parallel) << i << "," << j;
        ASSERT_EQ(fast.angle, slow.angle) << i << "," << j;
        ASSERT_EQ(dist(store, i, j), dist(segs[i], segs[j])) << i << ","
                                                             << j;
      }
    }
  }
}

}  // namespace
}  // namespace traclus
