// The parallel execution engine's core contract: every phase produces results
// byte-identical to the single-threaded seed behavior, for any thread count.
// Clustering output (labels, cluster ids, members), partitions, representative
// trajectories, pairwise matrices, and the parameter heuristic are all checked
// at 1 vs N threads, through the engine API and the component layers.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/dbscan_segments.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "distance/segment_distance.h"
#include "params/entropy.h"
#include "params/parameter_heuristic.h"

namespace traclus {
namespace {

const traj::TrajectoryDatabase& TestDatabase() {
  static const traj::TrajectoryDatabase db = [] {
    datagen::HurricaneConfig cfg;
    cfg.num_trajectories = 120;
    return datagen::GenerateHurricanes(cfg);
  }();
  return db;
}

// Engine run helper: these tests hardcode valid configs / non-empty inputs.
core::TraclusResult RunConfig(const core::TraclusConfig& cfg,
                              const traj::TrajectoryDatabase& db) {
  auto engine = core::TraclusEngine::FromConfig(cfg);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine->Run(db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

core::PartitionOutput PartitionConfig(const core::TraclusConfig& cfg,
                                      const traj::TrajectoryDatabase& db) {
  auto engine = core::TraclusEngine::FromConfig(cfg);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto out = engine->Partition(db);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).ValueOrDie();
}

const traj::SegmentStore& TestSegments() {
  static const traj::SegmentStore store = [] {
    core::TraclusConfig cfg;
    cfg.num_threads = 1;
    return std::move(PartitionConfig(cfg, TestDatabase()).store);
  }();
  return store;
}

void ExpectSegmentsEqual(const std::vector<geom::Segment>& a,
                         const std::vector<geom::Segment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id());
    EXPECT_EQ(a[i].trajectory_id(), b[i].trajectory_id());
    EXPECT_EQ(a[i].start().x(), b[i].start().x());
    EXPECT_EQ(a[i].start().y(), b[i].start().y());
    EXPECT_EQ(a[i].end().x(), b[i].end().x());
    EXPECT_EQ(a[i].end().y(), b[i].end().y());
  }
}

void ExpectClusteringEqual(const cluster::ClusteringResult& a,
                           const cluster::ClusteringResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.num_noise, b.num_noise);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].id, b.clusters[c].id);
    EXPECT_EQ(a.clusters[c].member_indices, b.clusters[c].member_indices);
  }
}

TEST(ParallelDeterminismTest, PartitionPhaseMatchesSerial) {
  core::TraclusConfig serial;
  serial.num_threads = 1;
  const auto serial_out = PartitionConfig(serial, TestDatabase());

  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    core::TraclusConfig parallel;
    parallel.num_threads = threads;
    const auto parallel_out = PartitionConfig(parallel, TestDatabase());
    ExpectSegmentsEqual(serial_out.segments(), parallel_out.segments());
    EXPECT_EQ(serial_out.characteristic_points,
              parallel_out.characteristic_points);
  }
}

TEST(ParallelDeterminismTest, GridIndexBatchMatchesPerQuery) {
  const auto& segments = TestSegments();
  const distance::SegmentDistance dist;
  const cluster::GridNeighborhoodIndex index(segments, dist);
  const double eps = 0.94;
  const auto batched = index.AllNeighbors(eps, common::SharedPool(4));
  ASSERT_EQ(batched.size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(batched[i], index.Neighbors(i, eps)) << "query " << i;
  }
}

TEST(ParallelDeterminismTest, NeighborhoodCacheServesExactLists) {
  const auto& segments = TestSegments();
  const distance::SegmentDistance dist;
  const cluster::BruteForceNeighborhood brute(segments, dist);
  const double eps = 0.94;
  const cluster::NeighborhoodCache cache(brute, eps, common::SharedPool(4));
  ASSERT_EQ(cache.size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(cache.Neighbors(i, eps), brute.Neighbors(i, eps));
  }
}

TEST(ParallelDeterminismTest, DbscanIdenticalAcrossThreadCountsAndProviders) {
  const auto& segments = TestSegments();
  const distance::SegmentDistance dist;
  cluster::DbscanOptions serial_opt;
  serial_opt.eps = 0.94;
  serial_opt.min_lns = 5;
  serial_opt.num_threads = 1;

  const cluster::GridNeighborhoodIndex grid(segments, dist);
  const cluster::BruteForceNeighborhood brute(segments, dist);
  const auto baseline = cluster::DbscanSegments(segments, grid, serial_opt);
  ASSERT_FALSE(baseline.clusters.empty());

  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    cluster::DbscanOptions opt = serial_opt;
    opt.num_threads = threads;
    ExpectClusteringEqual(baseline,
                          cluster::DbscanSegments(segments, grid, opt));
    ExpectClusteringEqual(baseline,
                          cluster::DbscanSegments(segments, brute, opt));
  }
}

TEST(ParallelDeterminismTest, FullPipelineIdenticalAtOneVsNThreads) {
  core::TraclusConfig cfg;
  cfg.eps = 0.94;
  cfg.min_lns = 5;
  cfg.num_threads = 1;
  const auto serial = RunConfig(cfg, TestDatabase());

  cfg.num_threads = 4;
  const auto parallel = RunConfig(cfg, TestDatabase());

  ExpectSegmentsEqual(serial.segments(), parallel.segments());
  EXPECT_EQ(serial.characteristic_points, parallel.characteristic_points);
  ExpectClusteringEqual(serial.clustering, parallel.clustering);
  ASSERT_EQ(serial.representatives.size(), parallel.representatives.size());
  for (size_t r = 0; r < serial.representatives.size(); ++r) {
    const auto& sp = serial.representatives[r].points();
    const auto& pp = parallel.representatives[r].points();
    ASSERT_EQ(sp.size(), pp.size()) << "representative " << r;
    for (size_t p = 0; p < sp.size(); ++p) {
      EXPECT_EQ(sp[p].x(), pp[p].x());  // Bitwise: same ops in both modes.
      EXPECT_EQ(sp[p].y(), pp[p].y());
    }
  }
}

TEST(ParallelDeterminismTest, NeighborhoodProfileIdenticalAcrossThreads) {
  const auto& all = TestSegments();
  const traj::SegmentStore segments(std::vector<geom::Segment>(
      all.begin(), all.begin() + std::min<size_t>(all.size(), 400)));
  const distance::SegmentDistance dist;
  const std::vector<double> grid = {0.25, 0.5, 1.0, 2.0, 4.0};
  const params::NeighborhoodProfile serial(segments, dist, grid, 1);
  const params::NeighborhoodProfile parallel(segments, dist, grid, 4);
  ASSERT_EQ(serial.grid_size(), parallel.grid_size());
  for (size_t g = 0; g < serial.grid_size(); ++g) {
    EXPECT_EQ(serial.SizesAt(g), parallel.SizesAt(g)) << "grid " << g;
    EXPECT_EQ(serial.EntropyAt(g), parallel.EntropyAt(g));
  }
}

TEST(ParallelDeterminismTest, ParameterEstimateIdenticalAcrossThreads) {
  const auto& all = TestSegments();
  const traj::SegmentStore segments(std::vector<geom::Segment>(
      all.begin(), all.begin() + std::min<size_t>(all.size(), 400)));
  const distance::SegmentDistance dist;
  params::HeuristicOptions opt;
  opt.eps_lo = 0.25;
  opt.eps_hi = 4.0;
  opt.grid_points = 12;
  opt.num_threads = 1;
  const auto serial = params::EstimateParameters(segments, dist, opt);
  opt.num_threads = 4;
  const auto parallel = params::EstimateParameters(segments, dist, opt);
  EXPECT_EQ(serial.eps, parallel.eps);
  EXPECT_EQ(serial.entropy, parallel.entropy);
  EXPECT_EQ(serial.grid_entropy, parallel.grid_entropy);
  EXPECT_EQ(serial.avg_neighborhood_size, parallel.avg_neighborhood_size);
}

}  // namespace
}  // namespace traclus
