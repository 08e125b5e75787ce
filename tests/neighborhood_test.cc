// Tests for ε-neighborhood providers: the block-pruned tile join in both of
// its configurations (GridNeighborhoodIndex, BruteForceNeighborhood), the
// same join over a residency-capped chunked store, and a property suite
// pinning the join to the per-pair oracle — the exactness property that
// makes Lemma 3's index usable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "cluster/block_layout.h"
#include "cluster/dbscan_segments.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "distance/segment_distance.h"

namespace traclus::cluster {
namespace {

using distance::SegmentDistance;
using distance::SegmentDistanceConfig;
using geom::Point;
using geom::Segment;

traj::SegmentStore RandomSegments(size_t n, double world, double max_len,
                                  uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  segs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point s(rng.Uniform(0, world), rng.Uniform(0, world));
    const double angle = rng.Uniform(0, 2 * M_PI);
    const double len = rng.Uniform(0.1, max_len);
    const Point e(s.x() + len * std::cos(angle), s.y() + len * std::sin(angle));
    segs.emplace_back(s, e, static_cast<geom::SegmentId>(i),
                      static_cast<geom::TrajectoryId>(i % 7));
  }
  return traj::SegmentStore(std::move(segs));
}

TEST(BruteForceNeighborhoodTest, IncludesSelf) {
  const auto segs = RandomSegments(20, 100, 5, 1);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    const auto n = provider.Neighbors(i, 0.0001);
    EXPECT_NE(std::find(n.begin(), n.end(), i), n.end());
  }
}

TEST(BruteForceNeighborhoodTest, LargeEpsReturnsEverything) {
  const auto segs = RandomSegments(25, 50, 5, 2);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  EXPECT_EQ(provider.Neighbors(0, 1e9).size(), segs.size());
}

TEST(BruteForceNeighborhoodTest, NeighborsRespectEps) {
  const auto segs = RandomSegments(40, 100, 8, 3);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  const double eps = 15.0;
  for (size_t i = 0; i < segs.size(); ++i) {
    for (const size_t j : provider.Neighbors(i, eps)) {
      EXPECT_LE(dist(segs[i], segs[j]), eps);
    }
  }
}

// The core exactness property: for every workload/ε/weight configuration the
// grid index must return exactly the brute-force neighborhoods.
struct IndexExactnessCase {
  uint64_t seed;
  size_t n;
  double world;
  double max_len;
  double eps;
  double w_perp;
  double w_par;
  double w_angle;
  bool directed;
};

class IndexExactnessTest
    : public ::testing::TestWithParam<IndexExactnessCase> {};

TEST_P(IndexExactnessTest, MatchesBruteForceExactly) {
  const IndexExactnessCase& c = GetParam();
  const auto segs = RandomSegments(c.n, c.world, c.max_len, c.seed);
  SegmentDistanceConfig cfg;
  cfg.w_perpendicular = c.w_perp;
  cfg.w_parallel = c.w_par;
  cfg.w_angle = c.w_angle;
  cfg.directed = c.directed;
  const SegmentDistance dist(cfg);
  const BruteForceNeighborhood brute(segs, dist);
  const GridNeighborhoodIndex index(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, c.eps), brute.Neighbors(i, c.eps))
        << "query " << i << " eps " << c.eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexExactnessTest,
    ::testing::Values(
        IndexExactnessCase{1, 150, 100, 5, 3.0, 1, 1, 1, true},
        IndexExactnessCase{2, 150, 100, 5, 10.0, 1, 1, 1, true},
        IndexExactnessCase{3, 150, 100, 5, 40.0, 1, 1, 1, true},
        IndexExactnessCase{4, 200, 50, 20, 5.0, 1, 1, 1, true},  // Long segs.
        IndexExactnessCase{5, 100, 300, 2, 8.0, 1, 1, 1, true},      // Sparse.
        IndexExactnessCase{6, 150, 100, 5, 5.0, 2.0, 0.5, 1.5, true},// Weights.
        IndexExactnessCase{7, 150, 100, 5, 5.0, 0.3, 2.0, 0.0, true},
        IndexExactnessCase{8, 150, 100, 5, 5.0, 1, 1, 1, false},  // Undirected.
        IndexExactnessCase{9, 60, 10, 4, 2.0, 1, 1, 1, true},        // Dense.
        // Tiny eps.
        IndexExactnessCase{10, 150, 100, 5, 0.05, 1, 1, 1, true}));

TEST(GridNeighborhoodIndexTest, ZeroWeightFallsBackToExactScan) {
  // w∥ = 0 kills the lower bound; the index must still be exact (via scan).
  const auto segs = RandomSegments(80, 60, 6, 21);
  SegmentDistanceConfig cfg;
  cfg.w_parallel = 0.0;
  const SegmentDistance dist(cfg);
  EXPECT_DOUBLE_EQ(dist.LowerBoundFactor(), 0.0);
  const BruteForceNeighborhood brute(segs, dist);
  const GridNeighborhoodIndex index(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, 6.0), brute.Neighbors(i, 6.0));
  }
}

TEST(GridNeighborhoodIndexTest, CollinearChainsAreFound) {
  // Collinear far-apart segments have d⊥ = dθ = 0; only d∥ separates them.
  // This is the regime where a naive "prune by ε directly" index would be
  // wrong, and where the 2·d⊥ + d∥ bound is tight.
  std::vector<Segment> segs;
  for (int i = 0; i < 10; ++i) {
    segs.emplace_back(Point(i * 10.0, 0), Point(i * 10.0 + 8.0, 0),
                      /*id=*/i, /*trajectory_id=*/i);
  }
  const SegmentDistance dist;
  const traj::SegmentStore store(std::move(segs));
  const BruteForceNeighborhood brute(store, dist);
  const GridNeighborhoodIndex index(store, dist);
  for (double eps : {1.0, 2.0, 5.0, 12.0, 30.0}) {
    for (size_t i = 0; i < store.size(); ++i) {
      EXPECT_EQ(index.Neighbors(i, eps), brute.Neighbors(i, eps));
    }
  }
}

TEST(GridNeighborhoodIndexTest, ThreeDimensionalSegments) {
  common::Rng rng(31);
  std::vector<Segment> segs;
  for (int i = 0; i < 80; ++i) {
    const Point s(rng.Uniform(0, 50), rng.Uniform(0, 50), rng.Uniform(0, 50));
    const Point e(s.x() + rng.Uniform(-4, 4), s.y() + rng.Uniform(-4, 4),
                  s.z() + rng.Uniform(-4, 4));
    segs.emplace_back(s, e, i, i % 5);
  }
  const SegmentDistance dist;
  const traj::SegmentStore store(std::move(segs));
  const BruteForceNeighborhood brute(store, dist);
  const GridNeighborhoodIndex index(store, dist);
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, 6.0), brute.Neighbors(i, 6.0));
  }
}

TEST(GridNeighborhoodIndexTest, RepeatedQueriesAreConsistent) {
  // Per-query scratch must not leak state between queries.
  const auto segs = RandomSegments(60, 40, 5, 77);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const auto first = index.Neighbors(5, 8.0);
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_EQ(index.Neighbors(5, 8.0), first);
  }
}

TEST(GridNeighborhoodIndexTest, SingleArgNeighborsIsThreadSafe) {
  // The interface overload must be safe under concurrent queries, the first
  // of which builds the lazy layout while the others wait for it: hammering
  // it from the pool must agree with the brute-force oracle on every query
  // (under TSAN a race on the layout or on shared scratch reports itself).
  const auto segs = RandomSegments(400, 60, 4, 97);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const BruteForceNeighborhood oracle(segs, dist);
  const double eps = 5.0;

  std::vector<std::vector<size_t>> expect(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    expect[i] = oracle.Neighbors(i, eps);
  }

  common::ThreadPool& pool = common::SharedPool(8);
  const NeighborhoodProvider& provider = index;  // The interface overload.
  std::atomic<size_t> mismatches{0};
  for (int round = 0; round < 4; ++round) {
    pool.ParallelFor(0, 4 * segs.size(), [&](size_t k) {
      const size_t i = k % segs.size();
      if (provider.Neighbors(i, eps) != expect[i]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(NeighborhoodCacheTest, KeepsEveryListResident) {
  const auto segs = RandomSegments(40, 40, 5, 57);
  const SegmentDistance dist;
  const BruteForceNeighborhood brute(segs, dist);
  const double eps = 5.0;
  const NeighborhoodCache cache(brute, eps, common::SharedPool(2));
  EXPECT_EQ(cache.lists().size(), segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(cache.Neighbors(i, eps), brute.Neighbors(i, eps));
  }
}

TEST(ProviderKernelTest, AllProvidersAgreeForEveryAvailableKernel) {
  // The providers delegate refinement to the batch kernels; every kernel
  // selection must produce the exact brute-force-per-pair neighborhoods
  // through every provider.
  const auto segs = RandomSegments(150, 60, 6, 61);
  const SegmentDistance dist;
  const double eps = 7.0;

  // Reference: the raw per-pair loop, independent of the kernel layer.
  std::vector<std::vector<size_t>> expect(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    for (size_t j = 0; j < segs.size(); ++j) {
      if (j == i || dist(segs, i, j) <= eps) expect[i].push_back(j);
    }
  }

  std::vector<distance::BatchKernel> kernels = {
      distance::BatchKernel::kScalar};
  if (distance::SimdAvailable()) {
    kernels.push_back(distance::BatchKernel::kSimd);
  }
  for (const distance::BatchKernel kernel : kernels) {
    const BruteForceNeighborhood brute(segs, dist, kernel);
    const GridNeighborhoodIndex grid(segs, dist, kernel);
    for (size_t i = 0; i < segs.size(); ++i) {
      EXPECT_EQ(brute.Neighbors(i, eps), expect[i]) << "brute query " << i;
      EXPECT_EQ(grid.Neighbors(i, eps), expect[i]) << "grid query " << i;
    }
  }
}

TEST(GridNeighborhoodIndexTest, NeighborsBatchMatchesPerQuery) {
  const auto segs = RandomSegments(200, 50, 4, 11);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const double eps = 6.0;
  std::vector<size_t> queries = {7, 3, 3, 199, 0, 42};  // Dups are fine.
  const auto lists = index.NeighborsBatch(queries, eps, common::SharedPool(4));
  ASSERT_EQ(lists.size(), queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    EXPECT_EQ(lists[k], index.Neighbors(queries[k], eps)) << "query " << k;
  }
}

// --- TileJoin over a capped chunked store: chunk-major batches -----------

traj::SegmentStore Random3d(size_t n, double world, double max_len,
                            uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  for (size_t i = 0; i < n; ++i) {
    const Point s(rng.Uniform(0, world), rng.Uniform(0, world),
                  rng.Uniform(0, world));
    const Point e(s.x() + rng.Uniform(-max_len, max_len),
                  s.y() + rng.Uniform(-max_len, max_len),
                  s.z() + rng.Uniform(-max_len, max_len));
    segs.emplace_back(s, e, static_cast<geom::SegmentId>(i),
                      static_cast<geom::TrajectoryId>(i % 5));
  }
  return traj::SegmentStore(std::move(segs));
}

std::unique_ptr<traj::ChunkedSegmentStore> Chunked(
    const traj::SegmentStore& segs, size_t chunk_capacity, size_t cap) {
  traj::ChunkedStoreOptions options;
  options.chunk_capacity = chunk_capacity;
  options.max_resident_chunks = cap;
  auto store = std::make_unique<traj::ChunkedSegmentStore>(options);
  EXPECT_TRUE(store->AppendAll(segs.segments()).ok());
  EXPECT_TRUE(store->Finalize().ok());
  return store;
}

std::vector<distance::BatchKernel> AvailableKernels() {
  std::vector<distance::BatchKernel> kernels = {
      distance::BatchKernel::kScalar};
  if (distance::SimdAvailable()) {
    kernels.push_back(distance::BatchKernel::kSimd);
  }
  return kernels;
}

// Every batch shape must reproduce the monolithic provider's lists exactly:
// the grid's for the indexed configuration, brute force's for the scan.
void ExpectBatchesMatchMonolithic(const traj::SegmentStore& segs,
                                  const SegmentDistance& dist, double eps) {
  const size_t kCapacity = 40;
  const size_t kCap = 3;
  for (const distance::BatchKernel kernel : AvailableKernels()) {
    for (const bool use_index : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "kernel " << distance::BatchKernelName(kernel)
                   << (use_index ? " grid" : " scan"));
      const GridNeighborhoodIndex grid(segs, dist, kernel);
      const BruteForceNeighborhood brute(segs, dist, kernel);
      const NeighborhoodProvider& mono =
          use_index ? static_cast<const NeighborhoodProvider&>(grid) : brute;
      std::vector<std::vector<size_t>> expect(segs.size());
      for (size_t i = 0; i < segs.size(); ++i) {
        expect[i] = mono.Neighbors(i, eps);
      }

      const auto store = Chunked(segs, kCapacity, kCap);
      ASSERT_GT(store->num_chunks(), kCap);
      const TileJoin chunked(*store, dist, use_index, kernel);

      std::vector<size_t> shuffled(segs.size());
      std::iota(shuffled.begin(), shuffled.end(), size_t{0});
      std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
      // Inside chunk 1, backwards, with a duplicate.
      std::vector<size_t> one_chunk = {2 * kCapacity - 1};
      for (size_t i = 2 * kCapacity; i-- > kCapacity;) one_chunk.push_back(i);
      // One query from every chunk, the last segment included.
      std::vector<size_t> every_chunk;
      for (size_t c = 0; c < store->num_chunks(); ++c) {
        every_chunk.push_back(store->chunk_begin(c) + c % 5);
      }
      every_chunk.push_back(segs.size() - 1);
      // Repeats of one query, in one Morton block and across blocks.
      const size_t last = segs.size() - 1;
      const std::vector<size_t> repeats = {7, 7, last, 7, last, 0, 7};

      for (const auto& queries : {shuffled, one_chunk, every_chunk, repeats,
                                  std::vector<size_t>{}}) {
        for (const int threads : {1, 4}) {
          const auto lists =
              chunked.NeighborsBatch(queries, eps, common::SharedPool(threads));
          ASSERT_EQ(lists.size(), queries.size());
          for (size_t k = 0; k < queries.size(); ++k) {
            EXPECT_EQ(lists[k], expect[queries[k]])
                << "query " << queries[k] << " threads " << threads;
          }
        }
      }
      for (const size_t i : every_chunk) {
        EXPECT_EQ(chunked.Neighbors(i, eps), expect[i]) << "query " << i;
      }
      EXPECT_EQ(chunked.AllNeighbors(eps, common::SharedPool(4)), expect);
      const auto sizes =
          chunked.AllNeighborhoodSizes(eps, common::SharedPool(2));
      for (size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(sizes[i], expect[i].size()) << "query " << i;
      }
      // The join reads and faults the Morton-ordered copy, or the store
      // itself in index order; the copy faults nothing on the source.
      const traj::ChunkedSegmentStore* read = chunked.read_store();
      ASSERT_NE(read, nullptr);
      EXPECT_LE(read->peak_resident_chunks(), kCap);
      EXPECT_GT(read->chunk_faults(), 0u);
      if (read != store.get()) {
        EXPECT_EQ(store->chunk_faults(), 0u);
      }
    }
  }
}

TEST(ChunkedNeighborhoodTest, BatchesMatchTheMonolithicProviders) {
  const auto segs = RandomSegments(300, 60, 5, 71);
  ExpectBatchesMatchMonolithic(segs, SegmentDistance(), 5.0);
}

TEST(ChunkedNeighborhoodTest, BatchesMatchIn3d) {
  ExpectBatchesMatchMonolithic(Random3d(250, 40, 6, 74), SegmentDistance(),
                               5.0);
}

TEST(ChunkedNeighborhoodTest, BatchesMatchWithCoincidentMidpoints) {
  // Every midpoint is exactly (3, 4): the Morton box has zero extent, every
  // key ties, and every block's midpoint MBR is one point, so only the
  // half-lengths and the exact distance tell the segments apart.
  common::Rng rng(75);
  std::vector<Segment> segs;
  for (size_t i = 0; i < 170; ++i) {
    // Multiples of 1/64 keep 3 ± dx and 4 ± dy exact.
    const double dx = static_cast<double>(rng.UniformInt(-320, 320)) / 64;
    const double dy = static_cast<double>(rng.UniformInt(-320, 320)) / 64;
    segs.emplace_back(Point(3 - dx, 4 - dy), Point(3 + dx, 4 + dy),
                      static_cast<geom::SegmentId>(i),
                      static_cast<geom::TrajectoryId>(i % 7));
  }
  const traj::SegmentStore store(std::move(segs));
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(store.midpoint(i).x(), 3.0);
    ASSERT_EQ(store.midpoint(i).y(), 4.0);
  }
  ExpectBatchesMatchMonolithic(store, SegmentDistance(), 2.0);
}

TEST(ChunkedNeighborhoodTest, BatchesMatchOffTheBlockAndChunkGrid) {
  // 233 = 14·16 + 9 = 5·40 + 33: a short last Morton block and a short last
  // chunk.
  ExpectBatchesMatchMonolithic(RandomSegments(233, 60, 5, 76),
                               SegmentDistance(), 5.0);
}

TEST(ChunkedNeighborhoodTest, ZeroWeightGridScansWholeChunks) {
  // w∥ = 0 kills the lower bound; the grid configuration falls back to the
  // scan schedule and must still match.
  const auto segs = RandomSegments(300, 60, 6, 72);
  SegmentDistanceConfig cfg;
  cfg.w_parallel = 0.0;
  const SegmentDistance dist(cfg);
  ASSERT_EQ(dist.LowerBoundFactor(), 0.0);
  ExpectBatchesMatchMonolithic(segs, dist, 6.0);
}

TEST(ChunkedNeighborhoodTest, CappedDbscanBuildsTheGraphOnceWithFewFaults) {
  // Cap = chunks - 1 is the cyclic-LRU worst case for a walk over the
  // chunks. The join builds the ε-graph once, in rounds over the query
  // chunks whose candidate walks alternate direction, from the calling
  // thread only, and serves every later batch at that ε from it. With
  // w∥ = 0 nothing is pruned: the layout is the index order, and every
  // round refines whole chunk-local ranges of every later chunk.
  const auto segs = RandomSegments(2400, 120, 6, 73);
  SegmentDistanceConfig no_par;
  no_par.w_parallel = 0.0;
  for (const SegmentDistanceConfig& config :
       {SegmentDistanceConfig(), no_par}) {
    SCOPED_TRACE(testing::Message() << "w_parallel " << config.w_parallel);
    const SegmentDistance dist(config);
    DbscanOptions options;
    options.eps = 4.0;
    options.min_lns = 4;
    const GridNeighborhoodIndex grid(segs, dist);
    const ClusteringResult eager = DbscanSegments(segs, grid, options);
    ASSERT_GT(eager.clusters.size(), 0u);

    std::vector<size_t> all(segs.size());
    std::iota(all.begin(), all.end(), size_t{0});
    std::vector<size_t> faults;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      const auto store = Chunked(segs, 300, 7);
      ASSERT_EQ(store->num_chunks(), 8u);
      const TileJoin provider(*store, dist, /*prune_blocks=*/true,
                              distance::BatchKernel::kAuto);
      options.num_threads = threads;
      const ClusteringResult capped =
          DbscanSegments(SegmentSetView::Of(*store), provider, options);
      EXPECT_EQ(capped.labels, eager.labels);
      EXPECT_EQ(capped.num_noise, eager.num_noise);

      // The store the join faults: the Morton-ordered copy with the default
      // weights (the source then takes no fault), the source itself in
      // index order with w∥ = 0. Chunk-major batches that refined both
      // orders of every pair, batch by batch, took 63 faults here with the
      // default weights (30 batches); the per-ε build takes 8, one per
      // chunk, with either weights.
      const traj::ChunkedSegmentStore* read = provider.read_store();
      ASSERT_NE(read, nullptr);
      EXPECT_EQ(read == store.get(), config.w_parallel == 0.0);
      if (read != store.get()) {
        EXPECT_EQ(store->chunk_faults(), 0u);
      }
      EXPECT_LT(read->chunk_faults(), 63u);
      EXPECT_LE(read->peak_resident_chunks(), 7u);
      faults.push_back(read->chunk_faults());
      EXPECT_EQ(provider.NeighborsBatch(all, options.eps,
                                        common::SharedPool(threads))
                    .size(),
                all.size());
      EXPECT_EQ(read->chunk_faults(), faults.back());
    }
    EXPECT_EQ(faults[0], faults[1]);
  }
}

// --- Property suite: the tile join against the per-pair oracle -----------

struct JoinCase {
  std::string name;
  traj::SegmentStore store;
  SegmentDistanceConfig config;
  std::vector<double> eps;
};

// Copies of a few segments under fresh ids, plus zero-length segments, some
// of them on top of each other.
traj::SegmentStore DuplicatesAndPoints(uint64_t seed) {
  const traj::SegmentStore base = RandomSegments(120, 30, 4, seed);
  std::vector<Segment> segs = base.segments();
  common::Rng rng(seed + 1);
  for (size_t k = 0; k < 60; ++k) {
    const Segment& s = base[static_cast<size_t>(rng.UniformInt(0, 119))];
    segs.emplace_back(s.start(), s.end(),
                      static_cast<geom::SegmentId>(segs.size()), 1);
  }
  for (size_t k = 0; k < 40; ++k) {
    const Point p(rng.Uniform(0, 30), rng.Uniform(0, 30));
    for (int copy = 0; copy < (k % 4 == 0 ? 2 : 1); ++copy) {
      segs.emplace_back(p, p, static_cast<geom::SegmentId>(segs.size()), 2);
    }
  }
  return traj::SegmentStore(std::move(segs));
}

// Unit segments on a lattice in four orientations: every pair has equal
// lengths, so the Lemma 2 roles come from the id tie-break everywhere.
traj::SegmentStore EqualLengthTies() {
  std::vector<Segment> segs;
  const Point dirs[] = {Point(1, 0), Point(0, 1), Point(-1, 0),
                        Point(0.6, 0.8)};
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      const Point s(1.5 * x, 1.5 * y);
      const Point& d = dirs[(x + 3 * y) % 4];
      segs.emplace_back(s, Point(s.x() + d.x(), s.y() + d.y()),
                        static_cast<geom::SegmentId>(segs.size()), x);
    }
  }
  return traj::SegmentStore(std::move(segs));
}

// Rows and columns of collinear segments of length 8 with gaps of 2: a
// neighbor's midpoint sits 10 away although the segments nearly touch, so
// only the half-length terms of the block prune keep such pairs.
traj::SegmentStore CollinearChains() {
  std::vector<Segment> segs;
  for (int line = 0; line < 12; ++line) {
    for (int k = 0; k < 14; ++k) {
      const double a = 10.0 * k;
      const double b = 7.0 * line;
      const bool row = line % 2 == 0;
      segs.emplace_back(row ? Point(a, b) : Point(b, a),
                        row ? Point(a + 8, b) : Point(b, a + 8),
                        static_cast<geom::SegmentId>(segs.size()), line);
    }
  }
  return traj::SegmentStore(std::move(segs));
}

// A random store plus segments with non-finite endpoints. Their Morton keys
// sort last, so whole blocks of the layout hold only NaN midpoints (an empty
// midpoint box): none is within ε of anything, yet each is still its own
// neighbor.
traj::SegmentStore WithNonFinite(uint64_t seed) {
  std::vector<Segment> segs = RandomSegments(150, 40, 5, seed).segments();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 50; ++k) {
    const Point p(k < 40 ? nan : 5.0, 3.0);
    const Point q(4.0, k < 40 ? 1.0 : inf);
    segs.emplace_back(p, q, static_cast<geom::SegmentId>(segs.size()), 3);
  }
  return traj::SegmentStore(std::move(segs));
}

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  const SegmentDistanceConfig defaults;
  cases.push_back(
      {"random2d", RandomSegments(400, 80, 6, 81), defaults, {0.5, 4, 15}});
  cases.push_back({"random2d_long_segments", RandomSegments(200, 60, 40, 82),
                   defaults, {2, 10}});
  cases.push_back({"random3d", Random3d(300, 40, 4, 83), defaults, {2, 7}});
  cases.push_back(
      {"duplicates_and_points", DuplicatesAndPoints(84), defaults, {0, 1, 5}});
  cases.push_back({"equal_length_ties", EqualLengthTies(), defaults,
                   {0.5, 1.5, 3}});
  cases.push_back(
      {"collinear_chains", CollinearChains(), defaults, {1.5, 2.5, 6}});
  cases.push_back({"non_finite", WithNonFinite(89), defaults, {2, 8}});
  // Fewer than one block, exactly one, and a short last block.
  cases.push_back({"n1", RandomSegments(1, 10, 3, 101), defaults, {2}});
  cases.push_back({"n7", RandomSegments(7, 10, 3, 102), defaults, {1, 4}});
  cases.push_back({"n16", RandomSegments(16, 12, 3, 103), defaults, {1, 4}});
  cases.push_back({"n37", RandomSegments(37, 15, 3, 104), defaults, {1, 4}});
  SegmentDistanceConfig weighted;
  weighted.w_perpendicular = 2.0;
  weighted.w_parallel = 0.5;
  weighted.w_angle = 1.5;
  weighted.directed = false;
  cases.push_back({"weighted_undirected", RandomSegments(300, 60, 5, 85),
                   weighted, {3, 9}});
  SegmentDistanceConfig no_perp;
  no_perp.w_perpendicular = 0.0;
  cases.push_back(
      {"w_perp_zero", RandomSegments(200, 40, 5, 86), no_perp, {2, 6}});
  SegmentDistanceConfig no_par;
  no_par.w_parallel = 0.0;
  cases.push_back(
      {"w_par_zero", RandomSegments(200, 40, 5, 87), no_par, {2, 6}});
  // ε equal to exact pair distances: the pair itself must be in (≤ ε).
  for (JoinCase& c : cases) {
    const SegmentDistance dist(c.config);
    const size_t n = c.store.size();
    for (const size_t step : {size_t{7}, size_t{31}}) {
      const size_t a = (step * 13) % n;
      const size_t b = (a + step) % n;
      c.eps.push_back(dist(c.store, a, b));
    }
  }
  return cases;
}

// { j : j == i || dist(store, i, j) ≤ ε } in ascending order, straight from
// the pair path.
std::vector<std::vector<size_t>> OracleLists(const traj::SegmentStore& store,
                                             const SegmentDistance& dist,
                                             double eps) {
  std::vector<std::vector<size_t>> lists(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    for (size_t j = 0; j < store.size(); ++j) {
      if (j == i || dist(store, i, j) <= eps) lists[i].push_back(j);
    }
  }
  return lists;
}

TEST(TileJoinPropertyTest, EveryConfigurationMatchesThePerPairOracle) {
  for (const JoinCase& c : JoinCases()) {
    const SegmentDistance dist(c.config);
    const size_t n = c.store.size();
    // The same join over the catalog of a capped chunked store.
    const auto capped = Chunked(c.store, 40, 3);
    std::vector<size_t> queries(n);
    std::iota(queries.begin(), queries.end(), size_t{0});
    std::shuffle(queries.begin(), queries.end(), std::mt19937_64(n));
    queries.push_back(queries.front());  // A duplicate query.
    for (const double eps : c.eps) {
      const auto expect = OracleLists(c.store, dist, eps);
      std::vector<size_t> sizes(n);
      for (size_t i = 0; i < n; ++i) sizes[i] = expect[i].size();
      for (const distance::BatchKernel kernel : AvailableKernels()) {
        for (const bool use_index : {true, false}) {
          for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << c.name << " eps " << eps << " kernel "
                         << distance::BatchKernelName(kernel)
                         << (use_index ? " indexed" : " scan") << " threads "
                         << threads);
            const GridNeighborhoodIndex grid(c.store, dist, kernel);
            const BruteForceNeighborhood brute(c.store, dist, kernel);
            const NeighborhoodProvider& join =
                use_index ? static_cast<const NeighborhoodProvider&>(grid)
                          : brute;
            common::ThreadPool& pool = common::SharedPool(threads);
            EXPECT_EQ(join.AllNeighbors(eps, pool), expect);
            EXPECT_EQ(join.AllNeighborhoodSizes(eps, pool), sizes);
            const auto batch = join.NeighborsBatch(queries, eps, pool);
            ASSERT_EQ(batch.size(), queries.size());
            for (size_t k = 0; k < queries.size(); ++k) {
              EXPECT_EQ(batch[k], expect[queries[k]])
                  << "query " << queries[k];
            }
            for (const size_t i : {size_t{0}, n / 2, n - 1}) {
              EXPECT_EQ(join.Neighbors(i, eps), expect[i]) << "query " << i;
            }
            const TileJoin chunked(*capped, dist, use_index, kernel);
            EXPECT_EQ(chunked.AllNeighbors(eps, pool), expect);
            const auto chunked_batch =
                chunked.NeighborsBatch(queries, eps, pool);
            for (size_t k = 0; k < queries.size(); ++k) {
              EXPECT_EQ(chunked_batch[k], expect[queries[k]])
                  << "chunked query " << queries[k];
            }
          }
        }
      }
    }
  }
}

// One join asked at interleaved ε values: each call must serve its own ε,
// never the graph a previous call left behind.
TEST(TileJoinPropertyTest, InterleavedEpsNeverServesAStaleGraph) {
  const auto segs = RandomSegments(230, 50, 5, 105);
  const SegmentDistance dist;
  const double e1 = 2.0, e2 = 6.0, e3 = 0.5;
  const auto expect1 = OracleLists(segs, dist, e1);
  const auto expect2 = OracleLists(segs, dist, e2);
  const auto expect3 = OracleLists(segs, dist, e3);
  std::vector<size_t> sizes3(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) sizes3[i] = expect3[i].size();
  std::vector<size_t> queries(segs.size());
  std::iota(queries.begin(), queries.end(), size_t{0});
  std::shuffle(queries.begin(), queries.end(), std::mt19937_64(105));
  const auto expect_batch = [&queries](const auto& expect) {
    std::vector<std::vector<size_t>> lists;
    lists.reserve(queries.size());
    for (const size_t q : queries) lists.push_back(expect[q]);
    return lists;
  };
  // The eager join, and the chunked one over 6 chunks of 40 at residency
  // caps of 1, 2 and chunks - 1 (cap 0: no chunked store).
  constexpr size_t kCapacity = 40;
  for (const bool use_index : {true, false}) {
    for (const int threads : {1, 4}) {
      for (const size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
        SCOPED_TRACE(testing::Message() << (use_index ? "indexed" : "scan")
                                        << " threads " << threads << " cap "
                                        << cap);
        common::ThreadPool& pool = common::SharedPool(threads);
        const TileJoin eager(segs, dist, use_index,
                             distance::BatchKernel::kAuto);
        std::unique_ptr<traj::ChunkedSegmentStore> store;
        std::unique_ptr<TileJoin> chunked;
        if (cap > 0) {
          store = Chunked(segs, kCapacity, cap);
          ASSERT_EQ(store->num_chunks(), 6u);
          chunked = std::make_unique<TileJoin>(*store, dist, use_index,
                                               distance::BatchKernel::kAuto);
        }
        const NeighborhoodProvider& join =
            cap > 0 ? static_cast<const NeighborhoodProvider&>(*chunked)
                    : eager;
        EXPECT_EQ(join.NeighborsBatch(queries, e1, pool),
                  expect_batch(expect1));
        for (const size_t i : {size_t{0}, size_t{17}, segs.size() - 1}) {
          EXPECT_EQ(join.Neighbors(i, e2), expect2[i]) << "query " << i;
        }
        EXPECT_EQ(join.AllNeighborhoodSizes(e3, pool), sizes3);
        EXPECT_EQ(join.AllNeighbors(e3, pool), expect3);
        EXPECT_EQ(join.NeighborsBatch(queries, e1, pool),
                  expect_batch(expect1));
        EXPECT_EQ(join.Neighbors(17, e1), expect1[17]);
        EXPECT_EQ(join.Neighbors(17, e2), expect2[17]);
        if (store != nullptr) {
          EXPECT_LE(chunked->read_store()->peak_resident_chunks(), cap);
        }
      }
    }
  }
}

// Threads that race to the first query of a fresh join build its graph once
// and all read the oracle's lists; threads alternating between two ε values
// replace the graph under each other's readers. The eager join runs as is,
// the chunked one over 8 chunks of 40 at residency caps of 1, 2 and
// chunks - 1 (cap 0: the eager join). Under TSan a race on the graph, its
// pointer or the chunk cache reports itself.
TEST(TileJoinPropertyTest, ConcurrentFirstQueriesAgreeWithTheOracle) {
  const auto segs = RandomSegments(300, 60, 4, 106);
  const SegmentDistance dist;
  const double eps[] = {5.0, 1.5};
  const std::vector<std::vector<size_t>> expect[] = {
      OracleLists(segs, dist, eps[0]), OracleLists(segs, dist, eps[1])};
  constexpr int kThreads = 4;
  for (const size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
    for (const bool alternate : {false, true}) {
      for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE(testing::Message()
                     << (alternate ? "alternating" : "one eps") << " round "
                     << round << " cap " << cap);
        const GridNeighborhoodIndex grid(segs, dist);
        std::unique_ptr<traj::ChunkedSegmentStore> store;
        std::unique_ptr<TileJoin> chunked;
        if (cap > 0) {
          store = Chunked(segs, 40, cap);
          ASSERT_EQ(store->num_chunks(), 8u);
          chunked = std::make_unique<TileJoin>(*store, dist,
                                               /*prune_blocks=*/true,
                                               distance::BatchKernel::kAuto);
        }
        const NeighborhoodProvider& join =
            cap > 0 ? static_cast<const NeighborhoodProvider&>(*chunked)
                    : grid;
        std::atomic<int> ready{0};
        std::atomic<size_t> mismatches{0};
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            for (size_t i = static_cast<size_t>(t); i < segs.size();
                 i += kThreads) {
              const size_t e = alternate ? (i / kThreads) % 2 : 0;
              if (join.Neighbors(i, eps[e]) != expect[e][i]) {
                mismatches.fetch_add(1);
              }
            }
          });
        }
        for (std::thread& thread : threads) thread.join();
        EXPECT_EQ(mismatches.load(), 0u);
        if (store != nullptr) {
          EXPECT_LE(chunked->read_store()->peak_resident_chunks(), cap);
        }
      }
    }
  }
}

TEST(TileJoinPropertyTest, EmptyStoreAndEmptyBatch) {
  const traj::SegmentStore empty;
  const SegmentDistance dist;
  const GridNeighborhoodIndex grid(empty, dist);
  EXPECT_TRUE(grid.AllNeighbors(1.0, common::SharedPool(4)).empty());
  EXPECT_TRUE(grid.AllNeighborhoodSizes(1.0, common::SharedPool(4)).empty());
  const auto segs = RandomSegments(50, 20, 3, 88);
  const GridNeighborhoodIndex index(segs, dist);
  EXPECT_TRUE(index.NeighborsBatch({}, 1.0, common::SharedPool(4)).empty());
}

// BlockLayout::SegmentRuns of every segment of `queries` against the layout
// of `cands`: the runs are ascending, disjoint and inside [0, n), and every
// position outside them holds a candidate that the per-pair midpoint bound
// drops (the kernels' squared midpoint distance, summed in dimension order,
// through distance::ProvablyFar at the pair's own scale). Returns the
// positions skipped over all queries.
size_t ExpectSegmentRunsAdmissible(const traj::SegmentStore& cands,
                                   const traj::SegmentStore& queries,
                                   const SegmentDistance& dist, double eps) {
  const BlockLayout layout = BlockLayout::Morton(cands);
  const distance::Reach reach = distance::PruneReach(dist, eps);
  const size_t n = cands.size();
  size_t skipped = 0;
  std::vector<distance::IndexRun> runs;
  for (size_t q = 0; q < queries.size(); ++q) {
    double mid[geom::kMaxDims];
    for (int d = 0; d < queries.dims(); ++d) {
      mid[d] = queries.midpoint_coords(d)[q];
    }
    layout.SegmentRuns(mid, queries.half_length(q), reach, runs);
    std::vector<char> inside(n, 0);
    size_t end = 0;
    for (const distance::IndexRun& run : runs) {
      EXPECT_LE(end, run.first) << "query " << q;
      EXPECT_LT(run.first, run.last) << "query " << q;
      EXPECT_LE(run.last, n) << "query " << q;
      end = run.last;
      for (size_t p = run.first; p < std::min(run.last, n); ++p) inside[p] = 1;
    }
    for (size_t p = 0; p < n; ++p) {
      if (inside[p] != 0) continue;
      ++skipped;
      const size_t j = layout.order()[p];
      double dmid_sq = 0.0;
      double scale = queries.half_length(q) + cands.half_length(j);
      for (int d = 0; d < cands.dims(); ++d) {
        const double diff = cands.midpoint_coords(d)[j] - mid[d];
        dmid_sq += diff * diff;
        scale += std::fabs(mid[d]) + std::fabs(cands.midpoint_coords(d)[j]);
      }
      EXPECT_TRUE(distance::ProvablyFar(dmid_sq, reach.At(scale),
                                        queries.half_length(q),
                                        cands.half_length(j)))
          << "query " << q << " skips candidate " << j;
    }
  }
  return skipped;
}

// The runs of one query segment with midpoint `mid` and half-length `half`.
std::vector<std::pair<size_t, size_t>> RunsOf(const BlockLayout& layout,
                                              std::vector<double> mid,
                                              double half,
                                              const distance::Reach& reach) {
  std::vector<distance::IndexRun> runs;
  layout.SegmentRuns(mid.data(), half, reach, runs);
  std::vector<std::pair<size_t, size_t>> out;
  for (const distance::IndexRun& run : runs) out.emplace_back(run.first, run.last);
  return out;
}

TEST(BlockLayoutTest, SegmentRunsSkipOnlyProvablyFarPositions) {
  const SegmentDistance dist;
  const auto cands = RandomSegments(400, 80, 6, 91);
  const auto queries = RandomSegments(200, 90, 6, 92);
  for (const double eps : {0.5, 4.0, 15.0}) {
    SCOPED_TRACE(eps);
    // The index must skip something, or the check above is vacuous.
    EXPECT_GT(ExpectSegmentRunsAdmissible(cands, queries, dist, eps), 0u);
  }
  SCOPED_TRACE("3-D");
  EXPECT_GT(ExpectSegmentRunsAdmissible(Random3d(300, 40, 4, 93),
                                        Random3d(150, 45, 4, 94), dist, 2.0),
            0u);
}

TEST(BlockLayoutTest, SegmentRunsWithCoincidentMidpoints) {
  // Every candidate midpoint is exactly (3, 4), as in the chunked test above:
  // a query at that midpoint skips nothing, one far away skips everything.
  common::Rng rng(95);
  std::vector<Segment> segs;
  for (size_t i = 0; i < 170; ++i) {
    const double dx = static_cast<double>(rng.UniformInt(-320, 320)) / 64;
    const double dy = static_cast<double>(rng.UniformInt(-320, 320)) / 64;
    segs.emplace_back(Point(3 - dx, 4 - dy), Point(3 + dx, 4 + dy),
                      static_cast<geom::SegmentId>(i), 0);
  }
  const traj::SegmentStore cands(std::move(segs));
  const traj::SegmentStore queries(std::vector<Segment>{
      Segment(Point(2, 4), Point(4, 4)), Segment(Point(3, 4), Point(3, 4)),
      Segment(Point(100, 100), Point(101, 100))});
  const SegmentDistance dist;
  EXPECT_EQ(ExpectSegmentRunsAdmissible(cands, queries, dist, 2.0),
            cands.size());
  const BlockLayout layout = BlockLayout::Morton(cands);
  const std::vector<std::pair<size_t, size_t>> all = {{0, cands.size()}};
  const distance::Reach reach = distance::PruneReach(dist, 2.0);
  EXPECT_EQ(RunsOf(layout, {3, 4}, 0.0, reach), all);
  EXPECT_TRUE(RunsOf(layout, {100.5, 100}, 0.5, reach).empty());
}

TEST(BlockLayoutTest, SegmentRunsCoverEverythingWhenNothingIsProvable) {
  const auto cands = RandomSegments(300, 80, 6, 96);
  const BlockLayout layout = BlockLayout::Morton(cands);
  const std::vector<std::pair<size_t, size_t>> all = {{0, cands.size()}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const distance::Reach reach = distance::PruneReach(SegmentDistance(), 1.0);
  // A far query skips blocks; a non-finite midpoint or half-length skips none.
  EXPECT_NE(RunsOf(layout, {500, 500}, 1.0, reach), all);
  EXPECT_EQ(RunsOf(layout, {nan, 500}, 1.0, reach), all);
  EXPECT_EQ(RunsOf(layout, {500, -inf}, 1.0, reach), all);
  EXPECT_EQ(RunsOf(layout, {500, 500}, inf, reach), all);
  EXPECT_EQ(RunsOf(layout, {500, 500}, nan, reach), all);
  // Nor does an infinite reach: w⊥ = 0 makes the lower-bound factor 0.
  SegmentDistanceConfig no_perp;
  no_perp.w_perpendicular = 0.0;
  const distance::Reach no_reach =
      distance::PruneReach(SegmentDistance(no_perp), 1.0);
  EXPECT_TRUE(std::isinf(no_reach.radius));
  EXPECT_EQ(RunsOf(layout, {500, 500}, 1.0, no_reach), all);
  // A layout with nothing in it is one empty run.
  const BlockLayout empty = BlockLayout::Morton(traj::SegmentStore());
  const std::vector<std::pair<size_t, size_t>> none = {{0, 0}};
  EXPECT_EQ(RunsOf(empty, {0, 0}, 1.0, reach), none);
}

// The refine kernels' counters on a fixed store, pinned: staging survivors
// differently must not change what is counted, and neither kernel may prune
// differently. Identical for every kernel and block size. With w∥ = 0,
// c = 0 and only the prune's angle and perpendicular stages can prune.
TEST(RefineStatsTest, TileAndRangeCountersArePinned) {
  const auto store = RandomSegments(200, 50, 5, 91);
  std::vector<size_t> queries(store.size());
  std::iota(queries.begin(), queries.end(), size_t{0});
  struct Pin {
    double w_parallel;
    distance::RefineStats tile;
    distance::RefineStats range;  // Query 17 over the whole store.
  };
  const Pin pins[] = {
      {1.0, {40000, 38780, 1220, 538}, {200, 195, 5, 2}},
      {0.0, {40000, 36290, 3710, 3554}, {200, 187, 13, 13}},  // c = 0.
  };
  const auto expect_stats = [](const distance::RefineStats& got,
                               const distance::RefineStats& want) {
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.pruned, want.pruned);
    EXPECT_EQ(got.refined, want.refined);
    EXPECT_EQ(got.accepted, want.accepted);
  };
  for (const Pin& pin : pins) {
    SegmentDistanceConfig config;
    config.w_parallel = pin.w_parallel;
    const SegmentDistance dist(config);
    for (const distance::BatchKernel kernel : AvailableKernels()) {
      for (const size_t block : {size_t{0}, size_t{7}}) {
        SCOPED_TRACE(testing::Message()
                     << "w_parallel " << pin.w_parallel << " kernel "
                     << distance::BatchKernelName(kernel) << " block "
                     << block);
        distance::BatchOptions options;
        options.kernel = kernel;
        options.block = block;
        distance::RefineStats tile;
        std::vector<std::vector<size_t>> lists(queries.size());
        distance::EpsilonRefineTile(store, dist, queries, 0, store.size(),
                                    4.0, lists.data(), options, &tile);
        expect_stats(tile, pin.tile);
        distance::RefineStats range;
        std::vector<size_t> list;
        const distance::IndexRun all{0, store.size()};
        distance::EpsilonRefineRuns(store, dist, 17, store, {&all, 1}, 4.0, 0,
                                    list, options, &range);
        expect_stats(range, pin.range);
      }
    }
  }
}

}  // namespace
}  // namespace traclus::cluster
