// Tests for the persistent neighbor cache (cluster/neighbor_cache_file.h)
// and its content-hash keying (distance/hashing.h): every key input
// perturbation must miss, every bad file must fail with the documented typed
// status (never a silent wrong answer) — including a seeded mutation fuzz
// of a saved hurricane-subset file, each mutant of which the engine must
// heal into the uncached clustering — and served lists must be
// byte-identical to the base provider on both the cold and the warm path —
// through the raw provider API and through the full engine, after the file
// changes under a live cache, and under queries racing from 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/neighbor_cache_file.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "distance/hashing.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace traclus::cluster {
namespace {

// A fresh directory under the gtest temp root, unique per test.
std::string CacheDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "neighbor_cache_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A small two-bundle segment set: enough structure for non-trivial
// neighborhoods, small enough that every list is easy to cross-check.
std::vector<geom::Segment> BaseSegments() {
  std::vector<geom::Segment> segments;
  geom::SegmentId id = 0;
  for (int b = 0; b < 2; ++b) {
    const double y0 = b * 50.0;
    for (int i = 0; i < 6; ++i) {
      segments.emplace_back(geom::Point(i * 0.3, y0 + 0.1 * i),
                            geom::Point(i * 0.3 + 4.0, y0 + 0.1 * i + 0.2),
                            id, /*trajectory_id=*/b * 6 + i);
      ++id;
    }
  }
  return segments;
}

constexpr double kEps = 2.5;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t WordAt(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

void SetWordAt(std::string* bytes, size_t pos, uint64_t v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

// v3 layout (cluster/neighbor_cache_file.h): the fixed header is 40 bytes,
// total_indices is its last word, and offsets[0] follows it.
constexpr size_t kTotalIndicesPos = 32;
constexpr size_t kOffsetsPos = 40;

TEST(NeighborCacheKeyTest, EveryKeyInputPerturbationChangesTheKey) {
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistanceConfig config;
  const uint64_t key = distance::NeighborhoodCacheKey(store, config, kEps);

  // Stability first: rebuilding the same store yields the same key.
  EXPECT_EQ(distance::NeighborhoodCacheKey(traj::SegmentStore(BaseSegments()),
                                           config, kEps),
            key);

  // One-ULP coordinate change.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(
        geom::Point(std::nextafter(s.start().x(), 1e9), s.start().y()),
        s.end(), s.id(), s.trajectory_id(), s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Segment id.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(s.start(), s.end(), s.id() + 100,
                                s.trajectory_id(), s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Trajectory id.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(s.start(), s.end(), s.id(),
                                s.trajectory_id() + 100, s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Segment weight.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] =
        geom::Segment(s.start(), s.end(), s.id(), s.trajectory_id(), 2.0);
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Each distance weight, one ULP.
  for (int which = 0; which < 3; ++which) {
    distance::SegmentDistanceConfig perturbed = config;
    double* w = which == 0   ? &perturbed.w_perpendicular
                : which == 1 ? &perturbed.w_parallel
                             : &perturbed.w_angle;
    *w = std::nextafter(*w, 2.0);
    EXPECT_NE(distance::NeighborhoodCacheKey(store, perturbed, kEps), key)
        << "distance weight " << which;
  }
  // Directed flag.
  {
    distance::SegmentDistanceConfig undirected = config;
    undirected.directed = false;
    EXPECT_NE(distance::NeighborhoodCacheKey(store, undirected, kEps), key);
  }
  // ε, one ULP.
  EXPECT_NE(distance::NeighborhoodCacheKey(store, config,
                                           std::nextafter(kEps, 1e9)),
            key);
}

TEST(NeighborCacheFileTest, ColdMissThenWarmHitServesIdenticalLists) {
  const std::string dir = CacheDir("miss_then_hit");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(2);

  auto cold = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE((*cold)->loaded_from_file());
  EXPECT_TRUE(std::filesystem::exists((*cold)->file_path()));

  auto warm = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE((*warm)->loaded_from_file());
  EXPECT_EQ((*warm)->key(), (*cold)->key());
  EXPECT_EQ((*warm)->size(), store.size());

  // Every query method, on both sides, equals the base provider exactly.
  const auto expect = base.AllNeighbors(kEps, pool);
  std::vector<size_t> all_queries(store.size());
  for (size_t i = 0; i < store.size(); ++i) all_queries[i] = i;
  for (const FileNeighborhoodCache* cache : {cold->get(), warm->get()}) {
    EXPECT_EQ(cache->AllNeighbors(kEps, pool), expect);
    EXPECT_EQ(cache->NeighborsBatch(all_queries, kEps, pool), expect);
    const auto sizes = cache->AllNeighborhoodSizes(kEps, pool);
    ASSERT_EQ(sizes.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(sizes[i], expect[i].size());
      EXPECT_EQ(cache->Neighbors(i, kEps), expect[i]);
    }
  }

  // Perturbing a key input routes to a DIFFERENT file: the stale file stays,
  // a second one appears.
  auto segments = BaseSegments();
  const geom::Segment& s = segments[0];
  segments[0] =
      geom::Segment(s.start(), s.end(), s.id(), s.trajectory_id(), 3.0);
  const traj::SegmentStore perturbed(segments);
  const BruteForceNeighborhood perturbed_base(perturbed, dist);
  auto other = FileNeighborhoodCache::Create(perturbed_base, perturbed,
                                             dist.config(), kEps, dir, pool);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE((*other)->loaded_from_file());
  EXPECT_NE((*other)->key(), (*cold)->key());
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST(NeighborCacheFileTest, ServesTheValidatedListsAfterTheFileChanges) {
  const std::string dir = CacheDir("served_after_change");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(2);
  auto cold = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE((*warm)->loaded_from_file());

  // Overwrite every payload word in place with 2^40, keeping the size: a
  // cache that went back to the file after validating it would now serve
  // out-of-range indices.
  const std::string path = (*warm)->file_path();
  const auto size = std::filesystem::file_size(path);
  {
    const uint64_t total = WordAt(ReadFileBytes(path), kTotalIndicesPos);
    ASSERT_GT(total, 0u);
    const std::vector<uint64_t> lies(total, uint64_t{1} << 40);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const size_t payload_pos =
        kOffsetsPos + (store.size() + 1) * sizeof(uint64_t);
    f.seekp(static_cast<std::streamoff>(payload_pos));
    f.write(reinterpret_cast<const char*>(lies.data()),
            static_cast<std::streamsize>(total * sizeof(uint64_t)));
    ASSERT_TRUE(f.good());
  }
  ASSERT_EQ(std::filesystem::file_size(path), size);

  const FileNeighborhoodCache& cache = **warm;
  const auto expect = base.AllNeighbors(kEps, pool);
  std::vector<size_t> all_queries(store.size());
  for (size_t i = 0; i < store.size(); ++i) all_queries[i] = i;
  EXPECT_EQ(cache.AllNeighbors(kEps, pool), expect);
  EXPECT_EQ(cache.NeighborsBatch(all_queries, kEps, pool), expect);
  const auto sizes = cache.AllNeighborhoodSizes(kEps, pool);
  ASSERT_EQ(sizes.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(sizes[i], expect[i].size());
    EXPECT_EQ(cache.Neighbors(i, kEps), expect[i]);
  }
}

TEST(NeighborCacheFileTest, RacingQueriesOnOneWarmCacheServeTheBaseLists) {
  const std::string dir = CacheDir("racing_queries");
  datagen::HurricaneConfig subset;
  subset.num_trajectories = 60;
  core::DbscanGroupOptions group;
  group.eps = 0.94;
  const auto engine = core::TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto partitioned = engine->Partition(datagen::GenerateHurricanes(subset));
  ASSERT_TRUE(partitioned.ok());
  const traj::SegmentStore& store = partitioned->store;
  const distance::SegmentDistance dist;
  const GridNeighborhoodIndex base(store, dist);
  const double eps = group.eps;
  common::ThreadPool& pool = common::SharedPool(2);
  auto cold = FileNeighborhoodCache::Create(base, store, dist.config(), eps,
                                            dir, pool);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = FileNeighborhoodCache::Create(base, store, dist.config(), eps,
                                            dir, pool);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE((*warm)->loaded_from_file());
  const FileNeighborhoodCache& cache = **warm;
  const auto expect = base.AllNeighbors(eps, pool);

  // Each thread asks for every list one by one, then in a batch of its own
  // shuffled order, twice; every answer must equal the base provider's.
  constexpr int kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<size_t> order(store.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (int round = 0; round < 2; ++round) {
        for (size_t i = order.size(); i > 1; --i) {
          const auto j = rng.UniformInt(0, static_cast<int64_t>(i) - 1);
          std::swap(order[i - 1], order[static_cast<size_t>(j)]);
        }
        for (const size_t i : order) {
          if (cache.Neighbors(i, eps) != expect[i]) ++mismatches[t];
        }
        const auto lists = cache.NeighborsBatch(order, eps, pool);
        for (size_t k = 0; k < order.size(); ++k) {
          if (lists[k] != expect[order[k]]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// A cold cache serves what the writer returns instead of reading the file
// back, so that must be exactly what a load of the file reads: header,
// offsets, payload and checksum.
TEST(NeighborCacheFileTest, WriteReturnsWhatALoadReads) {
  const std::string dir = CacheDir("write_returns");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(2);
  const uint64_t key = distance::NeighborhoodCacheKey(store, dist.config(),
                                                      kEps);
  const std::string path = NeighborCacheFilePath(dir, key);
  const auto written = WriteNeighborCacheFile(path, key, base, kEps, pool);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const auto loaded =
      LoadNeighborCacheFileHeader(path, key, store.size(), kEps);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(written->key, loaded->key);
  EXPECT_EQ(written->n, loaded->n);
  EXPECT_EQ(std::memcmp(&written->eps, &loaded->eps, sizeof(double)), 0);
  EXPECT_EQ(written->total_indices, loaded->total_indices);
  EXPECT_EQ(written->offsets, loaded->offsets);
  EXPECT_EQ(written->payload, loaded->payload);
  EXPECT_EQ(written->checksum, loaded->checksum);

  // A cold Create serves the same lists.
  std::filesystem::remove(path);
  auto cold = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE((*cold)->loaded_from_file());
  EXPECT_EQ((*cold)->AllNeighbors(kEps, pool), base.AllNeighbors(kEps, pool));
  EXPECT_TRUE(LoadNeighborCacheFileHeader(path, key, store.size(), kEps).ok());
}

TEST(NeighborCacheFileTest, LoadFailsWithTypedStatusOnEveryBadFile) {
  const std::string dir = CacheDir("typed_errors");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(1);
  const uint64_t key = distance::NeighborhoodCacheKey(store, dist.config(),
                                                      kEps);
  const std::string path = NeighborCacheFilePath(dir, key);

  // Missing file → NotFound.
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kNotFound);

  ASSERT_TRUE(WriteNeighborCacheFile(path, key, base, kEps, pool).ok());
  ASSERT_TRUE(
      LoadNeighborCacheFileHeader(path, key, store.size(), kEps).ok());

  // Stale expectations → FailedPrecondition, each key component separately.
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key + 1, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size() + 1, kEps)
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(),
                                        std::nextafter(kEps, 1e9))
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);

  // Truncation → IOError: drop the trailing sentinel.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 4);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kIOError);
  // Shorter than even the fixed header → IOError too.
  std::filesystem::resize_file(path, 16);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kIOError);

  // A v2 file (a byte-wise FNV-1a checksum) is an unsupported version →
  // InvalidArgument.
  ASSERT_TRUE(WriteNeighborCacheFile(path, key, base, kEps, pool).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(4);
    const uint32_t v2 = 2;
    f.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
  }
  const auto old_version =
      LoadNeighborCacheFileHeader(path, key, store.size(), kEps);
  EXPECT_EQ(old_version.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(
      old_version.status().message().find("unsupported format version 2"),
      std::string::npos)
      << old_version.status().ToString();

  // Corrupt magic → InvalidArgument.
  ASSERT_TRUE(WriteNeighborCacheFile(path, key, base, kEps, pool).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const uint32_t bad = 0xDEADBEEFu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  // Create() must recover from ALL of the above by recomputing: hand it the
  // corrupt file and expect a fresh (cold) cache with correct lists.
  auto recovered = FileNeighborhoodCache::Create(base, store, dist.config(),
                                                 kEps, dir, pool);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE((*recovered)->loaded_from_file());
  EXPECT_EQ((*recovered)->AllNeighbors(kEps, pool),
            base.AllNeighbors(kEps, pool));
  // ... and the rewrite healed the file for the next run.
  auto healed = FileNeighborhoodCache::Create(base, store, dist.config(),
                                              kEps, dir, pool);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE((*healed)->loaded_from_file());
}

// A provider that answers like `base` except that `mutate` rewrites list
// `target`: the writer then records a wrong list under a valid checksum, so
// only the load's payload checks stand between it and a caller.
class LyingProvider : public NeighborhoodProvider {
 public:
  LyingProvider(const NeighborhoodProvider& base, size_t target,
                std::function<void(std::vector<size_t>*)> mutate)
      : base_(base), target_(target), mutate_(std::move(mutate)) {}

  std::vector<size_t> Neighbors(size_t query_index,
                                double eps) const override {
    std::vector<size_t> list = base_.Neighbors(query_index, eps);
    if (query_index == target_) mutate_(&list);
    return list;
  }
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& /*pool*/) const override {
    std::vector<std::vector<size_t>> lists(size());
    for (size_t i = 0; i < size(); ++i) lists[i] = Neighbors(i, eps);
    return lists;
  }
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override {
    std::vector<size_t> sizes;
    for (const auto& list : AllNeighbors(eps, pool)) {
      sizes.push_back(list.size());
    }
    return sizes;
  }
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& /*pool*/) const override {
    std::vector<std::vector<size_t>> lists;
    for (const size_t q : queries) lists.push_back(Neighbors(q, eps));
    return lists;
  }
  size_t size() const override { return base_.size(); }

 private:
  const NeighborhoodProvider& base_;
  size_t target_;
  std::function<void(std::vector<size_t>*)> mutate_;
};

TEST(NeighborCacheFileTest, LoadRejectsAWrongListUnderAValidChecksum) {
  const std::string dir = CacheDir("payload_checks");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(1);
  const uint64_t key = distance::NeighborhoodCacheKey(store, dist.config(),
                                                      kEps);
  const std::string path = NeighborCacheFilePath(dir, key);
  const size_t target = 3;
  ASSERT_GE(base.Neighbors(target, kEps).size(), 2u);

  const std::vector<std::pair<std::string,
                              std::function<void(std::vector<size_t>*)>>>
      lies = {
          {"out-of-range index",
           [&](std::vector<size_t>* l) { l->push_back(store.size()); }},
          {"index 2^40", [](std::vector<size_t>* l) { l->back() = 1ull << 40; }},
          {"descending pair",
           [](std::vector<size_t>* l) { std::swap((*l)[0], (*l)[1]); }},
          {"duplicate index",
           [](std::vector<size_t>* l) { l->push_back(l->back()); }},
          {"own index missing",
           [&](std::vector<size_t>* l) {
             std::vector<size_t> kept;
             for (const size_t v : *l) {
               if (v != target) kept.push_back(v);
             }
             *l = kept;
           }},
          {"empty list", [](std::vector<size_t>* l) { l->clear(); }},
      };
  for (const auto& [what, mutate] : lies) {
    SCOPED_TRACE(what);
    const LyingProvider liar(base, target, mutate);
    ASSERT_TRUE(WriteNeighborCacheFile(path, key, liar, kEps, pool).ok());
    EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                  .status()
                  .code(),
              common::StatusCode::kInvalidArgument);
    // Create recomputes through the honest provider and rewrites the file.
    auto healed = FileNeighborhoodCache::Create(base, store, dist.config(),
                                                kEps, dir, pool);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_FALSE((*healed)->loaded_from_file());
    EXPECT_EQ((*healed)->AllNeighbors(kEps, pool), base.AllNeighbors(kEps, pool));
  }
}

// Seeded mutation fuzz over a saved hurricane-subset file: byte flips
// anywhere, truncations, and lies in total_indices and in the offsets. Every
// mutant must fail the load with a typed status, and an engine run over the
// mutant (FileNeighborhoodCache::Create) must recompute, rewrite the file,
// and cluster exactly like the uncached run.
TEST(NeighborCacheFuzzTest, EveryMutantFailsTypedAndTheEngineHealsIt) {
  const std::string dir = CacheDir("fuzz");
  datagen::HurricaneConfig subset;
  subset.num_trajectories = 60;
  const traj::TrajectoryDatabase db = datagen::GenerateHurricanes(subset);
  core::DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5.0;
  const auto engine = core::TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto partitioned = engine->Partition(db);
  ASSERT_TRUE(partitioned.ok());
  const traj::SegmentStore& store = partitioned->store;
  const auto expect = engine->Group(store);
  ASSERT_TRUE(expect.ok());
  ASSERT_FALSE(expect->clusters.empty());

  core::RunContext cached;
  cached.num_threads = 2;
  cached.neighbor_cache_dir = dir;
  ASSERT_TRUE(engine->Group(store, cached).ok());  // Writes the file.
  const uint64_t key =
      distance::NeighborhoodCacheKey(store, group.distance, group.eps);
  const std::string path = NeighborCacheFilePath(dir, key);
  auto header = LoadNeighborCacheFileHeader(path, key, store.size(), group.eps);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  const std::string original = ReadFileBytes(path);
  const uint64_t n = store.size();
  const uint64_t total = header->total_indices;
  ASSERT_EQ(WordAt(original, kTotalIndicesPos), total);

  common::Rng rng(20261019);
  std::vector<std::pair<std::string, std::string>> mutants;
  const auto pick = [&](uint64_t lo, uint64_t hi) {
    return static_cast<uint64_t>(rng.UniformInt(static_cast<int64_t>(lo),
                                                static_cast<int64_t>(hi)));
  };
  for (int m = 0; m < 64; ++m) {
    std::string bytes = original;
    const size_t pos = pick(0, bytes.size() - 1);
    bytes[pos] = static_cast<char>(bytes[pos] ^ static_cast<char>(pick(1, 255)));
    mutants.emplace_back("flip byte " + std::to_string(pos), bytes);
  }
  for (int m = 0; m < 16; ++m) {
    const size_t keep = pick(0, original.size() - 1);
    mutants.emplace_back("truncate to " + std::to_string(keep),
                         original.substr(0, keep));
  }
  for (const uint64_t lie :
       {uint64_t{0}, total - 1, total + 1, total * 2, uint64_t{1} << 40,
        uint64_t{1} << 61, std::numeric_limits<uint64_t>::max(),
        pick(0, total * 4)}) {
    if (lie == total) continue;
    std::string bytes = original;
    SetWordAt(&bytes, kTotalIndicesPos, lie);
    mutants.emplace_back("total_indices " + std::to_string(lie), bytes);
  }
  for (int m = 0; m < 16; ++m) {
    std::string bytes = original;
    const size_t i = pick(0, n);
    const size_t pos = kOffsetsPos + i * sizeof(uint64_t);
    const uint64_t was = WordAt(bytes, pos);
    const uint64_t lie = m % 2 == 0 ? pick(0, total + 8)
                                    : (m % 4 == 1 ? was + 1 : was - 1);
    if (lie == was) continue;
    SetWordAt(&bytes, pos, lie);
    mutants.emplace_back(
        "offsets[" + std::to_string(i) + "] = " + std::to_string(lie), bytes);
  }

  for (const auto& [what, bytes] : mutants) {
    SCOPED_TRACE(what);
    WriteFileBytes(path, bytes);
    const common::Status status =
        LoadNeighborCacheFileHeader(path, key, n, group.eps).status();
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.code() == common::StatusCode::kInvalidArgument ||
                status.code() == common::StatusCode::kIOError ||
                status.code() == common::StatusCode::kFailedPrecondition)
        << status.ToString();

    const auto got = engine->Group(store, cached);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->labels, expect->labels);
    EXPECT_EQ(got->num_noise, expect->num_noise);
    ASSERT_EQ(got->clusters.size(), expect->clusters.size());
    for (size_t c = 0; c < got->clusters.size(); ++c) {
      EXPECT_EQ(got->clusters[c].member_indices,
                expect->clusters[c].member_indices);
    }
    EXPECT_EQ(ReadFileBytes(path), original) << "the rerun rewrites the file";
  }
}

TEST(NeighborCacheFileTest, EngineRunsAreByteIdenticalColdWarmAndUncached) {
  const std::string dir = CacheDir("engine");
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  core::DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5.0;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto plain = core::TraclusEngine::Builder()
                         .UseMdlPartitioning()
                         .UseDbscanGrouping(group)
                         .UseSweepRepresentatives(reps)
                         .Build();
  ASSERT_TRUE(plain.ok());

  core::RunContext ctx;
  ctx.neighbor_cache_dir = dir;
  const auto expect = plain->Run(db);
  ASSERT_TRUE(expect.ok());
  const auto cold = plain->Run(db, ctx);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const auto warm = plain->Run(db, ctx);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  for (const auto* run : {&cold, &warm}) {
    EXPECT_EQ((*run)->clustering.labels, expect->clustering.labels);
    EXPECT_EQ((*run)->clustering.num_noise, expect->clustering.num_noise);
    ASSERT_EQ((*run)->representatives.size(), expect->representatives.size());
    for (size_t r = 0; r < expect->representatives.size(); ++r) {
      ASSERT_EQ((*run)->representatives[r].size(),
                expect->representatives[r].size());
      for (size_t p = 0; p < expect->representatives[r].size(); ++p) {
        EXPECT_EQ((*run)->representatives[r][p],
                  expect->representatives[r][p]);
      }
    }
  }

  // The warm run reused the cold run's file: exactly one file in the
  // directory after both runs.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace traclus::cluster
