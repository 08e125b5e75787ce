// Tests for core::ClusterSnapshot (core/snapshot.h): exact file round-trip
// on the golden hurricane and deer pipelines, assignment determinism across
// thread counts × kernels (and across FromResult vs Load), the typed error
// surface of Load/FromResult, and a concurrent Assign hammer that the TSan
// CI lane runs to certify the serving path race-free.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "traj/segment_store.h"
#include "traj/source.h"
#include "traj/trajectory_database.h"

namespace traclus::core {
namespace {

struct GoldenCase {
  const char* name;
  traj::TrajectoryDatabase db;
  double eps;
  double min_lns;
};

// The two golden pipelines (tests/golden/): hurricane at ε = 0.94 /
// MinLns = 5, deer at ε = 1.8 / MinLns = 8.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"hurricane",
                   datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
                   0.94, 5.0});
  cases.push_back({"deer", datagen::GenerateAnimals(datagen::Deer1995Config()),
                   1.8, 8.0});
  return cases;
}

common::Result<TraclusResult> RunPipeline(const GoldenCase& c,
                                          SnapshotParams* params) {
  DbscanGroupOptions group;
  group.eps = c.eps;
  group.min_lns = c.min_lns;
  SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto engine = TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  if (!engine.ok()) return engine.status();
  if (params != nullptr) {
    params->eps = group.eps;
    params->distance = group.distance;
  }
  return engine->Run(c.db);
}

std::string SnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "snapshot_test_" + name + ".snap";
}

void ExpectSameAssignment(const common::Span<const int> a_labels,
                          const common::Span<const double> a_dist,
                          const common::Span<const int> b_labels,
                          const common::Span<const double> b_dist) {
  ASSERT_EQ(a_labels.size(), b_labels.size());
  for (size_t i = 0; i < a_labels.size(); ++i) {
    EXPECT_EQ(a_labels[i], b_labels[i]) << "query " << i;
    // Bitwise distance equality (covers +inf == +inf and exact doubles).
    EXPECT_EQ(a_dist[i], b_dist[i]) << "query " << i;
  }
}

TEST(ClusterSnapshotTest, RoundTripAndAssignDeterminismOnGoldenPipelines) {
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    SnapshotParams params;
    const auto run = RunPipeline(c, &params);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const auto built = ClusterSnapshot::FromResult(*run, params);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ClusterSnapshot& snapshot = **built;
    EXPECT_GT(snapshot.candidate_store().size(), 0u);
    ASSERT_EQ(snapshot.candidate_labels().size(),
              snapshot.candidate_store().size());

    // Save → Load round-trips the full state exactly.
    const std::string path = SnapshotPath(c.name);
    ASSERT_TRUE(snapshot.Save(path).ok());
    const auto loaded = ClusterSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ClusterSnapshot& reloaded = **loaded;
    EXPECT_EQ(reloaded.clustering().labels, snapshot.clustering().labels);
    EXPECT_EQ(reloaded.clustering().num_noise,
              snapshot.clustering().num_noise);
    ASSERT_EQ(reloaded.store().size(), snapshot.store().size());
    for (int d = 0; d < snapshot.store().dims(); ++d) {
      EXPECT_EQ(reloaded.store().start_coords(d),
                snapshot.store().start_coords(d));
      EXPECT_EQ(reloaded.store().end_coords(d),
                snapshot.store().end_coords(d));
    }
    ASSERT_EQ(reloaded.representatives().size(),
              snapshot.representatives().size());
    for (size_t r = 0; r < snapshot.representatives().size(); ++r) {
      ASSERT_EQ(reloaded.representatives()[r].size(),
                snapshot.representatives()[r].size());
      for (size_t p = 0; p < snapshot.representatives()[r].size(); ++p) {
        EXPECT_EQ(reloaded.representatives()[r][p],
                  snapshot.representatives()[r][p]);
      }
    }
    ASSERT_EQ(reloaded.candidate_store().size(),
              snapshot.candidate_store().size());
    EXPECT_EQ(reloaded.candidate_labels(), snapshot.candidate_labels());
    EXPECT_EQ(reloaded.params().eps, snapshot.params().eps);

    // Self-assignment of the run's own store as the reference answer:
    // threads {1, 4} × kernels {scalar, simd, auto}, on BOTH the built and
    // the reloaded snapshot, must all agree bit for bit.
    const traj::SegmentStore& queries = run->store;
    std::vector<int> ref_labels(queries.size());
    std::vector<double> ref_dist(queries.size());
    AssignOptions ref_options;
    ref_options.kernel = distance::BatchKernel::kScalar;
    ref_options.num_threads = 1;
    ASSERT_TRUE(snapshot
                    .AssignSegments(queries, common::Span<int>(ref_labels),
                                    common::Span<double>(ref_dist),
                                    ref_options)
                    .ok());
    // Sanity: members of a cluster whose candidates include them sit at
    // distance 0 of themselves only if they are candidates; weaker but
    // universal: every label is kNoise or a valid cluster id.
    for (const int label : ref_labels) {
      EXPECT_GE(label, cluster::kNoise);
      EXPECT_LT(label, static_cast<int>(run->clustering.clusters.size()));
    }

    for (const ClusterSnapshot* s : {&snapshot, &reloaded}) {
      for (const int threads : {1, 4}) {
        for (const distance::BatchKernel kernel :
             {distance::BatchKernel::kScalar, distance::BatchKernel::kSimd,
              distance::BatchKernel::kAuto}) {
          AssignOptions options;
          options.kernel = kernel;
          options.num_threads = threads;
          std::vector<int> labels(queries.size());
          std::vector<double> dist(queries.size());
          ASSERT_TRUE(s->AssignSegments(queries, common::Span<int>(labels),
                                        common::Span<double>(dist), options)
                          .ok());
          ExpectSameAssignment(
              common::Span<const int>(ref_labels),
              common::Span<const double>(ref_dist),
              common::Span<const int>(labels),
              common::Span<const double>(dist));
        }
      }
    }
  }
}

// FNV-1a over the labels and the distance bits of an assignment.
uint64_t AssignmentFingerprint(const std::vector<int>& labels,
                               const std::vector<double>& dist) {
  uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  add(labels.data(), labels.size() * sizeof(int));
  add(dist.data(), dist.size() * sizeof(double));
  return h;
}

// The self-assignment of the default hurricane pipeline, pinned to the value
// the full candidate scan produced before serving used the block index.
TEST(ClusterSnapshotTest, HurricaneSelfAssignmentFingerprintIsPinned) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const traj::SegmentStore& queries = run->store;
  std::vector<int> labels(queries.size());
  std::vector<double> dist(queries.size());
  ASSERT_TRUE((*built)
                  ->AssignSegments(queries, common::Span<int>(labels),
                                   common::Span<double>(dist))
                  .ok());
  EXPECT_EQ(AssignmentFingerprint(labels, dist), 0x4ec6ed394cd711bdULL);
}

TEST(ClusterSnapshotTest, AssignTrajectoryVotesAndMatchesSegmentPath) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const ClusterSnapshot& snapshot = **built;

  size_t assigned = 0;
  for (const traj::Trajectory& t : c.db.trajectories()) {
    const auto a = snapshot.AssignTrajectory(t);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_EQ(a->segment_labels.size(), a->segment_distances.size());
    // The vote is consistent with the per-segment labels: the winning
    // cluster (when not noise) appears among them at least as often as any
    // other cluster.
    if (a->cluster != cluster::kNoise) {
      ++assigned;
      size_t wins = 0;
      for (const int label : a->segment_labels) {
        if (label == a->cluster) ++wins;
      }
      EXPECT_GT(wins, 0u);
      for (size_t cl = 0; cl < run->clustering.clusters.size(); ++cl) {
        size_t votes = 0;
        for (const int label : a->segment_labels) {
          if (label == static_cast<int>(cl)) ++votes;
        }
        EXPECT_LE(votes, wins);
      }
    } else {
      for (size_t i = 0; i < a->segment_labels.size(); ++i) {
        EXPECT_EQ(a->segment_labels[i], cluster::kNoise);
        EXPECT_EQ(a->segment_distances[i],
                  std::numeric_limits<double>::infinity());
      }
    }
  }
  // The corpus that produced the clustering overwhelmingly assigns back
  // into it.
  EXPECT_GT(assigned, c.db.size() / 2);

  // A two-point degenerate trajectory still assigns; a one-point one is a
  // typed error.
  traj::Trajectory tiny(9999);
  tiny.Add(geom::Point(0.0, 0.0));
  EXPECT_EQ(snapshot.AssignTrajectory(tiny).status().code(),
            common::StatusCode::kInvalidArgument);
  tiny.Add(geom::Point(1.0, 1.0));
  EXPECT_TRUE(snapshot.AssignTrajectory(tiny).ok());
}

TEST(ClusterSnapshotTest, LoadFailsWithTypedStatusOnBadFiles) {
  // Missing → NotFound.
  EXPECT_EQ(ClusterSnapshot::Load(SnapshotPath("never_written"))
                .status()
                .code(),
            common::StatusCode::kNotFound);

  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const std::string path = SnapshotPath("bad_files");
  ASSERT_TRUE((*built)->Save(path).ok());
  ASSERT_TRUE(ClusterSnapshot::Load(path).ok());

  // Truncated → IOError.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kIOError);

  // Corrupt magic → InvalidArgument.
  ASSERT_TRUE((*built)->Save(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const uint32_t bad = 0xDEADBEEFu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kInvalidArgument);

  // Trailing garbage → InvalidArgument (the sentinel + EOF check).
  ASSERT_TRUE((*built)->Save(path).ok());
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char junk = 'x';
    f.write(&junk, 1);
  }
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kInvalidArgument);

  // FromResult rejects a capped-streaming result (empty store with labels)
  // and a non-positive ε.
  TraclusResult empty;
  empty.clustering.labels.resize(4, cluster::kNoise);
  EXPECT_EQ(ClusterSnapshot::FromResult(empty, params).status().code(),
            common::StatusCode::kInvalidArgument);
  SnapshotParams bad_eps = params;
  bad_eps.eps = 0.0;
  EXPECT_EQ(ClusterSnapshot::FromResult(*run, bad_eps).status().code(),
            common::StatusCode::kInvalidArgument);
}

// Offsets into a saved snapshot file (format version of core/snapshot.cc):
// an 8-byte header, eight 8-byte parameters, then n and dims.
constexpr size_t kCountOffset = 72;
constexpr size_t kDimsOffset = 80;
constexpr size_t kSegmentsOffset = 88;

template <typename T>
T ReadAt(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

TEST(ClusterSnapshotTest, LoadRejectsBadCoordinatesAndLyingLengths) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const std::string path = SnapshotPath("lying_lengths");
  ASSERT_TRUE((*built)->Save(path).ok());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }

  // Walk the saved layout to the fields under attack.
  const auto n = ReadAt<uint64_t>(good, kCountOffset);
  const auto dims = ReadAt<uint64_t>(good, kDimsOffset);
  ASSERT_EQ(n, (*built)->store().size());
  const size_t clusters_offset = kSegmentsOffset + n * (24 + 16 * dims);
  const auto num_clusters = ReadAt<uint64_t>(good, clusters_offset);
  ASSERT_GT(num_clusters, 0u);
  const size_t members_offset = clusters_offset + 16;
  size_t offset = clusters_offset + 8;
  for (uint64_t k = 0; k < num_clusters; ++k) {
    offset += 16 + 8 * ReadAt<uint64_t>(good, offset + 8);
  }
  offset += 4 * n + 8;  // Labels, num_noise.
  ASSERT_EQ(ReadAt<uint64_t>(good, offset), num_clusters);  // num_reps.
  offset += 8;
  const size_t npoints_offset =
      offset + 24 + ReadAt<uint64_t>(good, offset + 16);
  ASSERT_GT(ReadAt<uint64_t>(good, npoints_offset), 0u);

  // Loads `bytes` written to the snapshot path.
  const auto load = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return ClusterSnapshot::Load(path).status();
  };
  // `bytes` with `value` stored at offset `at`.
  const auto patch = [](std::string bytes, size_t at, auto value) {
    std::memcpy(&bytes[at], &value, sizeof(value));
    return bytes;
  };
  const auto load_with = [&](size_t at, auto value) {
    return load(patch(good, at, value));
  };
  ASSERT_TRUE(load_with(kCountOffset, n).ok());

  // Coordinates: non-finite or beyond the CSV sources' 1e150 bound are
  // Corrupt (InvalidArgument) — on a segment endpoint and on a
  // representative point alike. The bound itself is accepted.
  const size_t first_x = kSegmentsOffset + 24;
  const size_t last_end_y = clusters_offset - 8;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e200,
                           -1e151}) {
    for (const size_t at : {first_x, last_end_y, npoints_offset + 8}) {
      const common::Status status = load_with(at, bad);
      EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument)
          << "value " << bad << " at byte " << at;
      EXPECT_NE(status.message().find("coordinate"), std::string::npos)
          << status.message();
    }
  }
  EXPECT_TRUE(load_with(first_x, 1e150).ok());
  EXPECT_TRUE(load_with(last_end_y, -1e150).ok());

  // Length fields larger than the rest of the file could hold are rejected
  // before anything is reserved: a typed truncation error naming the field,
  // not a multi-gigabyte allocation.
  const uint64_t huge = uint64_t{1} << 60;
  const auto expect_too_large = [](const common::Status& status,
                                   const char* field) {
    EXPECT_EQ(status.code(), common::StatusCode::kIOError) << field;
    EXPECT_NE(status.message().find(std::string(field) + " count"),
              std::string::npos)
        << status.message();
  };
  expect_too_large(load_with(kCountOffset, huge), "segment");
  const uint64_t segments_past_end =
      (good.size() - kSegmentsOffset) / (24 + 16 * dims) + 1;
  expect_too_large(load_with(kCountOffset, segments_past_end), "segment");
  expect_too_large(load_with(clusters_offset, huge), "cluster");
  expect_too_large(load_with(npoints_offset, huge), "point");
  // A member count within the store (≤ n) but past the end of a file cut
  // three members after that field, which now claims one cluster.
  std::string cut = patch(patch(good, clusters_offset, uint64_t{1}),
                          members_offset, n);
  cut.resize(members_offset + 8 + 24);
  expect_too_large(load(cut), "member");
}

// Concurrent serving: many threads assigning through one snapshot while the
// main thread does the same. No synchronization between them — the TSan CI
// lane runs this test to certify the serving path race-free; in all builds
// every thread must also get the bit-identical reference answer.
TEST(ClusterSnapshotTest, ConcurrentAssignHammerIsRaceFreeAndDeterministic) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const ClusterSnapshot& snapshot = **built;
  const traj::SegmentStore& queries = run->store;

  std::vector<int> ref_labels(queries.size());
  std::vector<double> ref_dist(queries.size());
  ASSERT_TRUE(snapshot
                  .AssignSegments(queries, common::Span<int>(ref_labels),
                                  common::Span<double>(ref_dist))
                  .ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      AssignOptions options;
      options.kernel = (t % 2 == 0) ? distance::BatchKernel::kScalar
                                    : distance::BatchKernel::kAuto;
      options.num_threads = 1;
      std::vector<int> labels(queries.size());
      std::vector<double> dist(queries.size());
      for (int round = 0; round < kRounds; ++round) {
        const auto st =
            snapshot.AssignSegments(queries, common::Span<int>(labels),
                                    common::Span<double>(dist), options);
        if (!st.ok() || labels != ref_labels || dist != ref_dist) {
          ++failures[t];
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "worker " << t;
  }
}

// --- Assignment equals the full candidate scan. ----------------------------

// `per_cluster` random members for each of `clusters` clusters around random
// centres in a 100-wide square (a cube when dims == 3), every other store
// segment noise; no representatives, so every cluster serves its members
// (at most 32). The last member of cluster 1 duplicates the first member of
// cluster 0.
TraclusResult SyntheticResult(int dims, int clusters, int per_cluster,
                              uint64_t seed) {
  common::Rng rng(seed);
  const auto point = [dims](double x, double y, double z) {
    return dims == 3 ? geom::Point(x, y, z) : geom::Point(x, y);
  };
  std::vector<geom::Segment> segments;
  TraclusResult result;
  const auto add = [&](const geom::Point& a, const geom::Point& b, int label) {
    segments.emplace_back(a, b, static_cast<geom::SegmentId>(segments.size()),
                          static_cast<geom::TrajectoryId>(segments.size() / 4));
    result.clustering.labels.push_back(label);
  };
  for (int c = 0; c < clusters; ++c) {
    result.clustering.clusters.push_back({c, {}});
    const double cx = rng.Uniform(0, 100);
    const double cy = rng.Uniform(0, 100);
    const double cz = rng.Uniform(0, 100);
    for (int k = 0; k < per_cluster; ++k) {
      result.clustering.clusters.back().member_indices.push_back(
          segments.size());
      if (c == 1 && k == per_cluster - 1) {
        const geom::Segment& first = segments.front();
        add(first.start(), first.end(), c);
        continue;
      }
      const double x = cx + rng.Uniform(-6, 6);
      const double y = cy + rng.Uniform(-6, 6);
      const double z = cz + rng.Uniform(-6, 6);
      add(point(x, y, z),
          point(x + rng.Uniform(-3, 3), y + rng.Uniform(-3, 3),
                z + rng.Uniform(-3, 3)),
          c);
    }
  }
  for (int k = 0; k < 40; ++k) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const double z = rng.Uniform(0, 100);
    add(point(x, y, z), point(x + 1, y - 2, z + 0.5), cluster::kNoise);
    ++result.clustering.num_noise;
  }
  result.store = traj::SegmentStore(std::move(segments));
  return result;
}

// The store's own segments, then random ones across (and past) the square:
// short ones, and long ones whose half-length the index must account for.
traj::SegmentStore OracleQueries(const traj::SegmentStore& store,
                                 uint64_t seed) {
  common::Rng rng(seed);
  std::vector<geom::Segment> segments = store.segments();
  for (int k = 0; k < 600; ++k) {
    const double x = rng.Uniform(-20, 120);
    const double y = rng.Uniform(-20, 120);
    const double z = rng.Uniform(-20, 120);
    const double len = k < 300 ? rng.Uniform(0, 8) : rng.Uniform(10, 60);
    segments.emplace_back(
        store.dims() == 3 ? geom::Point(x, y, z) : geom::Point(x, y),
        store.dims() == 3 ? geom::Point(x + len, y - len / 2, z + len / 3)
                          : geom::Point(x + len, y - len / 2));
  }
  return traj::SegmentStore(std::move(segments));
}

// NearestWithinEps over every candidate_store() position: the answer of the
// full scan that served assignment before the block index.
void FullScan(const ClusterSnapshot& snapshot,
              const traj::SegmentStore& queries, double eps,
              std::vector<int>* labels, std::vector<double>* dist) {
  const traj::SegmentStore& cands = snapshot.candidate_store();
  std::vector<size_t> query_idx(queries.size());
  std::iota(query_idx.begin(), query_idx.end(), size_t{0});
  std::vector<size_t> cand_idx(cands.size());
  std::iota(cand_idx.begin(), cand_idx.end(), size_t{0});
  std::vector<size_t> position(queries.size());
  dist->assign(queries.size(), 0.0);
  distance::BatchOptions scalar;
  scalar.kernel = distance::BatchKernel::kScalar;
  distance::NearestWithinEps(
      queries, distance::SegmentDistance(snapshot.params().distance),
      common::Span<const size_t>(query_idx), cands,
      common::Span<const size_t>(cand_idx), eps,
      common::Span<size_t>(position), common::Span<double>(*dist), scalar);
  labels->assign(queries.size(), cluster::kNoise);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (position[i] != distance::kNoNearest) {
      (*labels)[i] = snapshot.candidate_labels()[position[i]];
    }
  }
}

// AssignSegments on the built and the reloaded snapshot, at 1 and 4 threads
// and every kernel, equals the full scan bit for bit.
void ExpectAssignEqualsFullScan(const TraclusResult& result,
                                const SnapshotParams& params,
                                const traj::SegmentStore& queries,
                                const std::string& name) {
  SCOPED_TRACE(name);
  const auto built = ClusterSnapshot::FromResult(result, params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = SnapshotPath("oracle_" + name);
  ASSERT_TRUE((*built)->Save(path).ok());
  const auto loaded = ClusterSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<int> expect_labels;
  std::vector<double> expect_dist;
  FullScan(**built, queries, params.eps, &expect_labels, &expect_dist);
  for (const ClusterSnapshot* s : {built->get(), loaded->get()}) {
    for (const int threads : {1, 4}) {
      for (const distance::BatchKernel kernel :
           {distance::BatchKernel::kScalar, distance::BatchKernel::kSimd,
            distance::BatchKernel::kAuto}) {
        AssignOptions options;
        options.kernel = kernel;
        options.num_threads = threads;
        std::vector<int> labels(queries.size());
        std::vector<double> dist(queries.size());
        ASSERT_TRUE(s->AssignSegments(queries, common::Span<int>(labels),
                                      common::Span<double>(dist), options)
                        .ok());
        SCOPED_TRACE(testing::Message()
                     << (s == built->get() ? "built" : "reloaded")
                     << " threads " << threads << " kernel "
                     << distance::BatchKernelName(kernel));
        ExpectSameAssignment(common::Span<const int>(expect_labels),
                             common::Span<const double>(expect_dist),
                             common::Span<const int>(labels),
                             common::Span<const double>(dist));
      }
    }
  }
}

TEST(ClusterSnapshotOracleTest, AssignSegmentsEqualsTheFullCandidateScan) {
  for (const int dims : {2, 3}) {
    const TraclusResult result = SyntheticResult(dims, 20, 24, 100 + dims);
    const traj::SegmentStore queries = OracleQueries(result.store, 200 + dims);
    SnapshotParams params;
    params.eps = 3.0;
    const std::string tag = std::to_string(dims) + "d";
    ExpectAssignEqualsFullScan(result, params, queries, tag + "_eps3");

    // ε equal to an exact candidate distance: the nearest distance of the
    // first random query, which must then be served at exactly ε.
    const auto probe = ClusterSnapshot::FromResult(result, params);
    ASSERT_TRUE(probe.ok());
    std::vector<int> labels;
    std::vector<double> dist;
    FullScan(**probe, queries, 1e300, &labels, &dist);
    const size_t first_random = result.store.size();
    ASSERT_GT(dist[first_random], 0.0);
    ASSERT_LT(dist[first_random], 1e300);
    params.eps = dist[first_random];
    FullScan(**probe, queries, params.eps, &labels, &dist);
    EXPECT_EQ(dist[first_random], params.eps);
    ExpectAssignEqualsFullScan(result, params, queries, tag + "_exact_eps");

    params.eps = 1e300;
    ExpectAssignEqualsFullScan(result, params, queries, tag + "_eps1e300");

    // w⊥ = 0: the lower-bound factor is 0, so nothing is provably far.
    params.eps = 3.0;
    params.distance.w_perpendicular = 0.0;
    ExpectAssignEqualsFullScan(result, params, queries, tag + "_no_perp");
  }
}

TEST(ClusterSnapshotOracleTest, DuplicatedCandidatesServeTheEarliestCluster) {
  const TraclusResult result = SyntheticResult(2, 20, 24, 102);
  SnapshotParams params;
  params.eps = 3.0;
  const auto built = ClusterSnapshot::FromResult(result, params);
  ASSERT_TRUE(built.ok());
  // Candidates 0 (cluster 0) and 47 (cluster 1) are the same segment.
  const traj::SegmentStore& cands = (*built)->candidate_store();
  ASSERT_EQ(cands.segment(0).start(), cands.segment(47).start());
  ASSERT_EQ(cands.segment(0).end(), cands.segment(47).end());
  ASSERT_EQ((*built)->candidate_labels()[47], 1);
  const traj::SegmentStore query(
      std::vector<geom::Segment>{result.store.segment(0)});
  int label = -7;
  double dist = -1.0;
  ASSERT_TRUE((*built)
                  ->AssignSegments(query, common::Span<int>(&label, 1),
                                   common::Span<double>(&dist, 1))
                  .ok());
  EXPECT_EQ(label, 0);
  EXPECT_EQ(dist, 0.0);

  // Two candidates at exactly distance 1 of the query, mirrored across it:
  // the later one (cluster 1, below) sorts first by Morton key, and the
  // earlier one (cluster 0, above) must still win.
  TraclusResult mirrored;
  mirrored.store = traj::SegmentStore(std::vector<geom::Segment>{
      geom::Segment(geom::Point(10, 11), geom::Point(12, 11), 0, 0),
      geom::Segment(geom::Point(10, 9), geom::Point(12, 9), 1, 1),
      geom::Segment(geom::Point(0, 0), geom::Point(1, 0), 2, 2),
      geom::Segment(geom::Point(50, 50), geom::Point(51, 50), 3, 3)});
  mirrored.clustering.clusters = {{0, {0}}, {1, {1}}, {2, {2, 3}}};
  mirrored.clustering.labels = {0, 1, 2, 2};
  const auto mirror = ClusterSnapshot::FromResult(mirrored, params);
  ASSERT_TRUE(mirror.ok());
  const traj::SegmentStore between(std::vector<geom::Segment>{
      geom::Segment(geom::Point(10, 10), geom::Point(12, 10), 9, 9)});
  std::vector<int> full_labels;
  std::vector<double> full_dist;
  FullScan(**mirror, between, params.eps, &full_labels, &full_dist);
  EXPECT_EQ(full_labels[0], 0);
  EXPECT_EQ(full_dist[0], 1.0);
  ASSERT_TRUE((*mirror)
                  ->AssignSegments(between, common::Span<int>(&label, 1),
                                   common::Span<double>(&dist, 1))
                  .ok());
  EXPECT_EQ(label, 0);
  EXPECT_EQ(dist, 1.0);
}

TEST(ClusterSnapshotOracleTest, ZeroClustersServeOnlyNoise) {
  TraclusResult result = SyntheticResult(2, 3, 10, 103);
  result.clustering.clusters.clear();
  result.clustering.labels.assign(result.store.size(), cluster::kNoise);
  result.clustering.num_noise = result.store.size();
  SnapshotParams params;
  params.eps = 1e300;
  const traj::SegmentStore queries = OracleQueries(result.store, 203);
  ExpectAssignEqualsFullScan(result, params, queries, "zero_clusters");
  const auto built = ClusterSnapshot::FromResult(result, params);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ((*built)->candidate_store().size(), 0u);
  std::vector<int> labels(queries.size());
  std::vector<double> dist(queries.size());
  ASSERT_TRUE((*built)
                  ->AssignSegments(queries, common::Span<int>(labels),
                                   common::Span<double>(dist))
                  .ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(labels[i], cluster::kNoise);
    EXPECT_EQ(dist[i], std::numeric_limits<double>::infinity());
  }
}

// --- Refused queries. -------------------------------------------------------

TEST(ClusterSnapshotTest, AssignRejectsNonFiniteAndOutOfRangeCoordinates) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const ClusterSnapshot& snapshot = **built;
  const traj::Trajectory& track = c.db.trajectories()[0];
  ASSERT_GE(track.size(), 3u);

  // Track 0 with point 1's x set to `x`.
  const auto with_x = [&track](double x) {
    traj::Trajectory t(track.id());
    for (size_t i = 0; i < track.size(); ++i) {
      t.Add(i == 1 ? geom::Point(x, track[i].y()) : track[i]);
    }
    return t;
  };
  // Segments 0..2 of the run's store with segment 2's start x set to `x`.
  const auto segments_with_x = [&run](double x) {
    std::vector<geom::Segment> segments;
    for (size_t i = 0; i < 3; ++i) segments.push_back(run->store.segment(i));
    geom::Segment& s = segments[2];
    s = geom::Segment(geom::Point(x, s.start().y()), s.end(), s.id(),
                      s.trajectory_id(), s.weight());
    return traj::SegmentStore(std::move(segments));
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 1e300}) {
    SCOPED_TRACE(bad);
    const common::Status traj_status =
        snapshot.AssignTrajectory(with_x(bad)).status();
    EXPECT_EQ(traj_status.code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(traj_status.message().find("point 1 "), std::string::npos)
        << traj_status.message();

    const traj::SegmentStore queries = segments_with_x(bad);
    std::vector<int> labels(queries.size());
    std::vector<double> dist(queries.size());
    const common::Status seg_status = snapshot.AssignSegments(
        queries, common::Span<int>(labels), common::Span<double>(dist));
    EXPECT_EQ(seg_status.code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(seg_status.message().find("segment 2 "), std::string::npos)
        << seg_status.message();
  }
  // The bound itself is accepted.
  EXPECT_TRUE(snapshot.AssignTrajectory(with_x(traj::kMaxCoordinate)).ok());
  const traj::SegmentStore at_bound = segments_with_x(-traj::kMaxCoordinate);
  std::vector<int> labels(at_bound.size());
  std::vector<double> dist(at_bound.size());
  EXPECT_TRUE(snapshot
                  .AssignSegments(at_bound, common::Span<int>(labels),
                                  common::Span<double>(dist))
                  .ok());
}

// --- Decoder fuzz. ----------------------------------------------------------

// Seeded mutants of a saved hurricane snapshot — byte flips, truncations and
// lying length fields — must each fail with a typed status, or load and
// assign held-out queries (another seed's hurricanes) without a crash.
TEST(ClusterSnapshotFuzzTest, MutatedFilesFailTypedOrLoadAndAssign) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const std::string path = SnapshotPath("fuzz");
  ASSERT_TRUE((*built)->Save(path).ok());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  datagen::HurricaneConfig held_out_config;
  held_out_config.seed = 7;
  held_out_config.num_trajectories = 6;
  const traj::TrajectoryDatabase held_out =
      datagen::GenerateHurricanes(held_out_config);
  std::vector<geom::Segment> held_out_segments;
  for (size_t i = 0; i < 40; ++i) {
    held_out_segments.push_back(run->store.segment(i * 211));
  }
  const traj::SegmentStore segment_queries(std::move(held_out_segments));

  size_t loaded = 0;
  size_t refused = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    SCOPED_TRACE(what);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    const auto snapshot = ClusterSnapshot::Load(path);
    if (!snapshot.ok()) {
      const common::StatusCode code = snapshot.status().code();
      EXPECT_TRUE(code == common::StatusCode::kInvalidArgument ||
                  code == common::StatusCode::kIOError)
          << snapshot.status().ToString();
      ++refused;
      return;
    }
    ++loaded;
    for (const traj::Trajectory& t : held_out.trajectories()) {
      const auto a = (*snapshot)->AssignTrajectory(t);
      EXPECT_TRUE(a.ok() ||
                  a.status().code() == common::StatusCode::kInvalidArgument)
          << a.status().ToString();
    }
    std::vector<int> labels(segment_queries.size());
    std::vector<double> dist(segment_queries.size());
    const common::Status status = (*snapshot)->AssignSegments(
        segment_queries, common::Span<int>(labels), common::Span<double>(dist));
    EXPECT_TRUE(status.ok() ||
                status.code() == common::StatusCode::kInvalidArgument)
        << status.ToString();
  };

  std::mt19937_64 rng(20070612);
  const auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  check(good, "unmutated");
  for (int k = 0; k < 200; ++k) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[below(bytes.size())] ^= static_cast<char>(1 + below(255));
    }
    check(bytes, "byte flips " + std::to_string(k));
  }
  for (int k = 0; k < 40; ++k) {
    check(good.substr(0, below(good.size())),
          "truncation " + std::to_string(k));
  }

  // Length fields, found by walking the saved layout as in
  // LoadRejectsBadCoordinatesAndLyingLengths.
  const auto n = ReadAt<uint64_t>(good, kCountOffset);
  const auto dims = ReadAt<uint64_t>(good, kDimsOffset);
  const size_t clusters_offset = kSegmentsOffset + n * (24 + 16 * dims);
  const auto num_clusters = ReadAt<uint64_t>(good, clusters_offset);
  size_t offset = clusters_offset + 8;
  std::vector<size_t> fields = {kCountOffset, kDimsOffset, clusters_offset};
  for (uint64_t k = 0; k < num_clusters; ++k) {
    fields.push_back(offset + 8);  // Member count.
    offset += 16 + 8 * ReadAt<uint64_t>(good, offset + 8);
  }
  offset += 4 * n;
  fields.push_back(offset);  // num_noise.
  offset += 8;
  fields.push_back(offset);  // num_reps.
  offset += 8;
  fields.push_back(offset + 16);  // First representative's label length.
  fields.push_back(offset + 24 + ReadAt<uint64_t>(good, offset + 16));
  for (const size_t at : fields) {
    const auto value = ReadAt<uint64_t>(good, at);
    for (const uint64_t lie :
         {uint64_t{0}, uint64_t{1}, value - 1, value + 1, value * 2,
          uint64_t{1} << 31, uint64_t{1} << 63, ~uint64_t{0}}) {
      std::string bytes = good;
      std::memcpy(&bytes[at], &lie, sizeof(lie));
      check(bytes, "field at " + std::to_string(at) + " = " +
                       std::to_string(lie));
    }
  }
  // Run parameters outside their domain are refused, not served.
  for (const size_t at : {size_t{8}, size_t{16}, size_t{24}, size_t{32},
                          size_t{56}}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
      std::string bytes = good;
      std::memcpy(&bytes[at], &bad, sizeof(bad));
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
      EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
                common::StatusCode::kInvalidArgument)
          << "parameter at byte " << at << " = " << bad;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace traclus::core
