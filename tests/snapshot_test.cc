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
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "traj/segment_store.h"
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

}  // namespace
}  // namespace traclus::core
