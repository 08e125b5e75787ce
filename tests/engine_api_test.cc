// Tests for the TraclusEngine pipeline API: builder validation (typed Status
// codes instead of asserts), empty-input and representative-stage
// preconditions, cooperative cancellation before and mid-run, progress
// reporting, stage pluggability, and the headline regression guarantee — the
// engine reproduces the committed golden pipeline outputs (tests/golden/,
// frozen before the SegmentStore refactor) byte for byte on the hurricane
// and deer data sets, at 1 and N threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/engine.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"

namespace traclus::core {
namespace {

using common::StatusCode;

// ---------------------------------------------------------------------------
// Builder validation: misconfiguration is a typed status, surfaced eagerly.
// ---------------------------------------------------------------------------

TEST(EngineBuilderTest, DefaultAssemblyIsValid) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_NE(engine->representative_stage(), nullptr);
}

TEST(EngineBuilderTest, NonPositiveEpsIsOutOfRange) {
  DbscanGroupOptions group;
  group.eps = 0.0;
  const auto engine =
      TraclusEngine::Builder().UseDbscanGrouping(group).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineBuilderTest, MinLnsBelowOneIsOutOfRange) {
  DbscanGroupOptions group;
  group.min_lns = 0.5;
  const auto engine =
      TraclusEngine::Builder().UseDbscanGrouping(group).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineBuilderTest, NegativeDistanceWeightIsInvalidArgument) {
  DbscanGroupOptions group;
  group.distance.w_angle = -1.0;
  const auto engine =
      TraclusEngine::Builder().UseDbscanGrouping(group).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, NegativeGammaIsInvalidArgument) {
  SweepRepresentativeOptions reps;
  reps.gamma = -0.25;
  const auto engine =
      TraclusEngine::Builder().UseSweepRepresentatives(reps).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, NegativeSuppressionIsInvalidArgument) {
  MdlPartitionOptions partition;
  partition.mdl.suppression_bits = -2.0;
  const auto engine =
      TraclusEngine::Builder().UseMdlPartitioning(partition).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, OpticsCutAboveGeneratingEpsIsOutOfRange) {
  OpticsGroupOptions group;
  group.eps = 1.0;
  group.eps_cut = 2.0;
  const auto engine =
      TraclusEngine::Builder().UseOpticsGrouping(group).Build();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kOutOfRange);

  // A NaN cut must surface as a status too, never silently mean "use eps".
  group.eps_cut = std::nan("");
  const auto nan_engine =
      TraclusEngine::Builder().UseOpticsGrouping(group).Build();
  ASSERT_FALSE(nan_engine.ok());
  EXPECT_EQ(nan_engine.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineBuilderTest, NullMandatoryStageIsInvalidArgument) {
  const auto no_partition =
      TraclusEngine::Builder().SetPartitionStage(nullptr).Build();
  ASSERT_FALSE(no_partition.ok());
  EXPECT_EQ(no_partition.status().code(), StatusCode::kInvalidArgument);

  const auto no_group = TraclusEngine::Builder().SetGroupStage(nullptr).Build();
  ASSERT_FALSE(no_group.ok());
  EXPECT_EQ(no_group.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, FromConfigRejectsBadLegacyConfig) {
  TraclusConfig config;
  config.eps = -3.0;
  const auto engine = TraclusEngine::FromConfig(config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Run-time preconditions.
// ---------------------------------------------------------------------------

TEST(EngineRunTest, EmptyDatabaseIsFailedPrecondition) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const traj::TrajectoryDatabase empty;

  const auto run = engine->Run(empty);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);

  const auto partitioned = engine->Partition(empty);
  ASSERT_FALSE(partitioned.ok());
  EXPECT_EQ(partitioned.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRunTest, EmptySegmentSetIsValidGroupInput) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const auto grouped = engine->Group(traj::SegmentStore{});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_TRUE(grouped->clusters.empty());
  EXPECT_TRUE(grouped->labels.empty());
}

TEST(EngineRunTest, EagerEntryPointsRefuseChunkKnobs) {
  // The chunk knobs steer only a streaming run's chunked store; every eager
  // entry point refuses either one, naming it, before looking at its input
  // (an empty database would otherwise be FailedPrecondition).
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const traj::TrajectoryDatabase empty;
  for (const char* knob : {"chunk_capacity", "max_resident_chunks"}) {
    SCOPED_TRACE(knob);
    RunContext ctx;
    (std::string(knob) == "chunk_capacity" ? ctx.chunk_capacity
                                           : ctx.max_resident_chunks) = 64;
    const common::Status statuses[] = {
        engine->Run(empty, ctx).status(),
        engine->Partition(empty, ctx).status(),
        engine->Group(traj::SegmentStore{}, ctx).status(),
        engine->Representatives({}, cluster::ClusteringResult{}, ctx)
            .status()};
    for (const common::Status& status : statuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find(knob), std::string::npos)
          << status.ToString();
    }
  }
  // With both knobs at 0 the same calls run as before.
  EXPECT_TRUE(engine->Group(traj::SegmentStore{}, RunContext{}).ok());
}

TEST(EngineRunTest, RepresentativesWithoutStageIsFailedPrecondition) {
  const auto engine =
      TraclusEngine::Builder().WithoutRepresentatives().Build();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->representative_stage(), nullptr);
  const auto reps = engine->Representatives({}, cluster::ClusteringResult{});
  ASSERT_FALSE(reps.ok());
  EXPECT_EQ(reps.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRunTest, MismatchedClusteringIsFailedPrecondition) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  cluster::ClusteringResult clustering;
  cluster::Cluster bogus;
  bogus.member_indices = {42};  // No segment 42 in an empty database.
  clustering.clusters.push_back(bogus);
  const auto reps = engine->Representatives({}, clustering);
  ASSERT_FALSE(reps.ok());
  EXPECT_EQ(reps.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(EngineCancellationTest, PreCancelledTokenStopsBeforeAnyStage) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});

  common::CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancellation = &token;
  bool progressed = false;
  ctx.progress = [&](const std::string&, double) { progressed = true; };

  const auto run = engine->Run(db, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(progressed) << "no stage may start under a cancelled token";
}

TEST(EngineCancellationTest, MidRunCancellationAbortsTheGroupStage) {
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 5;
  config.num_threads = 2;  // Exercise the blocked batched grouping path.
  const auto engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(engine.ok());
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});

  // Cancel from the progress callback the moment the group stage reports:
  // partitioning completes, grouping starts and must abort at its next poll.
  common::CancellationToken token;
  RunContext ctx;
  ctx.cancellation = &token;
  std::vector<std::string> stages;
  ctx.progress = [&](const std::string& stage, double) {
    if (stages.empty() || stages.back() != stage) stages.push_back(stage);
    if (stage == "group/dbscan") token.Cancel();
  };

  const auto run = engine->Run(db, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  ASSERT_EQ(stages.size(), 2u) << "partition ran, grouping started, nothing "
                                  "after";
  EXPECT_EQ(stages[0], "partition/mdl-approx");
  EXPECT_EQ(stages[1], "group/dbscan");
}

TEST(EngineCancellationTest, MidRunCancellationAbortsTheOpticsStage) {
  OpticsGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5;
  const auto engine = TraclusEngine::Builder()
                          .UseOpticsGrouping(group)
                          .WithoutRepresentatives()
                          .Build();
  ASSERT_TRUE(engine.ok());
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 120;
  const auto db = datagen::GenerateHurricanes(gen);

  common::CancellationToken token;
  RunContext ctx;
  ctx.cancellation = &token;
  ctx.progress = [&](const std::string& stage, double) {
    if (stage == "group/optics") token.Cancel();
  };
  const auto run = engine->Run(db, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Progress reporting.
// ---------------------------------------------------------------------------

TEST(EngineProgressTest, StagesReportInOrderFromZeroToOne) {
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 5;
  const auto engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(engine.ok());
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 60;
  const auto db = datagen::GenerateHurricanes(gen);

  std::vector<std::pair<std::string, double>> events;
  RunContext ctx;
  ctx.progress = [&](const std::string& stage, double fraction) {
    events.emplace_back(stage, fraction);
  };
  const auto run = engine->Run(db, ctx);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const std::vector<std::string> expected_order = {
      "partition/mdl-approx", "group/dbscan", "represent/sweep-projection"};
  size_t order_pos = 0;
  std::string current;
  double last_fraction = 0.0;
  for (const auto& [stage, fraction] : events) {
    if (stage != current) {
      if (!current.empty()) {
        EXPECT_EQ(last_fraction, 1.0) << current << " must end at 1.0";
      }
      ASSERT_LT(order_pos, expected_order.size());
      EXPECT_EQ(stage, expected_order[order_pos++]);
      EXPECT_EQ(fraction, 0.0) << stage << " must start at 0.0";
      current = stage;
    } else {
      EXPECT_GE(fraction, last_fraction) << stage << " must be monotone";
    }
    last_fraction = fraction;
  }
  EXPECT_EQ(order_pos, expected_order.size());
  EXPECT_EQ(last_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Pluggable stages.
// ---------------------------------------------------------------------------

class AllNoiseGroupStage : public GroupStage {
 public:
  const char* name() const override { return "group/all-noise"; }
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store,
      const RunContext& /*ctx*/) const override {
    cluster::ClusteringResult result;
    result.labels.assign(store.size(), cluster::kNoise);
    result.num_noise = store.size();
    return result;
  }
};

TEST(EngineStagesTest, CustomGroupStagePlugsIn) {
  const auto engine = TraclusEngine::Builder()
                          .SetGroupStage(std::make_shared<AllNoiseGroupStage>())
                          .WithoutRepresentatives()
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 20;
  const auto db = datagen::GenerateHurricanes(gen);
  const auto run = engine->Run(db);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->segments().empty());
  EXPECT_TRUE(run->clustering.clusters.empty());
  EXPECT_EQ(run->clustering.num_noise, run->segments().size());
  EXPECT_TRUE(run->representatives.empty());
}

TEST(EngineStagesTest, OpticsGroupingAssemblesAndClusters) {
  OpticsGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5;
  const auto engine = TraclusEngine::Builder()
                          .UseOpticsGrouping(group)
                          .WithoutRepresentatives()
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 120;
  const auto db = datagen::GenerateHurricanes(gen);
  const auto run = engine->Run(db);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->clustering.labels.size(), run->segments().size());
  EXPECT_FALSE(run->clustering.clusters.empty());
}

// ---------------------------------------------------------------------------
// The regression guarantee: engine output ≡ the committed golden files
// (tests/golden/*.golden, written by tools/golden_gen.cc from the
// pre-SegmentStore pipeline). Byte-for-byte: labels, cluster membership, and
// every representative coordinate (%.17g round-trips doubles exactly), at 1
// and N threads.
// ---------------------------------------------------------------------------

struct GoldenSegment {
  geom::SegmentId id = -1;
  geom::TrajectoryId trajectory_id = -1;
  geom::Point start;
  geom::Point end;
};

struct GoldenRun {
  size_t num_segments = 0;
  std::vector<GoldenSegment> segments;
  std::vector<std::vector<size_t>> characteristic_points;
  std::vector<int> labels;
  size_t num_clusters = 0;
  size_t num_noise = 0;
  std::vector<std::vector<size_t>> cluster_members;
  std::vector<std::vector<geom::Point>> representatives;
};

GoldenRun LoadGolden(const std::string& name) {
  const std::string path = std::string(TRACLUS_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open golden file " << path
                         << " (regenerate with tools/golden_gen.cc)";
  GoldenRun g;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string key;
    row >> key;
    if (key == "segments") {
      row >> g.num_segments;
    } else if (key == "seg") {
      GoldenSegment seg;
      long long id = 0;
      long long tid = 0;
      double sx = 0.0;
      double sy = 0.0;
      double ex = 0.0;
      double ey = 0.0;
      row >> id >> tid >> sx >> sy >> ex >> ey;
      seg.id = static_cast<geom::SegmentId>(id);
      seg.trajectory_id = static_cast<geom::TrajectoryId>(tid);
      seg.start = geom::Point(sx, sy);
      seg.end = geom::Point(ex, ey);
      g.segments.push_back(seg);
    } else if (key == "cps") {
      size_t t = 0;
      row >> t;
      std::vector<size_t> cps;
      size_t cp = 0;
      while (row >> cp) cps.push_back(cp);
      EXPECT_EQ(t, g.characteristic_points.size());
      g.characteristic_points.push_back(std::move(cps));
    } else if (key == "labels") {
      int label = 0;
      while (row >> label) g.labels.push_back(label);
    } else if (key == "clusters") {
      row >> g.num_clusters;
    } else if (key == "noise") {
      row >> g.num_noise;
    } else if (key == "cluster") {
      int id = 0;
      row >> id;
      std::vector<size_t> members;
      size_t m = 0;
      while (row >> m) members.push_back(m);
      EXPECT_EQ(static_cast<size_t>(id), g.cluster_members.size());
      g.cluster_members.push_back(std::move(members));
    } else if (key == "rep") {
      size_t idx = 0;
      row >> idx;
      std::vector<geom::Point> points;
      double x = 0.0;
      double y = 0.0;
      while (row >> x >> y) points.emplace_back(x, y);
      EXPECT_EQ(idx, g.representatives.size());
      g.representatives.push_back(std::move(points));
    }
  }
  return g;
}

void ExpectMatchesGolden(const TraclusConfig& base,
                         const traj::TrajectoryDatabase& db,
                         const std::string& golden_name) {
  const GoldenRun golden = LoadGolden(golden_name);
  ASSERT_GT(golden.num_segments, 0u) << "empty golden " << golden_name;
  ASSERT_GT(golden.num_clusters, 0u)
      << "equivalence must be proven on a non-trivial clustering";
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << golden_name << " @ " << threads
                                    << " threads");
    TraclusConfig config = base;
    config.num_threads = threads;
    const auto engine = TraclusEngine::FromConfig(config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const auto run = engine->Run(db);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    EXPECT_EQ(run->segments().size(), golden.num_segments);
    // Partition-stage output, bit for bit: ids, provenance, endpoints, and
    // characteristic points — a partitioning perturbation must fail even if
    // the clustering happens to survive it.
    ASSERT_EQ(run->segments().size(), golden.segments.size());
    for (size_t i = 0; i < golden.segments.size(); ++i) {
      const geom::Segment& got = run->segments()[i];
      const GoldenSegment& want = golden.segments[i];
      ASSERT_EQ(got.id(), want.id) << "segment " << i;
      ASSERT_EQ(got.trajectory_id(), want.trajectory_id) << "segment " << i;
      ASSERT_EQ(got.start().x(), want.start.x()) << "segment " << i;
      ASSERT_EQ(got.start().y(), want.start.y()) << "segment " << i;
      ASSERT_EQ(got.end().x(), want.end.x()) << "segment " << i;
      ASSERT_EQ(got.end().y(), want.end.y()) << "segment " << i;
    }
    EXPECT_EQ(run->characteristic_points, golden.characteristic_points);
    EXPECT_EQ(run->clustering.labels, golden.labels);
    EXPECT_EQ(run->clustering.num_noise, golden.num_noise);
    ASSERT_EQ(run->clustering.clusters.size(), golden.num_clusters);
    ASSERT_EQ(run->clustering.clusters.size(), golden.cluster_members.size());
    for (size_t c = 0; c < golden.cluster_members.size(); ++c) {
      EXPECT_EQ(run->clustering.clusters[c].id, static_cast<int>(c));
      EXPECT_EQ(run->clustering.clusters[c].member_indices,
                golden.cluster_members[c]);
    }
    ASSERT_EQ(run->representatives.size(), golden.representatives.size());
    for (size_t r = 0; r < golden.representatives.size(); ++r) {
      const auto& got = run->representatives[r].points();
      const auto& want = golden.representatives[r];
      ASSERT_EQ(got.size(), want.size()) << "representative " << r;
      for (size_t p = 0; p < want.size(); ++p) {
        EXPECT_EQ(got[p].x(), want[p].x());  // Bitwise (golden is %.17g).
        EXPECT_EQ(got[p].y(), want[p].y());
      }
    }
  }
}

TEST(GoldenEquivalenceTest, HurricaneMatchesPreRefactorPipeline) {
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 5;
  ExpectMatchesGolden(config, db, "hurricane_default.golden");
}

TEST(GoldenEquivalenceTest, DeerMatchesPreRefactorPipeline) {
  const auto db = datagen::GenerateAnimals(datagen::Deer1995Config());
  TraclusConfig config;
  config.eps = 1.8;
  config.min_lns = 8;
  ExpectMatchesGolden(config, db, "deer_default.golden");
}

TEST(GoldenEquivalenceTest, WeightedThreadedRunsAreThreadCountInvariant) {
  // The weighted §4.2 extension through the parallel blocked grouping path:
  // not golden-pinned (weights vary by generator), but 1-vs-N byte identity
  // must hold here too.
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 150;
  gen.min_weight = 1.0;
  gen.max_weight = 5.0;
  const auto db = datagen::GenerateHurricanes(gen);
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 6;
  config.use_weights = true;

  config.num_threads = 1;
  const auto serial_engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(serial_engine.ok());
  const auto serial = serial_engine->Run(db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->clustering.clusters.empty());

  config.num_threads = 4;
  const auto parallel_engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(parallel_engine.ok());
  const auto parallel = parallel_engine->Run(db);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->clustering.labels, parallel->clustering.labels);
  EXPECT_EQ(serial->clustering.num_noise, parallel->clustering.num_noise);
  ASSERT_EQ(serial->representatives.size(), parallel->representatives.size());
  for (size_t r = 0; r < serial->representatives.size(); ++r) {
    const auto& sp = serial->representatives[r].points();
    const auto& pp = parallel->representatives[r].points();
    ASSERT_EQ(sp.size(), pp.size());
    for (size_t p = 0; p < sp.size(); ++p) {
      EXPECT_EQ(sp[p].x(), pp[p].x());
      EXPECT_EQ(sp[p].y(), pp[p].y());
    }
  }
}

}  // namespace
}  // namespace traclus::core
