// Tests for the streaming pipeline mode (TraclusEngine::Run(TrajectorySource&))
// and the out-of-core grouping path. The headline guarantee: streaming output
// is byte-identical to the committed golden pipeline output — segments,
// characteristic points, labels, cluster membership, every representative
// coordinate — across the full matrix of chunk capacities {1, 7, 1024, ∞},
// thread counts {1, 4}, and batch kernels {scalar, simd}. Bounded-residency
// runs additionally pin peak_resident_chunks() ≤ cap on a database larger
// than the cap, with result.store left unmaterialized — including caps one
// short of the chunk count and a single-slot cap.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "traj/csv_io.h"
#include "traj/source.h"

namespace traclus::core {
namespace {

using common::StatusCode;

// --- Golden file machinery (format written by tools/golden_gen.cc) ---------

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
  EXPECT_TRUE(in.good()) << "cannot open golden file " << path;
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
      double sx = 0.0, sy = 0.0, ex = 0.0, ey = 0.0;
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
      g.cluster_members.push_back(std::move(members));
    } else if (key == "rep") {
      size_t idx = 0;
      row >> idx;
      std::vector<geom::Point> points;
      double x = 0.0, y = 0.0;
      while (row >> x >> y) points.emplace_back(x, y);
      g.representatives.push_back(std::move(points));
    }
  }
  return g;
}

// Compares a streaming run against the golden, bit for bit. When the run was
// residency-capped, segments live behind the chunked store instead of
// result.store.
void ExpectMatchesGolden(const TraclusResult& run, const GoldenRun& golden) {
  const bool capped = run.store.size() == 0 && run.chunked_store &&
                      run.chunked_store->size() > 0;
  const size_t n = capped ? run.chunked_store->size() : run.store.size();
  ASSERT_EQ(n, golden.num_segments);
  ASSERT_EQ(n, golden.segments.size());
  for (size_t c = 0; !capped && c < n; ++c) {
    const geom::Segment& got = run.store.segment(c);
    const GoldenSegment& want = golden.segments[c];
    ASSERT_EQ(got.id(), want.id) << "segment " << c;
    ASSERT_EQ(got.trajectory_id(), want.trajectory_id) << "segment " << c;
    ASSERT_EQ(got.start().x(), want.start.x()) << "segment " << c;
    ASSERT_EQ(got.start().y(), want.start.y()) << "segment " << c;
    ASSERT_EQ(got.end().x(), want.end.x()) << "segment " << c;
    ASSERT_EQ(got.end().y(), want.end.y()) << "segment " << c;
  }
  if (capped) {
    // Segment payloads are read through the chunked store.
    for (size_t c = 0; c < run.chunked_store->num_chunks(); ++c) {
      const auto chunk = run.chunked_store->Chunk(c);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      const size_t base = run.chunked_store->chunk_begin(c);
      for (size_t i = 0; i < (*chunk)->size(); ++i) {
        const geom::Segment& got = (*chunk)->segment(i);
        const GoldenSegment& want = golden.segments[base + i];
        ASSERT_EQ(got.id(), want.id) << "segment " << base + i;
        ASSERT_EQ(got.trajectory_id(), want.trajectory_id);
        ASSERT_EQ(got.start().x(), want.start.x());
        ASSERT_EQ(got.start().y(), want.start.y());
        ASSERT_EQ(got.end().x(), want.end.x());
        ASSERT_EQ(got.end().y(), want.end.y());
      }
    }
  }
  EXPECT_EQ(run.characteristic_points, golden.characteristic_points);
  EXPECT_EQ(run.clustering.labels, golden.labels);
  EXPECT_EQ(run.clustering.num_noise, golden.num_noise);
  ASSERT_EQ(run.clustering.clusters.size(), golden.num_clusters);
  ASSERT_EQ(run.clustering.clusters.size(), golden.cluster_members.size());
  for (size_t c = 0; c < golden.cluster_members.size(); ++c) {
    EXPECT_EQ(run.clustering.clusters[c].member_indices,
              golden.cluster_members[c]);
  }
  ASSERT_EQ(run.representatives.size(), golden.representatives.size());
  for (size_t r = 0; r < golden.representatives.size(); ++r) {
    const auto& got = run.representatives[r].points();
    const auto& want = golden.representatives[r];
    ASSERT_EQ(got.size(), want.size()) << "representative " << r;
    for (size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(got[p].x(), want[p].x());  // Bitwise (golden is %.17g).
      EXPECT_EQ(got[p].y(), want[p].y());
    }
  }
}

TraclusEngine HurricaneEngine(int threads) {
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 5;
  config.num_threads = threads;
  auto engine = TraclusEngine::FromConfig(config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

// ---------------------------------------------------------------------------
// The golden matrix: chunk capacity × threads × kernel, all byte-identical
// to the eager pipeline's committed output.
// ---------------------------------------------------------------------------

TEST(StreamingGoldenTest, MatchesGoldenAcrossChunkThreadAndKernelMatrix) {
  const GoldenRun golden = LoadGolden("hurricane_default.golden");
  ASSERT_GT(golden.num_clusters, 0u);
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});

  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{1024}, size_t{0}}) {
    for (const int threads : {1, 4}) {
      for (const auto kernel :
           {distance::BatchKernel::kScalar, distance::BatchKernel::kSimd}) {
        SCOPED_TRACE(testing::Message()
                     << "chunk " << chunk << " threads " << threads
                     << " kernel " << static_cast<int>(kernel));
        const TraclusEngine engine = HurricaneEngine(threads);
        traj::DatabaseSource source(db);
        RunContext ctx;
        ctx.chunk_capacity = chunk;
        ctx.distance_kernel = kernel;
        const auto run = engine.Run(source, ctx);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_NE(run->chunked_store, nullptr);
        EXPECT_EQ(run->chunked_store->options().chunk_capacity, chunk);
        ExpectMatchesGolden(*run, golden);
      }
    }
  }
}

TEST(StreamingGoldenTest, CappedOutOfCoreRunMatchesGolden) {
  const GoldenRun golden = LoadGolden("hurricane_default.golden");
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const TraclusEngine engine = HurricaneEngine(threads);
    traj::DatabaseSource source(db);
    RunContext ctx;
    // Many more chunks than the residency cap: the database cannot fit in
    // the reader cache, so grouping must genuinely run out-of-core.
    ctx.chunk_capacity = 64;
    ctx.max_resident_chunks = 3;
    const auto run = engine.Run(source, ctx);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    ASSERT_NE(run->chunked_store, nullptr);
    const auto& store = *run->chunked_store;
    ASSERT_GT(store.num_chunks(), 3u)
        << "test needs a database larger than the residency cap";
    // The cap held for the whole grouping + representative phase...
    EXPECT_LE(store.peak_resident_chunks(), 3u);
    EXPECT_GE(store.peak_resident_chunks(), 1u);
    // ...and the monolithic store was never materialized.
    EXPECT_EQ(run->store.size(), 0u);

    ExpectMatchesGolden(*run, golden);
  }
}

TEST(StreamingGoldenTest, CappedRunsAtTheLruWorstCaseMatchGolden) {
  // Nine 1,024-segment chunks behind 8 slots (one short of the working set:
  // the cyclic-LRU worst case) and behind a single slot. The chunk-major
  // ε-join keeps both byte-identical to the eager golden.
  const GoldenRun golden = LoadGolden("hurricane_default.golden");
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});

  for (const size_t cap : {size_t{8}, size_t{1}}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "cap " << cap << " threads " << threads);
      const TraclusEngine engine = HurricaneEngine(threads);
      traj::DatabaseSource source(db);
      RunContext ctx;
      ctx.chunk_capacity = 1024;
      ctx.max_resident_chunks = cap;
      const auto run = engine.Run(source, ctx);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_NE(run->chunked_store, nullptr);
      const auto& store = *run->chunked_store;
      ASSERT_EQ(store.num_chunks(), 9u);
      EXPECT_LE(store.peak_resident_chunks(), cap);
      EXPECT_EQ(run->store.size(), 0u);
      ExpectMatchesGolden(*run, golden);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming-specific semantics.
// ---------------------------------------------------------------------------

TEST(StreamingRunTest, EmptySourceIsFailedPrecondition) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  traj::CsvStringSource source("");
  const auto run = engine->Run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingRunTest, PreCancelledTokenStopsBeforeIngest) {
  const auto engine = TraclusEngine::Builder().Build();
  ASSERT_TRUE(engine.ok());
  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  traj::DatabaseSource source(db);
  common::CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancellation = &token;
  const auto run = engine->Run(source, ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST(StreamingRunTest, ProgressBracketsEveryStageOnce) {
  // Block-wise ingest must not spam per-block partition events: each stage
  // reports a single 0.0 → ... → 1.0 bracket, exactly like the eager run.
  TraclusConfig config;
  config.eps = 0.94;
  config.min_lns = 5;
  const auto engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(engine.ok());
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 600;  // > one ingest block.
  const auto db = datagen::GenerateHurricanes(gen);
  traj::DatabaseSource source(db);

  std::vector<std::pair<std::string, double>> events;
  RunContext ctx;
  ctx.chunk_capacity = 128;
  ctx.progress = [&](const std::string& stage, double fraction) {
    events.emplace_back(stage, fraction);
  };
  const auto run = engine->Run(source, ctx);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const std::vector<std::string> expected_order = {
      "partition/mdl-approx", "group/dbscan", "represent/sweep-projection"};
  size_t order_pos = 0;
  std::string current;
  double last_fraction = 0.0;
  for (const auto& [stage, fraction] : events) {
    if (stage != current) {
      if (!current.empty()) {
        EXPECT_EQ(last_fraction, 1.0) << current;
      }
      ASSERT_LT(order_pos, expected_order.size());
      EXPECT_EQ(stage, expected_order[order_pos++]);
      EXPECT_EQ(fraction, 0.0) << stage;
      current = stage;
    } else {
      EXPECT_GE(fraction, last_fraction) << stage;
    }
    last_fraction = fraction;
  }
  EXPECT_EQ(order_pos, expected_order.size());
  EXPECT_EQ(last_fraction, 1.0);
}

TEST(StreamingRunTest, CsvSourceStreamsStraightIntoThePipeline) {
  // End to end from CSV text: the streaming run over a CsvStringSource must
  // equal the eager run over the parsed database.
  std::ostringstream csv;
  for (int t = 0; t < 24; ++t) {
    for (int p = 0; p < 12; ++p) {
      csv << t << "," << p << "," << 0.05 * t + ((p % 3) - 1) * 0.01 << "\n";
    }
  }
  TraclusConfig config;
  config.eps = 0.5;
  config.min_lns = 3;
  const auto engine = TraclusEngine::FromConfig(config);
  ASSERT_TRUE(engine.ok());

  const auto eager_db = traj::ParseCsv(csv.str());
  ASSERT_TRUE(eager_db.ok()) << eager_db.status().ToString();
  const auto eager = engine->Run(*eager_db);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  traj::CsvStringSource source(csv.str());
  RunContext ctx;
  ctx.chunk_capacity = 5;
  const auto streamed = engine->Run(source, ctx);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  ASSERT_EQ(streamed->store.size(), eager->store.size());
  for (size_t i = 0; i < eager->store.size(); ++i) {
    EXPECT_EQ(streamed->store.segment(i).id(), eager->store.segment(i).id());
    EXPECT_EQ(streamed->store.segment(i).trajectory_id(),
              eager->store.segment(i).trajectory_id());
  }
  EXPECT_EQ(streamed->characteristic_points, eager->characteristic_points);
  EXPECT_EQ(streamed->clustering.labels, eager->clustering.labels);
  ASSERT_EQ(streamed->representatives.size(), eager->representatives.size());
  for (size_t r = 0; r < eager->representatives.size(); ++r) {
    const auto& sp = streamed->representatives[r].points();
    const auto& ep = eager->representatives[r].points();
    ASSERT_EQ(sp.size(), ep.size());
    for (size_t p = 0; p < ep.size(); ++p) {
      EXPECT_EQ(sp[p].x(), ep[p].x());
      EXPECT_EQ(sp[p].y(), ep[p].y());
    }
  }
}

TEST(StreamingRunTest, BruteForceProviderAlsoMatchesUnderResidencyCap) {
  // The no-index (Lemma 3 "no index") configuration exercises the chunked
  // brute-force provider; labels must equal the eager no-index run's.
  DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5;
  group.use_index = false;
  const auto engine = TraclusEngine::Builder()
                          .UseDbscanGrouping(group)
                          .WithoutRepresentatives()
                          .Build();
  ASSERT_TRUE(engine.ok());
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 120;
  const auto db = datagen::GenerateHurricanes(gen);

  const auto eager = engine->Run(db);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  traj::DatabaseSource source(db);
  RunContext ctx;
  ctx.chunk_capacity = 100;
  ctx.max_resident_chunks = 2;
  const auto streamed = engine->Run(source, ctx);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_NE(streamed->chunked_store, nullptr);
  EXPECT_LE(streamed->chunked_store->peak_resident_chunks(), 2u);
  EXPECT_EQ(streamed->clustering.labels, eager->clustering.labels);
  EXPECT_EQ(streamed->clustering.num_noise, eager->clustering.num_noise);
}

// ---------------------------------------------------------------------------
// Knobs a capped run cannot honor are errors, not no-ops.
// ---------------------------------------------------------------------------

DbscanGroupOptions SmallHurricaneGroup() {
  DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5;
  return group;
}

traj::TrajectoryDatabase SmallHurricanes() {
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 40;
  return datagen::GenerateHurricanes(gen);
}

RunContext CappedContext() {
  RunContext ctx;
  ctx.chunk_capacity = 64;
  ctx.max_resident_chunks = 2;
  return ctx;
}

TEST(StreamingRunTest, CappedRunRejectsANeighborCacheDirectory) {
  // The capped grouping path builds no file cache, so a directory in the
  // run context fails before ingest and is never created.
  const auto db = SmallHurricanes();
  const std::string dir = ::testing::TempDir() + "streaming_capped_nbcache";
  std::filesystem::remove_all(dir);

  const auto plain =
      TraclusEngine::Builder().UseDbscanGrouping(SmallHurricaneGroup()).Build();
  ASSERT_TRUE(plain.ok());
  RunContext with_dir = CappedContext();
  with_dir.neighbor_cache_dir = dir;
  traj::DatabaseSource source(db);
  const auto run = plain->Run(source, with_dir);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("neighbor_cache_dir"),
            std::string::npos)
      << run.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir));

  // An uncapped streaming run groups the merged store and uses the cache.
  RunContext uncapped;
  uncapped.chunk_capacity = 64;
  uncapped.neighbor_cache_dir = dir;
  traj::DatabaseSource again(db);
  ASSERT_TRUE(plain->Run(again, uncapped).ok());
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

// A representative stage without a capped path (inherits RunChunked).
class EagerOnlyRepresentatives : public RepresentativeStage {
 public:
  const char* name() const override { return "represent/eager-only"; }
  common::Result<std::vector<traj::Trajectory>> Run(
      const traj::SegmentStore& /*store*/,
      const cluster::ClusteringResult& /*clustering*/,
      const RunContext& /*ctx*/) const override {
    return std::vector<traj::Trajectory>{};
  }
};

TEST(StreamingRunTest, CappedRunRejectsStagesWithoutACappedPath) {
  // OPTICS, sieve and sharded grouping have no RunChunked path; merging the
  // chunks would break the cap, so a capped run names the stage and fails.
  const auto db = SmallHurricanes();
  OpticsGroupOptions optics;
  optics.eps = 0.94;
  optics.min_lns = 5;
  SieveGroupOptions sieve;
  sieve.k = 4;
  ShardedGroupOptions sharded;
  sharded.shards = 4;
  const std::vector<std::pair<std::string, common::Result<TraclusEngine>>>
      engines = {
          {"group/optics",
           TraclusEngine::Builder().UseOpticsGrouping(optics).Build()},
          {"group/sieve+",
           TraclusEngine::Builder()
               .UseDbscanGrouping(SmallHurricaneGroup())
               .WithSieveGrouping(sieve)
               .Build()},
          {"group/sharded+",
           TraclusEngine::Builder()
               .UseDbscanGrouping(SmallHurricaneGroup())
               .WithShardedGrouping(sharded)
               .Build()},
          {"represent/eager-only",
           TraclusEngine::Builder()
               .UseDbscanGrouping(SmallHurricaneGroup())
               .SetRepresentativeStage(
                   std::make_shared<EagerOnlyRepresentatives>())
               .Build()},
      };
  for (const auto& [stage, engine] : engines) {
    SCOPED_TRACE(stage);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    traj::DatabaseSource source(db);
    const auto run = engine->Run(source, CappedContext());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kUnimplemented);
    EXPECT_NE(run.status().message().find("'" + stage), std::string::npos)
        << run.status().ToString();
    // Uncapped, the same engine runs.
    traj::DatabaseSource again(db);
    RunContext uncapped;
    uncapped.chunk_capacity = 64;
    EXPECT_TRUE(engine->Run(again, uncapped).ok());
  }
}

}  // namespace
}  // namespace traclus::core
