// Tests for ShardedGroupStage (core/sharded_stage.h): the shards < 2
// Validate rejection, equivalence to the unsharded backend modulo the
// documented contested-border deviation, byte-determinism across thread
// counts and kernels for a fixed shard count, the halo merge on an
// adversarial border-spanning chain, the stats sink, the density parameters
// read from the inner stage, and the Validate error surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/sharded_stage.h"
#include "core/sieve_stage.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace traclus::core {
namespace {

using geom::Point;
using geom::Segment;

// The golden pipeline's hurricane corpus and parameters (ε = 0.94,
// MinLns = 5 — the same configuration tests/golden/hurricane.golden pins),
// partitioned once into the store the grouping stages consume.
const traj::SegmentStore& HurricaneStore() {
  static const traj::SegmentStore* store = [] {
    const traj::TrajectoryDatabase db =
        datagen::GenerateHurricanes(datagen::HurricaneConfig{});
    auto engine = TraclusEngine::FromConfig(TraclusConfig{});
    EXPECT_TRUE(engine.ok());
    auto partitioned = engine->Partition(db);
    EXPECT_TRUE(partitioned.ok());
    return new traj::SegmentStore(std::move(partitioned->store));
  }();
  return *store;
}

DbscanGroupOptions HurricaneGroupOptions() {
  DbscanGroupOptions options;
  options.eps = 0.94;
  options.min_lns = 5.0;
  return options;
}

ShardedGroupOptions ShardedOptions(size_t shards,
                                   ShardedRunStats* stats = nullptr) {
  ShardedGroupOptions sharded;
  sharded.shards = shards;
  sharded.stats = stats;
  return sharded;
}

ShardedGroupStage MakeShardedStage(const DbscanGroupOptions& group,
                                   size_t shards,
                                   ShardedRunStats* stats = nullptr) {
  return ShardedGroupStage(std::make_shared<DbscanGroupStage>(group),
                           ShardedOptions(shards, stats));
}

void ExpectSameDensity(const std::optional<DensityParams>& got,
                       const std::optional<DensityParams>& want) {
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got->eps, want->eps);
  EXPECT_EQ(got->min_lns, want->min_lns);
  EXPECT_EQ(got->min_trajectory_cardinality,
            want->min_trajectory_cardinality);
  EXPECT_EQ(got->use_weights, want->use_weights);
  EXPECT_EQ(got->distance.w_perpendicular, want->distance.w_perpendicular);
  EXPECT_EQ(got->distance.w_parallel, want->distance.w_parallel);
  EXPECT_EQ(got->distance.w_angle, want->distance.w_angle);
  EXPECT_EQ(got->distance.directed, want->distance.directed);
}

// A custom group stage that states no density parameters (the default
// GroupStage::density()): neither decorator can wrap it.
class NoDensityGroupStage : public GroupStage {
 public:
  const char* name() const override { return "group/no-density"; }
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store,
      const RunContext& /*ctx*/) const override {
    cluster::ClusteringResult result;
    result.labels.assign(store.size(), cluster::kNoise);
    result.num_noise = store.size();
    return result;
  }
};

void ExpectSameClustering(const cluster::ClusteringResult& a,
                          const cluster::ClusteringResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.num_noise, b.num_noise);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].id, b.clusters[c].id);
    EXPECT_EQ(a.clusters[c].member_indices, b.clusters[c].member_indices);
  }
}

// Brute-force Definition 5 density over the whole store: the exact global
// core status of segment i, independent of any index or shard machinery.
bool IsGlobalCore(const traj::SegmentStore& store,
                  const distance::SegmentDistance& dist, size_t i, double eps,
                  double min_lns) {
  size_t mass = 0;
  for (size_t j = 0; j < store.size(); ++j) {
    if (dist(store, i, j) <= eps) ++mass;
  }
  return static_cast<double>(mass) >= min_lns;
}

// Equivalence modulo the deviations sharded_stage.h documents: cluster
// numbering may permute (compared under the best-overlap bijection), and a
// handful of non-core contested border segments may land in a different
// cluster — or in noise, when their cluster is cardinality-filtered. Every
// differing segment must be globally non-core; core segments' membership is
// exact.
void ExpectEquivalentModuloContestedBorders(
    const traj::SegmentStore& store, const DbscanGroupOptions& group,
    const cluster::ClusteringResult& golden,
    const cluster::ClusteringResult& got) {
  ASSERT_EQ(golden.labels.size(), got.labels.size());
  const size_t n = golden.labels.size();

  // Best-overlap mapping got-cluster → golden-cluster, required injective.
  std::map<std::pair<int, int>, size_t> overlap;
  for (size_t i = 0; i < n; ++i) {
    if (got.labels[i] >= 0 && golden.labels[i] >= 0) {
      ++overlap[{got.labels[i], golden.labels[i]}];
    }
  }
  std::vector<int> map_to(got.clusters.size(), -1);
  for (const auto& [key, count] : overlap) {
    const auto [from, to] = key;
    // std::map iteration is ordered, so ties break toward the lowest golden
    // id deterministically.
    if (map_to[static_cast<size_t>(from)] < 0 ||
        overlap.at({from, map_to[static_cast<size_t>(from)]}) < count) {
      map_to[static_cast<size_t>(from)] = to;
    }
  }
  std::vector<char> taken(golden.clusters.size(), 0);
  for (const int to : map_to) {
    if (to < 0) continue;
    EXPECT_FALSE(taken[static_cast<size_t>(to)])
        << "cluster mapping is not injective";
    taken[static_cast<size_t>(to)] = 1;
  }

  // Differing segments: rare, and all globally non-core.
  const distance::SegmentDistance dist(group.distance);
  size_t differing = 0;
  for (size_t i = 0; i < n; ++i) {
    const int mapped =
        got.labels[i] >= 0 ? map_to[static_cast<size_t>(got.labels[i])] : -1;
    if (mapped == golden.labels[i]) continue;
    ++differing;
    EXPECT_FALSE(IsGlobalCore(store, dist, i, group.eps, group.min_lns))
        << "segment " << i << " is a global core but its membership moved "
        << "(golden " << golden.labels[i] << ", sharded " << mapped << ")";
  }
  // The deviation class is a boundary effect; it must stay marginal.
  EXPECT_LE(differing, std::max<size_t>(2, n / 200));
  EXPECT_LE(static_cast<size_t>(
                std::max<int64_t>(0, static_cast<int64_t>(got.num_noise) -
                                         static_cast<int64_t>(
                                             golden.num_noise))),
            differing);
}

TEST(ShardStageTest, NameAndValidate) {
  const ShardedGroupStage stage = MakeShardedStage(HurricaneGroupOptions(), 4);
  EXPECT_STREQ(stage.name(), "group/sharded+dbscan");
  EXPECT_TRUE(stage.Validate().ok());
}

TEST(ShardStageTest, ShardCountBelowTwoFailsValidate) {
  // Without sharding there is nothing to decorate: build the inner stage
  // alone instead.
  const DbscanGroupOptions group = HurricaneGroupOptions();
  for (const size_t shards : {size_t{0}, size_t{1}}) {
    EXPECT_EQ(MakeShardedStage(group, shards).Validate().code(),
              common::StatusCode::kOutOfRange)
        << "shards " << shards;
    const auto engine = TraclusEngine::Builder()
                            .UseDbscanGrouping(group)
                            .WithShardedGrouping(ShardedOptions(shards))
                            .Build();
    EXPECT_EQ(engine.status().code(), common::StatusCode::kOutOfRange);
  }
}

TEST(ShardStageTest, EmptyStoreDelegatesToTheInnerStage) {
  const auto got = MakeShardedStage(HurricaneGroupOptions(), 4)
                       .Run(traj::SegmentStore(), RunContext{});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->labels.empty());
  EXPECT_TRUE(got->clusters.empty());
  EXPECT_EQ(got->num_noise, 0u);
}

TEST(ShardStageTest, EquivalentToUnshardedAndDeterministic) {
  const traj::SegmentStore& store = HurricaneStore();
  const DbscanGroupOptions group = HurricaneGroupOptions();
  const DbscanGroupStage inner(group);
  const auto golden = inner.Run(store, RunContext{});
  ASSERT_TRUE(golden.ok());

  for (const size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
    const ShardedGroupStage stage = MakeShardedStage(group, shards);
    RunContext base_ctx;
    base_ctx.num_threads = 1;
    base_ctx.distance_kernel = distance::BatchKernel::kScalar;
    const auto reference = stage.Run(store, base_ctx);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectEquivalentModuloContestedBorders(store, group, *golden, *reference);

    // Fixed shard count ⇒ byte-identical across thread counts and kernels.
    for (const int threads : {1, 4}) {
      for (const distance::BatchKernel kernel :
           {distance::BatchKernel::kScalar, distance::BatchKernel::kSimd,
            distance::BatchKernel::kAuto}) {
        RunContext ctx;
        ctx.num_threads = threads;
        ctx.distance_kernel = kernel;
        const auto got = stage.Run(store, ctx);
        ASSERT_TRUE(got.ok());
        ExpectSameClustering(*got, *reference);
      }
    }
  }
}

// Adversarial border corpus: one dense collinear chain spanning many grid
// cells, so every shard cuts through it and the chain is far longer than one
// halo width. The halo merge must reassemble it into a single cluster —
// losing any border edge would leave ≥ 2 clusters. The second chain runs
// every other segment backwards under an undirected inner distance, with a
// MinLns that only the undirected neighborhoods reach (a middle segment has
// 13 directed ε-neighbors, itself included): a border core re-check that
// did not use the inner stage's distance and MinLns finds no cross-border
// core and leaves the chain split.
TEST(ShardStageTest, BorderSpanningChainMergesIntoOneCluster) {
  const size_t kChain = 60;
  for (const bool mixed_directions : {false, true}) {
    SCOPED_TRACE(mixed_directions ? "undirected chain" : "directed chain");
    std::vector<Segment> segments;
    for (size_t i = 0; i < kChain; ++i) {
      const double x = static_cast<double>(i) * 0.5;
      Point from(x, 0.0);
      Point to(x + 10.0, 0.0);
      if (mixed_directions && i % 2 == 1) std::swap(from, to);
      segments.emplace_back(from, to, static_cast<geom::SegmentId>(i),
                            static_cast<geom::TrajectoryId>(i));
    }
    const traj::SegmentStore store(std::move(segments));

    DbscanGroupOptions group;
    group.eps = 2.0;
    group.min_lns = mixed_directions ? 16.0 : 5.0;
    group.distance.directed = !mixed_directions;
    const DbscanGroupStage inner(group);
    const auto golden = inner.Run(store, RunContext{});
    ASSERT_TRUE(golden.ok());
    ASSERT_EQ(golden->clusters.size(), 1u);
    ASSERT_EQ(golden->num_noise, 0u);

    ShardedRunStats stats;
    for (const size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
      const auto got =
          MakeShardedStage(group, shards, &stats).Run(store, RunContext{});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Labels must match outright (one cluster, no numbering freedom);
      // member lists are not compared because DBSCAN emits expansion order
      // while the sharded stage emits ascending order.
      EXPECT_EQ(got->labels, golden->labels);
      EXPECT_EQ(got->num_noise, golden->num_noise);
      ASSERT_EQ(got->clusters.size(), 1u);
      EXPECT_EQ(got->clusters[0].member_indices.size(), kChain);
      // The chain crosses every shard border, so clusters really merged and
      // the halo machinery saw traffic.
      EXPECT_GE(stats.border_merges, shards - 1);
      EXPECT_GT(stats.ghost_segments, 0u);
      EXPECT_GT(stats.border_pairs, 0u);
      EXPECT_EQ(stats.shards_run, shards);
    }
  }
}

TEST(ShardStageTest, RandomizedCorpusMatchesUnshardedModuloBorders) {
  // Clumped random segments: dense blobs plus scattered noise, seeded so the
  // corpus (and therefore the expectation) is fixed.
  common::Rng rng(20260808);
  std::vector<Segment> segments;
  geom::SegmentId next_id = 0;
  for (int blob = 0; blob < 6; ++blob) {
    const double cx = rng.Uniform(0.0, 100.0);
    const double cy = rng.Uniform(0.0, 100.0);
    const int count = static_cast<int>(rng.UniformInt(8, 16));
    for (int k = 0; k < count; ++k) {
      const double x = cx + rng.Gaussian(0.0, 0.8);
      const double y = cy + rng.Gaussian(0.0, 0.8);
      segments.emplace_back(Point(x, y), Point(x + 6.0, y + 0.2), next_id,
                            static_cast<geom::TrajectoryId>(next_id));
      ++next_id;
    }
  }
  for (int k = 0; k < 30; ++k) {
    const double x = rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 100.0);
    segments.emplace_back(Point(x, y), Point(x + 4.0, y + 2.0), next_id,
                          static_cast<geom::TrajectoryId>(next_id));
    ++next_id;
  }
  const traj::SegmentStore store(std::move(segments));

  // The default distance, and a non-default inner configuration that the
  // decorator must read rather than assume: a different MinLns and
  // threshold, the weights flag, w⊥ = 2 (which narrows the halo reach) and
  // the undirected angle term.
  DbscanGroupOptions plain;
  plain.eps = 2.5;
  plain.min_lns = 4.0;
  DbscanGroupOptions custom = plain;
  custom.min_lns = 3.0;
  custom.min_trajectory_cardinality = 2.0;
  custom.use_weights = true;
  custom.distance.w_perpendicular = 2.0;
  custom.distance.directed = false;
  for (const DbscanGroupOptions& group : {plain, custom}) {
    const auto inner = std::make_shared<DbscanGroupStage>(group);
    const auto golden = inner->Run(store, RunContext{});
    ASSERT_TRUE(golden.ok());
    for (const size_t shards : {size_t{2}, size_t{5}}) {
      const ShardedGroupStage stage(inner, ShardedOptions(shards));
      ExpectSameDensity(stage.density(), inner->density());
      // Nested decorators report the innermost stage's parameters.
      SieveGroupOptions sieve;
      sieve.k = 2;
      const SieveGroupStage nested(
          std::make_shared<ShardedGroupStage>(inner, ShardedOptions(shards)),
          sieve);
      ExpectSameDensity(nested.density(), inner->density());
      for (const int threads : {1, 4}) {
        RunContext ctx;
        ctx.num_threads = threads;
        const auto got = stage.Run(store, ctx);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectEquivalentModuloContestedBorders(store, group, *golden, *got);
      }
    }
  }
}

TEST(ShardStageTest, StatsSinkCountsShardsAndGhosts) {
  const traj::SegmentStore& store = HurricaneStore();
  ShardedRunStats stats;
  const ShardedGroupStage stage =
      MakeShardedStage(HurricaneGroupOptions(), 4, &stats);
  const auto got = stage.Run(store, RunContext{});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.shards_run, 4u);
  EXPECT_GT(stats.ghost_segments, 0u);
  EXPECT_GT(stats.border_pairs, 0u);
}

TEST(ShardStageTest, ValidateRejectsBadConfigurations) {
  // Null inner stage.
  const ShardedGroupStage null_inner(nullptr);
  EXPECT_EQ(null_inner.Validate().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(null_inner.density().has_value());

  // An invalid inner configuration propagates through the decorator: the
  // inner stage's Validate is the one check of ε, MinLns and the weights.
  DbscanGroupOptions bad_eps = HurricaneGroupOptions();
  bad_eps.eps = -1.0;
  const ShardedGroupStage wraps_bad(
      std::make_shared<DbscanGroupStage>(bad_eps), ShardedOptions(4));
  EXPECT_EQ(wraps_bad.Validate().code(), common::StatusCode::kOutOfRange);
  DbscanGroupOptions bad_weight = HurricaneGroupOptions();
  bad_weight.distance.w_perpendicular = -1.0;
  const ShardedGroupStage wraps_bad_weight(
      std::make_shared<DbscanGroupStage>(bad_weight), ShardedOptions(4));
  EXPECT_EQ(wraps_bad_weight.Validate().code(),
            common::StatusCode::kInvalidArgument);

  // An inner stage without density parameters: refused by Validate and by
  // Build(), naming the decorator and the accessor.
  const ShardedGroupStage no_density(std::make_shared<NoDensityGroupStage>(),
                                     ShardedOptions(4));
  const common::Status status = no_density.Validate();
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("ShardedGroupStage"), std::string::npos);
  EXPECT_NE(status.message().find("GroupStage::density()"),
            std::string::npos);
  const auto engine = TraclusEngine::Builder()
                          .SetGroupStage(std::make_shared<NoDensityGroupStage>())
                          .WithShardedGrouping(ShardedOptions(4))
                          .Build();
  EXPECT_EQ(engine.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ShardStageTest, BuilderWiresShardedGroupingThroughThePipeline) {
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  const DbscanGroupOptions group = HurricaneGroupOptions();
  SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto wrapped = TraclusEngine::Builder()
                           .UseMdlPartitioning()
                           .UseDbscanGrouping(group)
                           .UseSweepRepresentatives(reps)
                           .WithShardedGrouping(ShardedOptions(4))
                           .Build();
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();

  EXPECT_STREQ(wrapped->group_stage().name(), "group/sharded+dbscan");

  // The full pipeline groups through the configured shard count: its
  // clustering is the stage's own run on the partitioned store, with a
  // well-formed label domain.
  const auto got = wrapped->Run(db, RunContext{});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const auto expect = MakeShardedStage(group, 4).Run(got->store, RunContext{});
  ASSERT_TRUE(expect.ok());
  ExpectSameClustering(got->clustering, *expect);
  ASSERT_EQ(got->clustering.labels.size(), got->store.size());
  size_t noise = 0;
  for (const int label : got->clustering.labels) {
    EXPECT_GE(label, cluster::kNoise);
    EXPECT_LT(label, static_cast<int>(got->clustering.clusters.size()));
    if (label == cluster::kNoise) ++noise;
  }
  EXPECT_EQ(noise, got->clustering.num_noise);
  EXPECT_EQ(got->representatives.size(), got->clustering.clusters.size());
}

}  // namespace
}  // namespace traclus::core
