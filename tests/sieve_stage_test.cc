// Tests for SieveGroupStage (core/sieve_stage.h): determinism across thread
// counts and kernels for a fixed (k, offset), the sampling rule itself, the
// builder wiring, the density parameters read from the inner stage, and the
// Validate error surface (k < 2 included).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/sharded_stage.h"
#include "core/sieve_stage.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace traclus::core {
namespace {

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

SieveGroupOptions SieveOptions(size_t k, size_t offset = 0) {
  SieveGroupOptions sieve;
  sieve.k = k;
  sieve.offset = offset;
  return sieve;
}

SieveGroupStage MakeSieveStage(size_t k, size_t offset = 0) {
  return SieveGroupStage(
      std::make_shared<DbscanGroupStage>(HurricaneGroupOptions()),
      SieveOptions(k, offset));
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
// GroupStage::density()): the sieve cannot wrap it.
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

TEST(SieveStageTest, NameAndValidate) {
  const SieveGroupStage stage = MakeSieveStage(4);
  EXPECT_STREQ(stage.name(), "group/sieve+dbscan");
  EXPECT_TRUE(stage.Validate().ok());
}

TEST(SieveStageTest, StrideBelowTwoFailsValidate) {
  // Without a sieve there is nothing to decorate: build the inner stage
  // alone instead.
  for (const size_t k : {size_t{0}, size_t{1}}) {
    EXPECT_EQ(MakeSieveStage(k).Validate().code(),
              common::StatusCode::kOutOfRange)
        << "k " << k;
    const auto engine = TraclusEngine::Builder()
                            .UseDbscanGrouping(HurricaneGroupOptions())
                            .WithSieveGrouping(SieveOptions(k))
                            .Build();
    EXPECT_EQ(engine.status().code(), common::StatusCode::kOutOfRange);
  }
}

TEST(SieveStageTest, DeterministicAcrossThreadsAndKernels) {
  const traj::SegmentStore& store = HurricaneStore();
  for (const size_t k : {size_t{2}, size_t{3}}) {
    const SieveGroupStage stage = MakeSieveStage(k);
    RunContext base_ctx;
    base_ctx.num_threads = 1;
    base_ctx.distance_kernel = distance::BatchKernel::kScalar;
    const auto reference = stage.Run(store, base_ctx);
    ASSERT_TRUE(reference.ok());
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

TEST(SieveStageTest, SampledSegmentsKeepInnerLabelsAndOffsetsDiffer) {
  const traj::SegmentStore& store = HurricaneStore();
  const auto a = MakeSieveStage(4).Run(store, RunContext{});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->labels.size(), store.size());
  // Every label is a dense cluster id or noise — never unclassified.
  size_t noise = 0;
  for (const int label : a->labels) {
    EXPECT_GE(label, cluster::kNoise);
    EXPECT_LT(label, static_cast<int>(a->clusters.size()));
    if (label == cluster::kNoise) ++noise;
  }
  EXPECT_EQ(noise, a->num_noise);
  // Membership lists and labels agree.
  for (const auto& c : a->clusters) {
    for (const size_t i : c.member_indices) {
      EXPECT_EQ(a->labels[i], c.id);
    }
  }
  // The assignment radius and distance are the inner stage's: every 7th
  // sieved-out segment carries the label of its nearest clustered sample
  // segment within the inner ε (earliest on ties), or noise when none is.
  const DbscanGroupOptions group = HurricaneGroupOptions();
  const distance::SegmentDistance dist(group.distance);
  std::unordered_map<geom::TrajectoryId, size_t> rank_of;
  std::vector<size_t> anchors;
  std::vector<size_t> sieved_out;
  for (size_t i = 0; i < store.size(); ++i) {
    const size_t rank =
        rank_of.emplace(store.trajectory_id(i), rank_of.size()).first->second;
    if (rank % 4 != 0) {
      sieved_out.push_back(i);
    } else if (a->labels[i] >= 0) {
      anchors.push_back(i);
    }
  }
  for (size_t q = 0; q < sieved_out.size(); q += 7) {
    double best = group.eps;
    int expect = cluster::kNoise;
    for (const size_t anchor : anchors) {
      const double d = dist(store, sieved_out[q], anchor);
      if (d < best || (d == best && expect == cluster::kNoise)) {
        best = d;
        expect = a->labels[anchor];
      }
    }
    EXPECT_EQ(a->labels[sieved_out[q]], expect) << "segment " << sieved_out[q];
  }
  // A different residue class samples a different subset — the runs are both
  // deterministic but (on real data) not identical.
  const auto b = MakeSieveStage(4, 1).Run(store, RunContext{});
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->labels, b->labels);
  // The offset is taken modulo k.
  const auto wrapped = MakeSieveStage(4, 5).Run(store, RunContext{});
  ASSERT_TRUE(wrapped.ok());
  ExpectSameClustering(*wrapped, *b);
}

TEST(SieveStageTest, ValidateRejectsBadConfigurations) {
  // Null inner stage.
  const SieveGroupStage null_inner(nullptr);
  EXPECT_EQ(null_inner.Validate().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(null_inner.density().has_value());

  // An invalid inner configuration propagates through the decorator: the
  // inner stage's Validate is the one check of ε and the weights.
  DbscanGroupOptions bad_eps = HurricaneGroupOptions();
  bad_eps.eps = -1.0;
  const SieveGroupStage wraps_bad(std::make_shared<DbscanGroupStage>(bad_eps),
                                  SieveOptions(4));
  EXPECT_EQ(wraps_bad.Validate().code(), common::StatusCode::kOutOfRange);
  DbscanGroupOptions bad_weight = HurricaneGroupOptions();
  bad_weight.distance.w_angle = -1.0;
  const SieveGroupStage wraps_bad_weight(
      std::make_shared<DbscanGroupStage>(bad_weight), SieveOptions(4));
  EXPECT_EQ(wraps_bad_weight.Validate().code(),
            common::StatusCode::kInvalidArgument);

  // An inner stage without density parameters: refused by Validate and by
  // Build(), naming the decorator and the accessor.
  const SieveGroupStage no_density(std::make_shared<NoDensityGroupStage>(),
                                   SieveOptions(4));
  const common::Status status = no_density.Validate();
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("SieveGroupStage"), std::string::npos);
  EXPECT_NE(status.message().find("GroupStage::density()"),
            std::string::npos);
  const auto engine = TraclusEngine::Builder()
                          .SetGroupStage(std::make_shared<NoDensityGroupStage>())
                          .WithSieveGrouping(SieveOptions(4))
                          .Build();
  EXPECT_EQ(engine.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SieveStageTest, DensityIsTheInnerStages) {
  // Non-default values throughout, so a decorator that assumed a default
  // instead of reading the inner stage would differ somewhere.
  DbscanGroupOptions group;
  group.eps = 2.5;
  group.min_lns = 3.0;
  group.min_trajectory_cardinality = 2.0;
  group.use_weights = true;
  group.distance.w_perpendicular = 2.0;
  group.distance.directed = false;
  const auto dbscan = std::make_shared<DbscanGroupStage>(group);
  const SieveGroupStage sieve(dbscan, SieveOptions(4));
  ExpectSameDensity(sieve.density(), dbscan->density());
  EXPECT_EQ(sieve.density()->eps, 2.5);
  EXPECT_FALSE(sieve.density()->distance.directed);

  // sieve(sharded(dbscan)) reports DBSCAN's parameters.
  ShardedGroupOptions sharded;
  sharded.shards = 2;
  const SieveGroupStage nested(
      std::make_shared<ShardedGroupStage>(dbscan, sharded), SieveOptions(4));
  EXPECT_TRUE(nested.Validate().ok());
  ExpectSameDensity(nested.density(), dbscan->density());

  // OPTICS reports its generating ε (not the extraction cut) and counts
  // segments, so use_weights is false.
  OpticsGroupOptions optics;
  optics.eps = 2.5;
  optics.eps_cut = 1.0;
  optics.min_lns = 3.0;
  optics.distance.w_angle = 0.5;
  const SieveGroupStage over_optics(std::make_shared<OpticsGroupStage>(optics),
                                    SieveOptions(4));
  const std::optional<DensityParams> p = over_optics.density();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->eps, 2.5);
  EXPECT_EQ(p->min_lns, 3.0);
  EXPECT_FALSE(p->use_weights);
  EXPECT_EQ(p->distance.w_angle, 0.5);
}

TEST(SieveStageTest, BuilderWiresSieveAndFullPipelineRuns) {
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  const DbscanGroupOptions group = HurricaneGroupOptions();
  const SieveGroupOptions sieve = SieveOptions(4);
  SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto wrapped = TraclusEngine::Builder()
                           .UseMdlPartitioning()
                           .UseDbscanGrouping(group)
                           .UseSweepRepresentatives(reps)
                           .WithSieveGrouping(sieve)
                           .Build();
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  EXPECT_STREQ(wrapped->group_stage().name(), "group/sieve+dbscan");

  // The full pipeline groups through the configured stride: its clustering
  // is the stage's own run on the partitioned store.
  const auto got = wrapped->Run(db, RunContext{});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const auto expect = MakeSieveStage(4).Run(got->store, RunContext{});
  ASSERT_TRUE(expect.ok());
  ExpectSameClustering(got->clustering, *expect);

  // Wrapping with no grouping backend configured fails at Build. (The
  // default-constructed Builder presets a DBSCAN stage, so the empty state
  // must be forced explicitly.)
  const auto no_inner = TraclusEngine::Builder()
                            .UseMdlPartitioning()
                            .SetGroupStage(nullptr)
                            .WithSieveGrouping(sieve)
                            .Build();
  EXPECT_FALSE(no_inner.ok());
}

}  // namespace
}  // namespace traclus::core
