// Tests for SieveGroupStage (core/sieve_stage.h): determinism across thread
// counts and kernels for a fixed (k, offset), the sampling rule itself, the
// builder wiring, and the Validate error surface (k < 2 included).

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/sieve_stage.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
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

SieveGroupOptions HurricaneSieveOptions(size_t k, size_t offset = 0) {
  const DbscanGroupOptions group = HurricaneGroupOptions();
  SieveGroupOptions sieve;
  sieve.k = k;
  sieve.offset = offset;
  sieve.eps = group.eps;
  sieve.distance = group.distance;
  return sieve;
}

SieveGroupStage MakeSieveStage(size_t k, size_t offset = 0) {
  return SieveGroupStage(
      std::make_shared<DbscanGroupStage>(HurricaneGroupOptions()),
      HurricaneSieveOptions(k, offset));
}

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
                            .WithSieveGrouping(HurricaneSieveOptions(k))
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

  // Non-positive / non-finite assignment radius.
  SieveGroupOptions bad_eps = HurricaneSieveOptions(4);
  bad_eps.eps = 0.0;
  const SieveGroupStage zero_eps(
      std::make_shared<DbscanGroupStage>(HurricaneGroupOptions()), bad_eps);
  EXPECT_EQ(zero_eps.Validate().code(), common::StatusCode::kOutOfRange);

  // Negative distance weight.
  SieveGroupOptions bad_weight = HurricaneSieveOptions(4);
  bad_weight.distance.w_angle = -1.0;
  const SieveGroupStage neg_weight(
      std::make_shared<DbscanGroupStage>(HurricaneGroupOptions()),
      bad_weight);
  EXPECT_EQ(neg_weight.Validate().code(),
            common::StatusCode::kInvalidArgument);

  // An invalid inner configuration propagates through the decorator.
  DbscanGroupOptions bad_inner = HurricaneGroupOptions();
  bad_inner.eps = -1.0;
  const SieveGroupStage wraps_bad(
      std::make_shared<DbscanGroupStage>(bad_inner),
      HurricaneSieveOptions(4));
  EXPECT_FALSE(wraps_bad.Validate().ok());
}

TEST(SieveStageTest, BuilderWiresSieveAndFullPipelineRuns) {
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  const DbscanGroupOptions group = HurricaneGroupOptions();
  const SieveGroupOptions sieve = HurricaneSieveOptions(4);
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
