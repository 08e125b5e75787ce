// E17 — microbenchmarks of the distance function (§2.3): the inner loop of
// everything in the grouping phase. Measures the full weighted distance, each
// component, the naive endpoint baselines, and the Euclidean lower bound used
// for index pruning.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/span.h"
#include "core/engine.h"
#include "core/sieve_stage.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "distance/endpoint_distance.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace {

using namespace traclus;

std::vector<geom::Segment> RandomSegments(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<geom::Segment> segs;
  for (size_t i = 0; i < n; ++i) {
    const geom::Point s(rng.Uniform(0, 100), rng.Uniform(0, 100));
    const double ang = rng.Uniform(0, 2 * M_PI);
    const double len = rng.Uniform(0.5, 10);
    segs.emplace_back(s, geom::Point(s.x() + len * std::cos(ang),
                                     s.y() + len * std::sin(ang)),
                      static_cast<geom::SegmentId>(i),
                      static_cast<geom::TrajectoryId>(i));
  }
  return segs;
}

const std::vector<geom::Segment>& Pool() {
  static const auto segs = RandomSegments(1024, 99);
  return segs;
}

const traj::SegmentStore& StorePool() {
  static const traj::SegmentStore store(Pool());
  return store;
}

// The recompute baseline: every pairwise call rederives segment lengths,
// directions, and norms from the endpoints (the pre-SegmentStore hot path).
void BM_FullDistance(benchmark::State& state) {
  const auto& segs = Pool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist(segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_FullDistance);

// The invariant-cached variant: identical results (bit-for-bit; the
// equivalence is asserted in tests/segment_store_test.cc), but lengths,
// squared lengths, and direction vectors come from the SegmentStore and the
// endpoint projections are shared between d⊥ and d∥. The headline ratio
// BM_FullDistance / BM_FullDistanceStoreCached is the per-pair speedup of
// the grouping-phase inner loop; CI uploads this JSON per commit.
void BM_FullDistanceStoreCached(benchmark::State& state) {
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist(store, i % store.size(), (i * 31 + 7) % store.size()));
    ++i;
  }
}
BENCHMARK(BM_FullDistanceStoreCached);

void BM_DistanceComponentsStoreCached(benchmark::State& state) {
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist.Components(store, i % store.size(), (i * 31 + 7) % store.size()));
    ++i;
  }
}
BENCHMARK(BM_DistanceComponentsStoreCached);

// One-time cost of freezing a segment vector into the invariant cache — the
// price paid once per pipeline run for the per-pair savings above. The
// pipeline moves the vector in (MdlPartitionStage), so the copy that refills
// it each iteration is excluded from the timed region.
void BM_SegmentStoreBuild(benchmark::State& state) {
  const auto& segs = Pool();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<geom::Segment> input = segs;
    state.ResumeTiming();
    benchmark::DoNotOptimize(traj::SegmentStore(std::move(input)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(segs.size()));
}
BENCHMARK(BM_SegmentStoreBuild);

void BM_DistanceComponents(benchmark::State& state) {
  const auto& segs = Pool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Components(
        segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_DistanceComponents);

void BM_PerpendicularOnly(benchmark::State& state) {
  const auto& segs = Pool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Perpendicular(
        segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_PerpendicularOnly);

void BM_AngleOnly(benchmark::State& state) {
  const auto& segs = Pool();
  const distance::SegmentDistance dist;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist.Angle(segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_AngleOnly);

void BM_EndpointSumBaseline(benchmark::State& state) {
  const auto& segs = Pool();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::EndpointSumDistance(
        segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_EndpointSumBaseline);

void BM_EuclideanSegmentDistanceLowerBound(benchmark::State& state) {
  const auto& segs = Pool();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::SegmentToSegmentDistance(
        segs[i % segs.size()], segs[(i * 31 + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_EuclideanSegmentDistanceLowerBound);

// --- Batched one-vs-many kernels (distance/batch_kernels.h). -------------
// The grouping workload underneath all of these: one query segment against
// the full 1024-segment pool at a typical grouping ε (world 100×100,
// lengths 0.5–10, ε = 5 keeps roughly the densities the §5 experiments
// cluster at). BM_EpsilonRefinePairLoop is the pre-batch per-pair provider
// loop; the headline ratio BM_EpsilonRefinePairLoop / BM_EpsilonRefineBatch
// is the candidate-refine speedup (prune + batching), tracked per commit in
// the CI JSON artifact alongside the cached-vs-recompute pair ratio.

constexpr double kRefineEps = 5.0;

// 0 .. n-1: the candidate index list of a one-vs-all row.
std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

// One full one-vs-all row through the scalar batch kernel.
void BM_DistanceBatchScalar(benchmark::State& state) {
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  const std::vector<size_t> all = AllIndices(store.size());
  std::vector<double> out(store.size());
  size_t q = 0;
  for (auto _ : state) {
    distance::DistanceBatch(
        store, dist, q % store.size(),
        common::Span<const size_t>(all.data(), all.size()),
        common::Span<double>(out.data(), out.size()),
        distance::BatchKernel::kScalar);
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_DistanceBatchScalar);

// Same row through the AVX2 lanes (bit-identical results; only throughput
// differs). Skipped — loudly — on CPUs without AVX2 so the CI history
// distinguishes "not available" from "slow".
void BM_DistanceBatchSimd(benchmark::State& state) {
  if (!distance::SimdAvailable()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  const std::vector<size_t> all = AllIndices(store.size());
  std::vector<double> out(store.size());
  size_t q = 0;
  for (auto _ : state) {
    distance::DistanceBatch(
        store, dist, q % store.size(),
        common::Span<const size_t>(all.data(), all.size()),
        common::Span<double>(out.data(), out.size()),
        distance::BatchKernel::kSimd);
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_DistanceBatchSimd);

// The per-pair cached path every ε-query consumer ran before the batch
// layer: full distance for every candidate, then the ≤ ε test.
void BM_EpsilonRefinePairLoop(benchmark::State& state) {
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  std::vector<size_t> out;
  size_t q = 0;
  for (auto _ : state) {
    const size_t query = q % store.size();
    out.clear();
    for (size_t j = 0; j < store.size(); ++j) {
      if (j == query || dist(store, query, j) <= kRefineEps) out.push_back(j);
    }
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_EpsilonRefinePairLoop);

// The batched ε-refine (identical output): midpoint/half-length prune, then
// blocked batch evaluation of the survivors. Arg 0 = scalar, 1 = SIMD.
// Reports the prune rate so the CI history tracks bound quality, not just
// wall time.
void BM_EpsilonRefineBatch(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  if (simd && !distance::SimdAvailable()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  const auto& store = StorePool();
  const distance::SegmentDistance dist;
  distance::BatchOptions options;
  options.kernel =
      simd ? distance::BatchKernel::kSimd : distance::BatchKernel::kScalar;
  const distance::IndexRun all{0, store.size()};
  std::vector<size_t> out;
  distance::RefineStats stats;
  size_t q = 0;
  for (auto _ : state) {
    out.clear();
    distance::EpsilonRefineRuns(store, dist, q % store.size(), store,
                                {&all, 1}, kRefineEps, 0, out, options,
                                &stats);
    benchmark::DoNotOptimize(out.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.size()));
  state.counters["prune_rate"] = benchmark::Counter(
      stats.candidates == 0
          ? 0.0
          : static_cast<double>(stats.pruned) /
                static_cast<double>(stats.candidates));
}
BENCHMARK(BM_EpsilonRefineBatch)->Arg(0)->Arg(1);

// --- Sieve-sampled grouping end to end (core/sieve_stage.h). -------------
// The hurricane data set at the golden parameters (ε = 0.94, MinLns = 5),
// grouped through SieveGroupStage at stride k (Arg). The k = 1 row runs the
// inner DBSCAN backend directly (a sieve needs k ≥ 2); larger k trades boundary accuracy for the
// O((n/k)²) quadratic-term reduction. Besides wall time the bench reports
// `sieve_quality`: the fraction of sieved-out segments whose sieve label
// maps (majority vote per sieve cluster) onto their full-run cluster — the
// accuracy half of the speed/accuracy trade tracked per commit in the CI
// JSON artifact.

struct SieveFixture {
  traj::SegmentStore store;
  std::shared_ptr<const core::GroupStage> inner;
  cluster::ClusteringResult full;  // The inner backend's (unsieved) run.
};

const SieveFixture& SievePool() {
  static const SieveFixture* fixture = [] {
    auto* f = new SieveFixture();
    const traj::TrajectoryDatabase db =
        datagen::GenerateHurricanes(datagen::HurricaneConfig{});
    core::TraclusConfig cfg;
    auto engine = core::TraclusEngine::FromConfig(cfg);
    if (!engine.ok()) std::abort();
    auto partitioned = engine->Partition(db);
    if (!partitioned.ok()) std::abort();
    f->store = std::move(partitioned->store);
    core::DbscanGroupOptions group;
    group.eps = 0.94;
    group.min_lns = 5.0;
    f->inner = std::make_shared<core::DbscanGroupStage>(group);
    auto full = f->inner->Run(f->store, core::RunContext{});
    if (!full.ok()) std::abort();
    f->full = std::move(full).ValueOrDie();
    return f;
  }();
  return *fixture;
}

// Fraction of sieved-out segments that landed in their full-run cluster,
// under the majority-vote mapping from sieve cluster ids to full-run ids.
double SieveQuality(const SieveFixture& f,
                    const cluster::ClusteringResult& sieved, size_t k) {
  // Recompute the sampled set with the stage's rule (trajectory
  // first-appearance rank, residue class 0 of stride k).
  std::map<geom::TrajectoryId, size_t> rank_of;
  std::vector<char> sampled(f.store.size(), 0);
  for (size_t i = 0; i < f.store.size(); ++i) {
    const auto it =
        rank_of.emplace(f.store.trajectory_id(i), rank_of.size()).first;
    if (it->second % k == 0) sampled[i] = 1;
  }
  // Majority full-run label per sieve cluster.
  std::vector<std::map<int, size_t>> votes(sieved.clusters.size());
  for (size_t i = 0; i < f.store.size(); ++i) {
    if (sieved.labels[i] >= 0) {
      ++votes[static_cast<size_t>(sieved.labels[i])][f.full.labels[i]];
    }
  }
  std::vector<int> mapped(sieved.clusters.size(), cluster::kNoise);
  for (size_t c = 0; c < votes.size(); ++c) {
    size_t best = 0;
    for (const auto& [label, count] : votes[c]) {
      if (count > best) {
        best = count;
        mapped[c] = label;
      }
    }
  }
  size_t sieved_out = 0;
  size_t agree = 0;
  for (size_t i = 0; i < f.store.size(); ++i) {
    if (sampled[i]) continue;
    ++sieved_out;
    const int full_label = f.full.labels[i];
    const int sieve_label = sieved.labels[i];
    const int sieve_mapped =
        sieve_label >= 0 ? mapped[static_cast<size_t>(sieve_label)]
                         : cluster::kNoise;
    if (sieve_mapped == full_label) ++agree;
  }
  return sieved_out == 0 ? 1.0
                         : static_cast<double>(agree) /
                               static_cast<double>(sieved_out);
}

void BM_SieveGroupEndToEnd(benchmark::State& state) {
  const SieveFixture& f = SievePool();
  const size_t k = static_cast<size_t>(state.range(0));
  core::SieveGroupOptions sieve;
  sieve.k = k;
  const std::shared_ptr<const core::GroupStage> stage =
      k <= 1 ? f.inner
             : std::make_shared<core::SieveGroupStage>(f.inner, sieve);
  cluster::ClusteringResult last;
  for (auto _ : state) {
    auto result = stage->Run(f.store, core::RunContext{});
    if (!result.ok()) {
      state.SkipWithError("sieve group run failed");
      return;
    }
    last = std::move(result).ValueOrDie();
    benchmark::DoNotOptimize(last.labels.data());
  }
  state.counters["sieve_quality"] = benchmark::Counter(
      k <= 1 ? 1.0 : SieveQuality(f, last, k));
  state.counters["clusters"] =
      benchmark::Counter(static_cast<double>(last.clusters.size()));
}
BENCHMARK(BM_SieveGroupEndToEnd)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
