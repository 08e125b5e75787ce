// E12 — Lemma 3: line-segment clustering is O(n log n) with a spatial index
// and O(n²) without one. We cluster growing slices of the hurricane segment
// database with the grid index vs the brute-force provider and fit the
// complexity curves. (The index prunes with the Euclidean lower bound of the
// non-metric distance; see GridNeighborhoodIndex.)

#include <benchmark/benchmark.h>

#include "cluster/dbscan_segments.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"

namespace {

using namespace traclus;

const traj::SegmentStore& AllSegments() {
  static const traj::SegmentStore store = [] {
    datagen::HurricaneConfig gen;
    gen.num_trajectories = 1200;  // Enough partitions for the largest slice.
    const auto engine =
        core::TraclusEngine::FromConfig(core::TraclusConfig{});
    return std::move(engine->Partition(datagen::GenerateHurricanes(gen))
                         ->store);
  }();
  return store;
}

traj::SegmentStore Slice(size_t n) {
  const auto& all = AllSegments().segments();
  return traj::SegmentStore(std::vector<geom::Segment>(
      all.begin(), all.begin() + std::min(n, all.size())));
}

cluster::DbscanOptions Options() {
  cluster::DbscanOptions opt;
  opt.eps = 0.94;
  opt.min_lns = 7;
  return opt;
}

void BM_DbscanWithGridIndex(benchmark::State& state) {
  const auto segs = Slice(static_cast<size_t>(state.range(0)));
  const distance::SegmentDistance dist;
  for (auto _ : state) {
    // Index construction is part of the clustering cost, as in Lemma 3.
    const cluster::GridNeighborhoodIndex index(segs, dist);
    benchmark::DoNotOptimize(cluster::DbscanSegments(segs, index, Options()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DbscanWithGridIndex)
    ->RangeMultiplier(2)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_DbscanBruteForce(benchmark::State& state) {
  const auto segs = Slice(static_cast<size_t>(state.range(0)));
  const distance::SegmentDistance dist;
  for (auto _ : state) {
    const cluster::BruteForceNeighborhood provider(segs, dist);
    benchmark::DoNotOptimize(
        cluster::DbscanSegments(segs, provider, Options()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DbscanBruteForce)
    ->RangeMultiplier(2)
    ->Range(1024, 8192)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void BM_NeighborhoodQueryGridIndex(benchmark::State& state) {
  const auto segs = Slice(static_cast<size_t>(state.range(0)));
  const distance::SegmentDistance dist;
  const cluster::GridNeighborhoodIndex index(segs, dist);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Neighbors(q % segs.size(), 0.94));
    ++q;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NeighborhoodQueryGridIndex)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Complexity();

// Thread scaling of the parallel execution engine on the largest slice:
// the ε-neighborhood batch is fanned across a pool and the sequential
// expansion loop consumes cached lists. Args = {slice size, num_threads}.
// Labels and cluster IDs are asserted identical to the single-threaded run
// before timing starts, so a speedup here is a speedup of the same answer.
void BM_DbscanGridIndexThreads(benchmark::State& state) {
  const auto segs = Slice(static_cast<size_t>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  const distance::SegmentDistance dist;

  cluster::DbscanOptions serial_opt = Options();
  serial_opt.num_threads = 1;
  cluster::DbscanOptions opt = Options();
  opt.num_threads = threads;

  // Built once, outside the timed region: construction is serial for every
  // thread count (it would Amdahl-cap the scaling signal), and the index is
  // read-only under the parallel batch (per-chunk QueryScratch), so reuse
  // across iterations is safe. BM_DbscanWithGridIndex above still measures
  // the build-inclusive Lemma 3 cost.
  const cluster::GridNeighborhoodIndex index(segs, dist);

  const auto expect = cluster::DbscanSegments(segs, index, serial_opt);
  const auto got = cluster::DbscanSegments(segs, index, opt);
  if (expect.labels != got.labels ||
      expect.clusters.size() != got.clusters.size()) {
    state.SkipWithError("thread count changed the clustering!");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::DbscanSegments(segs, index, opt));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_DbscanGridIndexThreads)
    ->ArgsProduct({{4096, 16384}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // Wall clock, not per-thread CPU: speedup is the point.

// Thread scaling of the partitioning phase (Fig. 8 MDL scans, one per
// trajectory) on the full hurricane database.
void BM_PartitionPhaseThreads(benchmark::State& state) {
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 1200;
  const auto db = datagen::GenerateHurricanes(gen);
  core::TraclusConfig cfg;
  cfg.num_threads = static_cast<int>(state.range(0));
  const core::TraclusEngine engine = *core::TraclusEngine::FromConfig(cfg);

  {
    core::TraclusConfig serial_cfg = cfg;
    serial_cfg.num_threads = 1;
    const core::TraclusEngine serial =
        *core::TraclusEngine::FromConfig(serial_cfg);
    const auto expect = serial.Partition(db);
    const auto got = engine.Partition(db);
    if (!expect.ok() || !got.ok() ||
        expect->characteristic_points != got->characteristic_points) {
      state.SkipWithError("thread count changed the partitioning!");
      return;
    }
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Partition(db));
  }
  state.counters["threads"] = cfg.num_threads;
}
BENCHMARK(BM_PartitionPhaseThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NeighborhoodQueryBruteForce(benchmark::State& state) {
  const auto segs = Slice(static_cast<size_t>(state.range(0)));
  const distance::SegmentDistance dist;
  const cluster::BruteForceNeighborhood provider(segs, dist);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Neighbors(q % segs.size(), 0.94));
    ++q;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NeighborhoodQueryBruteForce)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oN);

}  // namespace

BENCHMARK_MAIN();
