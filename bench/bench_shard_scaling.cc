// Shard-scaling benchmark for the sharded grouping stage
// (core/sharded_stage.h): grouping wall-clock at S ∈ {1, 2, 4, 8} shards,
// with the halo-merge counters (ghost segments, border pairs/merges,
// dissolved clusters, re-attached segments) reported alongside so the CI
// JSON history pins both the speedup and the merge traffic that buys it.
// The S = 1 row runs the unsharded inner backend directly — the speedup_vs_s1
// counter on the S > 1 rows is measured against its mean iteration time in
// the same process.
//
// Two corpora, deliberately opposite in shape:
//  - dense: the stock hurricane corpus at ε = 0.94. Tracks crisscross the
//    whole bounding box, so the true cross-shard ε-adjacency — hence any
//    sound halo — covers ~50–65% of the store (the fine-raster halo measures
//    within a few points of the exact segment-distance floor). Sharding
//    buys parallelism across cores here, not total-work reduction, and on a
//    one-core runner this row reports a slowdown by design: it is the
//    adversarial bound, kept to pin the halo counters.
//  - mosaic: the same segments with each trajectory translated into one of
//    8 well-separated basins. Halos collapse to ~0 and per-shard problem
//    size to ~n/S. The inner backend's own pruning already handles
//    separated data cheaply, so on one core this row measures the pure
//    decomposition overhead (grid + gather + merge — ~15% of grouping
//    time); this is the regime the decomposition targets (spatial extent
//    far exceeding the ε-neighborhood scale).
//
// Shards execute across the run's worker threads (num_threads = 0 = hardware
// concurrency), so wall-clock speedup tracks min(S, cores) discounted by the
// two effects above: near-linear on mosaic-like data, bounded by the halo
// floor on dense data. The one-core CI runner cannot show a real-time gain;
// the speedup_vs_s1 + overhead/halo counters are the regression signal.
// Uploaded per commit next to bench_distance_micro.json (see
// .github/workflows/ci.yml).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/sharded_stage.h"
#include "geom/segment.h"
#include "datagen/hurricane_generator.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace {

using namespace traclus;

constexpr double kEps = 0.94;
constexpr double kMinLns = 5.0;

const traj::SegmentStore& HurricaneStore() {
  static const traj::SegmentStore* store = [] {
    const traj::TrajectoryDatabase db =
        datagen::GenerateHurricanes(datagen::HurricaneConfig{});
    auto engine = core::TraclusEngine::FromConfig(core::TraclusConfig{});
    if (!engine.ok()) {
      std::fprintf(stderr, "bench_shard_scaling: %s\n",
                   engine.status().ToString().c_str());
      std::abort();
    }
    auto partitioned = engine->Partition(db);
    if (!partitioned.ok()) {
      std::fprintf(stderr, "bench_shard_scaling: %s\n",
                   partitioned.status().ToString().c_str());
      std::abort();
    }
    return new traj::SegmentStore(std::move(partitioned->store));
  }();
  return *store;
}

// The hurricane corpus tiled into 8 well-separated basins: every trajectory
// is translated along x by (tid mod 8) · stride, with stride = bbox width
// plus a margin far exceeding the ε-reach, so basins share no ε-pairs. Same
// segment count, same local geometry — only the global overlap changes.
const traj::SegmentStore& MosaicStore() {
  static const traj::SegmentStore* store = [] {
    const traj::SegmentStore& base = HurricaneStore();
    double lo = base.start_coords(0)[0];
    double hi = lo;
    for (size_t i = 0; i < base.size(); ++i) {
      lo = std::min({lo, base.start_coords(0)[i], base.end_coords(0)[i]});
      hi = std::max({hi, base.start_coords(0)[i], base.end_coords(0)[i]});
    }
    const double stride = (hi - lo) + 50.0;
    std::vector<geom::Segment> tiled;
    tiled.reserve(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      const geom::Segment s = base.segment(i);
      const double dx =
          static_cast<double>(s.trajectory_id() % 8 < 0
                                  ? s.trajectory_id() % 8 + 8
                                  : s.trajectory_id() % 8) *
          stride;
      geom::Point a = s.start();
      geom::Point b = s.end();
      a[0] += dx;
      b[0] += dx;
      tiled.emplace_back(a, b, s.id(), s.trajectory_id(), s.weight());
    }
    return new traj::SegmentStore(
        traj::SegmentStore::FromSegments(std::move(tiled)));
  }();
  return *store;
}

// Mean seconds per iteration of each corpus's S = 1 row, filled by its own
// run (the rows execute in registration order within one process).
double g_s1_mean_seconds[2] = {0.0, 0.0};

void RunShardedGrouping(benchmark::State& state,
                        const traj::SegmentStore& store, int corpus) {
  const size_t shards = static_cast<size_t>(state.range(0));

  core::DbscanGroupOptions group;
  group.eps = kEps;
  group.min_lns = kMinLns;
  core::ShardedRunStats stats;
  core::ShardedGroupOptions sharded;
  sharded.shards = shards;
  sharded.stats = &stats;
  // The S = 1 row runs the inner DBSCAN backend directly (sharding needs
  // S ≥ 2); its time is the baseline of the other rows' speedup.
  const auto inner = std::make_shared<core::DbscanGroupStage>(group);
  const std::shared_ptr<const core::GroupStage> stage =
      shards <= 1 ? std::shared_ptr<const core::GroupStage>(inner)
                  : std::make_shared<core::ShardedGroupStage>(inner, sharded);

  core::RunContext ctx;
  ctx.num_threads = 0;  // Hardware concurrency: shards run in parallel.

  size_t clusters = 0;
  size_t noise = 0;
  double total_seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = stage->Run(store, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "bench_shard_scaling: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    total_seconds += std::chrono::duration<double>(t1 - t0).count();
    clusters = result->clusters.size();
    noise = result->num_noise;
    benchmark::DoNotOptimize(result->labels.data());
  }

  const double mean_seconds =
      total_seconds / static_cast<double>(state.iterations());
  if (shards == 1) {
    g_s1_mean_seconds[corpus] = mean_seconds;
  } else if (g_s1_mean_seconds[corpus] > 0.0) {
    state.counters["speedup_vs_s1"] = g_s1_mean_seconds[corpus] / mean_seconds;
  }
  state.counters["clusters"] = static_cast<double>(clusters);
  state.counters["noise"] = static_cast<double>(noise);
  state.counters["ghost_segments"] = static_cast<double>(stats.ghost_segments);
  state.counters["border_pairs"] = static_cast<double>(stats.border_pairs);
  state.counters["border_merges"] = static_cast<double>(stats.border_merges);
  state.counters["dissolved_clusters"] =
      static_cast<double>(stats.dissolved_clusters);
  state.counters["attached_segments"] =
      static_cast<double>(stats.attached_segments);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.size()));
}

void BM_ShardedGroupingDense(benchmark::State& state) {
  RunShardedGrouping(state, HurricaneStore(), 0);
}

void BM_ShardedGroupingMosaic(benchmark::State& state) {
  RunShardedGrouping(state, MosaicStore(), 1);
}

BENCHMARK(BM_ShardedGroupingDense)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_ShardedGroupingMosaic)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
