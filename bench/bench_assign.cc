// Benchmarks for the serving-path additions: the persistent neighbor cache
// (cluster/neighbor_cache_file.h) and the frozen snapshot's assignment API
// (core/snapshot.h).
//
// Two questions, answered on the golden hurricane corpus (ε = 0.94,
// MinLns = 5 — the configuration tests/golden/hurricane.golden pins):
//
//   * Cache leverage (ms): the whole pipeline (partition, group, represent),
//     cold (fresh cache directory per iteration — compute + write) vs warm
//     (pre-populated directory — grouping loads and serves the lists) vs
//     uncached. The cold/warm ratio is the cache's end-to-end leverage.
//   * Assignment throughput (segments/s and trajectories/s): snapshot
//     AssignSegments over the full corpus store at 1 and 4 threads, and
//     AssignTrajectory one trajectory at a time — the QPS figure of the
//     serving path. items_per_second lands in the CI bench JSON history.
//
// Uploaded per commit next to bench_ingest.json (.github/workflows/ci.yml).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/span.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/hurricane_generator.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace {

using namespace traclus;

constexpr double kEps = 0.94;
constexpr double kMinLns = 5.0;

core::TraclusConfig HurricaneConfig() {
  core::TraclusConfig cfg;
  cfg.eps = kEps;
  cfg.min_lns = kMinLns;
  return cfg;
}

const traj::TrajectoryDatabase& Hurricanes() {
  static const auto* db = new traj::TrajectoryDatabase(
      datagen::GenerateHurricanes(datagen::HurricaneConfig{}));
  return *db;
}

// One engine per cache mode; the run context carries the directory.
core::TraclusResult RunWithCacheDir(const std::string& dir) {
  auto engine = bench::MakeEngine(HurricaneConfig());
  core::RunContext ctx;
  ctx.neighbor_cache_dir = dir;
  auto result = engine.Run(Hurricanes(), ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "bench cached run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("bench_assign_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Baseline: the full pipeline with no cache directory configured.
void BM_PipelineUncached(benchmark::State& state) {
  for (auto _ : state) {
    auto result = bench::RunPipeline(HurricaneConfig(), Hurricanes());
    benchmark::DoNotOptimize(result.clustering.labels.data());
  }
}
BENCHMARK(BM_PipelineUncached)->Unit(benchmark::kMillisecond);

// Cold: every iteration starts from an empty directory, so the run pays the
// full neighborhood computation plus the file write.
void BM_PipelineCacheCold(benchmark::State& state) {
  const std::string dir = FreshDir("cold");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    state.ResumeTiming();
    auto result = RunWithCacheDir(dir);
    benchmark::DoNotOptimize(result.clustering.labels.data());
  }
}
BENCHMARK(BM_PipelineCacheCold)->Unit(benchmark::kMillisecond);

// Warm: the directory is populated once up front; every timed iteration
// serves the neighborhood lists from the file, so only partitioning, the
// expansion and the representative sweep remain.
void BM_PipelineCacheWarm(benchmark::State& state) {
  const std::string dir = FreshDir("warm");
  RunWithCacheDir(dir);  // Populate.
  for (auto _ : state) {
    auto result = RunWithCacheDir(dir);
    benchmark::DoNotOptimize(result.clustering.labels.data());
  }
}
BENCHMARK(BM_PipelineCacheWarm)->Unit(benchmark::kMillisecond);

// The frozen snapshot, built once from the golden run.
const core::ClusterSnapshot& Snapshot() {
  static const core::ClusterSnapshot* snapshot = [] {
    auto result = bench::RunPipeline(HurricaneConfig(), Hurricanes());
    core::SnapshotParams params;
    params.eps = kEps;
    auto built = core::ClusterSnapshot::FromResult(result, params);
    if (!built.ok()) {
      std::fprintf(stderr, "bench snapshot build failed: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    return std::move(built).ValueOrDie().release();
  }();
  return *snapshot;
}

// Bulk segment assignment over the whole corpus store; items_per_second is
// segments/s. Arg = thread count.
void BM_AssignSegments(benchmark::State& state) {
  const core::ClusterSnapshot& snapshot = Snapshot();
  const traj::SegmentStore& queries = snapshot.store();
  core::AssignOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  std::vector<int> labels(queries.size());
  std::vector<double> distance(queries.size());
  for (auto _ : state) {
    const auto st =
        snapshot.AssignSegments(queries, common::Span<int>(labels),
                                common::Span<double>(distance), options);
    if (!st.ok()) {
      std::fprintf(stderr, "bench assign failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_AssignSegments)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One trajectory per op — partition + assign + vote; items_per_second is
// trajectories/s, the serving path's QPS figure.
void BM_AssignTrajectory(benchmark::State& state) {
  const core::ClusterSnapshot& snapshot = Snapshot();
  const auto& trajectories = Hurricanes().trajectories();
  size_t next = 0;
  for (auto _ : state) {
    const auto assignment =
        snapshot.AssignTrajectory(trajectories[next]);
    if (!assignment.ok()) {
      std::fprintf(stderr, "bench trajectory assign failed: %s\n",
                   assignment.status().ToString().c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(assignment->cluster);
    next = (next + 1) % trajectories.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AssignTrajectory);

}  // namespace

BENCHMARK_MAIN();
