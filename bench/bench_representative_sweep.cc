// Representative Trajectory Generation (§4.3, Fig. 15) on one cluster, at 1
// and 4 sweep threads:
//
//   * hurricane: the generated Atlantic corpus at ε 0.94 / MinLns 5. The
//     cluster is the first N members (in DBSCAN expansion order, so a
//     spatially contiguous piece) of the largest cluster, ≈ 6.3k segments;
//     N = 0 takes all of it.
//   * elk-half: the first 16 Elk1993-shaped tracks at ε 27 / MinLns 9 (one
//     cluster of ≈ 9.7k segments).
//
// A sweep splits its stops into ranges on the shared pool once it has
// kSweepSplitMinStops or more, each range paying an O(m) seed scan. The
// size rows bracket that threshold: rows below it run serially at every
// thread count. The `stops` counter is the number of emitted points, the
// count the threshold is compared against for an unweighted sweep. Before
// timing, each row checks that its output equals the 1-thread sweep bit for
// bit (SkipWithError if not).
//
//   ./build/bench_representative_sweep --benchmark_min_time=0.2

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/representative.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"

namespace {

using namespace traclus;

struct Corpus {
  traj::SegmentStore store;
  cluster::Cluster largest;
  double min_lns = 0.0;
};

Corpus Build(const traj::TrajectoryDatabase& db, double eps, double min_lns) {
  core::TraclusConfig config;
  config.eps = eps;
  config.min_lns = min_lns;
  Corpus corpus;
  corpus.store = bench::PartitionOnly(config, db);
  const cluster::ClusteringResult groups =
      bench::GroupOnly(config, corpus.store);
  corpus.largest = *std::max_element(
      groups.clusters.begin(), groups.clusters.end(),
      [](const cluster::Cluster& a, const cluster::Cluster& b) {
        return a.size() < b.size();
      });
  corpus.min_lns = min_lns;
  return corpus;
}

const Corpus& Hurricane() {
  static const Corpus* corpus = new Corpus(Build(
      datagen::GenerateHurricanes(datagen::HurricaneConfig{}), 0.94, 5.0));
  return *corpus;
}

const Corpus& ElkHalf() {
  static const Corpus* corpus = [] {
    const traj::TrajectoryDatabase elk =
        datagen::GenerateAnimals(datagen::Elk1993Config());
    traj::TrajectoryDatabase half;
    for (size_t i = 0; i < 16 && i < elk.size(); ++i) half.Add(elk[i]);
    return new Corpus(Build(half, 27.0, 9.0));
  }();
  return *corpus;
}

traj::Trajectory Sweep(const Corpus& corpus, const cluster::Cluster& c,
                       int threads) {
  cluster::RepresentativeOptions options;
  options.min_lns = corpus.min_lns;
  options.num_threads = threads;
  return cluster::RepresentativeTrajectory(corpus.store, c, options);
}

bool BitwiseEqual(const traj::Trajectory& a, const traj::Trajectory& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int c = 0; c < a[i].dims(); ++c) {
      const double x = a[i][c];
      const double y = b[i][c];
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

// state.range(0) = members (0 = the whole cluster), state.range(1) = threads.
void RunSweep(benchmark::State& state, const Corpus& corpus) {
  cluster::Cluster c = corpus.largest;
  const auto members = static_cast<size_t>(state.range(0));
  if (members != 0 && members < c.member_indices.size()) {
    c.member_indices.resize(members);
  }
  const int threads = static_cast<int>(state.range(1));
  const traj::Trajectory reference = Sweep(corpus, c, 1);
  if (!BitwiseEqual(Sweep(corpus, c, threads), reference)) {
    state.SkipWithError("sweep output differs from the 1-thread sweep");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sweep(corpus, c, threads));
  }
  state.counters["members"] = static_cast<double>(c.size());
  state.counters["stops"] = static_cast<double>(reference.size());
}

void BM_SweepHurricane(benchmark::State& state) {
  RunSweep(state, Hurricane());
}
BENCHMARK(BM_SweepHurricane)
    ->ArgsProduct({{250, 500, 1000, 2000, 4000, 0}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SweepElkHalf(benchmark::State& state) {
  RunSweep(state, ElkHalf());
}
BENCHMARK(BM_SweepElkHalf)
    ->ArgsProduct({{0}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
