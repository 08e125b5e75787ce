// The traced mode: the workload's operation composed from the public calls
// it is made of, with a span around each call into the partition, traj,
// distance, cluster and core layers; probes of every layer's public entry
// points on the workload's corpus; replays of the group and serve stages
// that must reproduce the stage outputs exactly; and the ROADMAP
// baseline-table rows this workload covers. Spans are kept in memory and
// written when the run ends. End-to-end metrics never come from here.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "cluster/dbscan_segments.h"
#include "cluster/neighbor_cache_file.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "cluster/representative.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "partition/approximate_partitioner.h"
#include "partition/partitioner.h"
#include "traj/chunked_store.h"
#include "traj/source.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace distance = traclus::distance;
namespace geom = traclus::geom;
namespace partition = traclus::partition;

// Traced and untraced repetitions of the workload's operation; their median
// ratio is trace.overhead.
constexpr int kTracedRepetitions = 3;
// Queries per all-pairs refine tile of the distance-layer probe.
constexpr size_t kRefineTileRows = 256;

// Every check is one attempted operation of the traced run.
struct Checks {
  size_t attempted = 0;
  size_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    std::printf("check %s: %s\n", what.c_str(), ok ? "ok" : "MISMATCH");
  }
};

bool SameClustering(const cluster::ClusteringResult& a,
                    const cluster::ClusteringResult& b) {
  if (a.labels != b.labels || a.num_noise != b.num_noise ||
      a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].id != b.clusters[i].id ||
        a.clusters[i].member_indices != b.clusters[i].member_indices) {
      return false;
    }
  }
  return true;
}

// The workload's clustering operation, one span per public call. Returns the
// output fingerprint.
common::Result<uint64_t> TracedOperation(const Setup& setup, Tracer& tracer,
                                         const std::string& cache_dir) {
  const WorkloadSpec& spec = *setup.spec;
  const core::TraclusEngine& engine = setup.engine(spec.min_lns);
  core::RunContext ctx;
  ctx.num_threads = setup.threads;

  if (spec.mode == Mode::kCache) {
    // The cache workload's operation: a cold run that writes the cache
    // file, then warm reruns at new MinLns that read it.
    ctx.neighbor_cache_dir = cache_dir;
    uint64_t fp = 0;
    {
      ScopedSpan span(tracer, "core.run_cold");
      auto run = engine.Run(setup.corpus, ctx);
      if (!run.ok()) return run.status();
      fp = ResultFingerprint(run->clustering, run->representatives);
    }
    for (const double m : spec.rerun_min_lns) {
      ScopedSpan span(tracer, "core.run_warm");
      auto run = setup.engine(m).Run(setup.corpus, ctx);
      if (!run.ok()) return run.status();
    }
    return fp;
  }

  ScopedSpan op(tracer, "op");
  if (spec.mode == Mode::kOutOfCore) {
    // Run(CsvFileSource) with a residency cap, spelled out: parse, partition,
    // append into the capped chunked store, then the chunked stages.
    traj::TrajectoryDatabase db;
    {
      ScopedSpan span(tracer, "traj.parse");
      auto source = traj::CsvFileSource::Open(setup.csv_path);
      if (!source.ok()) return source.status();
      auto drained = traj::DrainToDatabase(**source);
      if (!drained.ok()) return drained.status();
      db = std::move(drained).ValueOrDie();
    }
    core::PartitionOutput part;
    {
      ScopedSpan span(tracer, "core.partition");
      auto p = engine.Partition(db, ctx);
      if (!p.ok()) return p.status();
      part = std::move(p).ValueOrDie();
    }
    traj::ChunkedStoreOptions chunk_options;
    chunk_options.chunk_capacity = kChunkCapacity;
    chunk_options.max_resident_chunks = kMaxResidentChunks;
    traj::ChunkedSegmentStore chunked(chunk_options);
    {
      ScopedSpan span(tracer, "traj.chunk_append");
      TRACLUS_RETURN_NOT_OK(chunked.AppendAll(part.store.segments()));
      TRACLUS_RETURN_NOT_OK(chunked.Finalize());
    }
    cluster::ClusteringResult groups;
    {
      ScopedSpan span(tracer, "cluster.chunked_group");
      auto g = engine.group_stage().RunChunked(chunked, ctx);
      if (!g.ok()) return g.status();
      groups = std::move(g).ValueOrDie();
    }
    ScopedSpan span(tracer, "cluster.chunked_sweep");
    auto reps = engine.representative_stage()->RunChunked(chunked, groups, ctx);
    if (!reps.ok()) return reps.status();
    return ResultFingerprint(groups, *reps);
  }

  core::PartitionOutput part;
  {
    ScopedSpan span(tracer, "core.partition");
    auto p = engine.Partition(setup.corpus, ctx);
    if (!p.ok()) return p.status();
    part = std::move(p).ValueOrDie();
  }
  cluster::ClusteringResult groups;
  {
    ScopedSpan span(tracer, "core.group");
    auto g = engine.Group(part.store, ctx);
    if (!g.ok()) return g.status();
    groups = std::move(g).ValueOrDie();
  }
  ScopedSpan span(tracer, "core.represent");
  auto reps = engine.Representatives(part.store, groups, ctx);
  if (!reps.ok()) return reps.status();
  return ResultFingerprint(groups, *reps);
}

// The snapshot's majority vote over segment labels (ties to the smaller id).
int Vote(const std::vector<int>& labels) {
  std::map<int, size_t> votes;
  for (const int label : labels) {
    if (label != cluster::kNoise) ++votes[label];
  }
  int winner = cluster::kNoise;
  size_t best = 0;
  for (const auto& [label, count] : votes) {
    if (count > best) {
      best = count;
      winner = label;
    }
  }
  return winner;
}

void Row(const char* measurement, const char* names, const std::string& value) {
  std::printf("baseline | %-62s | %-44s | %s\n", measurement, names,
              value.c_str());
}

std::string Format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0, double d = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

}  // namespace

int RunTraced(const Options& options, const WorkloadSpec& spec) {
  std::printf("# traced workload %s seed %llu threads %d\n", spec.name,
              static_cast<unsigned long long>(options.seed), options.threads);
  MetricSet metrics;
  const Calibration calib_before = Calibrate(options.threads);

  Setup setup;
  References refs;
  common::Status status = PrepareInputs(options, spec, &setup);
  if (status.ok()) status = ComputeReferences(setup, &refs);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
    return 1;
  }
  Checks checks;
  checks.Expect(CheckGolden(options, setup, refs.primary), "golden");
  PrintCorpusSummary(setup, refs.primary);
  if (status = PrepareSnapshot(refs.primary, &setup); !status.ok()) {
    std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto expected_assign = ExpectedAssignments(setup);
  if (!expected_assign.ok()) {
    std::fprintf(stderr, "set-up: %s\n",
                 expected_assign.status().ToString().c_str());
    return 1;
  }

  Tracer tracer;
  const int threads = options.threads;
  common::ThreadPool& pool = common::SharedPool(threads);
  const core::TraclusEngine& engine = setup.engine(spec.min_lns);
  core::RunContext ctx;
  ctx.num_threads = threads;
  const std::string cache_dir = options.workdir + "/nbcache";
  const uint64_t want = refs.For(spec.min_lns);

  // --- The workload's operation: untraced vs traced, alternating. ---------
  std::vector<double> untraced_s;
  for (int rep = 0; rep < kTracedRepetitions; ++rep) {
    ResetDirectory(cache_dir);
    const double t0 = WallNow();
    auto run = RunOperation(setup, spec.min_lns, cache_dir);
    untraced_s.push_back(WallNow() - t0);
    checks.Expect(run.ok() && ResultFingerprint(run->clustering,
                                                run->representatives) == want,
                  "untraced operation equals reference");
    ResetDirectory(cache_dir);
    auto fp = TracedOperation(setup, tracer, cache_dir);
    checks.Expect(fp.ok() && *fp == want, "traced operation equals reference");
  }
  // Traced vs untraced cluster_s: the cold run, as the timed mode times it.
  std::vector<double> traced_s;
  for (const Span& s : tracer.spans()) {
    if (s.name == (spec.mode == Mode::kCache ? "core.run_cold" : "op")) {
      traced_s.push_back(s.wall());
    }
  }
  metrics.Add("trace.overhead", Median(traced_s) / Median(untraced_s) - 1.0,
              "ratio");

  // --- Stage probes on the eager store (every workload). ------------------
  core::PartitionOutput part;
  cluster::ClusteringResult groups;
  std::vector<traj::Trajectory> reps;
  {
    ScopedSpan probe(tracer, "probe.stages");
    {
      ScopedSpan span(tracer, "core.partition");
      part = std::move(engine.Partition(setup.corpus, ctx)).ValueOrDie();
    }
    std::vector<geom::Segment> copy = part.store.segments();
    {
      ScopedSpan span(tracer, "traj.freeze");
      const traj::SegmentStore frozen =
          traj::SegmentStore::FromSegments(std::move(copy));
    }
    {
      ScopedSpan span(tracer, "core.group");
      groups = std::move(engine.Group(part.store, ctx)).ValueOrDie();
    }
    ScopedSpan span(tracer, "core.represent");
    reps = std::move(engine.Representatives(part.store, groups, ctx)).ValueOrDie();
  }
  checks.Expect(ResultFingerprint(groups, reps) == want,
                "stage calls equal reference");
  const traj::SegmentStore& store = part.store;
  const size_t n = store.size();
  metrics.Add("partition.s", tracer.MedianSelf("core.partition"), "s");
  metrics.Add("partition.segments", static_cast<double>(n), "count");

  // --- Group-stage replay: ε-join, then expansion over the joined lists. ---
  const core::DbscanGroupOptions group_defaults;
  const distance::SegmentDistance dist(group_defaults.distance);
  cluster::DbscanOptions dbscan;
  dbscan.eps = spec.eps;
  dbscan.min_lns = spec.min_lns;
  dbscan.num_threads = threads;
  uint64_t grid_lists = 0;
  size_t pairs = 0;
  {
    ScopedSpan replay(tracer, "replay.group");
    std::unique_ptr<cluster::GridNeighborhoodIndex> grid;
    std::unique_ptr<cluster::NeighborhoodCache> lists;
    {
      ScopedSpan span(tracer, "cluster.join");
      grid = std::make_unique<cluster::GridNeighborhoodIndex>(store, dist);
      lists = std::make_unique<cluster::NeighborhoodCache>(*grid, spec.eps,
                                                           pool);
    }
    cluster::ClusteringResult replayed;
    {
      ScopedSpan span(tracer, "cluster.expand");
      replayed = cluster::DbscanSegments(store, *lists, dbscan);
    }
    checks.Expect(SameClustering(replayed, groups),
                  "group replay (join + expand) equals group stage");
    size_t max_list = 0;
    for (const auto& l : lists->lists()) {
      pairs += l.size();
      max_list = std::max(max_list, l.size());
    }
    grid_lists = NeighborListsFingerprint(lists->lists());
    metrics.Add("cluster.nbr_pairs", static_cast<double>(pairs), "count");
    metrics.Add("cluster.nbr_mean",
                static_cast<double>(pairs) / static_cast<double>(n), "count");
    metrics.Add("cluster.nbr_max", static_cast<double>(max_list), "count");
    metrics.Add("cluster.clusters",
                static_cast<double>(replayed.clusters.size()), "count");
    metrics.Add("cluster.noise", static_cast<double>(replayed.num_noise),
                "count");
  }
  metrics.Add("cluster.join_s", tracer.MedianSelf("cluster.join"), "s");
  metrics.Add("cluster.join_cpu_s", tracer.MedianCpu("cluster.join"), "s");
  metrics.Add("cluster.expand_s", tracer.MedianSelf("cluster.expand"), "s");
  {
    std::vector<std::vector<size_t>> brute_lists;
    {
      ScopedSpan span(tracer, "cluster.join_brute");
      const cluster::BruteForceNeighborhood brute(store, dist);
      brute_lists = brute.AllNeighbors(spec.eps, pool);
    }
    checks.Expect(NeighborListsFingerprint(brute_lists) == grid_lists,
                  "brute-force join equals grid join");
  }
  metrics.Add("cluster.join_brute_s", tracer.MedianSelf("cluster.join_brute"),
              "s");

  // --- Distance layer: one all-pairs refine pass, counted. ----------------
  {
    const size_t blocks = (n + kRefineTileRows - 1) / kRefineTileRows;
    std::vector<distance::RefineStats> stats(blocks);
    {
      ScopedSpan span(tracer, "distance.refine_tile");
      pool.ParallelFor(0, blocks, [&](size_t b) {
        const size_t lo = b * kRefineTileRows;
        const size_t hi = std::min(n, lo + kRefineTileRows);
        std::vector<size_t> queries(hi - lo);
        for (size_t i = lo; i < hi; ++i) queries[i - lo] = i;
        std::vector<std::vector<size_t>> out(queries.size());
        distance::EpsilonRefineTile(store, dist, queries, 0, n, spec.eps,
                                    out.data(), {}, &stats[b]);
      });
    }
    distance::RefineStats total;
    for (const auto& s : stats) {
      total.candidates += s.candidates;
      total.pruned += s.pruned;
      total.refined += s.refined;
      total.accepted += s.accepted;
    }
    checks.Expect(total.accepted == pairs,
                  "all-pairs refine accepts exactly the joined pairs");
    metrics.Add("distance.candidates", static_cast<double>(total.candidates),
                "count");
    metrics.Add("distance.prune_rate",
                static_cast<double>(total.pruned) /
                    static_cast<double>(total.candidates),
                "ratio");
    metrics.Add("distance.refined", static_cast<double>(total.refined),
                "count");
  }

  // --- Representative replay: one timed sweep per cluster. ----------------
  {
    cluster::RepresentativeOptions sweep;
    sweep.min_lns = spec.min_lns;
    std::vector<traj::Trajectory> replayed(groups.clusters.size());
    std::vector<double> per_cluster(groups.clusters.size());
    {
      ScopedSpan span(tracer, "cluster.sweep");
      pool.ParallelFor(0, groups.clusters.size(), [&](size_t i) {
        const double t0 = WallNow();
        replayed[i] = cluster::RepresentativeTrajectory(store, groups.clusters[i],
                                                        sweep);
        per_cluster[i] = WallNow() - t0;
      });
    }
    checks.Expect(ResultFingerprint(groups, replayed) == want,
                  "sweep replay equals represent stage");
    size_t slowest = 0;
    for (size_t i = 0; i < per_cluster.size(); ++i) {
      if (per_cluster[i] > per_cluster[slowest]) slowest = i;
    }
    metrics.Add("cluster.sweep_s", tracer.MedianSelf("cluster.sweep"), "s");
    metrics.Add("cluster.sweep_cpu_s", tracer.MedianCpu("cluster.sweep"), "s");
    metrics.Add("cluster.sweep_max_cluster_s",
                per_cluster.empty() ? 0.0 : per_cluster[slowest], "s");
    metrics.Add("cluster.sweep_max_members",
                per_cluster.empty()
                    ? 0.0
                    : static_cast<double>(groups.clusters[slowest].size()),
                "count");
  }

  // --- traj layer: CSV source, chunked store; chunked cluster stages. -----
  {
    common::Result<traj::TrajectoryDatabase> db =
        common::Status::Internal("not parsed");
    {
      ScopedSpan span(tracer, "traj.parse");
      auto source = traj::CsvFileSource::Open(setup.csv_path);
      if (source.ok()) db = traj::DrainToDatabase(**source);
    }
    bool same = db.ok() && db->size() == setup.corpus.size();
    for (size_t t = 0; same && t < db->size(); ++t) {
      same = (*db)[t].points() == setup.corpus[t].points();
    }
    checks.Expect(same, "CSV source parses the corpus exactly");
  }
  metrics.Add("traj.parse_s", tracer.MedianSelf("traj.parse"), "s");
  metrics.Add("traj.freeze_s", tracer.MedianSelf("traj.freeze"), "s");
  {
    traj::ChunkedStoreOptions chunk_options;
    chunk_options.chunk_capacity = kChunkCapacity;
    chunk_options.max_resident_chunks = kMaxResidentChunks;
    traj::ChunkedSegmentStore chunked(chunk_options);
    {
      ScopedSpan span(tracer, "traj.chunk_append");
      status = chunked.AppendAll(store.segments());
      if (status.ok()) status = chunked.Finalize();
    }
    checks.Expect(status.ok(), "chunked append");
    cluster::ClusteringResult chunked_groups;
    {
      ScopedSpan span(tracer, "cluster.chunked_group");
      auto g = engine.group_stage().RunChunked(chunked, ctx);
      if (g.ok()) chunked_groups = std::move(g).ValueOrDie();
    }
    checks.Expect(SameClustering(chunked_groups, groups),
                  "capped chunked grouping equals eager grouping");
    common::Result<std::vector<traj::Trajectory>> chunked_reps =
        common::Status::Internal("not run");
    {
      ScopedSpan span(tracer, "cluster.chunked_sweep");
      chunked_reps =
          engine.representative_stage()->RunChunked(chunked, groups, ctx);
    }
    checks.Expect(chunked_reps.ok() &&
                      ResultFingerprint(groups, *chunked_reps) == want,
                  "capped chunked sweep equals eager sweep");
    metrics.Add("traj.chunk_append_s", tracer.MedianSelf("traj.chunk_append"),
                "s");
    metrics.Add("traj.num_chunks", static_cast<double>(chunked.num_chunks()),
                "count");
    metrics.Add("traj.peak_resident_chunks",
                static_cast<double>(chunked.peak_resident_chunks()), "count");
    metrics.Add("cluster.chunked_group_s",
                tracer.MedianSelf("cluster.chunked_group"), "s");
    metrics.Add("cluster.chunked_sweep_s",
                tracer.MedianSelf("cluster.chunked_sweep"), "s");
  }

  // --- Persistent neighbor cache: cold write, warm open, warm serve. -------
  {
    const std::string dir = options.workdir + "/probe_nbcache";
    ResetDirectory(dir);
    const cluster::GridNeighborhoodIndex base(store, dist);
    std::unique_ptr<cluster::FileNeighborhoodCache> warm;
    {
      ScopedSpan span(tracer, "cluster.nbcache_write");
      auto cold = cluster::FileNeighborhoodCache::Create(
          base, store, dist.config(), spec.eps, dir, pool);
      checks.Expect(cold.ok() && !(*cold)->loaded_from_file(),
                    "neighbor cache cold miss writes the file");
    }
    {
      ScopedSpan span(tracer, "cluster.nbcache_open");
      auto opened = cluster::FileNeighborhoodCache::Create(
          base, store, dist.config(), spec.eps, dir, pool);
      if (opened.ok()) warm = std::move(opened).ValueOrDie();
    }
    checks.Expect(warm != nullptr && warm->loaded_from_file(),
                  "neighbor cache warm hit");
    if (warm != nullptr) {
      cluster::ClusteringResult served;
      {
        ScopedSpan span(tracer, "cluster.nbcache_serve");
        served = cluster::DbscanSegments(store, *warm, dbscan);
      }
      checks.Expect(SameClustering(served, groups),
                    "grouping over the warm cache equals group stage");
      std::error_code ec;
      metrics.Add("cluster.nbcache_bytes",
                  static_cast<double>(
                      std::filesystem::file_size(warm->file_path(), ec)),
                  "bytes");
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    metrics.Add("cluster.nbcache_write_s",
                tracer.MedianSelf("cluster.nbcache_write"), "s");
    metrics.Add("cluster.nbcache_open_s",
                tracer.MedianSelf("cluster.nbcache_open"), "s");
    metrics.Add("cluster.nbcache_serve_s",
                tracer.MedianSelf("cluster.nbcache_serve"), "s");
  }
  metrics.Add("core.group_s", tracer.MedianSelf("core.group"), "s");
  metrics.Add("core.represent_s", tracer.MedianSelf("core.represent"), "s");

  // --- Snapshot: build, save + load. --------------------------------------
  core::SnapshotParams params;
  params.eps = spec.eps;
  {
    std::unique_ptr<core::ClusterSnapshot> built;
    {
      ScopedSpan span(tracer, "core.snapshot_build");
      auto b = core::ClusterSnapshot::FromResult(refs.primary, params);
      if (b.ok()) built = std::move(b).ValueOrDie();
    }
    bool loaded = false;
    if (built != nullptr) {
      ScopedSpan span(tracer, "core.snapshot_load");
      const std::string path = options.workdir + "/probe_snapshot.tsn";
      loaded = built->Save(path).ok() && core::ClusterSnapshot::Load(path).ok();
    }
    checks.Expect(loaded, "snapshot build, save and load");
    metrics.Add("core.snapshot_build_s",
                tracer.MedianSelf("core.snapshot_build"), "s");
    metrics.Add("core.snapshot_load_s", tracer.MedianSelf("core.snapshot_load"),
                "s");
  }

  // --- Serving: batch assignment, then the per-trajectory replay. ----------
  const core::ClusterSnapshot& snapshot = *setup.snapshot;
  const partition::ApproximatePartitioner partitioner(
      snapshot.params().mdl);
  {
    std::vector<geom::Segment> segments;
    for (const auto& q : setup.queries) {
      const auto cps = partitioner.CharacteristicPoints(q);
      const auto part_q = partition::MakePartitionSegments(
          q, cps, static_cast<geom::SegmentId>(segments.size()));
      segments.insert(segments.end(), part_q.begin(), part_q.end());
    }
    const traj::SegmentStore held_out(std::move(segments));
    const size_t m = held_out.size();
    std::vector<int> labels1(m);
    std::vector<int> labels_n(m);
    std::vector<double> dist1(m);
    std::vector<double> dist_n(m);
    core::AssignOptions one;
    one.num_threads = 1;
    core::AssignOptions many;
    many.num_threads = threads;
    {
      ScopedSpan span(tracer, "core.assign_nearest");
      status = snapshot.AssignSegments(held_out, labels1, dist1, one);
    }
    {
      ScopedSpan span(tracer, "core.assign_segments");
      if (status.ok()) {
        status = snapshot.AssignSegments(held_out, labels_n, dist_n, many);
      }
    }
    checks.Expect(status.ok() && labels1 == labels_n && dist1 == dist_n,
                  "segment assignment is thread-count independent");
    size_t hits = 0;
    for (const int label : labels1) hits += label != cluster::kNoise ? 1 : 0;
    metrics.Add("core.assign_nearest_us",
                1e6 * tracer.MedianSelf("core.assign_nearest") /
                    static_cast<double>(m),
                "us");
    metrics.Add("core.assign_segments_per_s",
                static_cast<double>(m) /
                    tracer.MedianSelf("core.assign_segments"),
                "1/s");
    metrics.Add("core.assign_hit_rate",
                static_cast<double>(hits) / static_cast<double>(m), "ratio");
    metrics.Add("core.assign_candidates",
                static_cast<double>(snapshot.candidate_store().size()),
                "count");
  }
  {
    // Serve-stage replay: AssignTrajectory against the partition and
    // distance calls it is made of.
    core::AssignOptions inline_options;
    inline_options.num_threads = 1;
    bool same = true;
    for (size_t i = 0; i < setup.queries.size(); ++i) {
      const traj::Trajectory& q = setup.queries[i];
      core::TrajectoryAssignment direct;
      {
        ScopedSpan span(tracer, "serve.assign");
        auto a = snapshot.AssignTrajectory(q, inline_options);
        if (a.ok()) direct = std::move(a).ValueOrDie();
      }
      core::TrajectoryAssignment replayed;
      {
        ScopedSpan span(tracer, "serve.replay");
        std::vector<size_t> cps;
        {
          ScopedSpan inner(tracer, "partition.query");
          cps = partitioner.CharacteristicPoints(q);
        }
        ScopedSpan inner(tracer, "serve.segments");
        auto segments = partition::MakePartitionSegments(q, cps, 0);
        if (!segments.empty()) {
          const traj::SegmentStore query_store(std::move(segments));
          replayed.segment_labels.resize(query_store.size());
          replayed.segment_distances.resize(query_store.size());
          same = same && snapshot
                             .AssignSegments(query_store,
                                             replayed.segment_labels,
                                             replayed.segment_distances,
                                             inline_options)
                             .ok();
          replayed.cluster = Vote(replayed.segment_labels);
        }
      }
      same = same && AssignFingerprint(direct) == (*expected_assign)[i] &&
             AssignFingerprint(replayed) == (*expected_assign)[i];
    }
    checks.Expect(same, "serve replay (partition + assign) equals "
                        "AssignTrajectory");
    metrics.Add("partition.query_us",
                1e6 * tracer.MedianSelf("partition.query"), "us");
  }

  // --- Report. ------------------------------------------------------------
  // The lower of the two calibrations: a core lost at any point shows.
  metrics.Add("common.calib_parallelism",
              std::min(calib_before.parallelism,
                       Calibrate(threads).parallelism),
              "ratio");
  metrics.Print();
  const double group_stage = tracer.MedianSelf("core.group");
  const double group_children =
      tracer.MedianSelf("cluster.join") + tracer.MedianSelf("cluster.expand");
  std::printf(
      "trace gap group: stage core.group %.3f ms, replay children "
      "cluster.join + cluster.expand %.3f ms, gap %.3f ms\n",
      1e3 * group_stage, 1e3 * group_children,
      1e3 * (group_stage - group_children));
  const double serve_stage = tracer.MedianSelf("serve.assign");
  const double serve_children =
      tracer.MedianSelf("partition.query") + tracer.MedianSelf("serve.segments");
  std::printf(
      "trace gap serve: stage serve.assign %.1f us, replay children "
      "partition.query + serve.segments %.1f us, gap %.1f us\n",
      1e6 * serve_stage, 1e6 * serve_children,
      1e6 * (serve_stage - serve_children));

  const std::string column = Format("%g thread(s)", threads);
  if (spec.mode == Mode::kEager && !spec.elk) {
    Row("hurricane partition / group / represent",
        "partition.s / core.group_s / core.represent_s",
        Format("%.1f / %.1f / %.1f ms", 1e3 * tracer.MedianSelf("core.partition"),
               1e3 * group_stage, 1e3 * tracer.MedianSelf("core.represent")) +
            " at " + column);
  }
  if (spec.elk) {
    Row((std::string(spec.name) + " group / represent").c_str(),
        "core.group_s / core.represent_s",
        Format("%.2f s / %.2f s", group_stage,
               tracer.MedianSelf("core.represent")) +
            " at " + column);
  }
  if (spec.mode == Mode::kEager) {
    Row(("eps-neighborhoods, grid index vs brute-force tiles (" +
         std::string(spec.elk ? spec.name : "hurricane") + ")")
            .c_str(),
        "cluster.join_s / cluster.join_brute_s",
        Format("%.1f / %.1f ms", 1e3 * tracer.MedianSelf("cluster.join"),
               1e3 * tracer.MedianSelf("cluster.join_brute")) +
            " at " + column);
  }
  if (spec.mode == Mode::kEager && !spec.elk) {
    Row("hurricane group, --shards 4", "(sharded mode is out of scope)", "-");
  }
  if (spec.mode == Mode::kOutOfCore) {
    const double capped = tracer.MedianSelf("cluster.chunked_group");
    Row(Format("hurricane group, --chunk-size 1024 --max-resident 8 (%g "
               "chunks)",
               static_cast<double>((n + kChunkCapacity - 1) / kChunkCapacity))
            .c_str(),
        "cluster.chunked_group_s / core.group_s",
        Format("%.2f s (%.1fx eager)", capped, capped / group_stage) + " at " +
            column);
  }
  if (spec.mode == Mode::kCache) {
    const double cold = tracer.MedianSelf("core.run_cold");
    const double warm = tracer.MedianSelf("core.run_warm");
    Row("pipeline, cold vs warm neighbor cache", "core.run_cold / core.run_warm",
        Format("%.0f / %.0f ms (%.2fx)", 1e3 * cold, 1e3 * warm, cold / warm) +
            " at " + column);
  }

  if (!options.trace_file.empty() && !tracer.Write(options.trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_file.c_str());
    return 1;
  }
  return EmitResult(checks.failed == 0, checks.attempted, checks.failed,
                    metrics.JsonBody());
}

}  // namespace perfbench
