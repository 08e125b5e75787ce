#include "workloads.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "traj/source.h"

namespace perfbench {

namespace datagen = traclus::datagen;
namespace geom = traclus::geom;

namespace {

// Generator seed offset of the held-out queries (the corpus uses offset 0).
constexpr uint64_t kHeldOutSalt = 1'000'003;
// Elk telemetry is a few long tracks; the assignment loop serves windows of
// kElkWindow points taken every kElkStride points, 1,089 queries in all.
// elk-half clusters 16 of the 33 Elk1993 tracks: still one cluster of almost
// every segment with the ε-join ahead, at about a quarter of the work, so a
// run holds enough repetitions to be steady on a shared machine. The full
// corpus stays available as `elk` for the traced baseline rows.
constexpr size_t kElkWindow = 24;
constexpr size_t kElkStride = 43;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"hurricane", false, Mode::kEager, 0.94, 5.0, {3, 4, 6, 7, 8, 5}},
      {"elk", true, Mode::kEager, 27.0, 9.0, {10}},
      {"elk-half", true, Mode::kEager, 27.0, 9.0, {10}, 16},
      {"hurricane-tune", false, Mode::kCache, 0.94, 5.0, {3, 4, 6, 7, 8, 5}},
      {"hurricane-outofcore", false, Mode::kOutOfCore, 0.94, 5.0, {4}},
  };
  return specs;
}

traj::TrajectoryDatabase Generate(bool elk, uint64_t generator_seed_offset) {
  if (elk) {
    datagen::AnimalConfig config = datagen::Elk1993Config();
    config.seed += generator_seed_offset;
    return datagen::GenerateAnimals(config);
  }
  datagen::HurricaneConfig config;
  config.seed += generator_seed_offset;
  return datagen::GenerateHurricanes(config);
}

// Where a seed puts the data: seed 0 is the identity (the generator's default
// corpus, which the golden files pin); any other seed draws a translation and
// an order for the corpus's trajectories.
struct Placement {
  double dx = 0.0;
  double dy = 0.0;
  std::vector<size_t> order;  // Empty: generation order.

  Placement(bool elk, size_t num_trajectories, uint64_t seed) {
    if (seed == 0) return;
    common::Rng rng(seed);
    const double extent = elk ? 200.0 : 50.0;
    dx = rng.Uniform(-extent, extent);
    dy = rng.Uniform(-extent, extent);
    order.resize(num_trajectories);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
  }

  traj::Trajectory Move(const traj::Trajectory& tr) const {
    traj::Trajectory moved(tr.id(), tr.label(), tr.weight());
    for (const auto& p : tr.points()) {
      moved.Add(geom::Point(p.x() + dx, p.y() + dy));
    }
    return moved;
  }
};

// The clustered corpus is the generator's default data set, placed by the
// seed: every coordinate and the DBSCAN seed order change with the seed,
// while the corpus shape, and so the work a run does, stays that of the
// paper-shaped data set. Run-to-run spread is then a property of the
// program rather than of the draw.
traj::TrajectoryDatabase Corpus(bool elk, size_t max_trajectories,
                                uint64_t seed) {
  traj::TrajectoryDatabase generated = Generate(elk, 0);
  if (max_trajectories != 0 && max_trajectories < generated.size()) {
    traj::TrajectoryDatabase kept;
    for (size_t i = 0; i < max_trajectories; ++i) kept.Add(generated[i]);
    generated = std::move(kept);
  }
  const Placement placement(elk, generated.size(), seed);
  if (placement.order.empty()) return generated;
  traj::TrajectoryDatabase out;
  for (const size_t i : placement.order) out.Add(placement.Move(generated[i]));
  return out;
}

// Held-out queries: other draws of the generator (new storms, new animals),
// so the serving loop never sees a clustered trajectory. Like the corpus,
// the draw is fixed and the seed only places it.
std::vector<traj::Trajectory> HeldOut(bool elk, uint64_t seed) {
  const Placement placement(elk, 0, seed);
  std::vector<traj::Trajectory> out;
  if (!elk) {
    for (uint64_t k = 0; k < 2; ++k) {  // Two seasons: 1,140 whole tracks.
      const auto db = Generate(false, kHeldOutSalt + k);
      for (const auto& tr : db.trajectories()) {
        out.push_back(placement.Move(tr));
      }
    }
    return out;
  }
  const auto db = Generate(true, kHeldOutSalt);
  for (const auto& tr : db.trajectories()) {
    for (size_t from = 0; from + kElkWindow <= tr.size(); from += kElkStride) {
      out.push_back(placement.Move(tr.SubTrajectory(from, from + kElkWindow - 1)));
    }
  }
  return out;
}

// The corpus as `trajectory_id,x,y,weight` rows at %.17g, so the streaming
// source parses back exactly the doubles the eager runs cluster.
common::Status WriteExactCsv(const traj::TrajectoryDatabase& db,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return common::Status::IOError("cannot write " + path);
  std::fprintf(f, "# trajectory_id,x,y,weight\n");
  for (const auto& tr : db.trajectories()) {
    for (const auto& p : tr.points()) {
      std::fprintf(f, "%lld,%.17g,%.17g,%.17g\n",
                   static_cast<long long>(tr.id()), p.x(), p.y(), tr.weight());
    }
  }
  if (std::fclose(f) != 0) return common::Status::IOError("cannot write " + path);
  return common::Status::OK();
}

common::Result<std::shared_ptr<const core::TraclusEngine>> MakeEngine(
    const WorkloadSpec& spec, double min_lns, int threads) {
  core::DbscanGroupOptions group;
  group.eps = spec.eps;
  group.min_lns = min_lns;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = min_lns;
  TRACLUS_ASSIGN_OR_RETURN(core::TraclusEngine engine,
                           core::TraclusEngine::Builder()
                               .UseMdlPartitioning()
                               .UseDbscanGrouping(group)
                               .UseSweepRepresentatives(reps)
                               .SetDefaultNumThreads(threads)
                               .Build());
  return std::make_shared<const core::TraclusEngine>(std::move(engine));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<double> AllMinLns(const WorkloadSpec& spec) {
  std::vector<double> out = {spec.min_lns};
  for (const double m : spec.rerun_min_lns) {
    bool seen = false;
    for (const double o : out) seen = seen || o == m;
    if (!seen) out.push_back(m);
  }
  return out;
}

const core::TraclusEngine& Setup::engine(double min_lns) const {
  for (const auto& [m, engine] : engines) {
    if (m == min_lns) return *engine;
  }
  std::fprintf(stderr, "no engine for MinLns %g\n", min_lns);
  std::abort();
}

common::Status PrepareInputs(const Options& options, const WorkloadSpec& spec,
                             Setup* setup) {
  setup->spec = &spec;
  setup->threads = options.threads;
  setup->corpus = Corpus(spec.elk, spec.max_trajectories, options.seed);
  setup->queries = HeldOut(spec.elk, options.seed);
  setup->csv_path = options.workdir + "/corpus.csv";
  setup->snapshot_path = options.workdir + "/snapshot.tsn";
  TRACLUS_RETURN_NOT_OK(WriteExactCsv(setup->corpus, setup->csv_path));
  setup->engines.clear();
  for (const double m : AllMinLns(spec)) {
    TRACLUS_ASSIGN_OR_RETURN(auto engine, MakeEngine(spec, m, options.threads));
    setup->engines.emplace_back(m, std::move(engine));
  }
  return common::Status::OK();
}

common::Status PrepareSnapshot(const core::TraclusResult& reference,
                               Setup* setup) {
  core::SnapshotParams params;
  params.eps = setup->spec->eps;
  auto built = core::ClusterSnapshot::FromResult(reference, params);
  if (!built.ok()) return built.status();
  TRACLUS_RETURN_NOT_OK((*built)->Save(setup->snapshot_path));
  auto loaded = core::ClusterSnapshot::Load(setup->snapshot_path);
  if (!loaded.ok()) return loaded.status();
  setup->snapshot = std::move(loaded).ValueOrDie();
  return common::Status::OK();
}

common::Result<core::TraclusResult> RunEager(const Setup& setup,
                                             double min_lns) {
  core::RunContext ctx;
  ctx.num_threads = setup.threads;
  return setup.engine(min_lns).Run(setup.corpus, ctx);
}

common::Result<core::TraclusResult> RunOperation(const Setup& setup,
                                                 double min_lns,
                                                 const std::string& cache_dir) {
  core::RunContext ctx;
  ctx.num_threads = setup.threads;
  const core::TraclusEngine& engine = setup.engine(min_lns);
  switch (setup.spec->mode) {
    case Mode::kEager:
      return engine.Run(setup.corpus, ctx);
    case Mode::kCache:
      ctx.neighbor_cache_dir = cache_dir;
      return engine.Run(setup.corpus, ctx);
    case Mode::kOutOfCore: {
      TRACLUS_ASSIGN_OR_RETURN(auto source,
                               traj::CsvFileSource::Open(setup.csv_path));
      ctx.chunk_capacity = kChunkCapacity;
      ctx.max_resident_chunks = kMaxResidentChunks;
      return engine.Run(*source, ctx);
    }
  }
  return common::Status::Internal("unknown workload mode");
}

uint64_t References::For(double min_lns) const {
  for (const auto& [m, fp] : fingerprints) {
    if (m == min_lns) return fp;
  }
  return 0;
}

common::Status ComputeReferences(const Setup& setup, References* refs) {
  refs->fingerprints.clear();
  for (const double m : AllMinLns(*setup.spec)) {
    auto run = RunEager(setup, m);
    if (!run.ok()) return run.status();
    refs->fingerprints.emplace_back(
        m, ResultFingerprint(run->clustering, run->representatives));
    if (m == setup.spec->min_lns) refs->primary = std::move(run).ValueOrDie();
  }
  return common::Status::OK();
}

common::Result<std::vector<uint64_t>> ExpectedAssignments(const Setup& setup) {
  std::vector<uint64_t> out(setup.queries.size());
  std::vector<char> ok(setup.queries.size(), 0);
  core::AssignOptions options;
  options.num_threads = 1;
  common::SharedPool(setup.threads)
      .ParallelFor(0, setup.queries.size(), [&](size_t i) {
        auto a = setup.snapshot->AssignTrajectory(setup.queries[i], options);
        if (!a.ok()) return;
        out[i] = AssignFingerprint(*a);
        ok[i] = 1;
      });
  for (const char c : ok) {
    if (c == 0) return common::Status::Internal("reference assignment failed");
  }
  return out;
}

bool CheckGolden(const Options& options, const Setup& setup,
                 const core::TraclusResult& reference) {
  if (options.seed != 0 || setup.spec->elk) return true;
  std::ifstream in(options.golden, std::ios::binary);
  std::stringstream golden;
  golden << in.rdbuf();
  const bool match = in.good() && golden.str() == GoldenText(reference);
  std::printf("check golden %s: %s\n", options.golden.c_str(),
              match ? "ok" : "MISMATCH");
  return match;
}

void PrintCorpusSummary(const Setup& setup,
                        const core::TraclusResult& reference) {
  std::printf(
      "corpus %s: trajectories %zu points %zu segments %zu clusters %zu "
      "noise %zu | held-out queries %zu\n",
      setup.spec->name, setup.corpus.size(), setup.corpus.TotalPoints(),
      reference.clustering.labels.size(), reference.clustering.clusters.size(),
      reference.clustering.num_noise, setup.queries.size());
}

int EmitResult(bool correct, size_t attempted, size_t failed,
               const std::string& metrics_json) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

bool ResetDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return std::filesystem::create_directories(path, ec) && !ec;
}

}  // namespace perfbench
