// traclus — command-line front end to the library.
//
// Subcommands:
//   generate <hurricane|elk|deer|noisy|fig1> <out.csv> [--seed N]
//       Synthesize one of the built-in data sets (DESIGN.md §2) as CSV.
//   stats <in.csv>
//       Print database statistics (trajectories, points, bounds).
//   partition <in.csv> [--suppression BITS] [--out segments.csv]
//       Run the partitioning phase only; report compression and optionally
//       dump the trajectory partitions.
//   estimate <in.csv> [--eps-lo X] [--eps-hi X] [--grid N]
//       Run the §4.4 parameter heuristic; print the entropy curve and the
//       suggested (eps, MinLns) values.
//   cluster <in.csv> --eps X --min-lns N [--undirected] [--weighted]
//           [--suppression BITS] [--no-index] [--progress]
//           [--neighbor-cache DIR] [--save-snapshot FILE]
//           [--labels out.csv] [--reps out.csv] [--svg out.svg]
//       Run the full pipeline and write the requested artifacts.
//   assign <snapshot> <in.csv> [--threads N] [--labels out.csv]
//       Load a frozen snapshot written by `cluster --save-snapshot` and
//       assign each input trajectory to its nearest cluster within the
//       snapshot's eps — the high-QPS serving path; no reclustering.
//       Trajectories are assigned across --threads; the output is the same
//       for every thread count.
//
// Built on core::TraclusEngine: configuration errors come back as typed
// statuses (printed, exit 1), IO/runtime failures as statuses too (exit 2),
// and --progress streams per-stage progress from the engine's RunContext.
//
// Exit code 0 on success, 1 on usage/configuration errors, 2 on IO/parse
// errors.

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/animal_generator.h"
#include "datagen/common_subtrajectory.h"
#include "datagen/hurricane_generator.h"
#include "datagen/noisy_generator.h"
#include "params/parameter_heuristic.h"
#include "traj/csv_io.h"
#include "traj/source.h"
#include "traj/svg_writer.h"

namespace {

using namespace traclus;

// Minimal flag parser: positional args plus --key value / --switch flags.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> switches;

  /// Numeric flags are checked by CheckNumericFlags before any command
  /// runs, so the value parses completely here.
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
  /// A count flag's integer value, exactly as CheckNumericFlags accepted it.
  long long GetCount(const std::string& key, long long fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool GetSwitch(const std::string& key) const {
    const auto it = switches.find(key);
    return it != switches.end() && it->second;
  }
};

Args Parse(int argc, char** argv, const std::vector<std::string>& value_flags) {
  Args args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      const bool takes_value =
          std::find(value_flags.begin(), value_flags.end(), key) !=
          value_flags.end();
      if (takes_value && i + 1 < argc) {
        args.options[key] = argv[++i];
      } else {
        args.switches[key] = true;
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

// Every numeric flag must parse completely as a finite number. Count flags
// must be integers, non-negative except --threads (negative = all hardware
// threads), and --threads and --grid must fit an int.
common::Status CheckNumericFlags(const Args& args) {
  static const std::set<std::string> kReals = {"suppression", "eps-lo",
                                               "eps-hi", "eps", "min-lns"};
  static const std::set<std::string> kCounts = {
      "threads", "chunk-size",   "max-resident", "shards",
      "sieve",   "sieve-offset", "seed",         "grid"};
  for (const auto& [key, value] : args.options) {
    const bool count = kCounts.count(key) > 0;
    if (!count && kReals.count(key) == 0) continue;
    const char* text = value.c_str();
    char* end = nullptr;
    errno = 0;
    bool ok = false;
    if (count) {
      const long long v = std::strtoll(text, &end, 10);
      const bool int_sized = key == "threads" || key == "grid";
      ok = errno == 0 && (key == "threads" || v >= 0) &&
           (!int_sized || (v >= INT_MIN && v <= INT_MAX));
    } else {
      ok = std::isfinite(std::strtod(text, &end));
    }
    // The whole value, with no leading blank (which strtod would skip).
    ok = ok && end != text && *end == '\0' &&
         !std::isspace(static_cast<unsigned char>(*text));
    if (!ok) {
      const char* expected = !count             ? "a finite number"
                             : key == "threads" ? "an integer"
                                                : "a non-negative integer";
      return common::Status::InvalidArgument(
          "--" + key + " must be " + expected + ", got '" + value + "'");
    }
  }
  return common::Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: traclus <command> ...\n"
      "  generate <hurricane|elk|deer|noisy|fig1> <out.csv> [--seed N]\n"
      "  stats <in.csv>\n"
      "  partition <in.csv> [--suppression BITS] [--out segments.csv]\n"
      "            [--threads N]\n"
      "  estimate <in.csv> [--eps-lo X] [--eps-hi X] [--grid N] [--threads N]\n"
      "           [--kernel auto|scalar|simd]\n"
      "  cluster <in.csv> --eps X --min-lns N [--undirected] [--weighted]\n"
      "          [--suppression BITS] [--no-index] [--threads N] [--progress]\n"
      "          [--kernel auto|scalar|simd]\n"
      "          [--sieve K] [--sieve-offset R] [--shards S]\n"
      "          [--stream] [--chunk-size N] [--max-resident N]\n"
      "          [--neighbor-cache DIR] [--save-snapshot FILE]\n"
      "          [--labels out.csv] [--reps out.csv] [--svg out.svg]\n"
      "  assign <snapshot> <in.csv> [--threads N] [--kernel auto|scalar|simd]\n"
      "         [--labels out.csv]\n"
      "\n"
      "  Every <in.csv> may be '-' to read CSV from standard input.\n"
      "\n"
      "  --threads N: worker threads for the parallel phases; 0 = all\n"
      "               hardware threads, 1 = single-threaded. Output is\n"
      "               identical for every value.\n"
      "  --kernel K:  batch distance kernel (auto, scalar, simd). The\n"
      "               kernels are bit-identical; simd is picked at run time\n"
      "               when the CPU reports AVX2 and degrades to scalar\n"
      "               otherwise.\n"
      "  --sieve K:   sieve-sampled grouping — cluster only every K-th\n"
      "               trajectory and assign the rest to the nearest cluster\n"
      "               within eps (0 or 1 disables; deterministic for a\n"
      "               fixed K/offset).\n"
      "  --sieve-offset R:  which residue class of the trajectory rank is\n"
      "               sampled (default 0; needs --sieve K >= 2).\n"
      "  --shards S:  sharded grouping — decompose the segments over a cell\n"
      "               grid into S shards, cluster each independently (in\n"
      "               parallel), and merge clusters across shard borders\n"
      "               (0 or 1 disables; deterministic for a fixed S).\n"
      "  --progress:  stream per-stage progress to stderr.\n"
      "  --stream:    streaming ingest — partition trajectories as they\n"
      "               arrive instead of loading the whole file first.\n"
      "               Output is identical to the eager path.\n"
      "  --chunk-size N:    segments per chunk of the streaming segment\n"
      "                     store (0 = one chunk). Implies --stream.\n"
      "  --max-resident N:  out-of-core mode — spill cold chunks and keep\n"
      "                     at most N resident (0 = keep all). Implies\n"
      "                     --stream; incompatible with --svg and\n"
      "                     --save-snapshot.\n"
      "  --neighbor-cache DIR:  persist the grouping stage's eps-neighborhood\n"
      "               lists under DIR, keyed by a content hash of the\n"
      "               segments, distance weights, and eps. A rerun over the\n"
      "               same inputs skips the O(n^2) neighborhood pass and\n"
      "               streams the lists back from disk, byte-identically.\n"
      "  --save-snapshot FILE:  freeze the finished run (segments, clusters,\n"
      "               representatives, parameters) to FILE for later\n"
      "               `traclus assign` serving.\n");
  return 1;
}

// Opens `path` (or stdin for "-") as a pull-based trajectory source: the
// streaming pipeline mode consumes it directly, Load drains it.
common::Result<std::unique_ptr<traj::TrajectorySource>> OpenSource(
    const std::string& path) {
  if (path == "-") {
    return std::unique_ptr<traj::TrajectorySource>(
        std::make_unique<traj::CsvStreamSource>(std::cin));
  }
  TRACLUS_ASSIGN_OR_RETURN(auto file, traj::CsvFileSource::Open(path));
  return std::unique_ptr<traj::TrajectorySource>(std::move(file));
}

// Reads `path` (or stdin for "-") into memory. The commands that partition
// their input pass `require_segments`: input in which no trajectory has two
// distinct points is then a typed, line-exact error instead of an empty run.
common::Result<traj::TrajectoryDatabase> Load(const std::string& path,
                                              bool require_segments) {
  TRACLUS_ASSIGN_OR_RETURN(auto source, OpenSource(path));
  if (!require_segments) return traj::DrainToDatabase(*source);
  traj::RequireSegmentsSource checked(*source);
  return traj::DrainToDatabase(checked);
}

// Maps an engine status onto the CLI's exit-code convention: configuration
// mistakes are usage errors (1), everything else is a runtime error (2).
int FailWith(const common::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  switch (status.code()) {
    case common::StatusCode::kInvalidArgument:
    case common::StatusCode::kOutOfRange:
      return 1;
    default:
      return 2;
  }
}

// Parses --kernel through the one shared spelling of the knob,
// distance::ParseBatchKernel — the CLI neither duplicates the string switch
// nor re-words its diagnostic. Commands call this up front (before touching
// data) and fail via FailWith, which maps InvalidArgument onto the usage
// exit code.
common::Result<distance::BatchKernel> KernelFlag(const Args& args) {
  return distance::ParseBatchKernel(args.GetString("kernel", "auto"));
}

core::RunContext MakeContext(const Args& args,
                             distance::BatchKernel kernel) {
  core::RunContext ctx;
  if (args.GetSwitch("progress")) {
    ctx.progress = [](const std::string& stage, double fraction) {
      std::fprintf(stderr, "[%5.1f%%] %s\n", 100.0 * fraction, stage.c_str());
    };
  }
  ctx.distance_kernel = kernel;
  ctx.neighbor_cache_dir = args.GetString("neighbor-cache");
  return ctx;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  const std::string& kind = args.positional[0];
  const std::string& out = args.positional[1];
  const uint64_t seed = static_cast<uint64_t>(args.GetCount("seed", 0));

  traj::TrajectoryDatabase db;
  if (kind == "hurricane") {
    datagen::HurricaneConfig cfg;
    if (seed) cfg.seed = seed;
    db = datagen::GenerateHurricanes(cfg);
  } else if (kind == "elk") {
    auto cfg = datagen::Elk1993Config();
    if (seed) cfg.seed = seed;
    db = datagen::GenerateAnimals(cfg);
  } else if (kind == "deer") {
    auto cfg = datagen::Deer1995Config();
    if (seed) cfg.seed = seed;
    db = datagen::GenerateAnimals(cfg);
  } else if (kind == "noisy") {
    datagen::NoisyConfig cfg;
    if (seed) cfg.seed = seed;
    db = datagen::GenerateNoisy(cfg);
  } else if (kind == "fig1") {
    datagen::CommonSubTrajectoryConfig cfg;
    if (seed) cfg.seed = seed;
    db = datagen::GenerateCommonSubTrajectory(cfg);
  } else {
    std::fprintf(stderr, "unknown data set kind '%s'\n", kind.c_str());
    return 1;
  }
  const auto st = traj::WriteCsv(db, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu trajectories / %zu points to %s\n", db.size(),
              db.TotalPoints(), out.c_str());
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto loaded = Load(args.positional[0], /*require_segments=*/false);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }
  const auto st = loaded->Stats();
  std::printf("trajectories : %zu\n", st.num_trajectories);
  std::printf("points       : %zu\n", st.num_points);
  std::printf("length       : min %zu / mean %.1f / max %zu points\n",
              st.min_length, st.mean_length, st.max_length);
  if (!st.bounds.empty()) {
    std::printf("bounds       : x [%.2f, %.2f]  y [%.2f, %.2f]\n",
                st.bounds.lo(0), st.bounds.hi(0), st.bounds.lo(1),
                st.bounds.hi(1));
  }
  return 0;
}

int CmdPartition(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto kernel = KernelFlag(args);
  if (!kernel.ok()) return FailWith(kernel.status());
  const auto loaded = Load(args.positional[0], /*require_segments=*/true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }
  core::TraclusConfig cfg;
  cfg.partition.suppression_bits = args.GetDouble("suppression", 0.0);
  cfg.num_threads = static_cast<int>(args.GetCount("threads", 0));
  const auto engine = core::TraclusEngine::FromConfig(cfg);
  if (!engine.ok()) return FailWith(engine.status());
  const auto partitioned =
      engine->Partition(*loaded, MakeContext(args, *kernel));
  if (!partitioned.ok()) return FailWith(partitioned.status());
  const auto& segments = partitioned->segments();
  std::printf(
      "%zu points -> %zu trajectory partitions (%.2f points/partition)\n",
      loaded->TotalPoints(), segments.size(),
      static_cast<double>(loaded->TotalPoints()) /
          std::max<size_t>(1, segments.size()));

  const std::string out = args.GetString("out");
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return 2;
    }
    f << "segment_id,trajectory_id,start_x,start_y,end_x,end_y\n";
    for (const auto& s : segments) {
      f << s.id() << "," << s.trajectory_id() << "," << s.start().x() << ","
        << s.start().y() << "," << s.end().x() << "," << s.end().y() << "\n";
    }
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int CmdEstimate(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto kernel = KernelFlag(args);
  if (!kernel.ok()) return FailWith(kernel.status());
  const auto loaded = Load(args.positional[0], /*require_segments=*/true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }
  core::TraclusConfig base;
  base.num_threads = static_cast<int>(args.GetCount("threads", 0));
  const auto engine = core::TraclusEngine::FromConfig(base);
  if (!engine.ok()) return FailWith(engine.status());
  const auto partitioned =
      engine->Partition(*loaded, MakeContext(args, *kernel));
  if (!partitioned.ok()) return FailWith(partitioned.status());
  const traj::SegmentStore& store = partitioned->store;
  const distance::SegmentDistance dist;
  params::HeuristicOptions opt;
  opt.eps_lo = args.GetDouble("eps-lo", 0.25);
  opt.eps_hi = args.GetDouble("eps-hi", 40.0);
  opt.grid_points = static_cast<int>(args.GetCount("grid", 60));
  opt.num_threads = base.num_threads;
  opt.kernel = *kernel;
  const auto est = params::EstimateParameters(store, dist, opt);
  std::printf("# eps entropy\n");
  for (size_t g = 0; g < est.grid_eps.size(); ++g) {
    std::printf("%.4f %.4f\n", est.grid_eps[g], est.grid_entropy[g]);
  }
  std::printf("\nestimated eps    : %.4f (entropy %.4f)\n", est.eps,
              est.entropy);
  std::printf("avg|N_eps(L)|    : %.2f\n", est.avg_neighborhood_size);
  std::printf("suggested MinLns : %.0f .. %.0f\n", est.min_lns_low,
              est.min_lns_high);
  return 0;
}

int CmdCluster(const Args& args) {
  if (args.positional.empty()) return Usage();
  const auto kernel = KernelFlag(args);
  if (!kernel.ok()) return FailWith(kernel.status());
  if (args.options.find("eps") == args.options.end() ||
      args.options.find("min-lns") == args.options.end()) {
    std::fprintf(stderr, "cluster requires --eps and --min-lns\n");
    return 1;
  }
  const std::string& input = args.positional[0];
  const bool stream = args.GetSwitch("stream") ||
                      args.options.count("chunk-size") > 0 ||
                      args.options.count("max-resident") > 0;
  if (stream && !args.GetString("svg").empty()) {
    std::fprintf(stderr,
                 "--svg needs the full input database and is incompatible "
                 "with --stream\n");
    return 1;
  }
  const size_t sieve = static_cast<size_t>(args.GetCount("sieve", 0));
  const size_t shards = static_cast<size_t>(args.GetCount("shards", 0));
  if (args.options.count("sieve-offset") > 0 && sieve < 2) {
    return FailWith(common::Status::InvalidArgument(
        "--sieve-offset applies only to a sieved run (--sieve K >= 2)"));
  }
  if (args.GetCount("max-resident", 0) > 0) {
    // A residency-capped run groups through DBSCAN's chunked path alone: it
    // builds no neighbor-cache file, and the sieve and sharded stages have
    // no capped path (the engine would refuse them after ingest). Refused
    // are exactly the values that enable those features below.
    const char* flag = nullptr;
    if (!args.GetString("neighbor-cache").empty()) flag = "--neighbor-cache";
    if (shards >= 2) flag = "--shards";
    if (sieve >= 2) flag = "--sieve";
    if (flag != nullptr) {
      return FailWith(common::Status::InvalidArgument(
          std::string(flag) + " does not apply to a --max-resident "
          "(residency-capped) run"));
    }
  }
  const std::string snapshot_path = args.GetString("save-snapshot");
  if (!snapshot_path.empty() && args.options.count("max-resident") > 0) {
    // A residency-capped run leaves result.store empty on purpose; the
    // snapshot needs the materialized segment columns.
    std::fprintf(stderr,
                 "--save-snapshot needs the materialized segment store and is "
                 "incompatible with --max-resident\n");
    return 1;
  }

  // The full three-stage assembly, spelled out builder-style. Every knob is
  // validated by Build() before any data is touched.
  core::MdlPartitionOptions partition;
  partition.mdl.suppression_bits = args.GetDouble("suppression", 0.0);

  core::DbscanGroupOptions group;
  group.eps = args.GetDouble("eps", 1.0);
  group.min_lns = args.GetDouble("min-lns", 3.0);
  group.use_weights = args.GetSwitch("weighted");
  group.use_index = !args.GetSwitch("no-index");
  group.distance.directed = !args.GetSwitch("undirected");

  core::SweepRepresentativeOptions reps_options;
  reps_options.min_lns = group.min_lns;  // The paper's choice.
  reps_options.use_weights = group.use_weights;

  core::TraclusEngine::Builder builder;
  builder.UseMdlPartitioning(partition)
      .UseDbscanGrouping(group)
      .UseSweepRepresentatives(reps_options)
      .SetDefaultNumThreads(static_cast<int>(args.GetCount("threads", 0)));
  if (shards >= 2) {
    // Sharded grouping: cell-grid decomposition, per-shard DBSCAN, halo
    // merge, all with the DBSCAN backend's parameters. Applied before the
    // sieve wrap so a combined run shards the sieve's sampled sub-database.
    core::ShardedGroupOptions shard_options;
    shard_options.shards = shards;
    builder.WithShardedGrouping(shard_options);
  }
  if (sieve >= 2) {
    // Sieve-sampled grouping: cluster 1-in-k trajectories, assign the rest
    // to the nearest cluster within the DBSCAN backend's ε.
    core::SieveGroupOptions sieve_options;
    sieve_options.k = sieve;
    sieve_options.offset =
        static_cast<size_t>(args.GetCount("sieve-offset", 0));
    builder.WithSieveGrouping(sieve_options);
  }
  const auto engine = builder.Build();
  if (!engine.ok()) return FailWith(engine.status());

  // Eager mode keeps the database around (the --svg overlay draws it);
  // streaming mode never materializes one.
  traj::TrajectoryDatabase db;
  std::optional<common::Result<core::TraclusResult>> run;
  if (stream) {
    auto source = OpenSource(input);
    if (!source.ok()) return FailWith(source.status());
    traj::RequireSegmentsSource checked(**source);
    core::RunContext ctx = MakeContext(args, *kernel);
    ctx.chunk_capacity =
        static_cast<size_t>(args.GetCount("chunk-size", 0));
    ctx.max_resident_chunks =
        static_cast<size_t>(args.GetCount("max-resident", 0));
    run = engine->Run(checked, ctx);
    // Mid-stream ingest failures are the streaming twin of an eager load
    // failure: IO/parse problems exit 2, like the loader below. (Config
    // errors were already rejected by Build(), so an InvalidArgument here
    // can only be malformed input.)
    if (!run->ok() &&
        (run->status().code() == common::StatusCode::kIOError ||
         run->status().code() == common::StatusCode::kInvalidArgument)) {
      std::fprintf(stderr, "%s\n", run->status().ToString().c_str());
      return 2;
    }
  } else {
    auto loaded = Load(input, /*require_segments=*/true);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    db = std::move(loaded).ValueOrDie();
    run = engine->Run(db, MakeContext(args, *kernel));
  }
  if (!run->ok()) return FailWith(run->status());
  const core::TraclusResult& result = **run;

  // A residency-capped streaming run leaves result.store empty on purpose;
  // everything the report and the --labels dump need lives in the chunked
  // store's always-resident catalog.
  const bool capped = result.store.size() == 0 && result.chunked_store;
  const size_t num_segments =
      capped ? result.chunked_store->size() : result.store.size();
  const cluster::SegmentSetView view =
      capped ? cluster::SegmentSetView::Of(*result.chunked_store)
             : cluster::SegmentSetView::Of(result.store);

  std::printf("%zu partitions -> %zu clusters, %zu noise segments\n",
              num_segments, result.clustering.clusters.size(),
              result.clustering.num_noise);
  for (size_t c = 0; c < result.clustering.clusters.size(); ++c) {
    std::printf("  cluster %zu: %zu segments, %zu trajectories\n", c,
                result.clustering.clusters[c].size(),
                cluster::TrajectoryCardinality(view,
                                               result.clustering.clusters[c]));
  }

  const std::string labels = args.GetString("labels");
  if (!labels.empty()) {
    std::ofstream f(labels);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", labels.c_str());
      return 2;
    }
    f << "segment_id,trajectory_id,cluster\n";
    for (size_t i = 0; i < num_segments; ++i) {
      const geom::SegmentId sid = capped ? result.chunked_store->id(i)
                                         : result.segments()[i].id();
      const geom::TrajectoryId tid =
          capped ? result.chunked_store->trajectory_id(i)
                 : result.segments()[i].trajectory_id();
      f << sid << "," << tid << "," << result.clustering.labels[i] << "\n";
    }
    std::printf("wrote %s\n", labels.c_str());
  }

  const std::string reps = args.GetString("reps");
  if (!reps.empty()) {
    traj::TrajectoryDatabase rep_db;
    size_t skipped = 0;
    for (const auto& rep : result.representatives) {
      // A sparse cluster can yield an empty representative (fewer than two
      // sweep positions cleared MinLns); an empty trajectory has no
      // dimensionality and would poison the CSV write.
      if (rep.size() == 0) {
        ++skipped;
        continue;
      }
      rep_db.Add(rep);
    }
    if (skipped > 0) {
      std::fprintf(stderr,
                   "note: %zu empty representative(s) omitted from %s\n",
                   skipped, reps.c_str());
    }
    const auto st = traj::WriteCsv(rep_db, reps);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", reps.c_str());
  }

  const std::string svg_path = args.GetString("svg");
  if (!svg_path.empty()) {
    traj::SvgWriter svg(db.Stats().bounds);
    svg.AddDatabase(db, "#2e8b57", 0.5);
    for (const auto& rep : result.representatives) {
      svg.AddTrajectory(rep, "#cc0000", 3.0);
    }
    const auto st = svg.Save(svg_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", svg_path.c_str());
  }

  if (!snapshot_path.empty()) {
    core::SnapshotParams params;
    params.eps = group.eps;
    params.distance = group.distance;
    params.mdl = partition.mdl;
    const auto snapshot = core::ClusterSnapshot::FromResult(result, params);
    if (!snapshot.ok()) return FailWith(snapshot.status());
    const auto st = (*snapshot)->Save(snapshot_path);
    if (!st.ok()) return FailWith(st);
    std::printf("wrote %s\n", snapshot_path.c_str());
  }
  return 0;
}

int CmdAssign(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  const auto kernel = KernelFlag(args);
  if (!kernel.ok()) return FailWith(kernel.status());
  const auto snapshot = core::ClusterSnapshot::Load(args.positional[0]);
  if (!snapshot.ok()) return FailWith(snapshot.status());
  const auto loaded = Load(args.positional[1], /*require_segments=*/false);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }

  core::AssignOptions options;
  options.kernel = *kernel;
  const std::vector<traj::Trajectory>& trajectories = loaded->trajectories();
  const int threads = static_cast<int>(args.GetCount("threads", 1));

  const std::string labels = args.GetString("labels");
  std::ofstream f;
  if (!labels.empty()) {
    f.open(labels);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", labels.c_str());
      return 2;
    }
    f << "trajectory_id,cluster\n";
  }

  // Trajectories fan out across the pool into per-trajectory slots; the
  // report below walks the slots in input order, so stdout and --labels are
  // the same for every thread count, up to the first failing trajectory.
  std::vector<core::TrajectoryAssignment> results(trajectories.size());
  std::vector<common::Status> statuses(trajectories.size());
  common::SharedPool(threads).ParallelFor(
      0, trajectories.size(), [&](size_t i) {
        auto result = (*snapshot)->AssignTrajectory(trajectories[i], options);
        if (result.ok()) {
          results[i] = std::move(result).ValueOrDie();
        } else {
          statuses[i] = result.status();
        }
      });

  size_t assigned = 0;
  for (size_t i = 0; i < trajectories.size(); ++i) {
    if (!statuses[i].ok()) return FailWith(statuses[i]);
    const core::TrajectoryAssignment& result = results[i];
    size_t matched = 0;
    for (const int label : result.segment_labels) {
      if (label != cluster::kNoise) ++matched;
    }
    std::printf("trajectory %lld -> cluster %d (%zu/%zu segments within eps)\n",
                static_cast<long long>(trajectories[i].id()), result.cluster,
                matched, result.segment_labels.size());
    if (result.cluster != cluster::kNoise) ++assigned;
    if (f.is_open()) {
      f << trajectories[i].id() << "," << result.cluster << "\n";
    }
  }
  std::printf("%zu/%zu trajectories assigned to one of %zu clusters\n",
              assigned, loaded->size(),
              (*snapshot)->clustering().clusters.size());
  if (f.is_open()) std::printf("wrote %s\n", labels.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> value_flags = {
      "seed",    "suppression",  "out",     "eps-lo",     "eps-hi",
      "grid",    "eps",          "min-lns", "labels",     "reps",
      "svg",     "threads",      "kernel",  "chunk-size", "max-resident",
      "sieve",   "sieve-offset", "shards",  "neighbor-cache",
      "save-snapshot"};
  const Args args = Parse(argc - 2, argv + 2, value_flags);
  const common::Status numeric = CheckNumericFlags(args);
  if (!numeric.ok()) return FailWith(numeric);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "partition") return CmdPartition(args);
  if (cmd == "estimate") return CmdEstimate(args);
  if (cmd == "cluster") return CmdCluster(args);
  if (cmd == "assign") return CmdAssign(args);
  return Usage();
}
