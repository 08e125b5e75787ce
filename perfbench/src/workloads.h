#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four benchmark workloads, their seeded inputs, and the set-up both the
// timed (end-to-end) mode and the traced (per-layer) mode start from.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "traj/trajectory.h"
#include "traj/trajectory_database.h"

namespace perfbench {

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;
  /// Scratch directory for the CSV, snapshot and cache files (must exist).
  std::string workdir;
  /// Golden file the hurricane corpus must reproduce at seed 0.
  std::string golden;
  /// Where the traced mode writes its spans (JSON); empty = not written.
  std::string trace_file;
  /// Self-test hook: corrupt the expected fingerprint of the first timed
  /// clustering operation, which must then be counted as failed.
  bool plant_mismatch = false;
};

/// How one workload drives the engine.
enum class Mode {
  kEager,       ///< Run(TrajectoryDatabase), no cache.
  kCache,       ///< Run(TrajectoryDatabase) with a persistent neighbor cache.
  kOutOfCore,   ///< Run(CsvFileSource), chunk capacity 1024, 8 resident.
};

struct WorkloadSpec {
  const char* name;
  bool elk;  ///< Elk1993-shaped corpus; otherwise the hurricane corpus.
  Mode mode;
  double eps;
  double min_lns;
  /// MinLns values of the reruns that follow each cold run, in order.
  std::vector<double> rerun_min_lns;
  /// Clusters only the first this many generated trajectories; 0 = all.
  size_t max_trajectories = 0;
};

/// Known workloads by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

inline constexpr size_t kChunkCapacity = 1024;
inline constexpr size_t kMaxResidentChunks = 8;

/// Everything a workload's operations read, built before any timing starts.
struct Setup {
  const WorkloadSpec* spec = nullptr;
  int threads = 1;
  traj::TrajectoryDatabase corpus;
  /// Held-out trajectories for the assignment loop (never clustered).
  std::vector<traj::Trajectory> queries;
  /// The corpus written as CSV (the out-of-core workload's input).
  std::string csv_path;
  std::string snapshot_path;
  std::vector<std::pair<double, std::shared_ptr<const core::TraclusEngine>>>
      engines;
  /// Snapshot of the primary-MinLns reference run, saved and reloaded.
  std::unique_ptr<core::ClusterSnapshot> snapshot;

  const core::TraclusEngine& engine(double min_lns) const;
};

/// Generates the workload's corpus and held-out queries from `seed`, writes
/// the CSV, and builds one engine per MinLns the workload runs at.
common::Status PrepareInputs(const Options& options, const WorkloadSpec& spec,
                             Setup* setup);

/// Freezes `reference` into a snapshot, saves it, and serves from the
/// reloaded copy.
common::Status PrepareSnapshot(const core::TraclusResult& reference,
                               Setup* setup);

/// One clustering run in the workload's mode at `min_lns`. `cache_dir` is
/// the neighbor-cache directory of kCache runs (ignored otherwise).
common::Result<core::TraclusResult> RunOperation(const Setup& setup,
                                                 double min_lns,
                                                 const std::string& cache_dir);

/// The eager, cache-free run every mode's output must equal.
common::Result<core::TraclusResult> RunEager(const Setup& setup,
                                             double min_lns);

/// Distinct MinLns values the workload runs at (primary first).
std::vector<double> AllMinLns(const WorkloadSpec& spec);

/// Untimed eager reference runs: the output every timed or traced run must
/// reproduce, per MinLns.
struct References {
  core::TraclusResult primary;  ///< At the workload's primary MinLns.
  std::vector<std::pair<double, uint64_t>> fingerprints;

  uint64_t For(double min_lns) const;
};
common::Status ComputeReferences(const Setup& setup, References* refs);

/// Fingerprint of every held-out query's assignment against the snapshot,
/// computed across the run's threads (the snapshot is thread-safe).
common::Result<std::vector<uint64_t>> ExpectedAssignments(const Setup& setup);

/// Checks the hurricane corpus against the golden file at seed 0. Returns
/// true when the check passed or does not apply.
bool CheckGolden(const Options& options, const Setup& setup,
                 const core::TraclusResult& reference);

/// Prints the corpus summary line.
void PrintCorpusSummary(const Setup& setup,
                        const core::TraclusResult& reference);

/// Prints the single result line. Returns the process exit code.
int EmitResult(bool correct, size_t attempted, size_t failed,
               const std::string& metrics_json);

/// Empties (creating if needed) a directory.
bool ResetDirectory(const std::string& path);

/// The timed mode: end-to-end metrics from untraced runs.
int RunTimed(const Options& options, const WorkloadSpec& spec);
/// The traced mode: per-layer metrics and the baseline-table cross-walk.
int RunTraced(const Options& options, const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
