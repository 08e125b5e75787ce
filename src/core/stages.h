#ifndef TRACLUS_CORE_STAGES_H_
#define TRACLUS_CORE_STAGES_H_

// The three pluggable stages of the TRACLUS pipeline (Fig. 4): partition →
// group → represent. TraclusEngine (core/engine.h) assembles one
// implementation of each; the adapters here wrap every algorithm the library
// ships (MDL approximate/optimal partitioning, DBSCAN and OPTICS grouping,
// projection/rotation sweep representatives). Custom stages are first-class:
// implement an interface and hand it to TraclusEngine::Builder — the engine
// only ever talks to the interfaces below.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/representative.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "partition/mdl.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"
#include "traj/trajectory.h"
#include "traj/trajectory_database.h"

namespace traclus::core {

/// Progress callback: stage name plus completed fraction in [0, 1]. Invoked
/// only from the thread that called the engine entry point (never from pool
/// workers), at stage start (0.0), at stage end (1.0), and at a bounded number
/// of evenly spaced points when a stage processes its input blockwise. The
/// call sequence depends only on the input, never on thread scheduling.
using ProgressFn =
    std::function<void(const std::string& stage, double fraction)>;

/// Per-run execution parameters, shared by every stage of one engine run.
/// Separate from stage configuration on purpose: the same engine can serve
/// many concurrent runs, each with its own threads, progress sink, and
/// cancellation token. What a run computes is fixed at Build(): the sieve
/// stride and offset and the shard count are options of their decorator
/// stages (SieveGroupOptions, ShardedGroupOptions), which read everything
/// else from the stage they wrap (GroupStage::density()), never per-run
/// knobs.
///
/// Some fields below steer only some stages, each for a stated reason:
/// `shard_local` is how the sharded stage asks its inner stage to leave the
/// whole-database cardinality filter to the merge, and
/// `neighbor_cache_dir`, `chunk_capacity` and `max_resident_chunks` are the
/// run-level knobs the benchmark harness (perfbench/) sets.
struct RunContext {
  /// Worker threads for the parallel phases. > 0: exactly that many; 0: the
  /// engine's configured default (which itself defaults to hardware
  /// concurrency); < 0: hardware concurrency regardless of the engine
  /// default. 1 runs everything inline on the calling thread, reproducing the
  /// original single-threaded execution exactly. Results are identical for
  /// every value.
  int num_threads = 0;
  /// Optional progress sink (see ProgressFn).
  ProgressFn progress;
  /// Optional cooperative cancellation. Polled between parallel chunks and
  /// expansion steps; when it fires, the engine abandons the run and returns
  /// StatusCode::kCancelled.
  const common::CancellationToken* cancellation = nullptr;
  /// Batch distance kernel for every ε-query and distance batch of the run
  /// (distance/batch_kernels.h): kAuto picks the best compiled kernel, or
  /// force kScalar / kSimd explicitly (kSimd degrades to scalar in binaries
  /// built without AVX2). The kernels are bit-identical, so results never
  /// depend on this knob — only throughput does.
  distance::BatchKernel distance_kernel = distance::BatchKernel::kAuto;
  /// Set by ShardedGroupStage on the context of its per-shard inner runs
  /// (never by callers): tells the inner backend it is clustering one shard
  /// of a larger database, so whole-database post-filters — today the
  /// trajectory-cardinality filter of the DBSCAN/OPTICS stages — must be
  /// skipped locally; the sharded driver applies them once, globally, after
  /// the halo merge. A filter applied per shard would see only a shard's
  /// fragment of each cross-border cluster and drop clusters the unsharded
  /// run keeps.
  bool shard_local = false;
  /// Streaming runs only (TraclusEngine::Run(TrajectorySource&)): segments
  /// per chunk of the run's ChunkedSegmentStore. 0 = unbounded (one chunk).
  /// The eager entry points (Run(TrajectoryDatabase), Partition, Group,
  /// Representatives) refuse a nonzero value of either chunk knob with
  /// kInvalidArgument naming it. Results are bit-identical for every value —
  /// chunking changes residency, never arithmetic.
  size_t chunk_capacity = 0;
  /// Persistent neighbor cache (cluster/neighbor_cache_file.h): when
  /// non-empty, the DBSCAN/OPTICS group stages wrap their neighborhood
  /// provider in a FileNeighborhoodCache rooted at this directory — a run
  /// over unchanged inputs (store content, distance weights, ε) serves every
  /// ε-neighborhood from disk and skips the candidate/refine work entirely;
  /// any input change misses (the file is keyed by a content hash) and the
  /// lists are recomputed and rewritten. Served lists equal the computed
  /// ones exactly, so results are byte-identical either way. Composes with
  /// sieve/sharded grouping: each effective query store (the sieve sample,
  /// each shard) hashes to its own cache file. A damaged file fails its load
  /// checks and is recomputed and rewritten. Empty = disabled. A
  /// residency-capped streaming run rejects it (kInvalidArgument): the
  /// capped path builds no file cache.
  std::string neighbor_cache_dir;
  /// Streaming runs only (eager entry points refuse it, as above):
  /// residency cap of the chunked store's reader cache.
  /// 0 = unbounded (no spill; the grouping phase runs on the merged store).
  /// > 0 enables the out-of-core grouping path: cold chunks spill to a temp
  /// file and at most this many chunk stores are cache-resident at once.
  /// Only stages with a RunChunked override accept a capped run (see
  /// GroupStage::RunChunked).
  size_t max_resident_chunks = 0;
};

/// Output of the partitioning stage: the segment database D accumulated from
/// all trajectory partitions (Fig. 4 line 03), frozen into a
/// traj::SegmentStore — the invariant-caching structure-of-arrays database
/// that is the pipeline's inter-stage currency — plus the
/// characteristic-point indices per input trajectory (parallel to database
/// order).
struct PartitionOutput {
  traj::SegmentStore store;
  std::vector<std::vector<size_t>> characteristic_points;

  /// Array-of-structs view of the segment database (borrowed from the store).
  const std::vector<geom::Segment>& segments() const {
    return store.segments();
  }
};

/// Stage 1: trajectory → trajectory partitions (§3). Implementations must
/// assign consecutive segment IDs in database order and may parallelize per
/// trajectory under that contract.
class PartitionStage {
 public:
  virtual ~PartitionStage() = default;

  /// Short stable identifier, used in progress reports and error messages
  /// (e.g. "partition/mdl-approx").
  virtual const char* name() const = 0;

  /// Validates the stage's configuration. Called once by
  /// TraclusEngine::Builder::Build so a bad configuration surfaces before any
  /// data is touched.
  virtual common::Status Validate() const { return common::Status::OK(); }

  virtual common::Result<PartitionOutput> Run(
      const traj::TrajectoryDatabase& db, const RunContext& ctx) const = 0;
};

/// The density clustering a group stage computes: ε and MinLns
/// (Definitions 4–5), the trajectory-cardinality threshold of Fig. 12 step 3
/// (negative: MinLns; 0: disabled), the weighted density of §4.2, all over
/// one §2.3 distance.
struct DensityParams {
  double eps = 25.0;
  double min_lns = 5.0;
  double min_trajectory_cardinality = -1.0;
  bool use_weights = false;
  distance::SegmentDistanceConfig distance;
};

/// Stage 2: segment database → clusters (§4). The store hands
/// implementations both the invariant cache (for the distance fast path) and
/// the AoS segment view.
class GroupStage {
 public:
  virtual ~GroupStage() = default;
  virtual const char* name() const = 0;
  virtual common::Status Validate() const { return common::Status::OK(); }

  /// The density parameters this stage clusters with, or nothing (the
  /// default) for a stage that states none. The sieve and sharded
  /// decorators take their ε, MinLns, weights, filter and distance from the
  /// stage they wrap through this accessor, and their Validate refuses an
  /// inner stage that reports nothing.
  virtual std::optional<DensityParams> density() const {
    return std::nullopt;
  }
  virtual common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store, const RunContext& ctx) const = 0;

  /// Chunked-store entry point of the residency-capped streaming pipeline.
  /// Stages with an out-of-core path override it (DbscanGroupStage). The
  /// default returns kUnimplemented naming the stage: merging the chunks
  /// into a monolithic store would silently break the residency cap, so
  /// OPTICS, sieve and sharded grouping refuse capped runs.
  virtual common::Result<cluster::ClusteringResult> RunChunked(
      const traj::ChunkedSegmentStore& store, const RunContext& ctx) const;
};

/// Stage 3: clusters → one representative trajectory per cluster (§4.3).
class RepresentativeStage {
 public:
  virtual ~RepresentativeStage() = default;
  virtual const char* name() const = 0;
  virtual common::Status Validate() const { return common::Status::OK(); }
  virtual common::Result<std::vector<traj::Trajectory>> Run(
      const traj::SegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx) const = 0;

  /// Chunked-store entry point; same kUnimplemented default as
  /// GroupStage::RunChunked. SweepRepresentativeStage overrides it with a
  /// per-cluster gather that keeps only one cluster's members resident.
  virtual common::Result<std::vector<traj::Trajectory>> RunChunked(
      const traj::ChunkedSegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx) const;
};

// ---------------------------------------------------------------------------
// Adapters over the library's algorithms.
// ---------------------------------------------------------------------------

/// Which MDL partitioner drives MdlPartitionStage.
enum class MdlVariant {
  kApproximate,  ///< Fig. 8, O(n) — the paper's algorithm and the default.
  kOptimal,      ///< Exact DP optimum, O(n²) edges; experiments only.
};

struct MdlPartitionOptions {
  partition::MdlOptions mdl;
  MdlVariant variant = MdlVariant::kApproximate;
};

/// MDL partitioning (§3), parallel per trajectory, cancellation-aware.
class MdlPartitionStage : public PartitionStage {
 public:
  explicit MdlPartitionStage(const MdlPartitionOptions& options = {})
      : options_(options) {}

  const char* name() const override;
  common::Status Validate() const override;
  common::Result<PartitionOutput> Run(const traj::TrajectoryDatabase& db,
                                      const RunContext& ctx) const override;

  const MdlPartitionOptions& options() const { return options_; }

 private:
  MdlPartitionOptions options_;
};

struct DbscanGroupOptions {
  /// Neighborhood radius ε (Definition 4). Must be > 0.
  double eps = 25.0;
  /// Core-segment density threshold MinLns (Definition 5). Must be ≥ 1.
  double min_lns = 5.0;
  /// Trajectory-cardinality threshold (negative: use min_lns; 0: disabled).
  double min_trajectory_cardinality = -1.0;
  /// Weighted-trajectory extension (§4.2 / §7.1).
  bool use_weights = false;
  /// Block-pruned ε-join (Lemma 3; eager and capped runs alike); false =
  /// the O(n²) brute-force configuration.
  bool use_index = true;
  /// Distance function configuration (§2.3). Weights must be ≥ 0.
  distance::SegmentDistanceConfig distance;
};

/// Density-based grouping (Fig. 12) over the TRACLUS segment distance.
class DbscanGroupStage : public GroupStage {
 public:
  explicit DbscanGroupStage(const DbscanGroupOptions& options = {})
      : options_(options) {}

  const char* name() const override;
  common::Status Validate() const override;
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store, const RunContext& ctx) const override;
  /// Out-of-core grouping: DBSCAN's density accounting and cardinality
  /// filter read the chunked store's always-resident catalog through a
  /// cluster::SegmentSetView, and the ε-queries are served by
  /// cluster::TileJoin over the chunked store (block-pruned join or scan,
  /// per use_index), which builds the ε-graph once, chunk-major, under the
  /// store's residency cap, from a Morton-ordered copy of the store that it
  /// frees on return. Labellings are byte-identical to Run on the merged
  /// store.
  common::Result<cluster::ClusteringResult> RunChunked(
      const traj::ChunkedSegmentStore& store,
      const RunContext& ctx) const override;
  /// The options' ε, MinLns, threshold, weights flag and distance.
  std::optional<DensityParams> density() const override;

  const DbscanGroupOptions& options() const { return options_; }

 private:
  DbscanGroupOptions options_;
};

struct OpticsGroupOptions {
  /// Generating distance ε. Must be > 0.
  double eps = 25.0;
  /// Extraction cut ε' ≤ ε for the DBSCAN-equivalent clustering; ≤ 0 means
  /// "use eps".
  double eps_cut = -1.0;
  /// MinLns (MinPts analogue). Must be ≥ 1.
  double min_lns = 5.0;
  /// Trajectory-cardinality threshold (negative: use min_lns; 0: disabled).
  double min_trajectory_cardinality = -1.0;
  /// Block-pruned ε-join (cluster::TileJoin); false = the O(n²)
  /// brute-force configuration.
  bool use_index = true;
  /// Distance function configuration (§2.3). Weights must be ≥ 0.
  distance::SegmentDistanceConfig distance;
};

/// OPTICS grouping (§7.1(2) extension): computes the cluster ordering and
/// extracts the DBSCAN-equivalent clustering at `eps_cut`.
class OpticsGroupStage : public GroupStage {
 public:
  explicit OpticsGroupStage(const OpticsGroupOptions& options = {})
      : options_(options) {}

  const char* name() const override;
  common::Status Validate() const override;
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store, const RunContext& ctx) const override;
  /// The generating ε (not the extraction cut), MinLns, threshold and
  /// distance; OPTICS counts segments, so use_weights is false.
  std::optional<DensityParams> density() const override;

  const OpticsGroupOptions& options() const { return options_; }

 private:
  OpticsGroupOptions options_;
};

struct SweepRepresentativeOptions {
  /// Sweep hit threshold (Fig. 13). Must be ≥ 0; 0 emits at every position.
  double min_lns = 5.0;
  /// Smoothing parameter γ (Fig. 15 line 09). Must be ≥ 0; 0 disables.
  double gamma = 0.0;
  /// Sweep coordinate frame: dimension-generic projection (default) or the
  /// paper's 2-D rotation matrix.
  cluster::RepresentativeMethod method =
      cluster::RepresentativeMethod::kProjection;
  /// Weighted sweep hit counts (§4.2 consistency).
  bool use_weights = false;
};

/// Representative trajectory generation (Fig. 15), parallel per cluster,
/// cancellation-aware.
class SweepRepresentativeStage : public RepresentativeStage {
 public:
  explicit SweepRepresentativeStage(const SweepRepresentativeOptions& options =
                                        {})
      : options_(options) {}

  const char* name() const override;
  common::Status Validate() const override;
  common::Result<std::vector<traj::Trajectory>> Run(
      const traj::SegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx) const override;
  /// Out-of-core sweep: gathers each cluster's member segments (faulting
  /// chunks through the store's bounded cache) into a small member-local
  /// store and sweeps that, so only one cluster's members are resident at a
  /// time. The sweep reads member-indexed values only, so representatives
  /// are bit-identical to Run on the merged store.
  common::Result<std::vector<traj::Trajectory>> RunChunked(
      const traj::ChunkedSegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx) const override;

  const SweepRepresentativeOptions& options() const { return options_; }

 private:
  SweepRepresentativeOptions options_;
};

}  // namespace traclus::core

#endif  // TRACLUS_CORE_STAGES_H_
