#ifndef TRACLUS_CORE_ENGINE_H_
#define TRACLUS_CORE_ENGINE_H_

// TraclusEngine: the composable, error-aware pipeline API.
//
// The paper presents TRACLUS as a three-stage pipeline (Fig. 4): partition →
// group → represent. The engine makes that structure the public API: each
// stage is a pluggable interface (core/stages.h), an engine is an immutable
// assembly of one implementation per stage built by TraclusEngine::Builder
// (which validates the whole configuration up front), and every entry point
// returns common::Result<T> — invalid configuration, empty input, ε/MinLns
// domain errors, and cancellations come back as typed Status codes instead of
// silent defaults or asserts. Execution parameters (threads, progress,
// cancellation) travel per run in a RunContext, so one engine can serve many
// concurrent runs.
//
//   auto engine = core::TraclusEngine::Builder()
//                     .UseMdlPartitioning()
//                     .UseDbscanGrouping({.eps = 12.0, .min_lns = 4})
//                     .UseSweepRepresentatives({.min_lns = 4})
//                     .Build();
//   if (!engine.ok()) { /* engine.status() says what is wrong */ }
//   auto result = engine->Run(db);
//
// The legacy monolithic `core::Traclus` façade has been removed; the golden
// pipeline tests (tests/engine_api_test.cc + tests/golden/) pin the engine's
// output bit-for-bit across refactors instead.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/representative.h"
#include "common/result.h"
#include "core/sharded_stage.h"
#include "core/sieve_stage.h"
#include "core/stages.h"
#include "distance/segment_distance.h"
#include "partition/mdl.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"
#include "traj/source.h"
#include "traj/trajectory.h"
#include "traj/trajectory_database.h"

namespace traclus::core {

/// Which partitioning algorithm drives the partitioning phase (legacy
/// configuration; engine users pick MdlVariant directly).
enum class PartitioningAlgorithm {
  kApproximateMdl,  ///< Fig. 8, O(n) — the paper's algorithm and the default.
  kOptimalMdl,      ///< Exact DP optimum, O(n²) edges; experiments only.
};

/// Full configuration of the TRACLUS pipeline (Fig. 4) as one flat struct —
/// the legacy shape, still accepted by TraclusEngine::FromConfig. New code
/// should prefer the builder, which validates eagerly and admits custom
/// stages.
struct TraclusConfig {
  /// --- Partitioning phase (§3) ---
  partition::MdlOptions partition;
  PartitioningAlgorithm partitioning_algorithm =
      PartitioningAlgorithm::kApproximateMdl;

  /// --- Distance function (§2.3) ---
  distance::SegmentDistanceConfig distance;

  /// --- Grouping phase (§4) ---
  double eps = 25.0;       ///< Neighborhood radius ε.
  double min_lns = 5.0;    ///< MinLns.
  /// Trajectory-cardinality threshold (negative: use min_lns; 0: disabled).
  double min_trajectory_cardinality = -1.0;
  /// Weighted-trajectory extension (§4.2 / §7.1).
  bool use_weights = false;
  /// Block-pruned ε-join for the ε-neighborhood queries (Lemma 3,
  /// cluster::TileJoin); when false, the join refines every pair (the
  /// O(n²) configuration).
  bool use_index = true;

  /// --- Representative trajectories (§4.3) ---
  bool generate_representatives = true;
  /// Sweep hit threshold; negative means "use min_lns" (the paper's choice).
  double representative_min_lns = -1.0;
  /// Smoothing parameter γ (Fig. 15): minimum sweep gap between emitted
  /// representative points. 0 disables smoothing.
  double gamma = 0.0;
  cluster::RepresentativeMethod representative_method =
      cluster::RepresentativeMethod::kProjection;

  /// --- Execution (not part of the paper's algorithm) ---
  /// Worker threads for the parallel phases: per-trajectory MDL partitioning,
  /// the blocked ε-neighborhood queries of the grouping phase, and per-cluster
  /// representative generation. 0 = hardware concurrency; 1 = run everything
  /// inline on the calling thread, reproducing the original single-threaded
  /// execution exactly. Results are identical for every value — parallel work
  /// is assembled in deterministic index order, never in completion order.
  int num_threads = 0;
};

/// Everything TRACLUS produces, including intermediate artifacts that the
/// paper's experiments measure.
struct TraclusResult {
  /// The segment database D accumulated by the partitioning phase (Fig. 4
  /// line 03): all trajectory partitions with provenance plus their cached
  /// invariants, as a traj::SegmentStore.
  traj::SegmentStore store;
  /// Characteristic-point indices per input trajectory (parallel to the input
  /// database order).
  std::vector<std::vector<size_t>> characteristic_points;
  /// The grouping-phase output O = {C_1, ..., C_numclus}.
  cluster::ClusteringResult clustering;
  /// One representative trajectory per cluster (empty when disabled).
  std::vector<traj::Trajectory> representatives;
  /// Streaming runs only (Run(TrajectorySource&)): the chunked segment
  /// database the run ingested into; null for eager runs. When the run was
  /// residency-capped (RunContext::max_resident_chunks > 0), `store` above is
  /// left EMPTY — materializing it would defeat the cap — and consumers read
  /// segments through this store's Chunk()/Merge(). Uncapped streaming runs
  /// fill both (`store` is the merged database the grouping phase ran on).
  std::shared_ptr<const traj::ChunkedSegmentStore> chunked_store;

  /// Array-of-structs view of the segment database (borrowed from the store).
  const std::vector<geom::Segment>& segments() const {
    return store.segments();
  }
};

/// An immutable assembly of the three pipeline stages. Thread-compatible:
/// every entry point is const, and per-run state lives in the RunContext, so
/// one engine may serve concurrent runs.
///
/// Error contract (every entry point returns common::Result<T>):
///   kInvalidArgument     — configuration that can never be valid (missing
///                          stage, negative γ, negative distance weights).
///   kOutOfRange          — ε/MinLns outside their domains (ε ≤ 0, MinLns <
///                          1, OPTICS cut > generating ε).
///   kFailedPrecondition  — structurally empty input (no trajectories, or a
///                          clustering that does not match the segment set).
///   kCancelled           — the RunContext's cancellation token fired.
class TraclusEngine {
 public:
  /// Assembles and validates an engine. Every `Use*` shortcut wires one of
  /// the library's stage adapters (core/stages.h); the `Set*Stage` overloads
  /// accept custom implementations. `Build()` runs every stage's `Validate()`
  /// and returns the first failure instead of an engine — misconfiguration
  /// surfaces before any data is touched, never as an assert mid-run.
  class Builder {
   public:
    Builder();

    /// Replaces the partition stage with a custom implementation.
    Builder& SetPartitionStage(std::shared_ptr<const PartitionStage> stage);
    /// Replaces the group stage with a custom implementation.
    Builder& SetGroupStage(std::shared_ptr<const GroupStage> stage);
    /// Replaces the representative stage; pass nullptr to disable stage 3
    /// (equivalent to WithoutRepresentatives).
    Builder& SetRepresentativeStage(
        std::shared_ptr<const RepresentativeStage> stage);

    /// Stage adapters over the library's algorithms.
    Builder& UseMdlPartitioning(const MdlPartitionOptions& options = {});
    Builder& UseDbscanGrouping(const DbscanGroupOptions& options);
    Builder& UseOpticsGrouping(const OpticsGroupOptions& options);
    Builder& UseSweepRepresentatives(
        const SweepRepresentativeOptions& options = {});
    /// Wraps the currently configured group stage in a SieveGroupStage
    /// (core/sieve_stage.h): every run groups only the 1-in-`options.k`
    /// trajectory sample (residue class `options.offset`) through the
    /// wrapped backend and batch-assigns the rest to the nearest cluster
    /// within the wrapped backend's ε. Call after the grouping backend is
    /// chosen (Use*Grouping / SetGroupStage); calling it with no group stage
    /// configured, one that reports no GroupStage::density(), or k < 2 is a
    /// Build() validation failure.
    Builder& WithSieveGrouping(const SieveGroupOptions& options);
    /// Wraps the currently configured group stage in a ShardedGroupStage
    /// (core/sharded_stage.h): every run decomposes the segment database over
    /// a cell grid into `options.shards` shards, runs the wrapped backend
    /// independently per shard (in parallel across the run's threads), and
    /// merges shard-border clusters through their halos, with the wrapped
    /// backend's density parameters. Same call-after-the-backend contract as
    /// WithSieveGrouping; shards < 2 fails Build(). Composes with the sieve:
    /// apply sharding first so the sieve's sampled sub-database is what gets
    /// sharded.
    Builder& WithShardedGrouping(const ShardedGroupOptions& options);
    /// Disables representative generation (stage 3 is skipped; Run returns an
    /// empty `representatives` vector).
    Builder& WithoutRepresentatives();

    /// Default worker-thread count for runs whose RunContext leaves
    /// num_threads at 0. 0 = hardware concurrency.
    Builder& SetDefaultNumThreads(int num_threads);

    /// Validates the assembly and every stage's configuration; returns the
    /// engine or the first validation failure.
    common::Result<TraclusEngine> Build() const;

   private:
    std::shared_ptr<const PartitionStage> partition_;
    std::shared_ptr<const GroupStage> group_;
    /// Null = stage 3 disabled (WithoutRepresentatives).
    std::shared_ptr<const RepresentativeStage> representative_;
    int default_num_threads_ = 0;
  };

  /// Maps the legacy flat TraclusConfig onto the equivalent builder assembly.
  /// See the README migration table for the field-by-field correspondence.
  static common::Result<TraclusEngine> FromConfig(const TraclusConfig& config);

  /// Runs the full pipeline (Fig. 4). Stage errors and cancellation propagate;
  /// a database with zero trajectories is kFailedPrecondition.
  common::Result<TraclusResult> Run(const traj::TrajectoryDatabase& db,
                                    const RunContext& ctx = {}) const;

  /// Streaming-ingest pipeline: pulls trajectories from `source` one block at
  /// a time, partitions each block on arrival, and appends the resulting
  /// segments straight into a ChunkedSegmentStore shaped by the RunContext's
  /// chunk knobs — the full TrajectoryDatabase is never materialized. After
  /// ingest, an uncapped run (max_resident_chunks == 0) merges the chunks and
  /// executes the ordinary grouping/representative stages; a capped run
  /// executes the stages' RunChunked paths, under which at most
  /// max_resident_chunks payload chunks are cache-resident at any point. A
  /// capped run fails with kInvalidArgument when the RunContext names a
  /// neighbor-cache directory (the capped path builds no file cache), and with
  /// kUnimplemented from a stage that has no capped path (OPTICS, sieve,
  /// sharded, custom stages without a RunChunked override).
  ///
  /// Output is bit-identical to Run(DrainToDatabase(source)) for every chunk
  /// capacity, residency cap, thread count, and kernel choice (the golden
  /// matrix in tests/streaming_engine_test.cc pins this); see
  /// TraclusResult::chunked_store for which result fields a capped run fills.
  /// A source that fails mid-stream propagates its typed status (naming the
  /// offending line for CSV sources) and no partial result escapes; an
  /// exhausted source with zero trajectories is kFailedPrecondition, like the
  /// empty-database eager run.
  common::Result<TraclusResult> Run(traj::TrajectorySource& source,
                                    const RunContext& ctx = {}) const;

  /// Runs only the partitioning stage (Fig. 4 lines 01-03).
  common::Result<PartitionOutput> Partition(const traj::TrajectoryDatabase& db,
                                            const RunContext& ctx = {}) const;

  /// Runs only the grouping stage (Fig. 4 line 04) on a prebuilt segment
  /// store. An empty store is valid input (an empty clustering results).
  /// (Callers holding a raw segment vector freeze it explicitly:
  /// `engine.Group(traj::SegmentStore::FromSegments(std::move(segments)))` —
  /// the deprecated vector overload that hid the O(n) freeze was removed;
  /// see the README migration table.)
  common::Result<cluster::ClusteringResult> Group(
      const traj::SegmentStore& store, const RunContext& ctx = {}) const;

  /// Runs only the representative stage (Fig. 4 lines 05-06). Returns
  /// kFailedPrecondition when the engine was built WithoutRepresentatives or
  /// when `clustering` refers to segments outside the store.
  common::Result<std::vector<traj::Trajectory>> Representatives(
      const traj::SegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx = {}) const;

  const PartitionStage& partition_stage() const { return *partition_; }
  const GroupStage& group_stage() const { return *group_; }
  /// Null when the engine was built WithoutRepresentatives.
  const RepresentativeStage* representative_stage() const {
    return representative_.get();
  }
  int default_num_threads() const { return default_num_threads_; }

 private:
  TraclusEngine(std::shared_ptr<const PartitionStage> partition,
                std::shared_ptr<const GroupStage> group,
                std::shared_ptr<const RepresentativeStage> representative,
                int default_num_threads)
      : partition_(std::move(partition)),
        group_(std::move(group)),
        representative_(std::move(representative)),
        default_num_threads_(default_num_threads) {}

  /// Copies `ctx` with num_threads resolved against the engine default.
  RunContext ResolveContext(const RunContext& ctx) const;

  // Stage drivers over an already-resolved context (`Run` resolves once for
  // the whole pipeline; the public single-stage entry points resolve then
  // delegate here).
  common::Result<PartitionOutput> PartitionImpl(
      const traj::TrajectoryDatabase& db, const RunContext& rctx) const;
  common::Result<cluster::ClusteringResult> GroupImpl(
      const traj::SegmentStore& store, const RunContext& rctx) const;
  common::Result<std::vector<traj::Trajectory>> RepresentativesImpl(
      const traj::SegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& rctx) const;

  std::shared_ptr<const PartitionStage> partition_;
  std::shared_ptr<const GroupStage> group_;
  std::shared_ptr<const RepresentativeStage> representative_;  // May be null.
  int default_num_threads_ = 0;
};

/// The sweep-representative options a legacy TraclusConfig implies: the
/// config's representative_min_lns < 0 falls back to its clustering MinLns
/// (the paper's choice) and γ is clamped at 0.
SweepRepresentativeOptions RepresentativeOptionsFromConfig(
    const TraclusConfig& config);

}  // namespace traclus::core

#endif  // TRACLUS_CORE_ENGINE_H_
