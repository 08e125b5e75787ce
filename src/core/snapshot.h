#ifndef TRACLUS_CORE_SNAPSHOT_H_
#define TRACLUS_CORE_SNAPSHOT_H_

// Frozen cluster snapshot: the read side of a TRACLUS service.
//
// A completed run's artifacts — the segment database, the cluster labels,
// and the representative trajectories — are frozen into an immutable
// ClusterSnapshot that (a) round-trips through a versioned binary file, so
// a serving process reloads a clustering without rerunning the pipeline,
// and (b) answers high-QPS "which cluster is this trajectory/segment
// nearest to, within ε?" queries through the same batched distance kernels
// the pipeline groups with (distance::NearestWithinEps), so
// scalar/SIMD parity and cross-thread determinism carry over to the
// serving path unchanged.
//
// Serving model. At construction the snapshot compiles a small frozen
// candidate store: each cluster contributes its representative trajectory's
// segments (the §4.3 sweep output — the cluster's shape in a handful of
// segments); clusters whose representative is empty (sweep never reached
// MinLns hits) fall back to at most 32 evenly-strided member segments.
// Assignment is nearest-candidate-within-ε against that store. The store is
// indexed by the ε-join's Morton blocks (cluster::BlockLayout, rebuilt on
// load, never serialized): each query segment prunes and refines only the
// candidates of the blocks not provably farther than ε from it, in ascending
// candidate order, so the answer — ties to the earliest candidate included —
// equals the full candidate scan. Query cost is independent of the original
// database size n and, at the benchmark parameters, a fraction of
// |candidates|. Query segments with a coordinate that is non-finite or
// beyond ±traj::kMaxCoordinate are rejected. Assign* methods are const,
// lock-free, and allocation-free after warmup (thread_local staging only),
// so any number of threads may serve queries concurrently.
//
// File format v1 (little-endian; doubles stored as raw bit patterns, so
// the round trip is exact and a reloaded snapshot assigns byte-identically
// to the in-memory one — tests/snapshot_test.cc pins this):
//   u32 magic 'TSN1'  u32 version=1
//   params: eps, w⊥, w∥, wθ, directed, mdl encoding, suppression_bits,
//           mdl directed
//   store: n, dims, then per segment id/trajectory_id/weight/start/end
//          (invariants are recomputed on load — bit-identical by the
//          SegmentStore contract)
//   clustering: clusters (id + member indices), labels, num_noise
//   representatives: per cluster id/label/weight/points
//   u32 magic 'TSN1'  — trailing sentinel

#include <memory>
#include <string>
#include <vector>

#include "cluster/block_layout.h"
#include "cluster/cluster.h"
#include "common/result.h"
#include "common/span.h"
#include "common/status.h"
#include "core/engine.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "partition/mdl.h"
#include "traj/segment_store.h"
#include "traj/trajectory.h"

namespace traclus::core {

/// Current snapshot file format version.
inline constexpr uint32_t kSnapshotFileVersion = 1;

/// The run parameters a snapshot needs to answer queries the way the run
/// would have: ε and the distance weights feed the assignment kernel; the
/// MDL options partition incoming query trajectories exactly like the
/// pipeline partitioned the corpus.
struct SnapshotParams {
  double eps = 25.0;
  distance::SegmentDistanceConfig distance;
  partition::MdlOptions mdl;
};

/// Per-query knobs of the Assign* methods. Results are identical for every
/// kernel and thread count (the argmin is prune-order-independent and the
/// kernels are bit-identical).
struct AssignOptions {
  distance::BatchKernel kernel = distance::BatchKernel::kAuto;
  /// Threads for AssignSegments' query fan-out (0 = hardware concurrency,
  /// 1 = inline). AssignTrajectory queries are tiny; it always runs inline,
  /// and callers fan whole trajectories out instead.
  int num_threads = 1;
};

/// Result of assigning one query trajectory.
struct TrajectoryAssignment {
  /// Per-partition-segment nearest cluster id (cluster::kNoise when no
  /// candidate is within ε), in partition order.
  std::vector<int> segment_labels;
  /// Matching nearest distances (+inf where noise).
  std::vector<double> segment_distances;
  /// Majority vote over the non-noise segment labels, ties broken toward
  /// the smaller cluster id; cluster::kNoise when every segment is noise.
  int cluster = cluster::kNoise;
};

/// Immutable, thread-safe frozen clustering. All accessors and Assign*
/// methods are const and share no mutable state; construction (FromResult /
/// Load) is the only mutation.
class ClusterSnapshot {
 public:
  /// Freezes a completed run. `result.store` must be materialized and
  /// labeled (capped streaming runs leave it empty — snapshot those by
  /// rerunning uncapped or lowering the cap).
  static common::Result<std::unique_ptr<ClusterSnapshot>> FromResult(
      const TraclusResult& result, const SnapshotParams& params);

  /// Reloads a snapshot written by Save. Typed failures mirror the neighbor
  /// cache: missing → NotFound, bad magic/version/structure →
  /// InvalidArgument, short file → IOError.
  static common::Result<std::unique_ptr<ClusterSnapshot>> Load(
      const std::string& path);

  /// Writes the v1 file atomically (tmp + rename).
  common::Status Save(const std::string& path) const;

  /// Assigns every segment of `queries` to its nearest cluster within ε:
  /// out_labels[i] gets the cluster id (cluster::kNoise when none within ε),
  /// out_distance[i] the nearest distance (+inf when none). Both spans must
  /// have queries.size() entries. A query segment with a coordinate that is
  /// non-finite or beyond ±traj::kMaxCoordinate is InvalidArgument naming
  /// it. Thread-safe; deterministic across kernels/threads.
  common::Status AssignSegments(const traj::SegmentStore& queries,
                                common::Span<int> out_labels,
                                common::Span<double> out_distance,
                                const AssignOptions& options = {}) const;

  /// Partitions `trajectory` with the snapshot's MDL options (approximate
  /// partitioner, like the pipeline's default) and assigns each partition
  /// segment; the trajectory-level cluster is the majority vote. A point
  /// with a coordinate that is non-finite or beyond ±traj::kMaxCoordinate is
  /// InvalidArgument naming the point and its value.
  common::Result<TrajectoryAssignment> AssignTrajectory(
      const traj::Trajectory& trajectory,
      const AssignOptions& options = {}) const;

  const traj::SegmentStore& store() const { return store_; }
  const cluster::ClusteringResult& clustering() const { return clustering_; }
  const std::vector<traj::Trajectory>& representatives() const {
    return representatives_;
  }
  const SnapshotParams& params() const { return params_; }
  /// The frozen serving set assignment runs against, in cluster order.
  const traj::SegmentStore& candidate_store() const { return candidates_; }
  /// Cluster id of each candidate segment.
  const std::vector<int>& candidate_labels() const {
    return candidate_label_;
  }

 private:
  ClusterSnapshot() = default;

  /// Compiles the frozen candidate store from clusters + representatives,
  /// and its block layout. Deterministic: depends only on the (store,
  /// clustering, representatives) value, so FromResult and Load build
  /// identical serving sets.
  void InitServing();

  traj::SegmentStore store_;
  cluster::ClusteringResult clustering_;
  std::vector<traj::Trajectory> representatives_;
  SnapshotParams params_;

  // Frozen serving set (immutable after InitServing).
  traj::SegmentStore candidates_;
  std::vector<int> candidate_label_;
  cluster::BlockLayout layout_;  // Morton blocks of candidates_.
};

}  // namespace traclus::core

#endif  // TRACLUS_CORE_SNAPSHOT_H_
