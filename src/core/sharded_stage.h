#ifndef TRACLUS_CORE_SHARDED_STAGE_H_
#define TRACLUS_CORE_SHARDED_STAGE_H_

// ShardedGroupStage — sharded grouping: decompose the segment database over
// a cell grid (cluster/shard_grid.h), run an arbitrary inner GroupStage
// independently per shard on a shard-local store (owned segments plus the
// halo of ghost segments within ε-reach of the shard's region), then merge
// clusters across shard borders with a union-find pass over ghost-confirmed
// ε-pairs. The shards run in one process: after the superstep-1 barrier
// each shard reads its ghosts' labels and core flags straight from their
// owners' slots.
//
// Parameters: ε, MinLns, the weights flag, the cardinality threshold and the
// distance are the inner stage's (GroupStage::density()), so the halo, the
// border core re-check and the global filter describe the clustering the
// shards run; Validate refuses an inner stage that reports none. The grid's
// cell size is ShardGrid's automatic heuristic.
//
// Cost model: the inner backend's quadratic pairwise work drops from O(n²)
// to O(Σ_s (n_s + g_s)²) ≈ O(n²/S) for S balanced shards with small halos,
// and the shards run concurrently across the RunContext's threads — shard
// count S is a decomposition knob fixed when the stage is built, thread
// count an execution knob of each run; any combination is valid. S must be
// ≥ 2 (Validate); without sharding, build the inner stage alone.
//
// Exactness (DBSCAN inner backend): a shard-local DBSCAN over owned + ghost
// segments computes the exact global core status of every owned segment
// (its full ε-neighborhood is present, by the halo bound in
// cluster/shard_grid.h), and every cross-owner ε-pair appears in both
// owners' shards. Local clusters reachable only through ghost seeds are
// dissolved (a local cluster is globally valid iff it contains an owned
// member that is either interior — no ghost neighbors — or border-and-core),
// dissolved members re-attach through their earliest globally-core ghost
// neighbor, and core–core border pairs become union edges between the two
// owners' provisional clusters. The merged result partitions segments into
// clusters and noise exactly as unsharded DBSCAN does, with two documented
// deviations: cluster NUMBERING is dense by first member in ascending
// segment order (DBSCAN numbers by seed order, i.e. first CORE member), and
// a non-core segment within ε of cores of two different DBSCAN clusters may
// join the other one (the same assignment ambiguity DBSCAN itself resolves
// by scan order). The second deviation has a corollary once the
// trajectory-cardinality filter runs: when one of the contesting clusters is
// removed by the filter, a contested segment assigned to the removed cluster
// lands in noise, so noise counts may differ by the handful of contested
// borders — core segments and their cluster membership are never affected.
// In weighted mode (use_weights) the border density re-check
// sums masses in shard-local order, so a mass sitting exactly on MinLns at
// the last ulp could flip; the default counting mass is order-exact. For
// other inner backends (OPTICS, custom) the merge is the same density-style
// heuristic but carries no exactness proof.
//
// Determinism: the grid, halos, per-shard runs, ghost reads, and the
// rank-ordered union-find are each pure functions of (store, inner stage,
// shard count) — thread scheduling only changes when shards run, never what they
// compute — so labels are byte-identical across thread counts and
// scalar/SIMD kernels for a fixed shard count.
//
// Whole-database post-filters: per-shard inner runs execute with
// RunContext::shard_local set, which defers the trajectory-cardinality
// filter (see stages.h); this stage applies it once, globally, after the
// merge.
//
// Thread-safety: the stage itself is immutable (inner pointer + options); a
// run's mutable state is per-shard slots written only by the owning pool
// task. Superstep 2 reads peers' superstep-1 labels and core flags, which
// nothing writes after the superstep-1 ParallelFor returns (the barrier),
// so no slot needs a lock. The optional stats sink is written by the calling
// thread only, after the barrier — but distinct concurrent runs must not
// share one sink.
//
// Out-of-core: RunChunked inherits the kUnimplemented default, so a capped
// streaming run with sharded grouping is refused rather than merged.

#include <memory>
#include <optional>
#include <string>

#include "core/stages.h"

namespace traclus::core {

/// Per-run counters of the sharded path, filled by Run when
/// ShardedGroupOptions::stats is set. All counts are deterministic for a
/// fixed (store, options, shard count).
struct ShardedRunStats {
  /// Shards that owned at least one segment.
  size_t shards_run = 0;
  /// Total ghost-list length across shards (a segment ghosted to two shards
  /// counts twice).
  size_t ghost_segments = 0;
  /// Owned-segment → ghost ε-pairs discovered across all shards (each
  /// cross-owner pair is seen from both owners, so it counts twice).
  size_t border_pairs = 0;
  /// Union-find merges that actually joined two distinct provisional
  /// clusters across a shard border.
  size_t border_merges = 0;
  /// Shard-local clusters dissolved as ghost-seeded.
  size_t dissolved_clusters = 0;
  /// Segments re-attached to a peer shard's cluster after dissolution.
  size_t attached_segments = 0;
};

/// Configuration of the sharded grouping stage: the shard count and a
/// stats sink. Everything about the clustering itself is read from the inner
/// stage (GroupStage::density()).
struct ShardedGroupOptions {
  /// Shard count S of the cell-grid decomposition. Must be set, ≥ 2.
  size_t shards = 0;
  /// Optional counters sink (caller-owned, may be null). Written once per
  /// sharded Run by the driver thread; do not share one sink between
  /// concurrent runs.
  ShardedRunStats* stats = nullptr;
};

/// Decorator GroupStage implementing sharded grouping over any inner
/// backend into options().shards shards.
class ShardedGroupStage : public GroupStage {
 public:
  /// `inner` must be non-null and report density() (checked in Validate).
  explicit ShardedGroupStage(std::shared_ptr<const GroupStage> inner,
                             const ShardedGroupOptions& options = {});

  const char* name() const override;
  common::Status Validate() const override;
  /// The inner stage's parameters: the merge describes its clustering.
  std::optional<DensityParams> density() const override;
  /// An empty store delegates to the inner stage unchanged. Otherwise runs
  /// the sharded pipeline: shard-local clustering + border analysis, the
  /// ghosts' owner-side labels and core flags turned into merge edges and
  /// attaches, and the cross-border union-find merge + global filter.
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store, const RunContext& ctx) const override;

  const ShardedGroupOptions& options() const { return options_; }
  const GroupStage* inner() const { return inner_.get(); }

 private:
  std::shared_ptr<const GroupStage> inner_;
  ShardedGroupOptions options_;
  /// "group/sharded+<inner>" — built once; name() returns its c_str().
  std::string name_;
};

}  // namespace traclus::core

#endif  // TRACLUS_CORE_SHARDED_STAGE_H_
