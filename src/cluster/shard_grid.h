#ifndef TRACLUS_CLUSTER_SHARD_GRID_H_
#define TRACLUS_CLUSTER_SHARD_GRID_H_

// ShardGrid — the spatial decomposition underneath core::ShardedGroupStage:
// a uniform cell grid over segment midpoints, with occupied cells assigned to
// shards by an occupancy-balanced contiguous split of their lexicographic
// order, plus the halo (ghost) computation that makes per-shard clustering
// exact.
//
// Ownership: every segment belongs to exactly one cell — the cell containing
// its midpoint — and every occupied cell to exactly one shard, so the owned
// lists partition the store. Assignment walks the occupied cells in
// lexicographic (cx, cy, cz) order and cuts the walk into `num_shards`
// contiguous runs of near-equal segment count (greedy ceil(remaining /
// shards_left) targets), which keeps shards spatially coherent — small
// borders, small halos — while balancing work. Trailing shards may own
// nothing when there are fewer occupied cells than shards.
//
// Halo soundness: GhostLists(reach) must return, for each shard r, a
// superset of every non-owned segment within ε of some segment owned by r,
// where `reach` is ε converted into Euclidean segment-space (ε divided by
// the distance's triangle-inequality lower-bound factor; +∞ — ghost
// everything — when the factor is degenerate). The test is a box-overlap
// bound evaluated on a FINE uniform grid, decoupled from the coarse
// ownership cells (whose resolution is sized for load balancing, far too
// coarse for a tight halo): each owned segment's axis-aligned bounding box,
// dilated by reach, is rasterized into a per-shard bitmap, and segment j is
// ghosted to r when j's own bounding box overlaps a marked cell of r's
// bitmap. Soundness: dist(Li, Lj) ≤ ε implies the Euclidean
// mindist(seg_i, seg_j) ≤ reach (the Lemma 3 style lower bound), hence
// mindist(MBR_i, MBR_j) ≤ reach, hence MBR_j intersects MBR_i ⊕ reach, whose
// cell cover is marked — so every true ε-neighbor lands in the halo; cell
// rasterization only ever over-covers (by up to one fine cell per side), and
// the dilation carries a relative slack of 1e-9 so boundary cases stay
// inclusive. Per-segment boxes keep one long segment from widening the whole
// shard's halo: only the corridor it actually spans is marked. The result is
// a pure function of (store, num_shards, reach) — independent of thread
// count and evaluation order.
//
// Tightness: on the hurricane corpus (ε = 0.94, heavy-tailed segment
// lengths) this bound measures within a few percent of the exact
// segment-distance halo floor (69% vs 65% of the store at S = 2) — the large
// halo there is a property of the densely interleaved data, not slack in the
// bound. On spatially separable data (basins further apart than the reach)
// the halo collapses to near zero; see bench/bench_shard_scaling.cc for both
// regimes.

#include <cstdint>
#include <vector>

#include "traj/segment_store.h"

namespace traclus::cluster {

/// Immutable after construction; holds a reference to the store, which must
/// outlive the grid. Thread-compatible (all accessors const, no mutable
/// state — no mutex needed).
class ShardGrid {
 public:
  /// Decomposes `store` into `num_shards` shards (must be ≥ 1). The
  /// ownership cell size is the midpoint bounding box's largest extent
  /// divided by ceil(sqrt(16 · num_shards)) cells per axis — roughly 16
  /// occupied-cell granules per shard, enough for the balanced split to even
  /// out skew without shredding spatial coherence.
  ShardGrid(const traj::SegmentStore& store, size_t num_shards);

  size_t num_shards() const { return owned_.size(); }
  /// Number of occupied grid cells (≤ store.size()).
  size_t num_cells() const { return cells_.size(); }

  /// Owning shard of segment `i` (the shard of the cell holding its
  /// midpoint).
  size_t owner_of(size_t i) const { return owner_[i]; }

  /// Per-shard owned segment indices, ascending. The lists partition
  /// [0, store.size()).
  const std::vector<std::vector<size_t>>& owned() const { return owned_; }

  /// Largest owned half-length per shard (0 for empty shards).
  const std::vector<double>& max_half_lengths() const { return h_max_; }

  /// Per-shard ghost lists for a midpoint-space radius `reach` (see the
  /// header comment), ascending, disjoint from the shard's owned list.
  /// `reach` = +∞ ghosts every non-owned segment to every non-empty shard.
  std::vector<std::vector<size_t>> GhostLists(double reach) const;

 private:
  struct Cell {
    int64_t x = 0;
    int64_t y = 0;
    int64_t z = 0;
    size_t count = 0;  ///< Segments whose midpoint falls in this cell.
    size_t shard = 0;
  };

  const traj::SegmentStore& store_;
  int dims_ = 2;
  /// Occupied cells in lexicographic (x, y, z) order.
  std::vector<Cell> cells_;
  std::vector<size_t> owner_;
  std::vector<std::vector<size_t>> owned_;
  std::vector<double> h_max_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_SHARD_GRID_H_
