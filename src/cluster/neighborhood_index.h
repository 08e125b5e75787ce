#ifndef TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
#define TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_

// The indexed configuration of the eager ε-join (Lemma 3).
//
// Lemma 3 observes that a spatial index drops clustering from O(n²) to
// O(n log n), but §4.2 notes the TRACLUS distance is not a metric, so an
// index cannot prune with the query distance directly. The join instead
// prunes with plain Euclidean geometry through the provable bound
//   dist(Li, Lj) ≥ c · mindist(Li, Lj),  c = min(w⊥/2, w∥)
// (SegmentDistance::LowerBoundFactor), applied to whole blocks of
// Morton-ordered segments and then to every candidate pair; the exact
// distance decides every survivor, so results are identical to brute force.
// When c = 0 (a degenerate weight configuration) nothing is skipped and the
// join degrades to a scan, still exact.
//
// GridNeighborhoodIndex is that join with block pruning on — the
// `use_index` default of the grouping stages. The whole algorithm lives in
// cluster::TileJoin (cluster/neighborhood.h).

#include "cluster/neighborhood.h"

namespace traclus::cluster {

/// The block-pruned tile join (see TileJoin).
class GridNeighborhoodIndex : public TileJoin {
 public:
  /// `store` and `dist` must outlive the index; `kernel` selects the
  /// refinement kernel (results identical for every choice).
  GridNeighborhoodIndex(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto)
      : TileJoin(store, dist, /*prune_blocks=*/true, kernel) {}
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
