#ifndef TRACLUS_CLUSTER_DBSCAN_SEGMENTS_H_
#define TRACLUS_CLUSTER_DBSCAN_SEGMENTS_H_

#include <cstddef>
#include <functional>

#include "cluster/cluster.h"
#include "cluster/neighborhood.h"
#include "common/cancellation.h"

namespace traclus::cluster {

/// Parameters of the line-segment clustering algorithm (Fig. 12).
struct DbscanOptions {
  /// Neighborhood radius ε (Definition 4).
  double eps = 1.0;
  /// Core-segment density threshold MinLns (Definition 5).
  double min_lns = 3.0;
  /// Trajectory-cardinality threshold of the step-3 filter. The paper notes "a
  /// threshold other than MinLns can be used" (Fig. 12 line 14 comment);
  /// a negative value means "use min_lns". 0 disables the filter.
  double min_trajectory_cardinality = -1.0;
  /// Weighted-trajectory extension (§4.2): when true, |Nε(L)| is the sum of the
  /// neighbors' weights rather than their count, so e.g. a stronger hurricane
  /// contributes more density.
  bool use_weights = false;
  /// Worker threads for the ε-neighborhood queries (the Lemma 3 hot path):
  /// queries are computed in bounded blocks through the provider's
  /// NeighborsBatch and the sequential expansion loop consumes them.
  /// 0 = hardware concurrency; 1 = the blocks run inline on the calling
  /// thread. Cluster IDs and labels are identical for every value.
  int num_threads = 1;
  /// Maximum number of ε-neighborhood lists resident at once. Peak extra
  /// memory is O(batch_block · max|Nε|) instead of the O(Σ|Nε|) a full
  /// up-front batch would hold; every list is still computed exactly once,
  /// so labels are identical for every value. 0 selects the default (1024).
  size_t batch_block = 0;
  /// Optional cooperative cancellation, polled between seeds of the expansion
  /// loop (and hence between query blocks). When it fires, DbscanSegments
  /// aborts by throwing common::OperationCancelled; the engine layer converts
  /// that to StatusCode::kCancelled.
  const common::CancellationToken* cancellation = nullptr;
  /// Optional progress callback: completed fraction of the seed scan in
  /// [0, 1], invoked on the calling thread only, at a bounded number of evenly
  /// spaced points. The call sequence depends only on the input size, never on
  /// thread count.
  std::function<void(double)> progress;
};

/// Density-based clustering of line segments — the grouping phase of TRACLUS
/// (Fig. 12), an adaptation of DBSCAN with two changes: the line-segment
/// distance function, and the step-3 filter that removes density-connected sets
/// drawn from too few distinct trajectories (Definition 10), since those do not
/// "explain the behavior of a sufficient number of trajectories".
///
/// `provider` supplies exact ε-neighborhoods and must be bound to `store`.
/// Weighted density reads the store's contiguous weight column and the step-3
/// filter its trajectory-id column. Deterministic: segments are seeded in
/// index order, and the expansion queue is FIFO, so identical inputs yield
/// identical labellings.
ClusteringResult DbscanSegments(const traj::SegmentStore& store,
                                const NeighborhoodProvider& provider,
                                const DbscanOptions& options);

/// View-backed overload: the algorithm reads the segment database only
/// through the catalog columns of a SegmentSetView (count, weights,
/// trajectory ids) — segment payloads are touched solely by `provider`'s own
/// ε-queries. This is the entry point of the chunked out-of-core grouping
/// path, where the view comes from a ChunkedSegmentStore's always-resident
/// catalog and the provider faults payload chunks on demand. The store
/// overload above delegates here via SegmentSetView::Of; labellings are
/// identical.
ClusteringResult DbscanSegments(const SegmentSetView& view,
                                const NeighborhoodProvider& provider,
                                const DbscanOptions& options);

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_DBSCAN_SEGMENTS_H_
