#ifndef TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
#define TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_

#include <cstdint>
#include <vector>

#include "cluster/neighborhood.h"
#include "cluster/segment_grid.h"

namespace traclus::cluster {

/// Exact ε-neighborhood index over line segments: a uniform grid of segment
/// bounding boxes with lower-bound pruning.
///
/// Lemma 3 observes that a spatial index drops clustering from O(n²) to
/// O(n log n), but §4.2 notes the TRACLUS distance is not a metric, so indexes
/// cannot prune with the query distance directly. This index instead prunes
/// with plain Euclidean geometry using the provable bound
///   dist(Li, Lj) ≥ c · mindist(Li, Lj),  c = min(w⊥/2, w∥)
/// (see SegmentDistance::LowerBoundFactor). A query with radius ε therefore
/// only needs candidates whose MBR mindist is ≤ ε / c; every candidate is then
/// checked with the exact distance, making results identical to brute force.
/// When c = 0 (a degenerate weight configuration) the index transparently
/// degrades to a scan, preserving exactness.
///
/// The cell edge defaults to twice the mean segment MBR extent, keeping per-
/// segment cell fan-out O(1) on the paper's workloads. This plays the role of
/// the R-tree suggested in Lemma 3; a uniform grid has the same asymptotics for
/// the (densely populated, laptop-scale) evaluation data sets and far simpler
/// invariants.
///
/// Queries follow the candidate/refine split: the grid walk gathers deduped,
/// MBR-pruned candidates into the scratch, and distance::EpsilonRefine prunes
/// the rest with the midpoint/half-length bound before the blocked exact
/// evaluation.
class GridNeighborhoodIndex : public NeighborhoodProvider {
 public:
  /// Builds the index; `store` and `dist` must outlive it. Per-segment MBRs
  /// come straight from the store's invariant cache (no rebuild here), and
  /// every exact verification uses the batched kernels over the store.
  /// `cell_size` ≤ 0 selects the automatic heuristic; `kernel` selects the
  /// refinement kernel (results identical for every choice).
  GridNeighborhoodIndex(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      double cell_size = 0.0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  /// Reusable per-caller query state: candidate-dedup stamps plus the
  /// candidate staging buffer handed to the refine kernel. One scratch must
  /// never be used by two threads at once; distinct scratches make `Neighbors`
  /// safe to call concurrently.
  struct QueryScratch {
    std::vector<uint32_t> visit_stamp;
    uint32_t stamp = 0;
    std::vector<size_t> candidates;
  };

  /// Convenience query against a per-thread scratch: safe to call from any
  /// number of threads concurrently (each thread owns its scratch), identical
  /// results to the explicit-scratch overload. Batch entry points below are
  /// still preferred on hot paths — they amortize one scratch per chunk of
  /// work instead of keeping one per thread alive.
  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;

  /// Thread-safe query against caller-owned scratch. Results are identical to
  /// the per-thread-scratch overload.
  std::vector<size_t> Neighbors(size_t query_index, double eps,
                                QueryScratch* scratch) const;

  /// Batched queries with one scratch per chunk of work, fanned over `pool`.
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;

  /// Size-only batch with the same per-chunk scratch scheme; lists are
  /// discarded as soon as they are counted.
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;

  /// Subset batch with one scratch per chunk of queries.
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;

  size_t size() const override { return store_.size(); }

  double cell_size() const { return grid_.cell_size(); }

  /// Number of grid cells materialized (diagnostics/tests).
  size_t NumCells() const { return grid_.NumCells(); }

 private:
  const traj::SegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
  SegmentGrid grid_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
