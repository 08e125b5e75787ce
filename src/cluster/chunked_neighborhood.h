#ifndef TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_

// ε-neighborhoods over a ChunkedSegmentStore — the query side of the
// out-of-core grouping path.
//
// One provider serves both the indexed configuration (the chunked analogue
// of GridNeighborhoodIndex) and the Lemma 3 "no index" scan (the analogue of
// BruteForceNeighborhood), with lists byte-identical to theirs for every
// chunk capacity, residency cap, thread count and kernel:
//
//   * Candidates come from the always-resident catalog alone: a
//     SegmentGrid of segment MBRs with an MBR prune, or every segment for
//     the scan (and for the grid when LowerBoundFactor() ≤ 0).
//   * Refinement runs through distance::EpsilonRefineCross/Runs with a
//     batch-local SegmentStore of the query segments on the query side.
//     Every store is built by the same constructor from the same endpoint
//     doubles, so each accept/reject decision, prune included, matches the
//     monolithic refine bit for bit.
//
// Schedule: queries are served in batches, chunk-major. NeighborsBatch
//   1. generates every query's candidates across the pool and groups them
//      by candidate chunk (a counting sort; the final sort fixes the order);
//   2. gathers the query segments into the batch-local store, pinning each
//      query chunk once, in ascending order;
//   3. walks the touched candidate chunks once — ascending on even batches,
//      descending on odd ones, so the chunks at the turn are still in the
//      LRU — pinning them from the calling thread only, a window of up to
//      max_resident_chunks at a time, and refines every query's candidates
//      in the window in one pass across the pool (one worker per query, so
//      each list has one writer);
//   4. appends each query itself and sorts each list.
// AllNeighbors and AllNeighborhoodSizes run this schedule over 1,024-query
// slices of the index range; single-query Neighbors is a batch of one.
//
// Residency and faults: the provider pins at most one window of chunks at a
// time, all of them cache-owned (a window never exceeds the cap), so the
// store's LRU cache bounds residency at its cap throughout. A batch faults
// at most (query chunks + candidate chunks) ≤ 2 × num_chunks() chunks,
// whatever the cap, and because only the calling thread pins, the fault
// sequence — hence ChunkedSegmentStore::chunk_faults() — depends only on
// the batch sequence, never on the thread count. (Walking each query's
// candidate chunks in turn instead faults on nearly every query once the
// cap is below the chunk count: the cyclic-LRU worst case.) A spill-file
// I/O failure while faulting a chunk is a process-level failure (the
// provider interface has no error channel); it aborts via TRACLUS_CHECK.
//
// Batch scratch is O(batch × mean candidates), plus per-thread dedup
// stamps over the catalog.
//
// Thread-safety contract: the provider holds no mutex and needs no
// capability annotations. The grid and catalog references are immutable
// after construction, batch scratch is local to each call or thread_local,
// the only mutable member is an atomic batch counter, and concurrent chunk
// faults synchronize inside ChunkedSegmentStore (whose spill/LRU state is
// TRACLUS_GUARDED_BY its internal common::Mutex). Concurrent calls are safe
// and byte-deterministic; only the walk direction, and so the fault count,
// depends on their interleaving.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/neighborhood.h"
#include "cluster/segment_grid.h"
#include "traj/chunked_store.h"

namespace traclus::cluster {

/// Exact ε-neighborhoods over a finalized ChunkedSegmentStore, served
/// chunk-major (see the file comment).
class ChunkedNeighborhood : public NeighborhoodProvider {
 public:
  /// `store` (finalized) and `dist` must outlive the provider. `use_index`
  /// selects the grid (true) or the whole-database scan (false); `cell_size`
  /// ≤ 0 selects the grid's automatic heuristic (twice the mean catalog-MBR
  /// extent). `kernel` selects the refinement kernel (results identical for
  /// every choice by the SIMD lane-equivalence invariant).
  ChunkedNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist, bool use_index = true,
      double cell_size = 0.0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  /// A batch of one, run inline on the calling thread.
  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;

  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  /// One chunk-major batch; entry k equals the monolithic provider's
  /// Neighbors(queries[k], eps). Duplicate queries are allowed.
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;

  size_t size() const override { return store_.size(); }

  /// Batches served so far (every NeighborsBatch call, every slice of an
  /// All* call, every single-query Neighbors call).
  uint64_t batches() const { return batches_.load(); }

 private:
  /// One query's candidates inside one chunk: the query's candidate list
  /// [begin, end), as chunk-local indices.
  struct Run {
    size_t chunk;
    size_t begin;
    size_t end;
  };

  /// Grid candidates of segment `query`, the query itself excluded, grouped
  /// by chunk into `out`; appends one Run per touched chunk, in ascending
  /// chunk order.
  void Candidates(size_t query, double radius, std::vector<size_t>* out,
                  std::vector<Run>* runs) const;
  /// Refines batch entry k (segment `query`) against every segment of chunk
  /// c except the query itself, appending global indices to `out`.
  void ScanChunk(const traj::SegmentStore& query_store, size_t k,
                 size_t query, size_t c, const traj::SegmentStore& chunk,
                 double eps, const distance::BatchOptions& options,
                 std::vector<size_t>* out) const;

  const traj::ChunkedSegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
  /// Engaged in the indexed configuration.
  std::optional<SegmentGrid> grid_;
  /// Parity picks the candidate-chunk walk direction.
  mutable std::atomic<uint64_t> batches_{0};
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
