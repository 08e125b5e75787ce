#ifndef TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_

// ε-neighborhoods over a ChunkedSegmentStore — the query side of the
// out-of-core grouping path. One provider serves the indexed configuration
// (the chunked GridNeighborhoodIndex) and the Lemma 3 "no index" scan (the
// chunked BruteForceNeighborhood), with lists byte-identical to theirs for
// every chunk capacity, residency cap, thread count and kernel.
//
// Candidates come from the always-resident catalog alone. The indexed
// configuration builds the eager join's Morton block layout
// (cluster/block_layout.h) from the catalog, skips the block pairs it proves
// too far, and runs the refine kernels' per-pair midpoint prune
// (distance::PruneRuns) over Morton-ordered copies of the catalog midpoint
// and half-length columns.
// Those are bit-identical to the chunk stores' columns, so the survivors are
// the pairs the eager join refines, in both orders: the eager join refines
// each unordered pair once, this provider refines (p, q) and (q, p)
// (ROADMAP item 3). The scan (and the indexed configuration when
// LowerBoundFactor() ≤ 0) takes every segment.
// Refinement runs through distance::EpsilonRefineCross/Runs with a
// batch-local SegmentStore of the query segments on the query side; every
// store is built by one constructor from the same endpoint doubles, so each
// decision matches the monolithic refine bit for bit.
//
// Schedule: queries are served in batches, chunk-major. NeighborsBatch
//   1. groups the queries by Morton block and generates their candidates
//      across the pool, grouped by candidate chunk (a counting sort);
//   2. gathers the query segments into the batch-local store;
//   3. walks the touched candidate chunks once — ascending on even batches,
//      descending on odd ones, so the chunks at the turn are still in the
//      LRU — a window of up to max_resident_chunks at a time, refining every
//      query's candidates in the window in one pass across the pool (one
//      worker per query, so each list has one writer);
//   4. appends each query itself and sorts each list.
// AllNeighbors and AllNeighborhoodSizes run 1,024-query slices of the index
// range; single-query Neighbors is a batch of one.
//
// Residency and faults: only the calling thread pins, and steps 2 and 3 pin
// the chunks the cache already owns first (ChunkedSegmentStore::
// ResidentChunk), then fault the missing ones, so a fault never evicts a
// chunk the same window still needs. A window never exceeds the cap, so the
// LRU cache bounds residency at its cap throughout. A batch faults at most
// (query chunks + candidate chunks) ≤ 2 × num_chunks() chunks, and
// chunk_faults() depends only on the batch sequence, never on the thread
// count. A spill-file I/O failure while faulting is a process-level failure
// (the provider interface has no error channel); it aborts via TRACLUS_CHECK.
//
// Thread-safety: no mutex. The layout and its columns are immutable after
// construction, batch scratch is local to each call or thread_local, the
// only mutable member is an atomic batch counter, and chunk faults
// synchronize inside ChunkedSegmentStore. Concurrent calls are safe and
// byte-deterministic; only the walk direction, and so the fault count,
// depends on their interleaving.

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/block_layout.h"
#include "cluster/neighborhood.h"
#include "traj/chunked_store.h"

namespace traclus::cluster {

/// Exact ε-neighborhoods over a finalized ChunkedSegmentStore, served
/// chunk-major (see the file comment).
class ChunkedNeighborhood : public NeighborhoodProvider {
 public:
  /// `store` (finalized) and `dist` must outlive the provider. `use_index`
  /// selects the block-pruned join (true) or the whole-database scan
  /// (false). `kernel` selects the refinement kernel (results identical for
  /// every choice by the SIMD lane-equivalence invariant).
  ChunkedNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist, bool use_index = true,
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

  /// The survivors of the per-pair midpoint prune of the segment at
  /// position `pq` among the positions of `blocks`, itself excluded, grouped
  /// by chunk into `out`; appends one Run per touched chunk, ascending.
  void Candidates(size_t pq, const std::vector<distance::IndexRun>& blocks,
                  double reach, std::vector<size_t>* out,
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
  /// The catalog's block layout; engaged in the indexed configuration.
  std::optional<BlockLayout> layout_;
  /// Catalog midpoints (d < dims), half-lengths and chunks in layout order.
  std::array<std::vector<double>, geom::kMaxDims> mid_;
  std::vector<double> half_;
  std::vector<uint32_t> chunk_at_;
  /// Parity picks the candidate-chunk walk direction.
  mutable std::atomic<uint64_t> batches_{0};
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
