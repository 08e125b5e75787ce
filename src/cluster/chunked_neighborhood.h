#ifndef TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_

// ε-neighborhoods over a ChunkedSegmentStore — the query side of the
// out-of-core grouping path. One provider serves the indexed configuration
// (the chunked GridNeighborhoodIndex) and the Lemma 3 "no index" scan (the
// chunked BruteForceNeighborhood), with lists byte-identical to theirs for
// every chunk capacity, residency cap, thread count and kernel.
//
// Join. Like the eager join (cluster::TileJoin), the provider computes the
// ε-graph of one ε at a time, symmetrically, and serves every Neighbors,
// NeighborsBatch and AllNeighbors call at that ε from it
// (cluster/block_graph.h). The layout is the eager join's Morton block
// layout (cluster/block_layout.h), built from the always-resident catalog,
// whose columns are bit-identical to the merged store's; the scan
// configuration, and any distance without a lower bound
// (LowerBoundFactor() ≤ 0), use the index order without blocks
// (BlockLayout(n)), whose blocks are never skipped. The query at position
// p refines only the positions q > p in the blocks BlockLayout::UpperRuns
// keeps for its block that pass the refine kernels' two-stage per-pair
// prune (distance::PruneRuns) on layout-ordered copies of the catalog
// midpoint, direction, half-length and length columns: each unordered pair
// the eager join refines is refined once, here too (the symmetry argument
// of neighborhood.h covers it). Refinement runs through
// distance::EpsilonRefineCross (or, without a lower bound,
// EpsilonRefineRuns; see Memory) with the query's chunk store on the query
// side; every store is built by one constructor from the same endpoint
// doubles, so each decision matches the monolithic refine bit for bit.
//
// Schedule. The build runs one round per query chunk, chunks in ascending
// order. Round r
//   1. prunes the upper candidates of every position held by chunk r across
//      the pool, grouped by candidate chunk (a counting sort);
//   2. walks the candidate chunks those touch — ascending in even rounds,
//      descending in odd ones, so the chunks at the turn are still in the
//      LRU — a window of up to max_resident_chunks at a time, refining
//      every query's candidates in the window in one pass across the pool
//      (one worker per query, so each accepted list has one writer);
//   3. ORs every accepted pair (p, q) into the 16×16 row matrix of block
//      pair (block(p), block(q)), one worker per query block.
// AllNeighborhoodSizes runs the same rounds and counts the bits as they are
// found (HitCounts), keeping no graph.
//
// Memory. The cached graph (36 B per hit block pair, at most
// min(#block pairs, #neighbor pairs) of them, plus 8 B per block) plus one
// round's scratch: the candidates of chunk_capacity queries and the pairs
// they accept. Without a lower bound (LowerBoundFactor() ≤ 0) every later
// position is a candidate; the layout is then the index order, so each
// query's candidates are its own chunk after it and every later chunk
// whole, refined as chunk-local ranges (distance::EpsilonRefineRuns)
// without being materialized: a round holds one run per query and later
// chunk.
//
// Residency and faults. Only the calling thread pins. A round pins its query
// chunk, then each window's other chunks, the ones the cache already owns
// first (ChunkedSegmentStore::ResidentChunk), then the missing ones, so a
// fault never evicts a chunk the same window still needs. Every window holds
// at most max_resident_chunks chunks, the query chunk included, and the LRU
// cache never owns more than its cap, so peak_resident_chunks() ≤ cap. The
// query chunk stays pinned for its whole round; once the cache evicts it,
// it is the one chunk alive beyond the cap. The pin sequence depends only
// on the catalog and ε, so
// chunk_faults() depends only on the sequence of ε values asked for (one
// build per change of ε, none per call), never on the thread count or the
// batches. A spill-file I/O failure while faulting is a process-level
// failure (the provider interface has no error channel); it aborts via
// TRACLUS_CHECK.
//
// Thread-safety: the layout and its columns are immutable after
// construction, build scratch is local to the build or thread_local, the
// graph lives in a BlockGraphCache (built under its lock, served without
// it), and chunk faults synchronize inside ChunkedSegmentStore. Concurrent
// calls are safe and byte-deterministic.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/block_graph.h"
#include "cluster/block_layout.h"
#include "cluster/neighborhood.h"
#include "traj/chunked_store.h"

namespace traclus::cluster {

/// Exact ε-neighborhoods over a finalized ChunkedSegmentStore, served from
/// a chunk-major symmetric join (see the file comment).
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

  /// Served from the graph of `eps`, built inline on the first call at it.
  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;

  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  /// Entry k equals the monolithic provider's Neighbors(queries[k], eps).
  /// Duplicate queries are allowed.
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;

  size_t size() const override { return store_.size(); }

 private:
  /// One query's candidates inside one chunk: the slice [begin, end) of the
  /// query's candidate list of chunk-local indices or, for a distance
  /// without a lower bound, the chunk-local indices [begin, end) themselves.
  struct Run {
    size_t chunk;
    size_t begin;
    size_t end;
  };
  /// Where a segment sits in the chunked store.
  struct Slot {
    uint32_t chunk;
    uint32_t local;  // Its chunk-local index.
  };

  /// The survivors of the per-pair prune (at `eps`) of the segment at
  /// position `pq` among the positions of `blocks`, itself excluded, grouped
  /// by chunk into `out`; appends one Run per touched chunk, ascending.
  void Candidates(size_t pq, const std::vector<distance::IndexRun>& blocks,
                  double eps, std::vector<size_t>* out,
                  std::vector<Run>* runs) const;
  /// Runs the symmetric join round by round: calls visit(a, hits) across
  /// the pool for every block a with a position in the round's chunk, where
  /// `hits` are the pairs (b, rows), b ≥ a, ascending, holding the pairs
  /// p < q the round accepted (p in block a and in the round's chunk).
  template <typename Visit>
  void ForEachRound(double eps, common::ThreadPool& pool,
                    const Visit& visit) const;
  /// The graph of `eps`, built on the first call at it.
  std::shared_ptr<const BlockGraph> GraphFor(double eps,
                                             common::ThreadPool& pool) const;

  const traj::ChunkedSegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
  /// The catalog's Morton block layout, or BlockLayout(n) (scan, or no
  /// lower bound).
  BlockLayout layout_;
  /// Catalog midpoints and directions (d < dims), half-lengths, lengths
  /// and slots in layout order.
  std::array<std::vector<double>, geom::kMaxDims> mid_;
  std::array<std::vector<double>, geom::kMaxDims> dir_;
  std::vector<double> half_;
  std::vector<double> len_;
  std::vector<Slot> slot_at_;
  mutable BlockGraphCache graphs_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
