#ifndef TRACLUS_CLUSTER_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_NEIGHBORHOOD_H_

// ε-neighborhood providers (Definition 4) and the ε-join, TileJoin, which
// serves DBSCAN, OPTICS, the sharded stage, the parameter heuristic and the
// neighbor-cache writer over a SegmentStore, and residency-capped DBSCAN
// over a ChunkedSegmentStore.
//
// Layout. On its first query the join builds the Morton block layout of the
// bound store (cluster/block_layout.h) and copies the segments in that
// order: a SegmentStore into a sorted SegmentStore, a ChunkedSegmentStore
// into a permuted ChunkedSegmentStore of the same chunk capacity and
// residency cap (traj::ChunkedSegmentStore::Permuted). Either copy holds
// the same Segment values (ids included), so every distance is
// bit-identical to the bound store's. Without block pruning, or for a
// distance without a lower bound (LowerBoundFactor() ≤ 0, where no block
// can be skipped), the layout is the bound store itself in index order and
// nothing is copied. Building the layout lazily keeps construction free: a
// warm FileNeighborhoodCache hit never pays for it.
//
// Join. The join computes the ε-graph of one ε at a time, symmetrically.
// The query at position p of block a refines only the candidates at
// positions q > p, in the blocks b ≥ a that block a does not skip
// (BlockLayout::UpperRuns), through distance::EpsilonRefineRuns: each
// unordered pair is refined once. Every accepted pair sets one bit of the
// 16×16 bit matrix of its block pair (a, b), kept only when some pair hits;
// cluster/block_graph.h assembles those matrices into the lists and counts
// their sizes.
//
// Chunks. The store the join reads is cut into chunks: an eager store is
// one chunk, a chunked store has its own. The join runs one round per query
// chunk, in ascending order. A round walks the chunks its queries' runs
// touch (ascending in even rounds, descending in odd ones, so the chunks at
// the turn are still cached), a window of up to max_resident_chunks chunks
// at a time (every chunk at once without a cap). Each window refines every
// query of the round against its runs clipped to each chunk of the window,
// with out_base the chunk's first position, so an accepted index is already
// a layout position. An eager join is one round of one window over one
// chunk.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/block_graph.h"
#include "cluster/block_layout.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"

namespace traclus::cluster {

/// Source of ε-neighborhood queries Nε(L) (Definition 4) over a fixed segment
/// database.
///
/// Implementations are bound to a segment database at construction (a
/// traj::SegmentStore, or a traj::ChunkedSegmentStore for TileJoin, whose
/// lists over it equal its lists over the merged store) and must
/// return the indices of ALL segments within distance ε of the query —
/// including the query segment itself, which Definition 4 includes since
/// dist(L, L) = 0. Exactness matters: DBSCAN's output (and the parameter
/// heuristic's entropy) are defined in terms of exact ε-neighborhoods.
///
/// Three providers implement it. The one that computes, TileJoin, is one
/// symmetric ε-join over either store: it emits the positions after the
/// query's own in surviving Morton blocks, delegates the exact membership
/// decision to the batched distance kernels (distance/batch_kernels.h),
/// which lower-bound-prune and evaluate the §2.3 distance bit-identically to
/// the per-pair cached path, so each unordered pair is refined once, and
/// serves its lists from the ε-graph of block-pair bits
/// (cluster/block_graph.h). The kernel choice (scalar / AVX2 SIMD) is a
/// construction-time knob. The other two serve lists it produced:
/// NeighborhoodCache from memory, FileNeighborhoodCache
/// (cluster/neighbor_cache_file.h) from disk.
///
/// Every method may be called concurrently.
class NeighborhoodProvider {
 public:
  virtual ~NeighborhoodProvider() = default;

  /// Indices of all segments within distance `eps` of segment `query_index`.
  virtual std::vector<size_t> Neighbors(size_t query_index,
                                        double eps) const = 0;

  /// Batch query: Nε(L) for every segment, computed across `pool`. Entry i is
  /// exactly `Neighbors(i, eps)` regardless of thread count — results land in
  /// index-addressed slots, so scheduling order cannot reorder them.
  virtual std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const = 0;

  /// Size-only batch: |Nε(L)| for every segment. Same contract as
  /// `AllNeighbors`, but keeping peak memory at O(n) (the §4.4 entropy sweep
  /// evaluates this at large ε, where the lists themselves approach O(n²)).
  virtual std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const = 0;

  /// Subset batch: Nε(L) for an explicit list of query indices, computed
  /// across `pool`; entry k is exactly `Neighbors(queries[k], eps)`. This is
  /// the block-streamed grouping phase's primitive — it fans a bounded block
  /// of queries out at once, so peak memory stays proportional to the block
  /// rather than to the whole database.
  virtual std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const = 0;

  /// Number of segments in the bound database.
  virtual size_t size() const = 0;
};

/// A provider that serves another provider's ε-neighborhoods from memory:
/// every list is materialized at construction, through base.AllNeighbors
/// across `pool`, and kept resident, so repeated queries run at memory
/// speed. The lists are immutable afterwards and read without a lock.
///
/// Every served list equals base.Neighbors(i, eps) exactly, so cluster IDs
/// are byte-identical to the direct path. Bound to one ε at construction;
/// querying a different ε is a programming error (checked).
class NeighborhoodCache : public NeighborhoodProvider {
 public:
  NeighborhoodCache(const NeighborhoodProvider& base, double eps,
                    common::ThreadPool& pool);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;
  size_t size() const override { return lists_.size(); }

  /// The materialized lists.
  const std::vector<std::vector<size_t>>& lists() const { return lists_; }

 private:
  double eps_;
  std::vector<std::vector<size_t>> lists_;
};

/// The ε-join of Lemma 3 (see the file comment). Two configurations share
/// every line of it: block pruning on (GridNeighborhoodIndex, and the capped
/// grouping stage with `use_index`, the default) and off
/// (BruteForceNeighborhood, the Lemma 3 "no index" scan). Lists equal the
/// per-pair loop
///   { j : j == i || dist(store, i, j) ≤ ε }
/// in ascending order, for every kernel, thread count, chunk capacity and
/// residency cap.
///
/// Symmetry. Refining each unordered pair once, from its lower position, is
/// exact because the membership test is symmetric:
/// dist(i, j) ≤ ε ⇔ dist(j, i) ≤ ε. Every kernel evaluates a pair in the
/// Lemma 2 roles (Li the longer) that distance::internal::CrossCanonicalSwap
/// assigns, reading each segment's columns only through its role, so
/// whenever that decision is antisymmetric (i takes Li as the query iff it
/// takes Li as the candidate) both directions run the same operations on the
/// same bits. The decision orders by length, then by id, then by endpoints,
/// and is antisymmetric except in two cases, in which each direction keeps
/// its query as Li:
///   (a) the lengths are equal, the endpoints compare equal (LexLess is
///       false both ways) and the ids are not distinct and non-negative.
///       Endpoints that compare equal differ at most in the sign of a zero
///       coordinate, so both role orders read equal values and give equal
///       totals, differing at most in the sign of zero, which ≤ ε does not
///       tell apart;
///   (b) a length is NaN (both length compares fail). Then the total is NaN
///       either way, and the pair is in neither list.
/// tests/segment_distance_test.cc pins the premise on adversarial pairs:
/// both directions are bit-equal and every kernel decides ≤ ε alike.
///
/// Memory. One cached ε-graph, whose size cluster/block_graph.h bounds, the
/// layout copy (an eager store's sorted copy; a chunked store's permuted
/// copy, whose catalog is resident and whose chunks obey the residency
/// cap), and one round's scratch: the runs of its query blocks and the block
/// pairs they hit.
///
/// Residency and faults (chunked store). Only the calling thread pins. A
/// round pins its query chunk, then each window's other chunks, the ones
/// the cache already owns first (ChunkedSegmentStore::ResidentChunk), then
/// the missing ones, so a fault never evicts a chunk the same window still
/// needs. Every window holds at most max_resident_chunks chunks, the query
/// chunk included, and the LRU cache never owns more than its cap, so the
/// read store's peak_resident_chunks() ≤ cap. The query chunk stays pinned
/// for its whole round; once the cache evicts it, it is the one chunk alive
/// beyond the cap. The pin sequence depends only on the catalog and ε, so
/// chunk_faults() depends only on the sequence of ε values asked for (one
/// build per change of ε, none per call), never on the thread count or the
/// batches. With the Morton layout the join faults only its copy; building
/// the copy faults nothing. A spill-file I/O failure while copying or
/// faulting is a process-level failure (the provider interface has no error
/// channel); it aborts via TRACLUS_CHECK.
///
/// Threading. The layout is built once under std::call_once and immutable
/// afterwards. Neighbors and NeighborsBatch serve from the graph of their
/// ε, built on the first call at that ε across the caller's pool (inline for
/// Neighbors) and replaced when ε changes (BlockGraphCache: concurrent first
/// calls build it once). AllNeighbors builds a graph for the call, and
/// AllNeighborhoodSizes counts the bits of the block pairs as the join finds
/// them, keeping no graph (HitCounts). Chunk faults synchronize inside
/// ChunkedSegmentStore. Every method may be called concurrently.
class TileJoin : public NeighborhoodProvider {
 public:
  /// Both referents must outlive the join. `kernel` selects the batch
  /// refinement kernel (results identical for every choice).
  TileJoin(const traj::SegmentStore& store,
           const distance::SegmentDistance& dist, bool prune_blocks,
           distance::BatchKernel kernel)
      : store_(&store),
        n_(store.size()),
        dist_(dist),
        prune_blocks_(prune_blocks),
        kernel_(kernel) {}

  /// The join over a finalized ChunkedSegmentStore, under its residency
  /// cap. Both referents must outlive the join.
  TileJoin(const traj::ChunkedSegmentStore& store,
           const distance::SegmentDistance& dist, bool prune_blocks,
           distance::BatchKernel kernel)
      : chunked_(&store),
        n_(store.size()),
        dist_(dist),
        prune_blocks_(prune_blocks),
        kernel_(kernel) {}

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;
  size_t size() const override { return n_; }

  /// The chunked store the join reads and faults, building the layout if no
  /// query has yet: the Morton-ordered copy, or the bound store itself in
  /// index order. Null for a join bound to a SegmentStore.
  const traj::ChunkedSegmentStore* read_store() const;

 private:
  using ChunkPin = std::shared_ptr<const traj::SegmentStore>;
  /// The layout and the store the join reads, in layout order, cut into
  /// chunks: `whole` as one chunk, or the chunks of `chunked`.
  struct Layout {
    BlockLayout blocks;
    ChunkPin whole;
    const traj::ChunkedSegmentStore* chunked = nullptr;
    std::unique_ptr<traj::ChunkedSegmentStore> permuted;  // Owns `chunked`.

    size_t num_chunks() const;
    size_t chunk_begin(size_t c) const;
    size_t chunk_end(size_t c) const;
    size_t chunk_of(size_t p) const;
    /// Chunks pinned at once: the residency cap, or every chunk.
    size_t window() const;
    /// Chunk c if nothing has to be faulted for it, else null.
    ChunkPin Resident(size_t c) const;
    ChunkPin Pin(size_t c) const;
  };
  const Layout& layout() const;
  void BuildLayout() const;
  /// Runs the symmetric join (see the file comment): calls visit(a, hits)
  /// across `pool` for each block a once per round holding a position of
  /// a, where `hits` are the pairs (b, rows) with b ≥ a, ascending, whose
  /// rows hold the pairs p < q the round accepted (p in block a and in the
  /// round's chunk, q in block b). The diagonal pair (a, a) always comes
  /// first, even without a bit. `visit` may take the contents of `hits`.
  template <typename Visit>
  void ForEachUpperBlock(double eps, common::ThreadPool& pool,
                         const Visit& visit) const;
  std::shared_ptr<const BlockGraph> BuildGraph(double eps,
                                               common::ThreadPool& pool) const;
  /// The graph of `eps` for Neighbors and NeighborsBatch.
  std::shared_ptr<const BlockGraph> GraphFor(double eps,
                                             common::ThreadPool& pool) const;

  const traj::SegmentStore* store_ = nullptr;
  const traj::ChunkedSegmentStore* chunked_ = nullptr;
  const size_t n_;
  const distance::SegmentDistance& dist_;
  const bool prune_blocks_;
  const distance::BatchKernel kernel_;
  mutable std::once_flag layout_once_;
  mutable Layout layout_;
  mutable BlockGraphCache graphs_;
};

/// The join with block pruning off: every query walks every index after its
/// own (still through the per-pair lower-bound prune). The "no index"
/// configuration of Lemma 3 (O(n²) clustering) and the oracle that property
/// tests compare the pruned join against.
class BruteForceNeighborhood : public TileJoin {
 public:
  BruteForceNeighborhood(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto)
      : TileJoin(store, dist, /*prune_blocks=*/false, kernel) {}
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBORHOOD_H_
