#ifndef TRACLUS_TRAJ_CHUNKED_STORE_H_
#define TRACLUS_TRAJ_CHUNKED_STORE_H_

// ChunkedSegmentStore: the out-of-core growth of traj::SegmentStore.
//
// The monolithic store freezes the whole segment database — every invariant
// column resident — before the grouping phase starts. The chunked store keeps
// that contract per chunk instead: segments are appended in arrival order
// into fixed-capacity chunks, and each sealed chunk can be materialized as a
// chunk-local SegmentStore whose flat coordinate/invariant columns are each a
// bit-exact slice of what the monolithic store would hold for the same index
// range (tests/chunked_store_test.cc pins this). A chunk is therefore a valid
// kernel slice: the batched distance kernels (distance/batch_kernels.h) run
// over it unchanged.
//
// Two storage regimes, selected by ChunkedStoreOptions::max_resident_chunks:
//
//   * Unbounded (0, the default): sealed chunks retain their raw segments in
//     memory; Merge() rebuilds the monolithic store for the existing
//     grouping stages. Streaming ingest still never materializes a
//     TrajectoryDatabase — only segments are held.
//   * Bounded (> 0): a sealed chunk's raw segment records are spilled to an
//     anonymous temp file and freed; Chunk(c) faults a chunk back in by
//     rebuilding its SegmentStore from the raw records (bit-identical, since
//     the invariants are recomputed by the same constructor from the same
//     endpoint doubles). An LRU cache bounds residency: at most
//     max_resident_chunks chunk stores are cache-owned at any instant —
//     eviction happens before a faulted chunk is inserted, so
//     peak_resident_chunks() ≤ max_resident_chunks by construction.
//
// The *catalog* — per-segment half-length, midpoint, ids and weight — is
// always resident regardless of regime. Those are exactly the columns the
// query side needs without touching payload chunks: the block index
// (cluster/block_layout.h) reads midpoints and half-lengths, DBSCAN's
// density and cardinality read weights and trajectory ids. Payload chunks
// (endpoints, lengths, directions, the AoS segment view) are only faulted
// for the ε-join's per-pair prune and exact refinement, which is what makes
// bounded mode genuinely out-of-core for the hot phase.
//
// Permuted(order) copies the store into another order with the same shape,
// gathering raw records by fixed-width offset the way Merge() reads them
// (never through the reader cache). The ε-join (cluster::TileJoin) reads a
// Morton-ordered copy, so a block of its layout is a run of positions inside
// one or two chunks.
//
// Pin semantics: Chunk() returns a shared_ptr. The cache's residency
// accounting covers cache-owned entries only (buffer-pool style) — a caller
// still holding a pin keeps an evicted chunk alive until the pin drops, so
// concurrent readers can transiently exceed the cap by their own pins, never
// by cache growth.
//
// Thread-compatibility: Append/Finalize are single-writer (the ingest loop);
// after Finalize, catalog reads are lock-free and Chunk()/Merge() are safe
// for any number of concurrent readers (one internal mutex serializes cache
// and spill-file traffic).

#include <array>
#include <cstddef>
#include <cstdio>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "traj/segment_store.h"

namespace traclus::traj {

/// Shape of a ChunkedSegmentStore.
struct ChunkedStoreOptions {
  /// Segments per chunk. 0 = unbounded: the whole database is one chunk
  /// (the eager layout, expressed in the chunked API).
  size_t chunk_capacity = 0;
  /// Maximum chunk stores the reader cache may own at once. 0 = unbounded
  /// (no spill file; sealed chunks stay in memory). > 0 enables spill-backed
  /// cold chunks with LRU residency ≤ this cap.
  size_t max_resident_chunks = 0;
};

/// Append-oriented, chunk-sliced segment database with an always-resident
/// catalog and bounded-residency payload chunks. See the file comment.
class ChunkedSegmentStore {
 public:
  explicit ChunkedSegmentStore(const ChunkedStoreOptions& options = {});
  ~ChunkedSegmentStore();

  ChunkedSegmentStore(const ChunkedSegmentStore&) = delete;
  ChunkedSegmentStore& operator=(const ChunkedSegmentStore&) = delete;

  // --- Ingest (single writer, before Finalize) --------------------------

  /// Appends one segment. Seals (and in bounded mode spills) the open chunk
  /// when it reaches chunk_capacity. Mixed dimensionality is a typed error.
  common::Status Append(const geom::Segment& segment);

  /// Appends a batch in order.
  common::Status AppendAll(const std::vector<geom::Segment>& segments);

  /// Seals the open chunk and freezes the store; required before any
  /// Chunk()/Merge() call. Idempotent error: appending after Finalize is a
  /// FailedPrecondition.
  common::Status Finalize();

  bool finalized() const { return finalized_; }

  const ChunkedStoreOptions& options() const { return options_; }

  // --- Catalog (always resident; lock-free after Finalize) --------------

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Spatial dimensionality (2 when empty, matching SegmentStore).
  int dims() const { return dims_ == 0 ? 2 : dims_; }

  size_t num_chunks() const { return chunk_count_; }
  /// Chunk holding global segment index i.
  size_t chunk_of(size_t i) const {
    return options_.chunk_capacity == 0 ? 0 : i / options_.chunk_capacity;
  }
  /// Global index of chunk c's first segment.
  size_t chunk_begin(size_t c) const {
    return options_.chunk_capacity == 0 ? 0 : c * options_.chunk_capacity;
  }
  /// Number of segments in chunk c (only the last chunk may be short).
  size_t chunk_size(size_t c) const;

  /// Catalog invariants, bit-identical to the monolithic SegmentStore's
  /// columns for the same indices (computed by the same expressions).
  double half_length(size_t i) const { return half_length_[i]; }
  double weight(size_t i) const { return weight_[i]; }
  geom::SegmentId id(size_t i) const { return id_[i]; }
  geom::TrajectoryId trajectory_id(size_t i) const {
    return trajectory_id_[i];
  }

  const std::vector<double>& half_lengths() const { return half_length_; }
  const std::vector<double>& weights() const { return weight_; }
  const std::vector<geom::TrajectoryId>& trajectory_ids() const {
    return trajectory_id_;
  }
  /// Flat midpoint coordinate columns (zero-filled for d ≥ dims()), read by
  /// the block index.
  const std::vector<double>& midpoint_coords(int d) const {
    TRACLUS_DCHECK(d >= 0 && d < geom::kMaxDims);
    return midpoint_c_[d];
  }

  // --- Reader (after Finalize; thread-safe) -----------------------------

  /// Faults chunk c resident (LRU, evict-before-insert) and returns its
  /// chunk-local SegmentStore. Index i of the returned store corresponds to
  /// global index chunk_begin(c) + i; every column is a bit-exact slice of
  /// the monolithic store.
  common::Result<std::shared_ptr<const SegmentStore>> Chunk(size_t c) const
      TRACLUS_EXCLUDES(mu_);

  /// Chunk c's store if the reader cache owns it, else null; never faults.
  /// A hit touches c's LRU entry exactly as a hit of Chunk() does, so a
  /// caller can pin the resident chunks it needs before faulting the rest.
  std::shared_ptr<const SegmentStore> ResidentChunk(size_t c) const
      TRACLUS_EXCLUDES(mu_);

  /// Chunk stores currently owned by the reader cache.
  size_t resident_chunks() const TRACLUS_EXCLUDES(mu_);
  /// High-water mark of cache-owned chunks — bounded mode promises this
  /// stays ≤ max_resident_chunks (tests assert it).
  size_t peak_resident_chunks() const TRACLUS_EXCLUDES(mu_);
  /// Chunk faults: Chunk() calls that missed the reader cache and rebuilt
  /// the chunk store from its raw records (spilled or in memory). Merge()
  /// reads every chunk without faulting any.
  size_t chunk_faults() const TRACLUS_EXCLUDES(mu_);

  /// Rebuilds the monolithic SegmentStore from all chunks (in bounded mode,
  /// streaming the spill file). Bit-identical to freezing the same segments
  /// eagerly; the unbounded grouping path runs on this.
  common::Result<SegmentStore> Merge() const TRACLUS_EXCLUDES(mu_);

  /// A finalized copy in which index k holds segment order[k], with the same
  /// options (chunk capacity, residency cap, and so its own spill file in
  /// bounded mode). `order` must be a permutation of [0, size()), else
  /// InvalidArgument. The copy's segments and catalog entries are this
  /// store's values, copied, so every column of the copy equals this store's
  /// column permuted, bit for bit.
  /// Raw records are gathered by offset as Merge() reads them, each chunk of
  /// the copy in place from a few records per read: no chunk is faulted, the
  /// reader cache and its counters are untouched, and at most one chunk of
  /// raw records (the copy's open chunk) is held at a time.
  common::Result<std::unique_ptr<ChunkedSegmentStore>> Permuted(
      const std::vector<size_t>& order) const TRACLUS_EXCLUDES(mu_);

 private:
  struct ChunkMeta {
    size_t count = 0;
    /// Raw segments (unbounded mode, and the open chunk during ingest).
    std::vector<geom::Segment> raw;
    bool spilled = false;
    long spill_offset = 0;  ///< Byte offset of this chunk in the spill file.
  };

  /// Seals the open chunk; in bounded mode writes its raw records to the
  /// spill file and frees them (taking mu_ for the spill-file traffic —
  /// once per chunk, off the per-segment path).
  common::Status SealOpenChunk() TRACLUS_EXCLUDES(mu_);

  /// Loads the raw segments [first, first + count) of chunk c (from memory
  /// or the spill file) into `out`. The spill-file handle is seek/read
  /// shared state, so every load runs under mu_ — enforced statically.
  common::Status LoadRaw(size_t c, size_t first, size_t count,
                         std::vector<geom::Segment>* out) const
      TRACLUS_REQUIRES(mu_);

  /// The cache-owned store of chunk c, moved to the LRU front; null on a
  /// miss.
  std::shared_ptr<const SegmentStore> TouchLocked(size_t c) const
      TRACLUS_REQUIRES(mu_);

  ChunkedStoreOptions options_;
  bool finalized_ = false;
  size_t size_ = 0;
  size_t chunk_count_ = 0;
  int dims_ = 0;  // 0 = not yet determined.

  // Catalog columns.
  std::vector<double> half_length_;
  std::vector<double> weight_;
  std::vector<geom::SegmentId> id_;
  std::vector<geom::TrajectoryId> trajectory_id_;
  std::array<std::vector<double>, geom::kMaxDims> midpoint_c_;

  // Payload chunks (chunks_.back() is the open chunk until sealed). Mutated
  // only by the single-writer ingest phase; structurally immutable after
  // Finalize (readers touch only per-chunk raw/spill metadata, under mu_ via
  // LoadRaw). Not lock-guarded so the per-segment Append path stays
  // synchronization-free.
  std::vector<ChunkMeta> chunks_;

  // Reader cache + spill file. mu_ serializes all cache and spill-file
  // traffic: the FILE* position is shared mutable state (fseek/fread and the
  // seal-time fseek/fwrite), and the LRU/cache/peak counters are mutated by
  // concurrent readers.
  mutable common::Mutex mu_;
  std::FILE* spill_ TRACLUS_GUARDED_BY(mu_) = nullptr;
  /// Next write offset in the spill file.
  long spill_tail_ TRACLUS_GUARDED_BY(mu_) = 0;
  /// LRU over chunk ids; front = most recently used.
  mutable std::list<size_t> lru_ TRACLUS_GUARDED_BY(mu_);
  struct CacheEntry {
    std::list<size_t>::iterator lru_it;
    std::shared_ptr<const SegmentStore> store;
  };
  mutable std::unordered_map<size_t, CacheEntry> cache_
      TRACLUS_GUARDED_BY(mu_);
  mutable size_t peak_resident_ TRACLUS_GUARDED_BY(mu_) = 0;
  mutable size_t faults_ TRACLUS_GUARDED_BY(mu_) = 0;
};

}  // namespace traclus::traj

#endif  // TRACLUS_TRAJ_CHUNKED_STORE_H_
