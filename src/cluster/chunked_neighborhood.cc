#include "cluster/chunked_neighborhood.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Queries per NeighborsBatch slice of AllNeighbors / AllNeighborhoodSizes
// (DBSCAN's default fetch block).
constexpr size_t kSliceQueries = 1024;

using ChunkPin = std::shared_ptr<const traj::SegmentStore>;

// Pins chunk c; a spill I/O failure has no channel to the provider API.
ChunkPin PinChunk(const traj::ChunkedSegmentStore& store, size_t c) {
  auto chunk = store.Chunk(c);
  TRACLUS_CHECK(chunk.ok());
  return *std::move(chunk);
}

// Hands visit(c, pin) every chunk of `chunks`, pinned from the calling
// thread: first the chunks the store's cache already owns (touching their
// LRU entries), then the missing ones, faulted in the given order. A fault
// evicts the least recently used chunk, so it never evicts a chunk visited
// earlier in the same call while the call's chunks fit under the cap.
template <typename Visit>
void PinResidentFirst(const traj::ChunkedSegmentStore& store,
                      const std::vector<size_t>& chunks, const Visit& visit) {
  std::vector<size_t> missing;
  for (const size_t c : chunks) {
    if (ChunkPin pin = store.ResidentChunk(c)) {
      visit(c, std::move(pin));
    } else {
      missing.push_back(c);
    }
  }
  for (const size_t c : missing) visit(c, PinChunk(store, c));
}

// Copies the batch's query segments, in batch order, into one batch-local
// store, holding one query chunk pin at a time. The store constructor
// recomputes every invariant from the same endpoint doubles, so the columns
// are bit-exact copies of the chunk stores'.
traj::SegmentStore GatherQueries(const traj::ChunkedSegmentStore& store,
                                 const std::vector<size_t>& queries) {
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&queries](size_t a, size_t b) { return queries[a] < queries[b]; });
  std::vector<size_t> chunks;  // The query chunks, ascending.
  for (const size_t k : order) {
    const size_t c = store.chunk_of(queries[k]);
    if (chunks.empty() || chunks.back() != c) chunks.push_back(c);
  }
  std::vector<geom::Segment> segments(queries.size());
  PinResidentFirst(store, chunks, [&](size_t c, const ChunkPin& chunk) {
    // `order` ascends by query index, so chunk c's queries are contiguous.
    const size_t base = store.chunk_begin(c);
    auto it = std::partition_point(order.begin(), order.end(),
                                   [&](size_t k) { return queries[k] < base; });
    for (; it != order.end() && queries[*it] < base + chunk->size(); ++it) {
      segments[*it] = chunk->segment(queries[*it] - base);
    }
  });
  return traj::SegmentStore(std::move(segments));
}

// Serves every segment as NeighborsBatch slices of kSliceQueries queries,
// handing each slice's lists to consume(first query, lists).
template <typename Consume>
void ForEachSlice(const ChunkedNeighborhood& provider, double eps,
                  common::ThreadPool& pool, const Consume& consume) {
  std::vector<size_t> slice;
  for (size_t lo = 0; lo < provider.size(); lo += kSliceQueries) {
    slice.resize(std::min(kSliceQueries, provider.size() - lo));
    std::iota(slice.begin(), slice.end(), lo);
    consume(lo, provider.NeighborsBatch(slice, eps, pool));
  }
}

}  // namespace

ChunkedNeighborhood::ChunkedNeighborhood(const traj::ChunkedSegmentStore& store,
                                         const distance::SegmentDistance& dist,
                                         bool use_index,
                                         distance::BatchKernel kernel)
    : store_(store),
      dist_(dist),
      // The shared resolve helper (distance::ResolveBatchKernel), not a
      // provider-local decision: capped streaming runs must honor the knob
      // with exactly the eager path's semantics.
      kernel_(distance::ResolveBatchKernel(kernel)) {
  TRACLUS_CHECK(store.finalized());
  if (!use_index) return;
  // The catalog columns are bit-identical to the monolithic store's, so this
  // layout equals the eager join's over the merged store.
  layout_.emplace(BlockLayout::Morton(store_));
  for (int d = 0; d < store_.dims(); ++d) {
    mid_[d] = layout_->Permuted(store_.midpoint_coords(d));
  }
  half_ = layout_->Permuted(store_.half_lengths());
  chunk_at_.reserve(store_.size());
  for (const size_t i : layout_->order()) {
    chunk_at_.push_back(static_cast<uint32_t>(store_.chunk_of(i)));
  }
}

void ChunkedNeighborhood::Candidates(
    size_t pq, const std::vector<distance::IndexRun>& blocks, double reach,
    std::vector<size_t>* out, std::vector<Run>* runs) const {
  // Per-thread scratch: surviving positions and per-chunk counters (left
  // zeroed between queries).
  thread_local std::vector<size_t> found;
  thread_local std::vector<uint32_t> chunk_count;
  thread_local std::vector<size_t> touched;
  chunk_count.resize(store_.num_chunks(), 0u);

  const double* mid[geom::kMaxDims];
  for (int d = 0; d < store_.dims(); ++d) mid[d] = mid_[d].data();
  distance::PruneRuns({mid, static_cast<size_t>(store_.dims())}, half_.data(),
                      pq, reach, blocks, found);
  const size_t m = found.size();

  // Counting sort by chunk: one run per touched chunk, ascending, holding
  // chunk-local indices. Order inside a run is irrelevant (lists are sorted
  // at the end).
  touched.clear();
  for (size_t s = 0; s < m; ++s) {
    const uint32_t c = chunk_at_[found[s]];
    if (chunk_count[c]++ == 0) touched.push_back(c);
  }
  std::sort(touched.begin(), touched.end());
  out->resize(m);
  size_t offset = 0;
  for (const size_t c : touched) {
    const size_t count = chunk_count[c];
    runs->push_back({c, offset, offset + count});
    chunk_count[c] = static_cast<uint32_t>(offset);  // Cursor.
    offset += count;
  }
  const std::vector<size_t>& order = layout_->order();
  for (size_t s = 0; s < m; ++s) {
    const size_t p = found[s];
    const uint32_t c = chunk_at_[p];
    (*out)[chunk_count[c]++] = order[p] - store_.chunk_begin(c);
  }
  for (const size_t c : touched) chunk_count[c] = 0;
}

void ChunkedNeighborhood::ScanChunk(const traj::SegmentStore& query_store,
                                    size_t k, size_t query, size_t c,
                                    const traj::SegmentStore& chunk,
                                    double eps,
                                    const distance::BatchOptions& options,
                                    std::vector<size_t>* out) const {
  // The whole chunk, split around the query itself, which the batch appends
  // last.
  const size_t base = store_.chunk_begin(c);
  const size_t m = chunk.size();
  const size_t self = store_.chunk_of(query) == c ? query - base : m;
  const distance::IndexRun runs[] = {{0, self}, {std::min(self + 1, m), m}};
  distance::EpsilonRefineRuns(query_store, dist_, k, chunk, {runs, 2}, eps,
                              base, *out, options);
}

std::vector<size_t> ChunkedNeighborhood::Neighbors(size_t query_index,
                                                   double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
  return std::move(
      NeighborsBatch({query_index}, eps, common::SharedPool(1)).front());
}

std::vector<std::vector<size_t>> ChunkedNeighborhood::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(store_.size());
  ForEachSlice(*this, eps, pool,
               [&lists](size_t lo, std::vector<std::vector<size_t>> part) {
                 std::move(part.begin(), part.end(), lists.begin() + lo);
               });
  return lists;
}

std::vector<size_t> ChunkedNeighborhood::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(store_.size());
  ForEachSlice(*this, eps, pool,
               [&sizes](size_t lo, std::vector<std::vector<size_t>> part) {
                 for (size_t k = 0; k < part.size(); ++k) {
                   sizes[lo + k] = part[k].size();
                 }
               });
  return sizes;
}

std::vector<std::vector<size_t>> ChunkedNeighborhood::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  const size_t n = queries.size();
  std::vector<std::vector<size_t>> lists(n);
  if (n == 0) return lists;
  const bool ascending = batches_.fetch_add(1) % 2 == 0;
  distance::BatchOptions options;
  options.kernel = kernel_;
  const double reach = distance::PruneReach(dist_, eps);
  // No usable lower bound: nothing can be pruned, so every segment is a
  // candidate — the scan configuration's schedule.
  const bool scan = !layout_.has_value() || std::isinf(reach);

  // 1. Candidates from the catalog, split into per-chunk runs, and the
  //    chunks they touch. Queries sharing a Morton block share its
  //    candidate block runs.
  const size_t num_chunks = store_.num_chunks();
  std::vector<std::vector<size_t>> candidates;
  std::vector<std::vector<Run>> runs;
  std::vector<char> touched(num_chunks, scan ? 1 : 0);
  if (!scan) {
    candidates.resize(n);
    runs.resize(n);
    const std::vector<BlockLayout::Entry> entries = layout_->Entries(queries);
    layout_->ForEachGroup(
        entries, reach, pool,
        [&](const std::vector<distance::IndexRun>& blocks, size_t first,
            size_t last) {
          for (size_t e = first; e < last; ++e) {
            const size_t k = entries[e].second;
            Candidates(entries[e].first, blocks, reach, &candidates[k],
                       &runs[k]);
          }
        });
    for (const std::vector<Run>& query_runs : runs) {
      for (const Run& run : query_runs) touched[run.chunk] = 1;
    }
  }
  std::vector<size_t> walk;
  for (size_t c = 0; c < num_chunks; ++c) {
    if (touched[c]) walk.push_back(c);
  }
  if (!ascending) std::reverse(walk.begin(), walk.end());

  // 2. The query side of every refine.
  const traj::SegmentStore query_store = GatherQueries(store_, queries);

  // 3. The touched candidate chunks in walk order, a window of up to
  //    max_resident_chunks at a time (pinning that many distinct chunks,
  //    resident ones first, evicts none of them, so every pin stays
  //    cache-owned), each window refined in one pass across the pool. A
  //    query's runs all go to one worker, so each list has one writer.
  const size_t cap = store_.options().max_resident_chunks;
  const size_t window = cap > 0 ? cap : num_chunks;
  std::vector<ChunkPin> pinned(num_chunks);
  for (size_t w0 = 0; w0 < walk.size(); w0 += window) {
    const size_t w1 = std::min(walk.size(), w0 + window);
    const std::vector<size_t> chunks(walk.begin() + w0, walk.begin() + w1);
    PinResidentFirst(store_, chunks, [&pinned](size_t c, ChunkPin pin) {
      pinned[c] = std::move(pin);
    });
    // The window's chunks are the touched chunks with ids in [first, last].
    const size_t first = std::min(chunks.front(), chunks.back());
    const size_t last = std::max(chunks.front(), chunks.back());
    pool.ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; ++k) {
        if (scan) {
          for (size_t c = first; c <= last; ++c) {
            ScanChunk(query_store, k, queries[k], c, *pinned[c], eps,
                      options, &lists[k]);
          }
          continue;
        }
        const std::vector<Run>& query_runs = runs[k];
        auto run = std::lower_bound(
            query_runs.begin(), query_runs.end(), first,
            [](const Run& r, size_t c) { return r.chunk < c; });
        for (; run != query_runs.end() && run->chunk <= last; ++run) {
          distance::EpsilonRefineCross(
              query_store, dist_, k, *pinned[run->chunk],
              common::Span<const size_t>(candidates[k].data() + run->begin,
                                         run->end - run->begin),
              eps, store_.chunk_begin(run->chunk), lists[k], options);
        }
      }
    });
    for (const size_t c : chunks) pinned[c].reset();
  }

  // 4. Definition 4 self-inclusion, then the monolithic ascending order.
  pool.ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      lists[k].push_back(queries[k]);
      std::sort(lists[k].begin(), lists[k].end());
    }
  });
  return lists;
}

}  // namespace traclus::cluster
