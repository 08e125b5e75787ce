#include "cluster/chunked_neighborhood.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Queries per NeighborsBatch slice of AllNeighbors / AllNeighborhoodSizes
// (DBSCAN's default fetch block).
constexpr size_t kSliceQueries = 1024;

// Pins chunk c; a spill I/O failure has no channel to the provider API.
std::shared_ptr<const traj::SegmentStore> PinChunk(
    const traj::ChunkedSegmentStore& store, size_t c) {
  auto chunk = store.Chunk(c);
  TRACLUS_CHECK(chunk.ok());
  return *std::move(chunk);
}

// Per-thread state of candidate generation; see Candidates().
struct CandidateScratch {
  std::vector<uint32_t> visit_stamp;
  uint32_t stamp = 0;
  std::vector<uint32_t> chunk_count;
  std::vector<size_t> found;
  std::vector<size_t> touched;
};

// Copies the batch's query segments, in batch order, into one batch-local
// store, pinning each query chunk once in ascending index order. The store
// constructor recomputes every invariant from the same endpoint doubles, so
// the columns are bit-exact copies of the chunk stores'.
traj::SegmentStore GatherQueries(const traj::ChunkedSegmentStore& store,
                                 const std::vector<size_t>& queries) {
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&queries](size_t a, size_t b) { return queries[a] < queries[b]; });
  std::vector<geom::Segment> segments(queries.size());
  std::shared_ptr<const traj::SegmentStore> chunk;
  size_t pinned = 0;
  for (const size_t k : order) {
    const size_t c = store.chunk_of(queries[k]);
    if (chunk == nullptr || c != pinned) {
      chunk.reset();  // Drop the old pin first: one pin at a time.
      chunk = PinChunk(store, c);
      pinned = c;
    }
    segments[k] = chunk->segment(queries[k] - store.chunk_begin(c));
  }
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
                                         bool use_index, double cell_size,
                                         distance::BatchKernel kernel)
    : store_(store),
      dist_(dist),
      // The shared resolve helper (distance::ResolveBatchKernel), not a
      // provider-local decision: capped streaming runs must honor the knob
      // with exactly the eager path's semantics.
      kernel_(distance::ResolveBatchKernel(kernel)) {
  TRACLUS_CHECK(store.finalized());
  // The catalog MBRs are bit-identical to the monolithic store's, so this
  // grid's cells equal GridNeighborhoodIndex's over the merged store.
  if (use_index) grid_.emplace(store_.bboxes(), store_.dims(), cell_size);
}

void ChunkedNeighborhood::Candidates(size_t query, double radius,
                                     std::vector<size_t>* out,
                                     std::vector<Run>* runs) const {
  // Per-thread scratch, reset lazily: dedup stamps over the catalog (one
  // segment can span several cells) and per-chunk candidate counters.
  thread_local CandidateScratch scratch;
  scratch.visit_stamp.resize(store_.size(), 0u);
  scratch.chunk_count.resize(store_.num_chunks(), 0u);
  if (++scratch.stamp == 0) {  // Wrap-around: reset once every 2^32 queries.
    std::fill(scratch.visit_stamp.begin(), scratch.visit_stamp.end(), 0u);
    scratch.stamp = 1;
  }
  const uint32_t stamp = scratch.stamp;

  // The monolithic grid walk and MBR prune, reading only catalog MBRs.
  const geom::BBox& qbox = store_.bbox(query);
  std::vector<size_t>& found = scratch.found;
  std::vector<size_t>& touched = scratch.touched;
  found.clear();
  touched.clear();
  grid_->ForEachInReach(qbox, radius, [&](size_t i) {
    if (scratch.visit_stamp[i] == stamp) return;
    scratch.visit_stamp[i] = stamp;
    if (i == query || store_.bbox(i).MinDist(qbox) > radius) return;
    const size_t c = store_.chunk_of(i);
    if (scratch.chunk_count[c]++ == 0) touched.push_back(c);
    found.push_back(i);
  });

  // Counting sort by chunk: one run per touched chunk, ascending, holding
  // chunk-local indices. Order inside a run is irrelevant (lists are sorted
  // at the end).
  std::sort(touched.begin(), touched.end());
  out->resize(found.size());
  size_t offset = 0;
  for (const size_t c : touched) {
    const size_t count = scratch.chunk_count[c];
    runs->push_back({c, offset, offset + count});
    scratch.chunk_count[c] = static_cast<uint32_t>(offset);  // Cursor.
    offset += count;
  }
  for (const size_t i : found) {
    const size_t c = store_.chunk_of(i);
    (*out)[scratch.chunk_count[c]++] = i - store_.chunk_begin(c);
  }
  for (const size_t c : touched) scratch.chunk_count[c] = 0;
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
  const double factor = dist_.LowerBoundFactor();
  // No usable lower bound: the grid cannot prune, so every segment is a
  // candidate — the scan configuration's schedule.
  const bool scan = !grid_.has_value() || factor <= 0.0;

  // 1. Candidates from the catalog, split into per-chunk runs, and the
  //    chunks they touch.
  const size_t num_chunks = store_.num_chunks();
  std::vector<std::vector<size_t>> candidates;
  std::vector<std::vector<Run>> runs;
  std::vector<char> touched(num_chunks, scan ? 1 : 0);
  if (!scan) {
    candidates.resize(n);
    runs.resize(n);
    const double radius = eps / factor;
    pool.ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; ++k) {
        Candidates(queries[k], radius, &candidates[k], &runs[k]);
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

  // 3. The touched candidate chunks in walk order, pinned from this thread
  //    only, a window of up to max_resident_chunks at a time (pinning that
  //    many distinct chunks evicts none of them, so every pin stays
  //    cache-owned), each window refined in one pass across the pool. A
  //    query's runs all go to one worker, so each list has one writer.
  const size_t cap = store_.options().max_resident_chunks;
  const size_t window = cap > 0 ? cap : num_chunks;
  std::vector<std::shared_ptr<const traj::SegmentStore>> pinned(num_chunks);
  for (size_t w0 = 0; w0 < walk.size(); w0 += window) {
    const size_t w1 = std::min(walk.size(), w0 + window);
    for (size_t w = w0; w < w1; ++w) {
      pinned[walk[w]] = PinChunk(store_, walk[w]);
    }
    // The window's chunks are the touched chunks with ids in [first, last].
    const size_t first = std::min(walk[w0], walk[w1 - 1]);
    const size_t last = std::max(walk[w0], walk[w1 - 1]);
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
    for (size_t w = w0; w < w1; ++w) pinned[walk[w]].reset();
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
