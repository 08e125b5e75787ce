#include "cluster/chunked_neighborhood.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

constexpr size_t kBlock = BlockLayout::kBlock;

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

// Ors `hits` into `upper`, both ascending by block.
void OrInto(const std::vector<BlockPair>& hits,
            std::vector<BlockPair>& upper) {
  std::vector<BlockPair> merged;
  merged.reserve(upper.size() + hits.size());
  auto u = upper.begin();
  for (const BlockPair& hit : hits) {
    while (u != upper.end() && u->block < hit.block) merged.push_back(*u++);
    BlockPair pair = hit;
    if (u != upper.end() && u->block == hit.block) {
      for (size_t r = 0; r < kBlock; ++r) pair.rows[r] |= u->rows[r];
      ++u;
    }
    merged.push_back(pair);
  }
  merged.insert(merged.end(), u, upper.end());
  upper.swap(merged);
}

BlockLayout LayoutOf(const traj::ChunkedSegmentStore& store,
                     const distance::SegmentDistance& dist, bool use_index) {
  TRACLUS_CHECK(store.finalized());
  // The catalog columns are bit-identical to the monolithic store's, so the
  // Morton layout equals the eager join's over the merged store. Without a
  // lower bound no block is ever skipped, so it would only cost the sort.
  return use_index && dist.LowerBoundFactor() > 0.0
             ? BlockLayout::Morton(store)
             : BlockLayout(store.size());
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
      kernel_(distance::ResolveBatchKernel(kernel)),
      layout_(LayoutOf(store, dist, use_index)) {
  for (int d = 0; d < store_.dims(); ++d) {
    mid_[d] = layout_.Permuted(store_.midpoint_coords(d));
    dir_[d] = layout_.Permuted(store_.direction_coords(d));
  }
  half_ = layout_.Permuted(store_.half_lengths());
  len_ = layout_.Permuted(store_.lengths());
  TRACLUS_CHECK_LE(store_.size(), size_t{UINT32_MAX});
  slot_at_.reserve(store_.size());
  for (const size_t i : layout_.order()) {
    const size_t c = store_.chunk_of(i);
    slot_at_.push_back({static_cast<uint32_t>(c),
                        static_cast<uint32_t>(i - store_.chunk_begin(c))});
  }
}

void ChunkedNeighborhood::Candidates(
    size_t pq, const std::vector<distance::IndexRun>& blocks, double eps,
    std::vector<size_t>* out, std::vector<Run>* runs) const {
  // Per-thread scratch: surviving positions and per-chunk counters (left
  // zeroed between queries).
  thread_local std::vector<size_t> found;
  thread_local std::vector<uint32_t> chunk_count;
  thread_local std::vector<size_t> touched;
  chunk_count.resize(store_.num_chunks(), 0u);

  distance::PruneColumns columns;
  columns.dims = store_.dims();
  for (int d = 0; d < columns.dims; ++d) {
    columns.mid[d] = mid_[d].data();
    columns.dir[d] = dir_[d].data();
  }
  columns.half = half_.data();
  columns.len = len_.data();
  distance::PruneRuns(columns, pq, dist_, eps, blocks, found, kernel_);
  const size_t m = found.size();

  // Counting sort by chunk: one run per touched chunk, ascending, holding
  // chunk-local indices. Order inside a run is irrelevant (accepted pairs
  // only set bits).
  const size_t* survivor = found.data();
  const Slot* slot = slot_at_.data();
  uint32_t* count = chunk_count.data();
  touched.clear();
  for (size_t s = 0; s < m; ++s) {
    const uint32_t c = slot[survivor[s]].chunk;
    if (count[c]++ == 0) touched.push_back(c);
  }
  std::sort(touched.begin(), touched.end());
  out->resize(m);
  size_t offset = 0;
  for (const size_t c : touched) {
    runs->push_back({c, offset, offset + count[c]});
    offset += count[c];
    count[c] = static_cast<uint32_t>(offset - count[c]);  // Cursor.
  }
  size_t* local = out->data();
  for (size_t s = 0; s < m; ++s) {
    const Slot at = slot[survivor[s]];
    local[count[at.chunk]++] = at.local;
  }
  for (const size_t c : touched) count[c] = 0;
}

template <typename Visit>
void ChunkedNeighborhood::ForEachRound(double eps, common::ThreadPool& pool,
                                       const Visit& visit) const {
  const double reach = distance::PruneReach(dist_, eps);
  // Without a lower bound the layout is the index order and every later
  // position is a candidate: each query's candidates are then whole
  // chunk-local ranges, refined without materializing them.
  const bool prunes = dist_.LowerBoundFactor() > 0.0;
  distance::BatchOptions options;
  options.kernel = kernel_;
  const size_t num_chunks = store_.num_chunks();
  const size_t cap = store_.options().max_resident_chunks;
  const size_t window = cap > 0 ? cap : num_chunks;
  std::vector<ChunkPin> pinned(num_chunks);
  for (size_t qc = 0; qc < num_chunks; ++qc) {
    // The round's queries: the positions of chunk qc's segments, ascending,
    // and the groups of them that share a block.
    const size_t base = store_.chunk_begin(qc);
    const size_t m = store_.chunk_size(qc);
    std::vector<size_t> queries(m);
    for (size_t k = 0; k < m; ++k) queries[k] = layout_.position(base + k);
    std::sort(queries.begin(), queries.end());
    std::vector<size_t> groups;
    for (size_t k = 0; k < m; ++k) {
      if (k == 0 || queries[k] / kBlock != queries[k - 1] / kBlock) {
        groups.push_back(k);
      }
    }
    groups.push_back(m);

    // 1. The upper candidates, split into per-chunk runs, and the chunks
    //    they touch. A group shares its block's runs.
    std::vector<std::vector<size_t>> candidates(m);
    std::vector<std::vector<Run>> runs(m);
    if (prunes) {
      pool.ParallelForChunked(0, groups.size() - 1, [&](size_t lo, size_t hi) {
        std::vector<distance::IndexRun> upper;
        for (size_t g = lo; g < hi; ++g) {
          layout_.UpperRuns(queries[groups[g]] / kBlock, reach, upper);
          for (size_t k = groups[g]; k < groups[g + 1]; ++k) {
            // Only the positions after the query: the first run starts at
            // its block.
            upper.front().first = queries[k] + 1;
            Candidates(queries[k], upper, eps, &candidates[k], &runs[k]);
          }
        }
      });
    } else {
      // Index order: the query's own chunk after it, then every later
      // chunk whole.
      for (size_t k = 0; k < m; ++k) {
        const size_t after = slot_at_[queries[k]].local + 1;
        if (after < m) runs[k].push_back({qc, after, m});
        for (size_t c = qc + 1; c < num_chunks; ++c) {
          runs[k].push_back({c, 0, store_.chunk_size(c)});
        }
      }
    }
    std::vector<char> touched(num_chunks, 0);
    for (const std::vector<Run>& query_runs : runs) {
      for (const Run& run : query_runs) touched[run.chunk] = 1;
    }
    std::vector<size_t> walk;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (touched[c]) walk.push_back(c);
    }
    if (walk.empty()) continue;
    if (qc % 2 == 1) std::reverse(walk.begin(), walk.end());

    // 2. The touched chunks in walk order, a window of up to
    //    max_resident_chunks at a time (pinning that many distinct chunks,
    //    resident ones first, evicts none of them, so every pin stays
    //    cache-owned), each window refined in one pass across the pool. The
    //    query chunk stays pinned for the round and serves its own window
    //    slot. A query's runs all go to one worker, so each accepted list
    //    has one writer.
    ChunkPin query_chunk = store_.ResidentChunk(qc);
    if (query_chunk == nullptr) query_chunk = PinChunk(store_, qc);
    std::vector<std::vector<size_t>> accepted(m);
    for (size_t w0 = 0; w0 < walk.size(); w0 += window) {
      const size_t w1 = std::min(walk.size(), w0 + window);
      std::vector<size_t> chunks;
      for (size_t w = w0; w < w1; ++w) {
        if (walk[w] == qc) {
          pinned[qc] = query_chunk;
        } else {
          chunks.push_back(walk[w]);
        }
      }
      PinResidentFirst(store_, chunks, [&pinned](size_t c, ChunkPin pin) {
        pinned[c] = std::move(pin);
      });
      // The window's chunks are the touched chunks with ids in [first, last].
      const size_t first = std::min(walk[w0], walk[w1 - 1]);
      const size_t last = std::max(walk[w0], walk[w1 - 1]);
      pool.ParallelForChunked(0, m, [&](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k) {
          const std::vector<Run>& query_runs = runs[k];
          const size_t local = slot_at_[queries[k]].local;
          auto run = std::lower_bound(
              query_runs.begin(), query_runs.end(), first,
              [](const Run& r, size_t c) { return r.chunk < c; });
          for (; run != query_runs.end() && run->chunk <= last; ++run) {
            const size_t out_base = store_.chunk_begin(run->chunk);
            if (prunes) {
              distance::EpsilonRefineCross(
                  *query_chunk, dist_, local, *pinned[run->chunk],
                  common::Span<const size_t>(candidates[k].data() + run->begin,
                                             run->end - run->begin),
                  eps, out_base, accepted[k], options);
            } else {
              const distance::IndexRun range{run->begin, run->end};
              distance::EpsilonRefineRuns(*query_chunk, dist_, local,
                                          *pinned[run->chunk], {&range, 1}, eps,
                                          out_base, accepted[k], options);
            }
          }
        }
      });
      for (size_t w = w0; w < w1; ++w) pinned[walk[w]].reset();
    }
    query_chunk.reset();
    std::vector<std::vector<size_t>>().swap(candidates);

    // 3. Each block's accepted pairs into the rows of its block pairs, as
    //    (block b, row, bit) keys sorted by block.
    pool.ParallelForChunked(0, groups.size() - 1, [&](size_t lo, size_t hi) {
      std::vector<uint64_t> keys;
      std::vector<BlockPair> hits;
      for (size_t g = lo; g < hi; ++g) {
        keys.clear();
        for (size_t k = groups[g]; k < groups[g + 1]; ++k) {
          const uint64_t row = queries[k] % kBlock;
          for (const size_t i : accepted[k]) {
            const uint64_t q = layout_.position(i);
            keys.push_back((q / kBlock) << 8 | row << 4 | q % kBlock);
          }
        }
        if (keys.empty()) continue;
        std::sort(keys.begin(), keys.end());
        hits.clear();
        for (const uint64_t key : keys) {
          const auto b = static_cast<uint32_t>(key >> 8);
          if (hits.empty() || hits.back().block != b) {
            hits.push_back({b, BlockRows{}});
          }
          hits.back().rows[(key >> 4) % kBlock] |=
              static_cast<uint16_t>(1u << (key % kBlock));
        }
        visit(queries[groups[g]] / kBlock, hits);
      }
    });
  }
}

std::shared_ptr<const BlockGraph> ChunkedNeighborhood::GraphFor(
    double eps, common::ThreadPool& pool) const {
  return graphs_.Get(eps, [&] {
    std::vector<std::vector<BlockPair>> upper(layout_.num_blocks());
    for (size_t a = 0; a < upper.size(); ++a) {
      upper[a] = {{static_cast<uint32_t>(a), BlockRows{}}};
    }
    // A round visits each block at most once, so each upper[a] has one
    // writer.
    ForEachRound(eps, pool,
                 [&upper](size_t a, const std::vector<BlockPair>& hits) {
                   OrInto(hits, upper[a]);
                 });
    return std::make_shared<const BlockGraph>(eps, store_.size(),
                                              std::move(upper));
  });
}

std::vector<size_t> ChunkedNeighborhood::Neighbors(size_t query_index,
                                                   double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
  return GraphFor(eps, common::SharedPool(1))
      ->ListOf(layout_, layout_.position(query_index));
}

std::vector<std::vector<size_t>> ChunkedNeighborhood::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  if (queries.empty()) return {};
  return GraphFor(eps, pool)->Lists(layout_, queries, pool);
}

std::vector<std::vector<size_t>> ChunkedNeighborhood::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  return GraphFor(eps, pool)->AllLists(layout_, pool);
}

std::vector<size_t> ChunkedNeighborhood::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  HitCounts counts(store_.size());
  ForEachRound(eps, pool,
               [&counts](size_t a, const std::vector<BlockPair>& hits) {
                 counts.Add(a, hits);
               });
  return counts.Sizes(layout_);
}

}  // namespace traclus::cluster
