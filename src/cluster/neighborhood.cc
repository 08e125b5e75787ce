#include "cluster/neighborhood.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/span.h"

namespace traclus::cluster {

NeighborhoodCache::NeighborhoodCache(const NeighborhoodProvider& base,
                                     double eps, common::ThreadPool& pool)
    : eps_(eps), lists_(base.AllNeighbors(eps, pool)) {}

std::vector<size_t> NeighborhoodCache::Neighbors(size_t query_index,
                                                 double eps) const {
  TRACLUS_DCHECK(query_index < lists_.size());
  TRACLUS_CHECK_EQ(eps, eps_);  // The cache is bound to one ε.
  return lists_[query_index];
}

std::vector<std::vector<size_t>> NeighborhoodCache::AllNeighbors(
    double eps, common::ThreadPool& /*pool*/) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  return lists_;
}

std::vector<size_t> NeighborhoodCache::AllNeighborhoodSizes(
    double eps, common::ThreadPool& /*pool*/) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  std::vector<size_t> sizes(lists_.size());
  for (size_t i = 0; i < lists_.size(); ++i) sizes[i] = lists_[i].size();
  return sizes;
}

std::vector<std::vector<size_t>> NeighborhoodCache::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& /*pool*/) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  std::vector<std::vector<size_t>> lists(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    TRACLUS_DCHECK(queries[k] < lists_.size());
    lists[k] = lists_[queries[k]];
  }
  return lists;
}

const TileJoin::Layout& TileJoin::layout() const {
  std::call_once(layout_once_, [this] { BuildLayout(); });
  return layout_;
}

void TileJoin::BuildLayout() const {
  Layout& l = layout_;
  // Without a lower bound no block is ever skipped, so the Morton order
  // would only cost the sort and the copy.
  const bool morton = prune_blocks_ && dist_.LowerBoundFactor() > 0.0;
  if (chunked_ != nullptr) {
    TRACLUS_CHECK(chunked_->finalized());
    l.blocks = morton ? BlockLayout::Morton(*chunked_) : BlockLayout(n_);
    l.chunked = chunked_;
    if (morton) {
      auto copy = chunked_->Permuted(l.blocks.order());
      TRACLUS_CHECK(copy.ok());
      l.permuted = std::move(copy).ValueOrDie();
      l.chunked = l.permuted.get();
    }
    return;
  }
  l.blocks = morton ? BlockLayout::Morton(*store_) : BlockLayout(n_);
  if (!morton) {
    l.whole = ChunkPin(ChunkPin(), store_);  // Not owned.
    return;
  }
  std::vector<geom::Segment> segments;
  segments.reserve(n_);
  for (const size_t i : l.blocks.order()) {
    segments.push_back(store_->segment(i));
  }
  l.whole = std::make_shared<const traj::SegmentStore>(
      traj::SegmentStore::FromSegments(std::move(segments)));
}

const traj::ChunkedSegmentStore* TileJoin::read_store() const {
  return layout().chunked;
}

size_t TileJoin::Layout::num_chunks() const {
  return chunked != nullptr ? chunked->num_chunks() : 1;
}

size_t TileJoin::Layout::chunk_begin(size_t c) const {
  return chunked != nullptr ? chunked->chunk_begin(c) : 0;
}

size_t TileJoin::Layout::chunk_end(size_t c) const {
  return chunked != nullptr ? chunked->chunk_begin(c) + chunked->chunk_size(c)
                            : whole->size();
}

size_t TileJoin::Layout::chunk_of(size_t p) const {
  return chunked != nullptr ? chunked->chunk_of(p) : 0;
}

size_t TileJoin::Layout::window() const {
  const size_t cap =
      chunked != nullptr ? chunked->options().max_resident_chunks : 0;
  return cap > 0 ? cap : num_chunks();
}

TileJoin::ChunkPin TileJoin::Layout::Resident(size_t c) const {
  return chunked != nullptr ? chunked->ResidentChunk(c) : whole;
}

TileJoin::ChunkPin TileJoin::Layout::Pin(size_t c) const {
  if (chunked == nullptr) return whole;
  auto chunk = chunked->Chunk(c);
  TRACLUS_CHECK(chunk.ok());
  return *std::move(chunk);
}

namespace {

constexpr size_t kBlock = BlockLayout::kBlock;

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

}  // namespace

template <typename Visit>
void TileJoin::ForEachUpperBlock(double eps, common::ThreadPool& pool,
                                 const Visit& visit) const {
  const Layout& l = layout();
  const distance::Reach reach = distance::PruneReach(dist_, eps);
  distance::BatchOptions options;
  options.kernel = kernel_;
  const size_t num_chunks = l.num_chunks();
  std::vector<ChunkPin> pinned(num_chunks);
  for (size_t qc = 0; qc < num_chunks; ++qc) {
    // The round's queries are the positions [q0, q1); its query blocks
    // [a0, a1) may reach into the neighboring chunks.
    const size_t q0 = l.chunk_begin(qc);
    const size_t q1 = l.chunk_end(qc);
    if (q0 == q1) continue;
    const size_t a0 = q0 / kBlock;
    const size_t a1 = (q1 - 1) / kBlock + 1;
    std::vector<std::vector<distance::IndexRun>> runs(a1 - a0);
    pool.ParallelForChunked(a0, a1, [&](size_t lo, size_t hi) {
      for (size_t a = lo; a < hi; ++a) {
        l.blocks.UpperRuns(a, reach, runs[a - a0]);
      }
    });

    // The chunks holding a candidate of the round, in walk order.
    std::vector<char> touched(num_chunks, 0);
    for (const std::vector<distance::IndexRun>& block_runs : runs) {
      for (const distance::IndexRun& run : block_runs) {
        if (run.last <= q0) continue;
        const size_t last = l.chunk_of(run.last - 1);
        for (size_t c = l.chunk_of(std::max(run.first, q0)); c <= last; ++c) {
          touched[c] = 1;
        }
      }
    }
    std::vector<size_t> walk;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (touched[c] != 0) walk.push_back(c);
    }
    if (qc % 2 == 1) std::reverse(walk.begin(), walk.end());

    ChunkPin query_chunk = l.Resident(qc);
    if (query_chunk == nullptr) query_chunk = l.Pin(qc);
    std::vector<std::vector<BlockPair>> hits(a1 - a0);
    const size_t window = l.window();
    for (size_t w0 = 0; w0 < walk.size(); w0 += window) {
      // Pin the window: pinning that many distinct chunks, resident ones
      // first, evicts none of them, so every pin stays cache-owned.
      const size_t w1 = std::min(walk.size(), w0 + window);
      std::vector<size_t> missing;
      for (size_t w = w0; w < w1; ++w) {
        const size_t c = walk[w];
        pinned[c] = c == qc ? query_chunk : l.Resident(c);
        if (pinned[c] == nullptr) missing.push_back(c);
      }
      for (const size_t c : missing) pinned[c] = l.Pin(c);
      // The window's positions: the chunks in it are the touched chunks
      // between its first and its last.
      const size_t lo_pos = l.chunk_begin(std::min(walk[w0], walk[w1 - 1]));
      const size_t hi_pos = l.chunk_end(std::max(walk[w0], walk[w1 - 1]));
      const size_t b0 = lo_pos / kBlock;
      const size_t b1 = (hi_pos - 1) / kBlock + 1;

      pool.ParallelForChunked(a0, a1, [&](size_t lo, size_t hi) {
        // By block b - b0; zero between uses.
        std::vector<BlockRows> bits(b1 - b0, BlockRows{});
        // The block's runs from q0 on inside the window, cut at chunk
        // borders into chunk-local runs, and one piece per chunk.
        struct Piece {
          size_t chunk;
          size_t begin;  // Its runs are local[begin, the next piece's).
        };
        std::vector<distance::IndexRun> local;
        std::vector<Piece> pieces;
        std::vector<size_t> list;
        for (size_t a = lo; a < hi; ++a) {
          const std::vector<distance::IndexRun>& block_runs = runs[a - a0];
          local.clear();
          pieces.clear();
          for (const distance::IndexRun& run : block_runs) {
            const size_t e = std::min(run.last, hi_pos);
            for (size_t f = std::max({run.first, q0, lo_pos}); f < e;) {
              const size_t c = l.chunk_of(f);
              const size_t base = l.chunk_begin(c);
              const size_t end = std::min(e, l.chunk_end(c));
              if (pieces.empty() || pieces.back().chunk != c) {
                TRACLUS_DCHECK(pinned[c] != nullptr);
                pieces.push_back({c, local.size()});
              }
              local.push_back({f - base, end - base});
              f = end;
            }
          }
          // Only the positions after the query: when the window holds the
          // query chunk, its piece comes first and its first run starts at
          // the block's first query.
          const bool own = !pieces.empty() && pieces.front().chunk == qc;
          const size_t first = std::max(a * kBlock, q0);
          const size_t last = std::min((a + 1) * kBlock, q1);
          for (size_t p = first; p < last; ++p) {
            if (own) local.front().first = p + 1 - q0;
            list.clear();
            for (size_t k = 0; k < pieces.size(); ++k) {
              const size_t end =
                  k + 1 < pieces.size() ? pieces[k + 1].begin : local.size();
              distance::EpsilonRefineRuns(
                  *query_chunk, dist_, p - q0, *pinned[pieces[k].chunk],
                  common::Span<const distance::IndexRun>(
                      local.data() + pieces[k].begin, end - pieces[k].begin),
                  eps, l.chunk_begin(pieces[k].chunk), list, options);
            }
            for (const size_t q : list) {
              bits[q / kBlock - b0][p - a * kBlock] |=
                  static_cast<uint16_t>(1u << (q % kBlock));
            }
          }
          for (const distance::IndexRun& run : block_runs) {
            const size_t f = std::max(run.first, lo_pos);
            const size_t e = std::min(run.last, hi_pos);
            for (size_t b = f / kBlock; f < e && b * kBlock < e; ++b) {
              BlockRows& rows = bits[b - b0];
              if (rows == BlockRows{}) continue;
              hits[a - a0].push_back({static_cast<uint32_t>(b), rows});
              rows = BlockRows{};
            }
          }
        }
      });
      for (size_t w = w0; w < w1; ++w) pinned[walk[w]].reset();
    }
    query_chunk.reset();

    // A block cut by a window border has a pair from each side: merge them,
    // put the diagonal pair first, and hand the hits over.
    pool.ParallelForChunked(a0, a1, [&](size_t lo, size_t hi) {
      for (size_t a = lo; a < hi; ++a) {
        std::vector<BlockPair>& block_hits = hits[a - a0];
        std::sort(block_hits.begin(), block_hits.end(),
                  [](const BlockPair& x, const BlockPair& y) {
                    return x.block < y.block;
                  });
        size_t m = 0;
        for (const BlockPair& hit : block_hits) {
          if (m > 0 && block_hits[m - 1].block == hit.block) {
            for (size_t r = 0; r < kBlock; ++r) {
              block_hits[m - 1].rows[r] |= hit.rows[r];
            }
          } else {
            block_hits[m++] = hit;
          }
        }
        block_hits.resize(m);
        if (m == 0 || block_hits.front().block != a) {
          block_hits.insert(block_hits.begin(),
                            {static_cast<uint32_t>(a), BlockRows{}});
        }
        visit(a, block_hits);
        std::vector<BlockPair>().swap(block_hits);
      }
    });
  }
}

std::shared_ptr<const BlockGraph> TileJoin::BuildGraph(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<BlockPair>> upper(layout().blocks.num_blocks());
  // A round visits each block at most once, so each upper[a] has one
  // writer; a block split between two chunks is visited by both rounds.
  ForEachUpperBlock(eps, pool,
                    [&upper](size_t a, std::vector<BlockPair>& hits) {
                      if (upper[a].empty()) {
                        upper[a].swap(hits);
                      } else {
                        OrInto(hits, upper[a]);
                      }
                    });
  return std::make_shared<const BlockGraph>(eps, n_, std::move(upper));
}

std::shared_ptr<const BlockGraph> TileJoin::GraphFor(
    double eps, common::ThreadPool& pool) const {
  return graphs_.Get(eps, [&] { return BuildGraph(eps, pool); });
}

std::vector<size_t> TileJoin::Neighbors(size_t query_index,
                                        double eps) const {
  TRACLUS_DCHECK(query_index < n_);
  const auto graph = GraphFor(eps, common::SharedPool(1));
  const BlockLayout& blocks = layout().blocks;
  return graph->ListOf(blocks, blocks.position(query_index));
}

std::vector<std::vector<size_t>> TileJoin::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  if (queries.empty()) return {};
  return GraphFor(eps, pool)->Lists(layout().blocks, queries, pool);
}

std::vector<std::vector<size_t>> TileJoin::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  return BuildGraph(eps, pool)->AllLists(layout().blocks, pool);
}

std::vector<size_t> TileJoin::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  HitCounts counts(n_);
  ForEachUpperBlock(eps, pool,
                    [&counts](size_t a, std::vector<BlockPair>& hits) {
                      counts.Add(a, hits);
                    });
  return counts.Sizes(layout().blocks);
}

}  // namespace traclus::cluster
