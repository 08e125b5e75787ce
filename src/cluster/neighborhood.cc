#include "cluster/neighborhood.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
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
  l.store = &store_;
  if (!prune_blocks_) {
    l.blocks = BlockLayout(store_.size());
    return;
  }
  l.blocks = BlockLayout::Morton(store_);
  std::vector<geom::Segment> segments;
  segments.reserve(store_.size());
  for (const size_t i : l.blocks.order()) segments.push_back(store_.segment(i));
  l.sorted = traj::SegmentStore::FromSegments(std::move(segments));
  l.store = &l.sorted;
}

namespace {

constexpr size_t kBlock = BlockLayout::kBlock;
static_assert(kBlock == 16, "a block pair's rows are uint16_t masks");

using Rows = std::array<uint16_t, kBlock>;

// Bit r of row s of the result is bit s of row r of `m`.
Rows Transposed(const Rows& m) {
  Rows t{};
  for (size_t r = 0; r < kBlock; ++r) {
    for (uint32_t w = m[r]; w != 0; w &= w - 1) {
      t[__builtin_ctz(w)] |= static_cast<uint16_t>(1u << r);
    }
  }
  return t;
}

}  // namespace

template <typename Visit>
void TileJoin::ForEachUpperBlock(double eps, common::ThreadPool& pool,
                                 const Visit& visit) const {
  const Layout& l = layout();
  const size_t n = l.store->size();
  const size_t blocks = l.blocks.num_blocks();
  const double reach = distance::PruneReach(dist_, eps);
  distance::BatchOptions options;
  options.kernel = kernel_;
  pool.ParallelForChunked(0, blocks, [&](size_t lo, size_t hi) {
    std::vector<distance::IndexRun> runs;
    std::vector<size_t> list;
    std::vector<Rows> bits(blocks, Rows{});  // By block b; zero between uses.
    std::vector<BlockPair> hits;
    for (size_t a = lo; a < hi; ++a) {
      l.blocks.UpperRuns(a, reach, runs);
      const size_t first = a * kBlock;
      const size_t last = std::min(n, first + kBlock);
      for (size_t p = first; p < last; ++p) {
        // Only the candidates after p: the first run starts at block a.
        runs.front().first = p + 1;
        const size_t skip = runs.front().first < runs.front().last ? 0 : 1;
        list.clear();
        distance::EpsilonRefineRuns(
            *l.store, dist_, p, *l.store,
            common::Span<const distance::IndexRun>(runs.data() + skip,
                                                   runs.size() - skip),
            eps, 0, list, options);
        for (const size_t q : list) {
          bits[q / kBlock][p - first] |=
              static_cast<uint16_t>(1u << (q % kBlock));
        }
      }
      runs.front().first = first;
      hits.clear();
      for (const distance::IndexRun& run : runs) {
        for (size_t b = run.first / kBlock; b * kBlock < run.last; ++b) {
          Rows& rows = bits[b];
          if (b != a && rows == Rows{}) continue;
          hits.push_back({static_cast<uint32_t>(b), rows});
          rows = Rows{};
        }
      }
      visit(a, hits);
    }
  });
}

std::shared_ptr<const TileJoin::Graph> TileJoin::BuildGraph(
    double eps, common::ThreadPool& pool) const {
  const Layout& l = layout();
  const size_t n = l.store->size();
  const size_t blocks = l.blocks.num_blocks();
  TRACLUS_CHECK_LE(blocks, size_t{UINT32_MAX});
  std::vector<std::vector<BlockPair>> upper(blocks);
  ForEachUpperBlock(eps, pool,
                    [&upper](size_t a, const std::vector<BlockPair>& hits) {
                      upper[a] = hits;
                    });

  auto graph = std::make_shared<Graph>();
  graph->eps = eps;
  std::vector<size_t>& first = graph->first;
  first.assign(blocks + 1, 0);
  for (size_t a = 0; a < blocks; ++a) {
    for (const BlockPair& hit : upper[a]) {
      ++first[a + 1];
      if (hit.block != a) ++first[hit.block + 1];
    }
  }
  for (size_t a = 0; a < blocks; ++a) first[a + 1] += first[a];
  graph->pairs.resize(first[blocks]);
  // Block a's rows fill in ascending block order: the transposed rows of the
  // lower blocks arrive while those are visited, before block a's own.
  std::vector<size_t> next(first.begin(), first.end() - 1);
  for (size_t a = 0; a < blocks; ++a) {
    for (const BlockPair& hit : upper[a]) {
      Rows rows = hit.rows;
      const Rows transposed = Transposed(hit.rows);
      if (hit.block == a) {
        const size_t members = std::min(kBlock, n - a * kBlock);
        for (size_t r = 0; r < members; ++r) {
          rows[r] |= transposed[r] | static_cast<uint16_t>(1u << r);
        }
      } else {
        graph->pairs[next[hit.block]++] = {static_cast<uint32_t>(a),
                                           transposed};
      }
      graph->pairs[next[a]++] = {hit.block, rows};
    }
    std::vector<BlockPair>().swap(upper[a]);
  }
  return graph;
}

std::shared_ptr<const TileJoin::Graph> TileJoin::GraphFor(
    double eps, common::ThreadPool& pool) const {
  common::MutexLock lock(graph_mu_);
  // ε compares bitwise, so a NaN ε reuses its graph too.
  if (graph_ == nullptr ||
      std::memcmp(&graph_->eps, &eps, sizeof(eps)) != 0) {
    graph_ = BuildGraph(eps, pool);
  }
  return graph_;
}

std::vector<size_t> TileJoin::ListOf(const Graph& graph, size_t p) const {
  const size_t a = p / kBlock;
  const size_t r = p % kBlock;
  std::vector<size_t> list;
  for (size_t k = graph.first[a]; k < graph.first[a + 1]; ++k) {
    const BlockPair& pair = graph.pairs[k];
    for (uint32_t w = pair.rows[r]; w != 0; w &= w - 1) {
      list.push_back(pair.block * kBlock +
                     static_cast<size_t>(__builtin_ctz(w)));
    }
  }
  thread_local std::vector<uint64_t> bits;
  layout().blocks.ToSortedIndices(list, bits);
  return list;
}

std::vector<size_t> TileJoin::Neighbors(size_t query_index,
                                        double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
  const auto graph = GraphFor(eps, common::SharedPool(1));
  return ListOf(*graph, layout().blocks.position(query_index));
}

std::vector<std::vector<size_t>> TileJoin::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  if (queries.empty()) return lists;
  const auto graph = GraphFor(eps, pool);
  const BlockLayout& blocks = layout().blocks;
  pool.ParallelForChunked(0, queries.size(), [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      TRACLUS_DCHECK(queries[k] < store_.size());
      lists[k] = ListOf(*graph, blocks.position(queries[k]));
    }
  });
  return lists;
}

std::vector<std::vector<size_t>> TileJoin::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  const std::shared_ptr<const Graph> graph = BuildGraph(eps, pool);
  const std::vector<size_t>& order = layout().blocks.order();
  std::vector<std::vector<size_t>> lists(order.size());
  pool.ParallelForChunked(0, order.size(), [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) lists[order[p]] = ListOf(*graph, p);
  });
  return lists;
}

std::vector<size_t> TileJoin::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  const std::vector<size_t>& order = layout().blocks.order();
  // By position: row bits count toward block a's members, column bits
  // toward block b's, which other blocks' visits may count at the same time.
  std::vector<std::atomic<size_t>> counts(order.size());
  ForEachUpperBlock(eps, pool, [&](size_t a,
                                   const std::vector<BlockPair>& hits) {
    for (const BlockPair& hit : hits) {
      const Rows columns = Transposed(hit.rows);
      for (size_t s = 0; s < kBlock; ++s) {
        if (hit.rows[s] != 0) {
          counts[a * kBlock + s] +=
              static_cast<size_t>(__builtin_popcount(hit.rows[s]));
        }
        if (columns[s] != 0) {
          counts[hit.block * kBlock + s] +=
              static_cast<size_t>(__builtin_popcount(columns[s]));
        }
      }
    }
  });
  std::vector<size_t> sizes(order.size());
  for (size_t p = 0; p < order.size(); ++p) {
    sizes[order[p]] = counts[p] + 1;  // Self.
  }
  return sizes;
}

}  // namespace traclus::cluster
