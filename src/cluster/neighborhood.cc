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
    // By block b; zero between uses.
    std::vector<BlockRows> bits(blocks, BlockRows{});
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
          BlockRows& rows = bits[b];
          if (b != a && rows == BlockRows{}) continue;
          hits.push_back({static_cast<uint32_t>(b), rows});
          rows = BlockRows{};
        }
      }
      visit(a, hits);
    }
  });
}

std::shared_ptr<const BlockGraph> TileJoin::BuildGraph(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<BlockPair>> upper(layout().blocks.num_blocks());
  ForEachUpperBlock(eps, pool,
                    [&upper](size_t a, const std::vector<BlockPair>& hits) {
                      upper[a] = hits;
                    });
  return std::make_shared<const BlockGraph>(eps, layout().store->size(),
                                            std::move(upper));
}

std::shared_ptr<const BlockGraph> TileJoin::GraphFor(
    double eps, common::ThreadPool& pool) const {
  return graphs_.Get(eps, [&] { return BuildGraph(eps, pool); });
}

std::vector<size_t> TileJoin::Neighbors(size_t query_index,
                                        double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
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
  HitCounts counts(store_.size());
  ForEachUpperBlock(eps, pool,
                    [&counts](size_t a, const std::vector<BlockPair>& hits) {
                      counts.Add(a, hits);
                    });
  return counts.Sizes(layout().blocks);
}

}  // namespace traclus::cluster
