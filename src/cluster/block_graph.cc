#include "cluster/block_graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

constexpr size_t kBlock = BlockLayout::kBlock;
static_assert(kBlock == 16, "a block pair's rows are uint16_t masks");

// Bit r of row s of the result is bit s of row r of `m`.
BlockRows Transposed(const BlockRows& m) {
  BlockRows t{};
  for (size_t r = 0; r < kBlock; ++r) {
    for (uint32_t w = m[r]; w != 0; w &= w - 1) {
      t[__builtin_ctz(w)] |= static_cast<uint16_t>(1u << r);
    }
  }
  return t;
}

}  // namespace

BlockGraph::BlockGraph(double eps, size_t n,
                       std::vector<std::vector<BlockPair>> upper)
    : eps_(eps) {
  const size_t blocks = upper.size();
  TRACLUS_CHECK_LE(blocks, size_t{UINT32_MAX});
  first_.assign(blocks + 1, 0);
  for (size_t a = 0; a < blocks; ++a) {
    TRACLUS_DCHECK(!upper[a].empty() && upper[a].front().block == a);
    for (const BlockPair& hit : upper[a]) {
      ++first_[a + 1];
      if (hit.block != a) ++first_[hit.block + 1];
    }
  }
  for (size_t a = 0; a < blocks; ++a) first_[a + 1] += first_[a];
  pairs_.resize(first_[blocks]);
  // Block a's rows fill in ascending block order: the transposed rows of the
  // lower blocks arrive while those are visited, before block a's own.
  std::vector<size_t> next(first_.begin(), first_.end() - 1);
  for (size_t a = 0; a < blocks; ++a) {
    for (const BlockPair& hit : upper[a]) {
      BlockRows rows = hit.rows;
      const BlockRows transposed = Transposed(hit.rows);
      if (hit.block == a) {
        const size_t members = std::min(kBlock, n - a * kBlock);
        for (size_t r = 0; r < members; ++r) {
          rows[r] |= transposed[r] | static_cast<uint16_t>(1u << r);
        }
      } else {
        pairs_[next[hit.block]++] = {static_cast<uint32_t>(a), transposed};
      }
      pairs_[next[a]++] = {hit.block, rows};
    }
    std::vector<BlockPair>().swap(upper[a]);
  }
}

std::vector<size_t> BlockGraph::ListOf(const BlockLayout& layout,
                                       size_t p) const {
  const size_t a = p / kBlock;
  const size_t r = p % kBlock;
  std::vector<size_t> list;
  for (size_t k = first_[a]; k < first_[a + 1]; ++k) {
    const BlockPair& pair = pairs_[k];
    for (uint32_t w = pair.rows[r]; w != 0; w &= w - 1) {
      list.push_back(pair.block * kBlock +
                     static_cast<size_t>(__builtin_ctz(w)));
    }
  }
  thread_local std::vector<uint64_t> bits;
  layout.ToSortedIndices(list, bits);
  return list;
}

std::vector<std::vector<size_t>> BlockGraph::Lists(
    const BlockLayout& layout, const std::vector<size_t>& queries,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  pool.ParallelForChunked(0, queries.size(), [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      TRACLUS_DCHECK(queries[k] < layout.order().size());
      lists[k] = ListOf(layout, layout.position(queries[k]));
    }
  });
  return lists;
}

std::vector<std::vector<size_t>> BlockGraph::AllLists(
    const BlockLayout& layout, common::ThreadPool& pool) const {
  const std::vector<size_t>& order = layout.order();
  std::vector<std::vector<size_t>> lists(order.size());
  pool.ParallelForChunked(0, order.size(), [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) lists[order[p]] = ListOf(layout, p);
  });
  return lists;
}

void HitCounts::Add(size_t a, const std::vector<BlockPair>& hits) {
  for (const BlockPair& hit : hits) {
    const BlockRows columns = Transposed(hit.rows);
    for (size_t s = 0; s < kBlock; ++s) {
      if (hit.rows[s] != 0) {
        counts_[a * kBlock + s] +=
            static_cast<size_t>(__builtin_popcount(hit.rows[s]));
      }
      if (columns[s] != 0) {
        counts_[hit.block * kBlock + s] +=
            static_cast<size_t>(__builtin_popcount(columns[s]));
      }
    }
  }
}

std::vector<size_t> HitCounts::Sizes(const BlockLayout& layout) const {
  const std::vector<size_t>& order = layout.order();
  std::vector<size_t> sizes(order.size());
  for (size_t p = 0; p < order.size(); ++p) {
    sizes[order[p]] = counts_[p] + 1;  // Self.
  }
  return sizes;
}

}  // namespace traclus::cluster
