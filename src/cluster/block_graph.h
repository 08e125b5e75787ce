#ifndef TRACLUS_CLUSTER_BLOCK_GRAPH_H_
#define TRACLUS_CLUSTER_BLOCK_GRAPH_H_

// The ε-graph of a BlockLayout as bit matrices of block pairs, built by the
// symmetric ε-join cluster::TileJoin over either store. It refines each
// unordered pair of positions p < q once and hands over the *upper hits* of
// a block a: the block pairs (a, b), b ≥ a, with the accepted pairs (p in a,
// q in b) set in the 16×16 bit matrix of the pair; a block whose positions
// lie in two chunks is handed over once per chunk, its hits to be ORed.
// BlockGraph assembles all blocks' upper hits into each block's own rows and
// serves the lists; HitCounts counts the bits of upper hits as the join finds
// them and keeps none.
//
// Assembly. Block a's rows are its upper hits (the diagonal pair made
// symmetric, plus the self bits of Definition 4) and the transposed upper
// hits of the lower blocks that hit it, in ascending block order. The list
// of position p is the set bits of its row in its block's matrices, mapped
// back to segment indices in ascending order (BlockLayout::ToSortedIndices);
// its size is their popcount.
//
// Memory. A graph holds 32 B of row masks and a 4 B block number per hit
// block pair, plus 8 B per block. At most min(#block pairs, #neighbor
// pairs) block pairs hit, since each hit holds at least one pair (i, j)
// with j ∈ Nε(i), self pairs included.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/block_layout.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace traclus::cluster {

/// Row r of a block pair (a, b): bit s set when position kBlock·b + s is in
/// the list of position kBlock·a + r.
using BlockRows = std::array<uint16_t, BlockLayout::kBlock>;

struct BlockPair {
  uint32_t block;  // b.
  BlockRows rows;
};

/// The ε-graph of one ε (see the file comment). Immutable; every method may
/// be called concurrently.
class BlockGraph {
 public:
  /// `upper[a]` holds block a's upper hits over a layout of n positions:
  /// pairs (b, rows) with b ≥ a, in ascending b, the diagonal pair (a, a)
  /// first even without a bit, whose rows hold the accepted pairs p < q.
  BlockGraph(double eps, size_t n, std::vector<std::vector<BlockPair>> upper);

  double eps() const { return eps_; }

  /// The list of position p, in ascending segment index.
  std::vector<size_t> ListOf(const BlockLayout& layout, size_t p) const;

  /// The list of segment queries[k] in slot k, across `pool`.
  std::vector<std::vector<size_t>> Lists(const BlockLayout& layout,
                                         const std::vector<size_t>& queries,
                                         common::ThreadPool& pool) const;

  /// Every segment's list, by segment index, across `pool`.
  std::vector<std::vector<size_t>> AllLists(const BlockLayout& layout,
                                            common::ThreadPool& pool) const;

 private:
  double eps_;
  /// Block a's rows are pairs_[first_[a], first_[a + 1]), in ascending
  /// block order.
  std::vector<size_t> first_;
  std::vector<BlockPair> pairs_;
};

/// |Nε| of every position, counted from upper hits as a join finds them:
/// the row bits of a hit count toward block a's members, its column bits
/// toward block b's. Add may be called concurrently.
class HitCounts {
 public:
  explicit HitCounts(size_t n) : counts_(n) {}

  void Add(size_t a, const std::vector<BlockPair>& hits);

  /// The sizes by segment index, self included.
  std::vector<size_t> Sizes(const BlockLayout& layout) const;

 private:
  std::vector<std::atomic<size_t>> counts_;
};

/// The graph of the last ε asked for. Get builds it under the lock, so
/// concurrent first calls build it once; a served graph is immutable and
/// read without the lock.
class BlockGraphCache {
 public:
  /// The held graph if its ε equals `eps` bitwise (so a NaN ε reuses its
  /// graph too), else the one build() returns, which replaces it.
  template <typename Build>
  std::shared_ptr<const BlockGraph> Get(double eps, const Build& build)
      TRACLUS_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    const double held = graph_ != nullptr ? graph_->eps() : 0.0;
    if (graph_ == nullptr || std::memcmp(&held, &eps, sizeof(eps)) != 0) {
      graph_ = build();
    }
    return graph_;
  }

 private:
  common::Mutex mu_;
  std::shared_ptr<const BlockGraph> graph_ TRACLUS_GUARDED_BY(mu_);
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_BLOCK_GRAPH_H_
