#ifndef TRACLUS_CLUSTER_BLOCK_LAYOUT_H_
#define TRACLUS_CLUSTER_BLOCK_LAYOUT_H_

// The block index of the ε-query (Lemma 3), shared by the ε-join
// (cluster::TileJoin, over either store) and snapshot serving
// (core::ClusterSnapshot::AssignSegments). It sorts the segments by the
// Morton key of their midpoints and cuts that order into blocks of kBlock
// positions, each carrying its midpoint MBR and largest half-length. It
// reads only midpoint_coords(d) and half_lengths(), which traj::SegmentStore
// and traj::ChunkedSegmentStore's catalog expose under the same names with
// bit-identical values, so both get the same layout. The join copies either
// store into layout order, so a block is a run of kBlock consecutive
// positions of the copy, inside one chunk or across the border of two.
//
// A query box (a midpoint MBR and a largest half-length hmax_q) skips block b
// when
//   c·(mindist(midMBR_q, midMBR_b) − hmax_q − hmax_b) > ε
// (distance::ProvablyFar, with the margins of the per-pair prune; the scale
// margin reads each box's largest corner 1-norm plus its hmax). The joins
// test block a of the layout as the query box of its own segments, only
// against blocks b ≥ a (UpperRuns), since they refine each unordered pair
// once, from the lower of its two positions. Serving tests an outside
// segment as the degenerate box of its midpoint, with its half-length as
// hmax_q. Each input bounds its per-pair counterpart monotonically, so a
// skipped block holds only pairs whose midpoint bound, at their own scale,
// proves them farther than ε.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "distance/batch_kernels.h"
#include "geom/point.h"

namespace traclus::cluster {

/// Morton-ordered positions cut into blocks (see the file comment).
/// Immutable; every method may be called concurrently.
class BlockLayout {
 public:
  /// Segments per block. At the benchmark parameters 16-segment blocks skip
  /// 72% of block pairs on elk-half and 63% on hurricane; 64-segment blocks
  /// skip only 53% and 34%. The eager join's bit graph holds one uint16_t
  /// row mask per position and block pair, so it relies on 16.
  static constexpr size_t kBlock = 16;

  /// Index order and no blocks: every query's candidates are one run over
  /// all n positions (the join with block pruning off).
  explicit BlockLayout(size_t n = 0);

  /// The Morton layout of `store`'s catalog columns; `Store` is
  /// traj::SegmentStore or traj::ChunkedSegmentStore.
  template <typename Store>
  static BlockLayout Morton(const Store& store) {
    const double* mid[geom::kMaxDims];
    for (int d = 0; d < geom::kMaxDims; ++d) {
      mid[d] = store.midpoint_coords(d).data();
    }
    return BlockLayout(store.size(), store.dims(), mid,
                       store.half_lengths().data());
  }

  /// Position → segment index.
  const std::vector<size_t>& order() const { return order_; }

  /// Segment index → position.
  size_t position(size_t index) const { return rank_[index]; }

  /// ⌈n / kBlock⌉: the blocks of kBlock positions, the last one short. A
  /// layout without blocks (the index order) is cut the same way, into
  /// blocks that are never skipped.
  size_t num_blocks() const { return (order_.size() + kBlock - 1) / kBlock; }

  /// `column` (indexed by segment) gathered into position order.
  std::vector<double> Permuted(const std::vector<double>& column) const;

  /// Replaces the distinct positions in `list` by their segment indices, in
  /// ascending order. `bits` is scratch the caller keeps across calls (left
  /// zeroed).
  void ToSortedIndices(std::vector<size_t>& list,
                       std::vector<uint64_t>& bits) const;

  /// Sets `runs` to the positions in the blocks b ≥ a not skipped for block
  /// a at `reach` (distance::PruneReach): every position from block a on
  /// without blocks or at a radius of +inf. Block a itself is never skipped.
  void UpperRuns(size_t a, const distance::Reach& reach,
                 std::vector<distance::IndexRun>& runs) const;

  /// Sets `runs` to the positions in the blocks not skipped at `reach` for a
  /// segment outside the layout with midpoint mid[0 .. dims) and half-length
  /// `half`: all of them without blocks, at a radius of +inf, or when the
  /// midpoint or half-length is non-finite.
  void SegmentRuns(const double* mid, double half,
                   const distance::Reach& reach,
                   std::vector<distance::IndexRun>& runs) const;

 private:
  // A query box, and what each block carries about its own midpoints.
  struct Box {
    double lo[geom::kMaxDims];  // Midpoint MBR.
    double hi[geom::kMaxDims];
    double hmax;  // Largest half-length; +inf when anything is non-finite.
    double scale;  // Σ_d max(|lo[d]|, |hi[d]|) + hmax.
  };

  BlockLayout(size_t n, int dims, const double* const* mid,
              const double* half);
  // The positions of the blocks b ≥ first_block not skipped for `q`.
  void CandidateRuns(const Box& q, const distance::Reach& reach,
                     size_t first_block,
                     std::vector<distance::IndexRun>& runs) const;

  int dims_ = 2;
  std::vector<size_t> order_;
  std::vector<size_t> rank_;  // Segment index → position.
  std::vector<Box> blocks_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_BLOCK_LAYOUT_H_
