#include "cluster/block_layout.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// The low 64 / dims bits of x spread `dims` bits apart (bit b to bit
// dims·b), by the usual mask-and-shift steps.
uint64_t SpreadBits(uint64_t x, int dims) {
  if (dims == 3) {
    x &= 0x1fffffULL;
    x = (x | x << 32) & 0x1f00000000ffffULL;
    x = (x | x << 16) & 0x1f0000ff0000ffULL;
    x = (x | x << 8) & 0x100f00f00f00f00fULL;
    x = (x | x << 4) & 0x10c30c30c30c30c3ULL;
    return (x | x << 2) & 0x1249249249249249ULL;
  }
  x &= 0xffffffffULL;
  x = (x | x << 16) & 0x0000ffff0000ffffULL;
  x = (x | x << 8) & 0x00ff00ff00ff00ffULL;
  x = (x | x << 4) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | x << 2) & 0x3333333333333333ULL;
  return (x | x << 1) & 0x5555555555555555ULL;
}

// Morton (Z-order) keys of the midpoints: each axis quantized to `bits` bits
// over the midpoints' bounding box, then interleaved from the most
// significant bit down, axis 0 first. A non-finite midpoint sorts last. The
// key only orders the layout; no result depends on it.
std::vector<uint64_t> MortonKeys(size_t n, int dims, const double* const* mid) {
  const int bits = 64 / dims;
  const double cells = std::ldexp(1.0, bits) - 1.0;
  double lo[geom::kMaxDims], scale[geom::kMaxDims];
  for (int d = 0; d < dims; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    double hi = -lo[d];
    for (size_t i = 0; i < n; ++i) {
      const double x = mid[d][i];
      if (!std::isfinite(x)) continue;
      lo[d] = std::min(lo[d], x);
      hi = std::max(hi, x);
    }
    scale[d] = hi > lo[d] ? cells / (hi - lo[d]) : 0.0;
  }
  std::vector<uint64_t> keys(n, ~uint64_t{0});
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    bool finite = true;
    for (int d = 0; d < dims; ++d) {
      const double x = mid[d][i];
      finite = finite && std::isfinite(x);
      const uint64_t q =
          finite ? static_cast<uint64_t>(std::min(cells, (x - lo[d]) * scale[d]))
                 : 0;
      key = (key << 1) | SpreadBits(q, dims);
    }
    if (finite) keys[i] = key;
  }
  return keys;
}

}  // namespace

BlockLayout::BlockLayout(size_t n) : order_(n), rank_(n) {
  std::iota(order_.begin(), order_.end(), size_t{0});
  std::iota(rank_.begin(), rank_.end(), size_t{0});
}

BlockLayout::BlockLayout(size_t n, int dims, const double* const* mid,
                         const double* half)
    : BlockLayout(n) {
  dims_ = dims;
  // (key, index) pairs sort without the indirection of a key lookup per
  // comparison; ties stay in index order.
  const std::vector<uint64_t> keys = MortonKeys(n, dims, mid);
  std::vector<std::pair<uint64_t, size_t>> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = {keys[i], i};
  std::sort(sorted.begin(), sorted.end());
  for (size_t p = 0; p < n; ++p) {
    order_[p] = sorted[p].second;
    rank_[order_[p]] = p;
  }

  const double inf = std::numeric_limits<double>::infinity();
  for (size_t first = 0; first < n; first += kBlock) {
    Box b{{inf, inf, inf}, {-inf, -inf, -inf}, 0.0, 0.0};
    double probe = 0.0;  // Sums every input: non-finite if any one is.
    for (size_t p = first; p < std::min(n, first + kBlock); ++p) {
      const size_t i = order_[p];
      b.hmax = std::max(b.hmax, half[i]);
      probe += half[i];
      for (int d = 0; d < dims; ++d) {
        probe += mid[d][i];
        b.lo[d] = std::min(b.lo[d], mid[d][i]);
        b.hi[d] = std::max(b.hi[d], mid[d][i]);
      }
    }
    // A non-finite midpoint or length escapes the box, and a sum that
    // overflows marks coordinates too large to bound safely; such a block
    // is never skipped.
    if (!std::isfinite(probe)) b.hmax = inf;
    b.scale = b.hmax;
    for (int d = 0; d < dims; ++d) {
      b.scale += std::max(std::fabs(b.lo[d]), std::fabs(b.hi[d]));
    }
    blocks_.push_back(b);
  }
}

std::vector<double> BlockLayout::Permuted(
    const std::vector<double>& column) const {
  std::vector<double> out(order_.size());
  for (size_t p = 0; p < out.size(); ++p) out[p] = column[order_[p]];
  return out;
}

// A counting sort through a bitmap of the segment indices (one word per 64),
// since a comparison sort took about a third of the 1-thread elk-half join.
// One pass maps and marks, and only the words between the smallest and the
// largest index are read back.
void BlockLayout::ToSortedIndices(std::vector<size_t>& list,
                                  std::vector<uint64_t>& bits) const {
  if (list.empty()) return;
  const size_t words = (order_.size() + 63) / 64;
  if (bits.size() < words) bits.resize(words, 0);
  size_t lo = order_.size();
  size_t hi = 0;
  for (const size_t p : list) {
    const size_t i = order_[p];
    lo = std::min(lo, i);
    hi = std::max(hi, i);
    bits[i / 64] |= uint64_t{1} << (i % 64);
  }
  size_t kept = 0;
  for (size_t w = lo / 64; w <= hi / 64; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      list[kept++] = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
    }
    bits[w] = 0;
  }
  list.resize(kept);
}

void BlockLayout::SegmentRuns(const double* mid, double half,
                              const distance::Reach& reach,
                              std::vector<distance::IndexRun>& runs) const {
  Box q;
  q.hmax = half;
  q.scale = half;
  double probe = half;  // Non-finite if any input is, as for a block.
  for (int d = 0; d < dims_; ++d) {
    q.lo[d] = q.hi[d] = mid[d];
    q.scale += std::fabs(mid[d]);
    probe += mid[d];
  }
  if (!std::isfinite(probe)) q.hmax = std::numeric_limits<double>::infinity();
  CandidateRuns(q, reach, 0, runs);
}

void BlockLayout::UpperRuns(size_t a, const distance::Reach& reach,
                            std::vector<distance::IndexRun>& runs) const {
  TRACLUS_DCHECK(a < num_blocks());
  CandidateRuns(a < blocks_.size() ? blocks_[a] : Box{}, reach, a, runs);
  // A block's midpoint box is at mindist 0 from itself, so it only skips
  // itself if the reach is NaN, which PruneReach never returns.
  TRACLUS_DCHECK(!runs.empty() && runs.front().first == a * kBlock);
}

void BlockLayout::CandidateRuns(const Box& q, const distance::Reach& reach,
                                size_t first_block,
                                std::vector<distance::IndexRun>& runs) const {
  runs.clear();
  const size_t n = order_.size();
  // An infinite reach or hmax skips nothing: one run over every position.
  if (blocks_.empty() || std::isinf(reach.radius) || std::isinf(q.hmax)) {
    runs.push_back({first_block * kBlock, n});
    return;
  }
  for (size_t b = first_block; b < blocks_.size(); ++b) {
    const Box& cb = blocks_[b];
    // Squared mindist of the two midpoint MBRs, summed in dimension order
    // like the per-pair midpoint distance it bounds from below.
    double mind_sq = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double gap =
          std::max({0.0, cb.lo[d] - q.hi[d], q.lo[d] - cb.hi[d]});
      mind_sq += gap * gap;
    }
    if (distance::ProvablyFar(mind_sq, reach.At(q.scale + cb.scale), q.hmax,
                              cb.hmax)) {
      continue;
    }
    const size_t first = b * kBlock;
    const size_t last = std::min(n, first + kBlock);
    if (!runs.empty() && runs.back().last == first) {
      runs.back().last = last;
    } else {
      runs.push_back({first, last});
    }
  }
}

}  // namespace traclus::cluster
