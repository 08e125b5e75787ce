#include "cluster/block_layout.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Morton (Z-order) keys of the midpoints: each axis quantized to `bits` bits
// over the midpoints' bounding box, then interleaved from the most
// significant bit down. A non-finite midpoint sorts last. The key only
// orders the layout; no result depends on it.
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
    uint64_t q[geom::kMaxDims];
    bool finite = true;
    for (int d = 0; d < dims; ++d) {
      const double x = mid[d][i];
      finite = finite && std::isfinite(x);
      q[d] = finite ? static_cast<uint64_t>(
                          std::min(cells, (x - lo[d]) * scale[d]))
                    : 0;
    }
    if (!finite) continue;
    uint64_t key = 0;
    for (int b = bits - 1; b >= 0; --b) {
      for (int d = 0; d < dims; ++d) key = (key << 1) | ((q[d] >> b) & 1);
    }
    keys[i] = key;
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
  const std::vector<uint64_t> keys = MortonKeys(n, dims, mid);
  std::sort(order_.begin(), order_.end(), [&keys](size_t a, size_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });
  for (size_t p = 0; p < n; ++p) rank_[order_[p]] = p;

  const double inf = std::numeric_limits<double>::infinity();
  for (size_t first = 0; first < n; first += kBlock) {
    Block b{{inf, inf, inf}, {-inf, -inf, -inf}, 0.0};
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
    blocks_.push_back(b);
  }
}

std::vector<BlockLayout::Entry> BlockLayout::Entries(
    const std::vector<size_t>& queries) const {
  std::vector<Entry> entries(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    TRACLUS_DCHECK(queries[k] < rank_.size());
    entries[k] = {rank_[queries[k]], k};
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

void BlockLayout::ForEachGroup(const std::vector<Entry>& entries,
                               double reach, common::ThreadPool& pool,
                               const GroupFn& visit) const {
  std::vector<size_t> groups;
  for (size_t e = 0; e < entries.size(); ++e) {
    if (e == 0 || entries[e].first / kBlock != entries[e - 1].first / kBlock) {
      groups.push_back(e);
    }
  }
  groups.push_back(entries.size());
  pool.ParallelForChunked(0, groups.size() - 1, [&](size_t lo, size_t hi) {
    std::vector<distance::IndexRun> runs;
    for (size_t g = lo; g < hi; ++g) {
      CandidateRuns(entries[groups[g]].first / kBlock, reach, runs);
      visit(runs, groups[g], groups[g + 1]);
    }
  });
}

std::vector<double> BlockLayout::Permuted(
    const std::vector<double>& column) const {
  std::vector<double> out(order_.size());
  for (size_t p = 0; p < out.size(); ++p) out[p] = column[order_[p]];
  return out;
}

void BlockLayout::CandidateRuns(size_t a, double reach,
                                std::vector<distance::IndexRun>& runs) const {
  runs.clear();
  const size_t n = order_.size();
  if (blocks_.empty() || std::isinf(reach)) {
    runs.push_back({0, n});
    return;
  }
  const Block& qa = blocks_[a];
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& cb = blocks_[b];
    // Squared mindist of the two midpoint MBRs, summed in dimension order
    // like the per-pair midpoint distance it bounds from below.
    double mind_sq = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double gap =
          std::max({0.0, cb.lo[d] - qa.hi[d], qa.lo[d] - cb.hi[d]});
      mind_sq += gap * gap;
    }
    if (distance::ProvablyFar(mind_sq, reach, qa.hmax, cb.hmax)) continue;
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
