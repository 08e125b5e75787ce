#include "cluster/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/span.h"

namespace traclus::cluster {

std::vector<std::vector<size_t>> NeighborhoodProvider::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(size());
  pool.ParallelFor(0, size(), [this, eps, &lists](size_t i) {
    lists[i] = Neighbors(i, eps);
  });
  return lists;
}

std::vector<size_t> NeighborhoodProvider::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(size());
  pool.ParallelFor(0, size(), [this, eps, &sizes](size_t i) {
    sizes[i] = Neighbors(i, eps).size();
  });
  return sizes;
}

std::vector<std::vector<size_t>> NeighborhoodProvider::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  pool.ParallelFor(0, queries.size(), [this, eps, &queries, &lists](size_t k) {
    lists[k] = Neighbors(queries[k], eps);
  });
  return lists;
}

NeighborhoodCache::NeighborhoodCache(const NeighborhoodProvider& base,
                                     double eps, common::ThreadPool& pool,
                                     size_t block)
    : base_(&base),
      pool_(&pool),
      eps_(eps),
      block_(block),
      size_(base.size()) {
  if (block_ == 0) {
    // Eager: every list materialized through the base's whole-database
    // batch and kept resident.
    lists_ = base.AllNeighbors(eps_, pool);
    peak_resident_ = size_;
  } else {
    served_.assign(size_, 0);
  }
}

size_t NeighborhoodCache::resident_lists() const {
  if (block_ == 0) return lists_.size();
  common::MutexLock lock(mu_);
  return parked_.size();
}

size_t NeighborhoodCache::peak_resident_lists() const {
  common::MutexLock lock(mu_);
  return peak_resident_;  // Eager mode set this once in the constructor.
}

std::vector<size_t> NeighborhoodCache::Neighbors(size_t query_index,
                                                 double eps) const {
  TRACLUS_DCHECK(query_index < size_);
  TRACLUS_CHECK_EQ(eps, eps_);  // The cache is bound to one ε.
  if (block_ == 0) return lists_[query_index];

  // Bounded mode: serve-and-evict, the whole transaction under mu_ so
  // concurrent queries observe consistent parked/served state. A parked list
  // is consumed at most once.
  common::MutexLock lock(mu_);
  const auto it = parked_.find(query_index);
  if (it != parked_.end()) {
    std::vector<size_t> list = std::move(it->second);
    parked_.erase(it);
    return list;
  }
  if (served_[query_index]) {
    // Already served and evicted: recompute through the base so repeat
    // access stays exact without growing residency.
    return base_->Neighbors(query_index, eps_);
  }

  // Miss: batch the demanded index together with the following not-yet-served
  // indices (the natural consumption order of a streaming pass), compute the
  // block across the pool, serve the first and park the rest. The batch is
  // sized against the lists already parked so total residency — parked plus
  // the one in flight — never exceeds the block.
  const size_t max_batch =
      block_ > parked_.size() ? block_ - parked_.size() : 1;
  std::vector<size_t> batch;
  batch.reserve(max_batch);
  batch.push_back(query_index);
  served_[query_index] = 1;
  for (size_t i = query_index + 1; i < size_ && batch.size() < max_batch;
       ++i) {
    if (!served_[i]) {
      served_[i] = 1;
      batch.push_back(i);
    }
  }
  std::vector<std::vector<size_t>> lists =
      base_->NeighborsBatch(batch, eps_, *pool_);
  for (size_t k = 1; k < batch.size(); ++k) {
    parked_.emplace(batch[k], std::move(lists[k]));
  }
  // Residency peaks right now: the parked lists plus the one being served.
  peak_resident_ = std::max(peak_resident_, parked_.size() + 1);
  return std::move(lists[0]);
}

std::vector<std::vector<size_t>> NeighborhoodCache::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  if (block_ == 0) return lists_;
  // Bounded mode holds no full copy; delegate the (inherently all-resident)
  // batch to the base provider.
  return base_->AllNeighbors(eps_, pool);
}

std::vector<size_t> NeighborhoodCache::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  if (block_ == 0) {
    std::vector<size_t> sizes(lists_.size());
    for (size_t i = 0; i < lists_.size(); ++i) sizes[i] = lists_[i].size();
    return sizes;
  }
  return base_->AllNeighborhoodSizes(eps_, pool);
}

std::vector<std::vector<size_t>> NeighborhoodCache::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& /*pool*/) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  std::vector<std::vector<size_t>> lists(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    TRACLUS_DCHECK(queries[k] < size_);
    // Eager: copy out of the resident store. Bounded: serve-and-evict per
    // query, which also consumes any parked list.
    lists[k] = Neighbors(queries[k], eps);
  }
  return lists;
}

namespace {

// Morton (Z-order) keys of the segments' midpoints: each axis quantized to
// `bits` bits over the midpoints' bounding box, then interleaved from the
// most significant bit down. A non-finite midpoint sorts last. The key only
// orders the layout; no result depends on it.
std::vector<uint64_t> MortonKeys(const traj::SegmentStore& store) {
  const int dims = store.dims();
  const int bits = 64 / dims;
  const double cells = std::ldexp(1.0, bits) - 1.0;
  double lo[geom::kMaxDims], scale[geom::kMaxDims];
  for (int d = 0; d < dims; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    double hi = -lo[d];
    for (const double x : store.midpoint_coords(d)) {
      if (!std::isfinite(x)) continue;
      lo[d] = std::min(lo[d], x);
      hi = std::max(hi, x);
    }
    scale[d] = hi > lo[d] ? cells / (hi - lo[d]) : 0.0;
  }
  std::vector<uint64_t> keys(store.size(), ~uint64_t{0});
  for (size_t i = 0; i < store.size(); ++i) {
    uint64_t q[geom::kMaxDims];
    bool finite = true;
    for (int d = 0; d < dims; ++d) {
      const double x = store.midpoint_coords(d)[i];
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

// Maps a list of layout positions to segment indices in ascending order
// through a bitmap of the index span the list covers (one word per 64
// indices, left zeroed for the next list): a counting sort, since a
// comparison sort took about a third of the 1-thread elk-half join.
void ToSortedIndices(const std::vector<size_t>& order,
                     std::vector<size_t>& list, std::vector<uint64_t>& bits) {
  if (list.empty()) return;
  size_t lo = order[list.front()];
  size_t hi = lo;
  for (size_t& p : list) {
    p = order[p];
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  const size_t w_lo = lo / 64;
  const size_t words = hi / 64 - w_lo + 1;
  if (bits.size() < words) bits.resize(words, 0);
  for (const size_t i : list) bits[i / 64 - w_lo] |= uint64_t{1} << (i % 64);
  list.clear();
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      list.push_back((w_lo + w) * 64 +
                     static_cast<size_t>(__builtin_ctzll(word)));
    }
    bits[w] = 0;
  }
}

}  // namespace

const TileJoin::Layout& TileJoin::layout() const {
  std::call_once(layout_once_, [this] { BuildLayout(); });
  return layout_;
}

void TileJoin::BuildLayout() const {
  const size_t n = store_.size();
  Layout& l = layout_;
  l.order.resize(n);
  std::iota(l.order.begin(), l.order.end(), size_t{0});
  l.store = &store_;
  if (prune_blocks_) {
    const std::vector<uint64_t> keys = MortonKeys(store_);
    std::sort(l.order.begin(), l.order.end(), [&keys](size_t a, size_t b) {
      return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
    });
    std::vector<geom::Segment> segments;
    segments.reserve(n);
    for (const size_t i : l.order) segments.push_back(store_.segment(i));
    l.sorted = traj::SegmentStore::FromSegments(std::move(segments));
    l.store = &l.sorted;

    const int dims = l.sorted.dims();
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t first = 0; first < n; first += kBlock) {
      Block b{{inf, inf, inf}, {-inf, -inf, -inf}, 0.0};
      double probe = 0.0;  // Sums every input: non-finite if any one is.
      for (size_t p = first; p < std::min(n, first + kBlock); ++p) {
        b.hmax = std::max(b.hmax, l.sorted.half_length(p));
        probe += l.sorted.half_length(p);
        for (int d = 0; d < dims; ++d) {
          const double x = l.sorted.midpoint_coords(d)[p];
          probe += x;
          b.lo[d] = std::min(b.lo[d], x);
          b.hi[d] = std::max(b.hi[d], x);
        }
      }
      // A non-finite midpoint or length escapes the box, and a sum that
      // overflows marks coordinates too large to bound safely; such a block
      // is never skipped.
      if (!std::isfinite(probe)) b.hmax = inf;
      l.blocks.push_back(b);
    }
  }
  l.rank.resize(n);
  for (size_t p = 0; p < n; ++p) l.rank[l.order[p]] = p;
}

void TileJoin::CandidateRuns(const Layout& l, size_t a, double reach,
                             std::vector<distance::IndexRun>& runs) const {
  runs.clear();
  const size_t n = l.order.size();
  if (!prune_blocks_ || std::isinf(reach)) {
    runs.push_back({0, n});
    return;
  }
  const Block& qa = l.blocks[a];
  const int dims = l.store->dims();
  for (size_t b = 0; b < l.blocks.size(); ++b) {
    const Block& cb = l.blocks[b];
    // Squared mindist of the two midpoint MBRs, summed in dimension order
    // like the per-pair midpoint distance it bounds from below.
    double mind_sq = 0.0;
    for (int d = 0; d < dims; ++d) {
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

template <typename Emit>
void TileJoin::Join(const std::vector<Entry>& entries, double eps,
                    common::ThreadPool& pool, const Emit& emit) const {
  const Layout& l = layout();
  const double reach = distance::PruneReach(dist_, eps);
  // Group boundaries: entries sharing a block form one tile row group.
  std::vector<size_t> groups;
  for (size_t e = 0; e < entries.size(); ++e) {
    if (e == 0 || entries[e].first / kBlock != entries[e - 1].first / kBlock) {
      groups.push_back(e);
    }
  }
  groups.push_back(entries.size());
  distance::BatchOptions options;
  options.kernel = kernel_;
  pool.ParallelForChunked(0, groups.size() - 1, [&](size_t lo, size_t hi) {
    std::vector<distance::IndexRun> runs;
    std::vector<uint64_t> bits;
    for (size_t g = lo; g < hi; ++g) {
      CandidateRuns(l, entries[groups[g]].first / kBlock, reach, runs);
      for (size_t e = groups[g]; e < groups[g + 1]; ++e) {
        std::vector<size_t> list;
        distance::EpsilonRefineRuns(*l.store, dist_, entries[e].first,
                                    *l.store, runs, eps, 0, list, options);
        ToSortedIndices(l.order, list, bits);
        emit(entries[e].second, std::move(list));
      }
    }
  });
}

std::vector<TileJoin::Entry> TileJoin::AllEntries() const {
  const Layout& l = layout();
  std::vector<Entry> entries(l.order.size());
  for (size_t p = 0; p < entries.size(); ++p) entries[p] = {p, l.order[p]};
  return entries;
}

std::vector<size_t> TileJoin::Neighbors(size_t query_index,
                                        double eps) const {
  return NeighborsBatch({query_index}, eps, common::SharedPool(1)).front();
}

std::vector<std::vector<size_t>> TileJoin::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  const Layout& l = layout();
  std::vector<Entry> entries(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    TRACLUS_DCHECK(queries[k] < store_.size());
    entries[k] = {l.rank[queries[k]], k};
  }
  std::sort(entries.begin(), entries.end());
  std::vector<std::vector<size_t>> lists(queries.size());
  Join(entries, eps, pool, [&lists](size_t slot, std::vector<size_t>&& list) {
    lists[slot] = std::move(list);
  });
  return lists;
}

std::vector<std::vector<size_t>> TileJoin::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(store_.size());
  Join(AllEntries(), eps, pool,
       [&lists](size_t slot, std::vector<size_t>&& list) {
         lists[slot] = std::move(list);
       });
  return lists;
}

std::vector<size_t> TileJoin::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(store_.size());
  Join(AllEntries(), eps, pool,
       [&sizes](size_t slot, std::vector<size_t>&& list) {
         sizes[slot] = list.size();
       });
  return sizes;
}

}  // namespace traclus::cluster
