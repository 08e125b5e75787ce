#include "cluster/neighborhood.h"

#include <algorithm>
#include <cstdint>
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

template <typename Emit>
void TileJoin::Join(const std::vector<Entry>& entries, double eps,
                    common::ThreadPool& pool, const Emit& emit) const {
  const Layout& l = layout();
  distance::BatchOptions options;
  options.kernel = kernel_;
  l.blocks.ForEachGroup(
      entries, distance::PruneReach(dist_, eps), pool,
      [&](const std::vector<distance::IndexRun>& runs, size_t first,
          size_t last) {
        thread_local std::vector<uint64_t> bits;
        for (size_t e = first; e < last; ++e) {
          std::vector<size_t> list;
          distance::EpsilonRefineRuns(*l.store, dist_, entries[e].first,
                                      *l.store, runs, eps, 0, list, options);
          l.blocks.ToSortedIndices(list, bits);
          emit(entries[e].second, std::move(list));
        }
      });
}

std::vector<TileJoin::Entry> TileJoin::AllEntries() const {
  const Layout& l = layout();
  const std::vector<size_t>& order = l.blocks.order();
  std::vector<Entry> entries(order.size());
  for (size_t p = 0; p < entries.size(); ++p) entries[p] = {p, order[p]};
  return entries;
}

std::vector<size_t> TileJoin::Neighbors(size_t query_index,
                                        double eps) const {
  return NeighborsBatch({query_index}, eps, common::SharedPool(1)).front();
}

std::vector<std::vector<size_t>> TileJoin::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  Join(layout().blocks.Entries(queries), eps, pool,
       [&lists](size_t slot, std::vector<size_t>&& list) {
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
