#include "cluster/neighborhood_index.h"

#include <algorithm>

namespace traclus::cluster {

GridNeighborhoodIndex::GridNeighborhoodIndex(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    double cell_size, distance::BatchKernel kernel)
    : store_(store),
      dist_(dist),
      kernel_(kernel),
      // Per-segment MBRs are an invariant the store already caches.
      grid_(store.bboxes(), store.dims(), cell_size) {}

std::vector<size_t> GridNeighborhoodIndex::Neighbors(size_t query_index,
                                                     double eps) const {
  // One scratch per thread makes the index-interface overload safe for
  // concurrent callers. Sharing the scratch across index instances on a
  // thread is fine: stamps grow monotonically per scratch, so marks left by
  // a different index (or an earlier query) are always stale, and the stamp
  // wrap-around path clears everything.
  thread_local QueryScratch per_thread_scratch;
  return Neighbors(query_index, eps, &per_thread_scratch);
}

std::vector<std::vector<size_t>> GridNeighborhoodIndex::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(store_.size());
  // One scratch per contiguous chunk: threads never share dedup stamps, and
  // every list lands in its own index-addressed slot, so the batch is both
  // race-free and bit-identical across thread counts.
  pool.ParallelForChunked(
      0, store_.size(), [this, eps, &lists](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          lists[i] = Neighbors(i, eps, &scratch);
        }
      });
  return lists;
}

std::vector<size_t> GridNeighborhoodIndex::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(store_.size());
  pool.ParallelForChunked(
      0, store_.size(), [this, eps, &sizes](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          sizes[i] = Neighbors(i, eps, &scratch).size();
        }
      });
  return sizes;
}

std::vector<std::vector<size_t>> GridNeighborhoodIndex::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  pool.ParallelForChunked(
      0, queries.size(), [this, eps, &queries, &lists](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t k = lo; k < hi; ++k) {
          lists[k] = Neighbors(queries[k], eps, &scratch);
        }
      });
  return lists;
}

std::vector<size_t> GridNeighborhoodIndex::Neighbors(
    size_t query_index, double eps, QueryScratch* scratch) const {
  TRACLUS_DCHECK(query_index < store_.size());
  const double factor = dist_.LowerBoundFactor();
  std::vector<size_t> out;
  distance::BatchOptions refine_options;
  refine_options.kernel = kernel_;

  if (factor <= 0.0) {
    // No usable lower bound for this weight configuration: every segment is
    // a candidate; the kernel refines all of them (its prune uses the same
    // factor and disables itself).
    distance::EpsilonRefineRange(store_, dist_, query_index, 0, store_.size(),
                                 eps, out, refine_options);
    return out;
  }

  const double radius = eps / factor;
  const geom::BBox& qbox = store_.bbox(query_index);

  std::vector<uint32_t>& visit_stamp = scratch->visit_stamp;
  visit_stamp.resize(store_.size(), 0u);
  ++scratch->stamp;
  if (scratch->stamp == 0) {  // Wrap-around: reset once every 2^32 queries.
    std::fill(visit_stamp.begin(), visit_stamp.end(), 0u);
    scratch->stamp = 1;
  }
  const uint32_t stamp = scratch->stamp;

  // Candidate generation: deduped cell members whose MBR can be within
  // reach. Exact membership is decided by the batched refine below.
  std::vector<size_t>& candidates = scratch->candidates;
  candidates.clear();
  grid_.ForEachInReach(qbox, radius, [&](size_t i) {
    if (visit_stamp[i] == stamp) return;
    visit_stamp[i] = stamp;
    // Sound prune on cached MBRs; the query itself always survives.
    if (i != query_index && store_.bbox(i).MinDist(qbox) > radius) return;
    candidates.push_back(i);
  });
  distance::EpsilonRefine(
      store_, dist_, query_index,
      common::Span<const size_t>(candidates.data(), candidates.size()), eps,
      out, refine_options);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace traclus::cluster
