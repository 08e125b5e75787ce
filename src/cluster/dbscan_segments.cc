#include "cluster/dbscan_segments.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace traclus::cluster {

namespace {

constexpr size_t kDefaultBatchBlock = 1024;

// |Nε(L)| under the configured density: neighbor count, or the weighted count
// of the §4.2 extension (summed from the store's flat weight column).
double NeighborhoodMass(const SegmentSetView& view,
                        const std::vector<size_t>& neighbors,
                        const DbscanOptions& options) {
  if (!options.use_weights) return static_cast<double>(neighbors.size());
  double mass = 0.0;
  const common::Span<const double>& weights = view.weights;
  for (const size_t i : neighbors) mass += weights[i];
  return mass;
}

// Serves ε-neighborhood lists to the sequential expansion loop while keeping
// at most `block` lists resident.
//
// The expansion loop consumes each segment's list exactly once (a segment is
// fetched either when it seeds a cluster or when it is popped from the BFS
// queue — never both, because both transitions require it to have been
// unclassified). The fetcher exploits that: on a cache miss it batches the
// demanded query together with queries the loop is guaranteed to issue soon —
// pending queue members, then upcoming unclassified seeds — computes the whole
// block through provider.NeighborsBatch (one batch across the pool), hands
// the demanded list back, and parks the rest. Parked lists are erased as they
// are consumed, so residency never exceeds `block` and peak memory is
// O(block · max|Nε|) rather than the O(Σ|Nε|) of a full up-front batch.
// Because every served list equals provider.Neighbors(i, eps) exactly, labels
// and cluster IDs do not depend on the block size or the thread count.
class BlockedNeighborFetcher {
 public:
  BlockedNeighborFetcher(const NeighborhoodProvider& provider, double eps,
                         size_t block, common::ThreadPool& pool)
      : provider_(provider),
        eps_(eps),
        block_(std::max<size_t>(1, block)),
        pool_(pool),
        fetched_(provider.size(), 0) {}

  std::vector<size_t> Fetch(size_t index, const std::deque<size_t>& queue,
                            const std::vector<int>& labels) {
    const auto it = cache_.find(index);
    if (it != cache_.end()) {
      std::vector<size_t> list = std::move(it->second);
      cache_.erase(it);
      return list;
    }

    std::vector<size_t> batch;
    batch.push_back(index);
    fetched_[index] = 1;
    // Never let parked lists exceed the block: the demanded list is returned,
    // the other batch.size() - 1 are parked next to the cache_.size() already
    // resident.
    const size_t room = block_ > cache_.size() ? block_ - cache_.size() : 0;
    const size_t max_batch = 1 + room;
    // Queue members are consumed soonest; scan a bounded prefix so assembling
    // a batch stays O(block) even when the queue is long.
    size_t scanned = 0;
    for (const size_t m : queue) {
      if (batch.size() >= max_batch || scanned >= 2 * block_) break;
      ++scanned;
      if (!fetched_[m]) {
        fetched_[m] = 1;
        batch.push_back(m);
      }
    }
    // Then upcoming seeds. The cursor only moves forward; an unclassified
    // segment it passes over is guaranteed to be fetched through the queue
    // later, so skipping it costs at worst a smaller batch, never correctness.
    while (batch.size() < max_batch && seed_cursor_ < labels.size()) {
      const size_t s = seed_cursor_++;
      if (!fetched_[s] && labels[s] == kUnclassified) {
        fetched_[s] = 1;
        batch.push_back(s);
      }
    }

    std::vector<std::vector<size_t>> lists =
        provider_.NeighborsBatch(batch, eps_, pool_);
    for (size_t k = 1; k < batch.size(); ++k) {
      cache_.emplace(batch[k], std::move(lists[k]));
    }
    return std::move(lists[0]);
  }

 private:
  const NeighborhoodProvider& provider_;
  const double eps_;
  const size_t block_;
  common::ThreadPool& pool_;
  std::unordered_map<size_t, std::vector<size_t>> cache_;
  std::vector<char> fetched_;  // Listed in a past batch (parked or consumed).
  size_t seed_cursor_ = 0;
};

}  // namespace

ClusteringResult DbscanSegments(const traj::SegmentStore& store,
                                const NeighborhoodProvider& provider,
                                const DbscanOptions& options) {
  return DbscanSegments(SegmentSetView::Of(store), provider, options);
}

ClusteringResult DbscanSegments(const SegmentSetView& view,
                                const NeighborhoodProvider& provider,
                                const DbscanOptions& options) {
  TRACLUS_CHECK_EQ(provider.size(), view.size());
  TRACLUS_CHECK_GT(options.eps, 0.0);
  TRACLUS_CHECK_GE(options.min_lns, 1.0);

  const size_t n = view.size();
  ClusteringResult result;
  result.labels.assign(n, kUnclassified);
  std::deque<size_t> queue;

  // ε-neighborhood queries are computed in bounded blocks across the pool
  // (inline on the calling thread when it has one thread) and served to the
  // inherently sequential expansion loop below. Every served list equals
  // provider.Neighbors(i, eps), so labels and cluster IDs are byte-identical
  // at any thread count and block size.
  BlockedNeighborFetcher fetcher(
      provider, options.eps,
      options.batch_block > 0 ? options.batch_block : kDefaultBatchBlock,
      common::SharedPool(options.num_threads));
  const auto fetch = [&](size_t i) {
    return fetcher.Fetch(i, queue, result.labels);
  };
  const size_t progress_stride = std::max<size_t>(1, n / 64);

  int cluster_id = 0;  // Fig. 12 line 01.
  for (size_t seed = 0; seed < n; ++seed) {  // Step 1 (lines 03-12).
    common::ThrowIfCancelled(options.cancellation);
    if (options.progress && seed % progress_stride == 0) {
      options.progress(static_cast<double>(seed) / static_cast<double>(n));
    }
    if (result.labels[seed] != kUnclassified) continue;
    const std::vector<size_t> seed_neighbors = fetch(seed);
    if (NeighborhoodMass(view, seed_neighbors, options) < options.min_lns) {
      result.labels[seed] = kNoise;  // Line 12.
      continue;
    }

    // Lines 07-08: assign the whole neighborhood, enqueue Nε(L) − {L}.
    Cluster cluster;
    cluster.id = cluster_id;
    for (const size_t i : seed_neighbors) {
      // Previously-noise segments become border members here.
      if (result.labels[i] == kUnclassified && i != seed) queue.push_back(i);
      if (result.labels[i] == kUnclassified || result.labels[i] == kNoise) {
        result.labels[i] = cluster_id;
        cluster.member_indices.push_back(i);
      }
    }

    // Step 2 (ExpandCluster, lines 17-28).
    while (!queue.empty()) {
      common::ThrowIfCancelled(options.cancellation);
      const size_t m = queue.front();
      queue.pop_front();
      const std::vector<size_t> m_neighbors = fetch(m);
      if (NeighborhoodMass(view, m_neighbors, options) < options.min_lns) {
        continue;  // Not a core line segment: expand no further through it.
      }
      for (const size_t x : m_neighbors) {
        const bool was_unclassified = result.labels[x] == kUnclassified;
        if (was_unclassified || result.labels[x] == kNoise) {
          result.labels[x] = cluster_id;  // Line 24.
          cluster.member_indices.push_back(x);
        }
        if (was_unclassified) queue.push_back(x);  // Lines 25-26.
      }
    }

    result.clusters.push_back(std::move(cluster));
    ++cluster_id;  // Line 10.
  }

  // Step 3 (lines 13-16): trajectory-cardinality filter.
  result = FilterByTrajectoryCardinality(
      view, options.min_trajectory_cardinality, options.min_lns,
      std::move(result));
  if (options.progress) options.progress(1.0);
  return result;
}

}  // namespace traclus::cluster
