#include "cluster/optics_segments.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/span.h"
#include "distance/batch_kernels.h"

namespace traclus::cluster {

namespace {

// Min-heap entry for the OPTICS seed list; ties broken by index so the walk is
// deterministic.
struct Seed {
  double reachability;
  size_t index;
  bool operator>(const Seed& o) const {
    if (reachability != o.reachability) return reachability > o.reachability;
    return index > o.index;
  }
};

}  // namespace

OpticsResult OpticsSegments(const traj::SegmentStore& store,
                            const distance::SegmentDistance& dist,
                            const NeighborhoodProvider& provider,
                            const OpticsOptions& options) {
  TRACLUS_CHECK_EQ(provider.size(), store.size());
  const size_t n = store.size();
  OpticsResult result;
  result.ordering.reserve(n);
  result.reachability.reserve(n);
  result.core_distance.reserve(n);

  std::vector<bool> processed(n, false);
  std::vector<double> reach(n, kUndefinedReachability);
  const size_t progress_stride = std::max<size_t>(1, n / 64);

  // Per-step distance staging, reused across ordering steps. Each step
  // evaluates dist(current, j) for every neighbor j exactly once through the
  // batch kernel; the core-distance selection and the reachability updates
  // both read from this one batch (the pair-at-a-time path evaluated the
  // same distances twice — once per consumer).
  std::vector<double> neighbor_dist;
  std::vector<double> nth_scratch;

  auto core_distance_of =
      [&](const std::vector<size_t>& neighbors) -> double {
    if (neighbors.size() < static_cast<size_t>(options.min_lns)) {
      return kUndefinedReachability;
    }
    // MinLns-th smallest distance to a neighbor (the query itself
    // contributes distance 0, exactly as in point OPTICS; the batch kernel
    // yields exactly 0.0 for the self pair).
    nth_scratch = neighbor_dist;
    const size_t k = static_cast<size_t>(options.min_lns) - 1;
    std::nth_element(nth_scratch.begin(), nth_scratch.begin() + k,
                     nth_scratch.end());
    return nth_scratch[k];
  };

  for (size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;

    std::priority_queue<Seed, std::vector<Seed>, std::greater<Seed>> seeds;
    seeds.push(Seed{kUndefinedReachability, start});

    while (!seeds.empty()) {
      common::ThrowIfCancelled(options.cancellation);
      const Seed s = seeds.top();
      seeds.pop();
      if (processed[s.index]) continue;
      // Stale-entry lazy deletion: only the best reachability for an index
      // wins.
      if (s.reachability > reach[s.index] &&
          !(s.reachability == kUndefinedReachability &&
            reach[s.index] == kUndefinedReachability)) {
        continue;
      }
      processed[s.index] = true;

      const std::vector<size_t> neighbors =
          provider.Neighbors(s.index, options.eps);
      // One batched evaluation serves both consumers below. The explicit
      // self-pair zero mirrors the historical "i == j ? 0.0" short-circuit
      // (the kernel yields exactly +0.0 there as well).
      neighbor_dist.resize(neighbors.size());
      distance::DistanceBatch(
          store, dist, s.index,
          common::Span<const size_t>(neighbors.data(), neighbors.size()),
          common::Span<double>(neighbor_dist.data(), neighbor_dist.size()),
          options.kernel);
      for (size_t k = 0; k < neighbors.size(); ++k) {
        if (neighbors[k] == s.index) neighbor_dist[k] = 0.0;
      }
      const double core_d = core_distance_of(neighbors);

      result.ordering.push_back(s.index);
      result.reachability.push_back(reach[s.index]);
      result.core_distance.push_back(core_d);
      if (options.progress &&
          result.ordering.size() % progress_stride == 0) {
        options.progress(static_cast<double>(result.ordering.size()) /
                         static_cast<double>(n));
      }

      if (core_d == kUndefinedReachability) continue;  // Not a core segment.
      for (size_t k = 0; k < neighbors.size(); ++k) {
        const size_t j = neighbors[k];
        if (processed[j]) continue;
        const double d = neighbor_dist[k];
        const double new_reach = std::max(core_d, d);
        if (new_reach < reach[j]) {
          reach[j] = new_reach;
          seeds.push(Seed{new_reach, j});
        }
      }
    }
  }
  if (options.progress) options.progress(1.0);
  return result;
}

ClusteringResult ExtractDbscanClustering(
    const traj::SegmentStore& store, const OpticsResult& optics,
    double eps_cut, double min_lns, double min_trajectory_cardinality) {
  const size_t n = store.size();
  ClusteringResult raw;
  raw.labels.assign(n, kNoise);

  int cluster_id = -1;
  for (size_t k = 0; k < optics.ordering.size(); ++k) {
    const size_t idx = optics.ordering[k];
    const double r = optics.reachability[k];
    const double c = optics.core_distance[k];
    if (r > eps_cut) {
      if (c <= eps_cut) {  // New cluster seeded by a core object.
        ++cluster_id;
        raw.clusters.push_back(Cluster{cluster_id, {}});
        raw.clusters.back().member_indices.push_back(idx);
        raw.labels[idx] = cluster_id;
      }
      // else: noise (stays kNoise).
    } else if (cluster_id >= 0) {
      raw.clusters[cluster_id].member_indices.push_back(idx);
      raw.labels[idx] = cluster_id;
    }
  }

  return FilterByTrajectoryCardinality(SegmentSetView::Of(store),
                                       min_trajectory_cardinality, min_lns,
                                       std::move(raw));
}

}  // namespace traclus::cluster
