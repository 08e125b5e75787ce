#include "core/sieve_stage.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/thread_pool.h"
#include "geom/segment.h"

namespace traclus::core {

SieveGroupStage::SieveGroupStage(std::shared_ptr<const GroupStage> inner,
                                 const SieveGroupOptions& options)
    : inner_(std::move(inner)), options_(options) {
  name_ = "group/sieve+";
  if (inner_ != nullptr) {
    // Strip the inner stage's layer prefix ("group/dbscan" → "dbscan") so the
    // composite reads "group/sieve+dbscan".
    std::string inner_name = inner_->name();
    const size_t slash = inner_name.rfind('/');
    name_ += slash == std::string::npos ? inner_name
                                        : inner_name.substr(slash + 1);
  } else {
    name_ += "null";
  }
}

const char* SieveGroupStage::name() const { return name_.c_str(); }

common::Status SieveGroupStage::Validate() const {
  if (inner_ == nullptr) {
    return common::Status::InvalidArgument(
        "SieveGroupStage requires a non-null inner group stage");
  }
  TRACLUS_RETURN_NOT_OK(inner_->Validate());
  if (!inner_->density()) {
    return common::Status::InvalidArgument(
        std::string("SieveGroupStage needs an inner group stage that reports "
                    "GroupStage::density(); '") +
        inner_->name() + "' reports none");
  }
  if (options_.k < 2) {
    return common::Status::OutOfRange(
        "sieve stride k must be >= 2 (without a sieve, use the inner group "
        "stage directly)");
  }
  return common::Status::OK();
}

std::optional<DensityParams> SieveGroupStage::density() const {
  return inner_ != nullptr ? inner_->density() : std::nullopt;
}

common::Result<cluster::ClusteringResult> SieveGroupStage::Run(
    const traj::SegmentStore& store, const RunContext& ctx) const {
  const size_t n = store.size();
  const size_t k = options_.k;
  // Validate refuses an inner stage without density parameters.
  const DensityParams params = inner_->density().value();

  // Sampling unit is the trajectory: a trajectory's segments stay together so
  // the sample preserves within-trajectory density (a segment's ε-neighbors
  // are dominated by its own trajectory's neighbors in real data). Rank
  // trajectories by first appearance in store order — a pure function of the
  // store, independent of threads — and sample the options().offset residue
  // class of that rank.
  std::unordered_map<geom::TrajectoryId, size_t> rank_of;
  const size_t offset = options_.offset % k;
  std::vector<char> sampled(n, 0);
  std::vector<size_t> sampled_global;  // ascending store order
  for (size_t i = 0; i < n; ++i) {
    const auto it =
        rank_of.emplace(store.trajectory_id(i), rank_of.size()).first;
    if (it->second % k == offset) {
      sampled[i] = 1;
      sampled_global.push_back(i);
    }
  }

  // Group the sample through the inner backend. The local store rebuilds its
  // invariant cache from the gathered segments; CrossCanonicalSwap is a pure
  // per-segment function, so local invariants are bit-identical to the global
  // store's for the same segments.
  std::vector<geom::Segment> sample_segments;
  sample_segments.reserve(sampled_global.size());
  for (const size_t i : sampled_global) {
    sample_segments.push_back(store.segment(i));
  }
  const traj::SegmentStore sample_store =
      traj::SegmentStore::FromSegments(std::move(sample_segments));

  auto inner_result = inner_->Run(sample_store, ctx);
  TRACLUS_RETURN_NOT_OK(inner_result.status());
  const cluster::ClusteringResult& sample = *inner_result;

  cluster::ClusteringResult out;
  out.labels.assign(n, cluster::kNoise);
  for (size_t local = 0; local < sample.labels.size(); ++local) {
    out.labels[sampled_global[local]] = sample.labels[local];
  }

  // Anchors: every sampled segment that landed in a cluster, in ascending
  // global index order — the assignment below tie-breaks toward the earliest
  // anchor, so this order is part of the determinism contract.
  std::vector<size_t> anchor_idx;
  std::vector<int> anchor_label;
  for (const size_t i : sampled_global) {
    if (out.labels[i] >= 0) {
      anchor_idx.push_back(i);
      anchor_label.push_back(out.labels[i]);
    }
  }

  const std::vector<size_t> queries = [&] {
    std::vector<size_t> q;
    q.reserve(n - sampled_global.size());
    for (size_t i = 0; i < n; ++i) {
      if (!sampled[i]) q.push_back(i);
    }
    return q;
  }();

  if (!anchor_idx.empty() && !queries.empty()) {
    const distance::SegmentDistance dist(params.distance);
    distance::BatchOptions options;
    options.kernel = ctx.distance_kernel;
    const common::Span<const size_t> anchors(anchor_idx.data(),
                                             anchor_idx.size());
    std::vector<size_t> nearest(queries.size());
    std::vector<double> nearest_dist(queries.size());
    // Index-addressed slots + a fixed candidate set per query: the result is
    // byte-identical for every thread count and kernel.
    common::SharedPool(ctx.num_threads)
        .ParallelForChunked(0, queries.size(), [&](size_t lo, size_t hi) {
          distance::NearestWithinEps(
              store, dist,
              common::Span<const size_t>(queries.data() + lo, hi - lo),
              store, anchors, params.eps,
              common::Span<size_t>(nearest.data() + lo, hi - lo),
              common::Span<double>(nearest_dist.data() + lo, hi - lo),
              options);
        });
    for (size_t q = 0; q < queries.size(); ++q) {
      if (nearest[q] != distance::kNoNearest) {
        out.labels[queries[q]] = anchor_label[nearest[q]];
      }
    }
  }

  // Rebuild the cluster membership lists (ascending member order, like every
  // grouping backend) and the noise count from the final labels. Cluster ids
  // are the inner backend's dense ids; a sample cluster can in principle lose
  // all members only if the inner result had an empty cluster, so the id
  // space carries over unchanged.
  out.clusters.resize(sample.clusters.size());
  for (size_t c = 0; c < out.clusters.size(); ++c) {
    out.clusters[c].id = sample.clusters[c].id;
  }
  out.num_noise = 0;
  for (size_t i = 0; i < n; ++i) {
    const int label = out.labels[i];
    if (label >= 0) {
      out.clusters[static_cast<size_t>(label)].member_indices.push_back(i);
    } else {
      ++out.num_noise;
    }
  }
  return out;
}

}  // namespace traclus::core
