#include "cluster/cluster.h"

#include <utility>

#include "common/logging.h"

namespace traclus::cluster {

std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const std::vector<geom::Segment>& segments, const Cluster& cluster) {
  std::unordered_set<geom::TrajectoryId> out;
  out.reserve(cluster.member_indices.size());
  for (const size_t idx : cluster.member_indices) {
    TRACLUS_DCHECK(idx < segments.size());
    out.insert(segments[idx].trajectory_id());
  }
  return out;
}

size_t TrajectoryCardinality(const std::vector<geom::Segment>& segments,
                             const Cluster& cluster) {
  return ParticipatingTrajectories(segments, cluster).size();
}

std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const traj::SegmentStore& store, const Cluster& cluster) {
  return ParticipatingTrajectories(SegmentSetView::Of(store), cluster);
}

size_t TrajectoryCardinality(const traj::SegmentStore& store,
                             const Cluster& cluster) {
  return ParticipatingTrajectories(store, cluster).size();
}

std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const SegmentSetView& view, const Cluster& cluster) {
  std::unordered_set<geom::TrajectoryId> out;
  out.reserve(cluster.member_indices.size());
  const auto& ids = view.trajectory_ids;
  for (const size_t idx : cluster.member_indices) {
    TRACLUS_DCHECK(idx < ids.size());
    out.insert(ids[idx]);
  }
  return out;
}

size_t TrajectoryCardinality(const SegmentSetView& view,
                             const Cluster& cluster) {
  return ParticipatingTrajectories(view, cluster).size();
}

ClusteringResult FilterByTrajectoryCardinality(
    const SegmentSetView& view, double min_trajectory_cardinality,
    double min_lns, ClusteringResult raw) {
  const double threshold = min_trajectory_cardinality < 0.0
                               ? min_lns
                               : min_trajectory_cardinality;
  ClusteringResult result;
  result.labels = std::move(raw.labels);
  std::vector<int> remap(raw.clusters.size(), kNoise);
  for (size_t c = 0; c < raw.clusters.size(); ++c) {
    Cluster& cluster = raw.clusters[c];
    TRACLUS_DCHECK(cluster.id == static_cast<int>(c));
    const double ptr =
        static_cast<double>(TrajectoryCardinality(view, cluster));
    if (ptr < threshold) continue;  // Removed; members become noise.
    const int dense = static_cast<int>(result.clusters.size());
    remap[c] = dense;
    cluster.id = dense;
    result.clusters.push_back(std::move(cluster));
  }
  for (int& label : result.labels) {
    TRACLUS_DCHECK(label != kUnclassified);
    if (label >= 0) label = remap[static_cast<size_t>(label)];
    if (label == kNoise) ++result.num_noise;
  }
  return result;
}

}  // namespace traclus::cluster
