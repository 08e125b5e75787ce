#ifndef TRACLUS_CLUSTER_CLUSTER_H_
#define TRACLUS_CLUSTER_CLUSTER_H_

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "common/span.h"
#include "geom/segment.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"

namespace traclus::cluster {

/// Label of a segment not (yet) assigned to any cluster.
inline constexpr int kUnclassified = -2;
/// Label of a segment classified as noise (Fig. 12 line 12).
inline constexpr int kNoise = -1;

/// A cluster: a set of trajectory partitions (line segments), identified by
/// their indices into the segment database D (§2.1).
struct Cluster {
  int id = 0;
  std::vector<size_t> member_indices;

  size_t size() const { return member_indices.size(); }
};

/// Output of the grouping phase.
struct ClusteringResult {
  /// Surviving clusters, re-numbered densely from 0 after the trajectory
  /// cardinality filter (Fig. 12 step 3).
  std::vector<Cluster> clusters;
  /// Per-segment label: cluster id, kNoise, or (never after completion)
  /// kUnclassified. Indexed like the input segment vector.
  std::vector<int> labels;
  /// Number of segments labelled noise.
  size_t num_noise = 0;
};

/// Non-owning view of the per-segment catalog columns the grouping
/// algorithms read — count, weight, and trajectory provenance — without
/// touching segment payloads (endpoints, directions). Both the monolithic
/// SegmentStore and the chunked store's always-resident catalog
/// (traj/chunked_store.h) produce one, which is what lets DBSCAN's density
/// accounting and the Definition 10 cardinality filter run without faulting
/// a single payload chunk.
struct SegmentSetView {
  size_t count = 0;
  common::Span<const double> weights;
  common::Span<const geom::TrajectoryId> trajectory_ids;

  size_t size() const { return count; }

  static SegmentSetView Of(const traj::SegmentStore& store) {
    SegmentSetView view;
    view.count = store.size();
    view.weights = store.weights();
    view.trajectory_ids = store.trajectory_ids();
    return view;
  }

  /// The chunked store's always-resident catalog: reading it faults no
  /// payload chunk.
  static SegmentSetView Of(const traj::ChunkedSegmentStore& store) {
    SegmentSetView view;
    view.count = store.size();
    view.weights = store.weights();
    view.trajectory_ids = store.trajectory_ids();
    return view;
  }
};

/// The set of participating trajectories PTR(C) of a cluster (Definition 10):
/// the distinct trajectories its member segments were extracted from.
std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const std::vector<geom::Segment>& segments, const Cluster& cluster);

/// Store-backed overload: reads the contiguous trajectory-id column instead
/// of dereferencing whole segments.
std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const traj::SegmentStore& store, const Cluster& cluster);

/// |PTR(C)|, the trajectory cardinality used by the Fig. 12 step-3 filter.
size_t TrajectoryCardinality(const std::vector<geom::Segment>& segments,
                             const Cluster& cluster);

/// Store-backed overload of TrajectoryCardinality.
size_t TrajectoryCardinality(const traj::SegmentStore& store,
                             const Cluster& cluster);

/// View-backed overloads: read the trajectory-id column through a
/// SegmentSetView (identical results to the store overloads, which delegate
/// to these through SegmentSetView::Of).
std::unordered_set<geom::TrajectoryId> ParticipatingTrajectories(
    const SegmentSetView& view, const Cluster& cluster);
size_t TrajectoryCardinality(const SegmentSetView& view,
                             const Cluster& cluster);

/// The trajectory-cardinality filter of Fig. 12 step 3 (lines 13-16), the
/// one copy every grouping backend applies. `raw` holds the clusters as
/// found, each with id equal to its index, and labels that name one of them
/// or kNoise. Clusters with |PTR(C)| (Definition 10) below the threshold are
/// removed and their members become noise; the threshold is
/// `min_trajectory_cardinality`, or `min_lns` when that is negative (0
/// keeps every cluster). Survivors are renumbered densely in raw order and
/// num_noise is recounted.
ClusteringResult FilterByTrajectoryCardinality(
    const SegmentSetView& view, double min_trajectory_cardinality,
    double min_lns, ClusteringResult raw);

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CLUSTER_H_
