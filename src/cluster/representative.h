#ifndef TRACLUS_CLUSTER_REPRESENTATIVE_H_
#define TRACLUS_CLUSTER_REPRESENTATIVE_H_

#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "geom/point.h"
#include "traj/segment_store.h"
#include "traj/trajectory.h"

namespace traclus::cluster {

/// How the sweep coordinate frame is realized.
enum class RepresentativeMethod {
  /// The paper's 2-D formulation: rotate the axes with the Formula (9) matrix
  /// so X becomes parallel to the average direction vector (Fig. 14). 2-D only.
  kRotation2D,
  /// Dimension-generic equivalent: scalar-project points onto the unit average
  /// direction vector and average the orthogonal residuals. Identical to
  /// kRotation2D in two dimensions (tests assert this).
  kProjection,
};

/// Parameters of Representative Trajectory Generation (Fig. 15).
struct RepresentativeOptions {
  /// Minimum number of segments the sweep line must hit for a point to be
  /// emitted (Fig. 13: positions hit by fewer than MinLns segments are
  /// skipped).
  double min_lns = 3.0;
  /// Smoothing parameter γ: minimum gap between consecutive emitted sweep
  /// positions (Fig. 15 line 09). 0 disables smoothing.
  double gamma = 0.0;
  RepresentativeMethod method = RepresentativeMethod::kProjection;
  /// When true, sweep hit counts use segment weights (consistent with the
  /// weighted-density extension of §4.2).
  bool use_weights = false;
  /// Worker threads for one cluster's sweep (0 = hardware concurrency).
  /// Sweeps with at least kSweepSplitMinStops stops split them into ranges
  /// on the shared pool; output is byte-identical for every value.
  int num_threads = 1;
};

/// Sweep stops at which one cluster's sweep starts splitting across threads.
/// Each range pays an O(m) seed scan. `bench_representative_sweep`, built
/// with the split forced at every size, timed prefixes of the hurricane
/// corpus's largest cluster at 4 threads against 1 (4 vCPUs, median of 7,
/// two runs): up to ~930 stops the split tied or lost, and from ~1,080
/// stops on it won every run (1,077 stops: 0.51/0.58 → 0.34/0.47 ms;
/// 2,866 stops: 2.7 → 1.7 ms).
inline constexpr size_t kSweepSplitMinStops = 1024;

/// Computes the average direction vector of Definition 11 over the cluster's
/// member segments: the (component-wise) mean of the segment vectors. Summing
/// full vectors rather than unit vectors deliberately weights longer segments
/// more. If the mean is (near-)zero — segments cancel — falls back to the
/// direction of the longest member so a frame always exists.
geom::Point AverageDirectionVector(const std::vector<geom::Segment>& segments,
                                   const Cluster& cluster);

/// Store-backed overload: sums the cached direction vectors (and reads the
/// cached lengths in the cancellation fallback) instead of recomputing them
/// per member.
geom::Point AverageDirectionVector(const traj::SegmentStore& store,
                                   const Cluster& cluster);

/// Generates the representative trajectory RTR_i of a cluster (§4.3, Fig. 15):
/// sweeps a line orthogonal to the average direction vector across the member
/// segments, and wherever at least MinLns segments are hit (and the gap since
/// the previous emission is ≥ γ) emits the average coordinate of the hit
/// segments, translated back into the original frame.
///
/// The sweep sorts the members' enter and exit X'-values once and stops at
/// each distinct value, keeping the hit segments as a bitmap over member
/// positions, so one cluster of m members with S stops costs
/// O(m log m + S·m/64 + Σ hits). Sums over the hit segments add in
/// `cluster.member_indices` order. Large sweeps split their stops into
/// ranges across `options.num_threads` workers.
///
/// Returns an empty trajectory when no sweep position reaches MinLns hits.
/// Member coordinates must be finite.
traj::Trajectory RepresentativeTrajectory(
    const std::vector<geom::Segment>& segments, const Cluster& cluster,
    const RepresentativeOptions& options);

/// Store-backed overload: identical output; the sweep frame is built from the
/// store's cached direction sums and its AoS view.
traj::Trajectory RepresentativeTrajectory(const traj::SegmentStore& store,
                                          const Cluster& cluster,
                                          const RepresentativeOptions& options);

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_REPRESENTATIVE_H_
