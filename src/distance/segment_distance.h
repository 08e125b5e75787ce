#ifndef TRACLUS_DISTANCE_SEGMENT_DISTANCE_H_
#define TRACLUS_DISTANCE_SEGMENT_DISTANCE_H_

#include <vector>

#include "geom/segment.h"
#include "traj/segment_store.h"

namespace traclus::distance {

/// The three components of the TRACLUS line-segment distance (§2.3, Fig. 5):
/// perpendicular (d⊥, Definition 1), parallel (d∥, Definition 2), and angle
/// (dθ, Definition 3). All are non-negative and expressed in world units.
struct DistanceComponents {
  double perpendicular = 0.0;
  double parallel = 0.0;
  double angle = 0.0;
};

/// Configuration of the weighted line-segment distance
/// dist(Li, Lj) = w⊥·d⊥ + w∥·d∥ + wθ·dθ (§2.3).
///
/// The paper's default is w⊥ = w∥ = wθ = 1, which "generally works well in many
/// applications" (Appendix B); non-uniform weights are supported for
/// domain-specific tuning. `directed` selects Definition 3 (directed
/// trajectories) or the simplified angle distance ‖Lj‖·sin(θ) with θ folded
/// into
/// [0°, 90°] for undirected trajectories (§2.3 remark, §7.1 Extensibility).
struct SegmentDistanceConfig {
  double w_perpendicular = 1.0;
  double w_parallel = 1.0;
  double w_angle = 1.0;
  bool directed = true;

  /// Factory for the paper's default configuration.
  static SegmentDistanceConfig Defaults() { return SegmentDistanceConfig{}; }
};

/// The TRACLUS line-segment distance function.
///
/// Stateless aside from its configuration; cheap to copy. The function is
/// symmetric (Lemma 2): internally, the longer segment plays the role of Li and
/// the shorter of Lj, ties broken by the segments' internal identifiers and, as
/// a final fallback, by lexicographic endpoint comparison so the result never
/// depends on argument order. It is NOT a metric: the triangle inequality can
/// fail (§4.2), which is why `LowerBoundFactor` exists — it converts plain
/// Euclidean segment distance into a provable lower bound usable for exact
/// index pruning.
class SegmentDistance {
 public:
  SegmentDistance() : config_(SegmentDistanceConfig::Defaults()) {}
  explicit SegmentDistance(const SegmentDistanceConfig& config)
      : config_(config) {
    TRACLUS_DCHECK(config.w_perpendicular >= 0 && config.w_parallel >= 0 &&
                   config.w_angle >= 0);
  }

  const SegmentDistanceConfig& config() const { return config_; }

  /// Full weighted distance dist(Li, Lj).
  double operator()(const geom::Segment& a, const geom::Segment& b) const;

  /// Invariant-aware fast path: dist(L_a, L_b) for two segments of one
  /// SegmentStore, bit-identical to the Segment overload. Canonicalization
  /// compares cached lengths (no per-pair sqrt), the Lemma 2 tie-break reads
  /// the stored ids, the angle component reuses the cached direction vectors
  /// and lengths (no per-pair normalization), and the endpoint projections
  /// are computed once and shared between d⊥ and d∥ instead of once per
  /// component. Every reused value is cached from the identical expression
  /// the slow path evaluates, so results match ULP-for-ULP
  /// (tests/segment_store_test.cc asserts bitwise equality on randomized
  /// segments).
  double operator()(const traj::SegmentStore& store, size_t a,
                    size_t b) const;

  /// All three components, computed with the canonical longer/shorter roles.
  DistanceComponents Components(const geom::Segment& a,
                                const geom::Segment& b) const;

  /// Fast-path components over a SegmentStore (see operator() above).
  DistanceComponents Components(const traj::SegmentStore& store, size_t a,
                                size_t b) const;

  /// Perpendicular distance d⊥ (Definition 1): Lehmer mean of order 2 of the
  /// two projection distances l⊥1, l⊥2.
  double Perpendicular(const geom::Segment& a, const geom::Segment& b) const;

  /// Parallel distance d∥ (Definition 2): MIN(l∥1, l∥2). The MIN makes the
  /// measure robust to broken line segments (§2.3 remark).
  double Parallel(const geom::Segment& a, const geom::Segment& b) const;

  /// Angle distance dθ (Definition 3), directed or undirected per the config.
  double Angle(const geom::Segment& a, const geom::Segment& b) const;

  /// Multiplier c such that dist(Li, Lj) ≥ c · EuclideanSegmentDistance(Li, Lj)
  /// for every pair of segments.
  ///
  /// Proof sketch (see DESIGN.md §4.1): let k ∈ {1, 2} attain d∥ = l∥k and let
  /// q be the corresponding endpoint of Lj. The Euclidean distance from q to
  /// the segment Li is at most l⊥k + l∥k (project to the line, then walk along
  /// it to the nearer endpoint). Since the Lehmer mean of order 2 satisfies
  /// d⊥ ≥ max(l⊥1, l⊥2)/2, we get
  ///   mindist(Li, Lj) ≤ l⊥k + l∥k ≤ 2·d⊥ + d∥,
  /// hence w⊥·d⊥ + w∥·d∥ ≥ min(w⊥/2, w∥) · mindist. Nothing here depends on
  /// the dimension, so it holds in 3-D as in 2-D.
  /// Returns 0 when either weight is 0 (no usable bound from these two terms).
  ///
  /// The angle term adds to it (the ε-refines' second prune stage,
  /// distance/batch_kernels.cc). With Li the longer segment (Lemma 2),
  /// L = ‖Li‖ = max(‖Li‖, ‖Lj‖) and θ the angle between the directions d_i
  /// and d_j, ‖d_i × d_j‖ = ‖Li‖·‖Lj‖·sin θ (the cross product's norm in
  /// 3-D, |x_i·y_j − y_i·x_j| in 2-D), so
  ///   * undirected, or directed with θ < 90°: dθ = ‖Lj‖·sin θ
  ///     = ‖d_i × d_j‖ / L;
  ///   * directed with θ ≥ 90° (d_i·d_j ≤ 0): dθ = ‖Lj‖ = ‖Li‖·‖Lj‖ / L.
  /// Call that numerator A. Every term is non-negative and
  /// mindist ≥ ‖mid_i − mid_j‖ − h_i − h_j (each segment lies within its
  /// half-length h of its midpoint), so
  ///   dist ≥ c·(‖mid_i − mid_j‖ − h_i − h_j) + wθ·A / L,
  /// and dist ≥ wθ·A / L alone. With c = 0 (w⊥ = 0 or w∥ = 0) the first
  /// term vanishes but the angle term alone still proves pairs far; with
  /// wθ = 0 the bound is the midpoint bound; for L = 0 both segments are
  /// points, A = 0, and only the midpoint term is left.
  ///
  /// The third prune stage keeps the angle term and swaps the midpoint term
  /// for the perpendicular one. With Li the longer segment, s_i its start,
  /// d_i = e_i − s_i and q_1, q_2 the endpoints of Lj, the distance from q_k
  /// to the line of Li is the cross product's norm over the base,
  ///   l⊥k = ‖d_i × (q_k − s_i)‖ / L = √C_k / L
  /// (|x_i·y_k − y_i·x_k| / L in 2-D). The Lehmer mean of order 2 is at
  /// least the quadratic mean: (a² + b²)/(a + b) ≥ √((a² + b²)/2) squares to
  /// 2·(a² + b²) ≥ (a + b)², i.e. (a − b)² ≥ 0. So
  ///   d⊥ ≥ √((l⊥1² + l⊥2²)/2) = √((C_1 + C_2)/2) / L,
  /// and since w∥·d∥ ≥ 0,
  ///   dist ≥ w⊥·√((C_1 + C_2)/2) / L + wθ·A / L.
  /// Equality holds when l⊥1 = l⊥2 and d∥ = 0 (a parallel Lj level with an
  /// end of Li), which is why the stage needs its own rounding margin.
  /// Writing s_i = mid_i − d_i/2 and q_k = mid_j ∓ d_j/2, the cross terms
  /// cancel in the sum:
  ///   (C_1 + C_2)/2 = ‖d_i × (mid_j − mid_i)‖² + ‖d_i × d_j‖²/4,
  /// which is how the stage evaluates it.
  double LowerBoundFactor() const {
    return std::min(config_.w_perpendicular / 2.0, config_.w_parallel);
  }

 private:
  /// Orders the pair into (longer, shorter) with the Lemma 2 tie-breaks.
  static void Canonicalize(const geom::Segment*& longer,
                           const geom::Segment*& shorter);

  SegmentDistanceConfig config_;
};

}  // namespace traclus::distance

#endif  // TRACLUS_DISTANCE_SEGMENT_DISTANCE_H_
