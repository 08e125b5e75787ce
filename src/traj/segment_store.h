#ifndef TRACLUS_TRAJ_SEGMENT_STORE_H_
#define TRACLUS_TRAJ_SEGMENT_STORE_H_

// SegmentStore: the flat, invariant-caching segment database that the
// pipeline stages exchange.
//
// The grouping phase is dominated by line-segment distance computation
// (§5.4), and every pairwise distance call needs the same per-segment
// quantities — length, squared length, direction — that a plain
// std::vector<geom::Segment> forces it to recompute from endpoints on every
// call. The store computes each invariant exactly once, right after
// partitioning, and keeps it in a contiguous structure-of-arrays layout so
// the hot loops stream over flat double arrays instead of chasing accessor
// chains.
//
// Invariants are computed with the very same floating-point expressions the
// Segment accessors use (length = Direction().Norm(), midpoint =
// (start + end) * 0.5, ...), so a cached value is bit-identical to a fresh
// recomputation — consumers that switch from the accessor to the cache
// cannot perturb results by even one ULP. tests/segment_store_test.cc pins
// this down on randomized segments.
//
// The store also keeps the original segments as an array-of-structs view
// (`segments()`), because parts of the pipeline (the representative sweep,
// SVG output, CSV dumps) genuinely want whole Segment values; the store is a
// superset of the old currency, never a lossy replacement.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/segment.h"

namespace traclus::traj {

/// Structure-of-arrays segment database with precomputed per-segment
/// invariants. Immutable after construction; cheap to move, deliberately
/// expensive to copy (it holds every invariant array).
///
/// Thread-compatible: all accessors are const and touch only data frozen at
/// construction, so any number of threads may read concurrently.
class SegmentStore {
 public:
  SegmentStore() = default;

  /// Builds the store and every invariant in one O(n) pass.
  explicit SegmentStore(std::vector<geom::Segment> segments);

  /// Named factory for freezing a raw segment vector into a store — the
  /// explicit spelling of the constructor above, preferred at call sites
  /// where "one O(n) invariant pass happens here" should be visible (e.g.
  /// ahead of TraclusEngine::Group, whose implicit freeze-a-store overload
  /// is deprecated).
  static SegmentStore FromSegments(std::vector<geom::Segment> segments) {
    return SegmentStore(std::move(segments));
  }

  size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }
  /// Spatial dimensionality (2 when empty, matching the library default).
  int dims() const { return dims_; }

  /// Array-of-structs view of the same database (always consistent with the
  /// invariant arrays).
  const std::vector<geom::Segment>& segments() const { return segments_; }
  const geom::Segment& segment(size_t i) const {
    TRACLUS_DCHECK(i < segments_.size());
    return segments_[i];
  }

  /// Container-style read access, so the store can stand in wherever a
  /// read-only segment sequence is expected.
  const geom::Segment& operator[](size_t i) const { return segment(i); }
  std::vector<geom::Segment>::const_iterator begin() const {
    return segments_.begin();
  }
  std::vector<geom::Segment>::const_iterator end() const {
    return segments_.end();
  }

  // --- Per-segment invariants -------------------------------------------
  // The distance fast path consumes length/squared_length/direction;
  // inv_length, unit_direction, and midpoint are part of the substrate
  // contract for SoA batch kernels (see ROADMAP: SIMD batch distance,
  // sharded/streaming backends) and for consumers that do not need
  // bit-identity with the Segment accessors.
  // Each equals the corresponding fresh computation bit-for-bit:
  //   direction(i)       == segment(i).Direction()
  //   squared_length(i)  == segment(i).Direction().SquaredNorm()
  //   length(i)          == segment(i).Length()
  //   midpoint(i)        == segment(i).Midpoint()

  double length(size_t i) const { return length_[i]; }
  double squared_length(size_t i) const { return squared_length_[i]; }
  /// length * 0.5 (exact halving) — the radius of the segment's midpoint
  /// enclosing ball, consumed by the batch kernels' triangle-inequality
  /// candidate prune (distance/batch_kernels.h).
  double half_length(size_t i) const { return half_length_[i]; }
  /// 1 / length, or 0 for a degenerate (point-like) segment. For fast-path
  /// code that may multiply instead of divide; NOT bit-equivalent to
  /// dividing by length, so exactness-critical paths must divide.
  double inv_length(size_t i) const { return inv_length_[i]; }
  const geom::Point& direction(size_t i) const { return direction_[i]; }
  /// direction * inv_length (the zero vector for degenerate segments).
  const geom::Point& unit_direction(size_t i) const {
    return unit_direction_[i];
  }
  const geom::Point& midpoint(size_t i) const { return midpoint_[i]; }
  geom::SegmentId id(size_t i) const { return id_[i]; }
  geom::TrajectoryId trajectory_id(size_t i) const {
    return trajectory_id_[i];
  }
  double weight(size_t i) const { return weight_[i]; }

  /// The largest ‖midpoint(i)‖₁ + half_length(i) over the segments whose
  /// sum is finite (0 when none is). It bounds the norm of every finite
  /// endpoint, so the ε-prune's rounding margins, which grow with the
  /// coordinates, scale by it (distance/batch_kernels.h).
  double scale() const { return scale_; }

  // --- Whole-column access for kernels and diagnostics ------------------
  const std::vector<double>& lengths() const { return length_; }
  const std::vector<double>& squared_lengths() const {
    return squared_length_;
  }
  const std::vector<double>& half_lengths() const { return half_length_; }
  const std::vector<double>& weights() const { return weight_; }
  const std::vector<geom::TrajectoryId>& trajectory_ids() const {
    return trajectory_id_;
  }

  // --- Flat SoA coordinate columns --------------------------------------
  // One contiguous double array per (quantity, dimension): the substrate of
  // the SIMD batch distance kernels (distance/batch_kernels.h), which stream
  // plain double loads instead of chasing Point objects. Each entry is a
  // bit-exact copy of the corresponding Point component:
  //   start_coords(d)[i]     == segment(i).start()[d]
  //   end_coords(d)[i]       == segment(i).end()[d]
  //   direction_coords(d)[i] == direction(i)[d]
  //   midpoint_coords(d)[i]  == midpoint(i)[d]
  // Columns for d ≥ dims() exist and are zero-filled so kernels may bind all
  // kMaxDims pointers unconditionally; exactness-critical loops must still
  // iterate only d < dims(), mirroring the Point operations.
  const std::vector<double>& start_coords(int d) const {
    TRACLUS_DCHECK(d >= 0 && d < geom::kMaxDims);
    return start_c_[d];
  }
  const std::vector<double>& end_coords(int d) const {
    TRACLUS_DCHECK(d >= 0 && d < geom::kMaxDims);
    return end_c_[d];
  }
  const std::vector<double>& direction_coords(int d) const {
    TRACLUS_DCHECK(d >= 0 && d < geom::kMaxDims);
    return direction_c_[d];
  }
  const std::vector<double>& midpoint_coords(int d) const {
    TRACLUS_DCHECK(d >= 0 && d < geom::kMaxDims);
    return midpoint_c_[d];
  }

 private:
  std::vector<geom::Segment> segments_;
  std::vector<double> length_;
  std::vector<double> squared_length_;
  std::vector<double> half_length_;
  std::vector<double> inv_length_;
  std::vector<geom::Point> direction_;
  std::vector<geom::Point> unit_direction_;
  std::vector<geom::Point> midpoint_;
  std::vector<geom::SegmentId> id_;
  std::vector<geom::TrajectoryId> trajectory_id_;
  std::vector<double> weight_;
  std::array<std::vector<double>, geom::kMaxDims> start_c_;
  std::array<std::vector<double>, geom::kMaxDims> end_c_;
  std::array<std::vector<double>, geom::kMaxDims> direction_c_;
  std::array<std::vector<double>, geom::kMaxDims> midpoint_c_;
  int dims_ = 2;
  double scale_ = 0.0;
};

}  // namespace traclus::traj

#endif  // TRACLUS_TRAJ_SEGMENT_STORE_H_
