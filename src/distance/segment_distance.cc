#include "distance/segment_distance.h"

#include <algorithm>
#include <cmath>

#include "distance/store_kernel_detail.h"
#include "geom/vector_ops.h"

namespace traclus::distance {

namespace {

using internal::LexLess;

// Perpendicular component between a canonicalized (longer Li, shorter Lj) pair:
// Lehmer mean of order 2 of the projection distances (Definition 1).
double PerpendicularCanonical(const geom::Segment& li,
                              const geom::Segment& lj) {
  const double l1 =
      geom::PointToLineDistance(lj.start(), li.start(), li.end());
  const double l2 = geom::PointToLineDistance(lj.end(), li.start(), li.end());
  const double denom = l1 + l2;
  if (denom == 0.0) return 0.0;  // Both endpoints on the line.
  return (l1 * l1 + l2 * l2) / denom;
}

// Parallel component (Definition 2): project both endpoints of Lj onto the line
// of Li; for each projection take the distance to the nearer endpoint of Li,
// then take the minimum of the two.
double ParallelCanonical(const geom::Segment& li, const geom::Segment& lj) {
  const geom::Point ps =
      geom::ProjectOntoLine(lj.start(), li.start(), li.end());
  const geom::Point pe = geom::ProjectOntoLine(lj.end(), li.start(), li.end());
  const double lpar1 = std::min(geom::Distance(ps, li.start()),
                                geom::Distance(ps, li.end()));
  const double lpar2 = std::min(geom::Distance(pe, li.start()),
                                geom::Distance(pe, li.end()));
  return std::min(lpar1, lpar2);
}

// Angle component (Definition 3). `directed` distinguishes the two remarks in
// §2.3: directed trajectories use ‖Lj‖ for θ ∈ [90°, 180°]; undirected ones use
// ‖Lj‖·sin(θ) with the angle folded into [0°, 90°].
double AngleCanonical(const geom::Segment& li, const geom::Segment& lj,
                      bool directed) {
  const double len_j = lj.Length();
  if (len_j == 0.0) return 0.0;  // Point-like Lj has no directional strength.
  const double cos_theta =
      geom::CosAngleBetween(li.Direction(), lj.Direction());
  if (directed) {
    if (cos_theta <= 0.0) return len_j;  // θ in [90°, 180°].
    const double sin_theta =
        std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
    return len_j * sin_theta;
  }
  // Undirected: fold θ into [0°, 90°]; sin is unchanged by θ → 180° − θ.
  const double sin_theta =
      std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
  return len_j * sin_theta;
}

}  // namespace

void SegmentDistance::Canonicalize(const geom::Segment*& longer,
                                   const geom::Segment*& shorter) {
  const double la = longer->Length();
  const double lb = shorter->Length();
  bool swap = false;
  if (la < lb) {
    swap = true;
  } else if (la == lb) {
    // Lemma 2 tie-break: internal identifier, then lexicographic endpoints.
    if (longer->id() >= 0 && shorter->id() >= 0 &&
        longer->id() != shorter->id()) {
      swap = longer->id() > shorter->id();
    } else {
      swap = LexLess(*shorter, *longer);
    }
  }
  if (swap) std::swap(longer, shorter);
}

DistanceComponents SegmentDistance::Components(const geom::Segment& a,
                                               const geom::Segment& b) const {
  TRACLUS_DCHECK_EQ(a.dims(), b.dims());
  const geom::Segment* li = &a;
  const geom::Segment* lj = &b;
  Canonicalize(li, lj);
  DistanceComponents c;
  c.perpendicular = PerpendicularCanonical(*li, *lj);
  c.parallel = ParallelCanonical(*li, *lj);
  c.angle = AngleCanonical(*li, *lj, config_.directed);
  return c;
}

double SegmentDistance::operator()(const geom::Segment& a,
                                   const geom::Segment& b) const {
  const DistanceComponents c = Components(a, b);
  return config_.w_perpendicular * c.perpendicular +
         config_.w_parallel * c.parallel + config_.w_angle * c.angle;
}

DistanceComponents SegmentDistance::Components(const traj::SegmentStore& store,
                                               size_t a, size_t b) const {
  TRACLUS_DCHECK(a < store.size() && b < store.size());
  size_t li = a;
  size_t lj = b;
  internal::CanonicalizeInStore(store, li, lj);
  DistanceComponents c;
  internal::StoreComponentsCanonicalInto(
      store, li, lj, config_.directed,
      [&](double perpendicular, double parallel, double angle) {
        c.perpendicular = perpendicular;
        c.parallel = parallel;
        c.angle = angle;
      });
  return c;
}

double SegmentDistance::operator()(const traj::SegmentStore& store, size_t a,
                                   size_t b) const {
  const DistanceComponents c = Components(store, a, b);
  return config_.w_perpendicular * c.perpendicular +
         config_.w_parallel * c.parallel + config_.w_angle * c.angle;
}

double SegmentDistance::Perpendicular(const geom::Segment& a,
                                      const geom::Segment& b) const {
  const geom::Segment* li = &a;
  const geom::Segment* lj = &b;
  Canonicalize(li, lj);
  return PerpendicularCanonical(*li, *lj);
}

double SegmentDistance::Parallel(const geom::Segment& a,
                                 const geom::Segment& b) const {
  const geom::Segment* li = &a;
  const geom::Segment* lj = &b;
  Canonicalize(li, lj);
  return ParallelCanonical(*li, *lj);
}

double SegmentDistance::Angle(const geom::Segment& a,
                              const geom::Segment& b) const {
  const geom::Segment* li = &a;
  const geom::Segment* lj = &b;
  Canonicalize(li, lj);
  return AngleCanonical(*li, *lj, config_.directed);
}

}  // namespace traclus::distance
