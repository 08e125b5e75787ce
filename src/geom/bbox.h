#ifndef TRACLUS_GEOM_BBOX_H_
#define TRACLUS_GEOM_BBOX_H_

#include <algorithm>
#include <limits>

#include "geom/point.h"
#include "geom/segment.h"

namespace traclus::geom {

/// Axis-aligned bounding box: the spatial extent of a trajectory database,
/// a generator's world, or an SVG viewport.
///
/// Tracks dimensionality from the first point it encloses. An empty box reports
/// infinite mindist to everything.
class BBox {
 public:
  BBox() : dims_(0) {
    for (int i = 0; i < kMaxDims; ++i) {
      lo_[i] = std::numeric_limits<double>::infinity();
      hi_[i] = -std::numeric_limits<double>::infinity();
    }
  }

  /// Expands the box to include `p`.
  void Extend(const Point& p) {
    if (dims_ == 0) dims_ = p.dims();
    TRACLUS_DCHECK_EQ(dims_, p.dims());
    for (int i = 0; i < dims_; ++i) {
      lo_[i] = std::min(lo_[i], p[i]);
      hi_[i] = std::max(hi_[i], p[i]);
    }
  }

  /// Expands the box to include both endpoints of `s`.
  void Extend(const Segment& s) {
    Extend(s.start());
    Extend(s.end());
  }

  /// Expands the box to include `other`.
  void Extend(const BBox& other) {
    if (other.empty()) return;
    if (dims_ == 0) dims_ = other.dims_;
    TRACLUS_DCHECK_EQ(dims_, other.dims_);
    for (int i = 0; i < dims_; ++i) {
      lo_[i] = std::min(lo_[i], other.lo_[i]);
      hi_[i] = std::max(hi_[i], other.hi_[i]);
    }
  }

  bool empty() const { return dims_ == 0; }
  int dims() const { return dims_; }
  double lo(int i) const {
    TRACLUS_DCHECK(i >= 0 && i < dims_);
    return lo_[i];
  }
  double hi(int i) const {
    TRACLUS_DCHECK(i >= 0 && i < dims_);
    return hi_[i];
  }

  /// Extent along dimension i.
  double Extent(int i) const { return hi(i) - lo(i); }

  /// Minimum Euclidean distance between this box and `other` (0 if they
  /// intersect). Lower-bounds the distance between any contained geometries.
  double MinDist(const BBox& other) const {
    if (empty() || other.empty()) {
      return std::numeric_limits<double>::infinity();
    }
    TRACLUS_DCHECK_EQ(dims_, other.dims_);
    double s = 0.0;
    for (int i = 0; i < dims_; ++i) {
      double gap = 0.0;
      if (other.hi_[i] < lo_[i]) {
        gap = lo_[i] - other.hi_[i];
      } else if (hi_[i] < other.lo_[i]) {
        gap = other.lo_[i] - hi_[i];
      }
      s += gap * gap;
    }
    return std::sqrt(s);
  }

  /// True if `p` lies inside the closed box.
  bool Contains(const Point& p) const {
    if (empty()) return false;
    TRACLUS_DCHECK_EQ(dims_, p.dims());
    for (int i = 0; i < dims_; ++i) {
      if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
    }
    return true;
  }

 private:
  double lo_[kMaxDims];
  double hi_[kMaxDims];
  int dims_;
};

}  // namespace traclus::geom

#endif  // TRACLUS_GEOM_BBOX_H_
