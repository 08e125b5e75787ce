#include "traj/segment_store.h"

#include <algorithm>
#include <cmath>

namespace traclus::traj {

SegmentStore::SegmentStore(std::vector<geom::Segment> segments)
    : segments_(std::move(segments)) {
  const size_t n = segments_.size();
  length_.resize(n);
  squared_length_.resize(n);
  half_length_.resize(n);
  inv_length_.resize(n);
  direction_.resize(n);
  unit_direction_.resize(n);
  midpoint_.resize(n);
  id_.resize(n);
  trajectory_id_.resize(n);
  weight_.resize(n);
  dims_ = n == 0 ? 2 : segments_.front().dims();
  // Unused trailing dimensions stay zero-filled so kernels can bind all
  // kMaxDims column pointers unconditionally.
  for (int d = 0; d < geom::kMaxDims; ++d) {
    start_c_[d].assign(n, 0.0);
    end_c_[d].assign(n, 0.0);
    direction_c_[d].assign(n, 0.0);
    midpoint_c_[d].assign(n, 0.0);
  }

  for (size_t i = 0; i < n; ++i) {
    const geom::Segment& s = segments_[i];
    TRACLUS_DCHECK_EQ(s.dims(), dims_);
    // Bit-identical to the accessors: Direction() = end - start,
    // Length() = Direction().Norm() = sqrt(Direction().SquaredNorm()).
    direction_[i] = s.Direction();
    squared_length_[i] = direction_[i].SquaredNorm();
    length_[i] = std::sqrt(squared_length_[i]);
    // Halving is an exponent decrement: 0.5 · length is exact in binary FP.
    half_length_[i] = 0.5 * length_[i];
    inv_length_[i] = length_[i] > 0.0 ? 1.0 / length_[i] : 0.0;
    unit_direction_[i] = direction_[i] * inv_length_[i];
    midpoint_[i] = s.Midpoint();
    id_[i] = s.id();
    trajectory_id_[i] = s.trajectory_id();
    weight_[i] = s.weight();
    // Flat SoA coordinate columns: bit-exact component copies.
    double extent = half_length_[i];
    for (int d = 0; d < dims_; ++d) {
      start_c_[d][i] = s.start()[d];
      end_c_[d][i] = s.end()[d];
      direction_c_[d][i] = direction_[i][d];
      midpoint_c_[d][i] = midpoint_[i][d];
      extent += std::fabs(midpoint_[i][d]);
    }
    if (std::isfinite(extent)) scale_ = std::max(scale_, extent);
  }
}

}  // namespace traclus::traj
