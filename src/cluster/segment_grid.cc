#include "cluster/segment_grid.h"

#include <algorithm>

namespace traclus::cluster {

SegmentGrid::SegmentGrid(const std::vector<geom::BBox>& bboxes, int dims,
                         double cell_size)
    : dims_(dims) {
  if (cell_size > 0.0) {
    cell_size_ = cell_size;
  } else {
    double extent_sum = 0.0;
    for (const geom::BBox& b : bboxes) {
      for (int d = 0; d < b.dims(); ++d) extent_sum += b.Extent(d);
    }
    const double denom =
        std::max<size_t>(1, bboxes.size()) * std::max(1, dims_);
    const double mean_extent = extent_sum / static_cast<double>(denom);
    cell_size_ = std::max(2.0 * mean_extent, 1e-9);
  }

  for (size_t i = 0; i < bboxes.size(); ++i) {
    const geom::BBox& b = bboxes[i];
    const CellCoord lo = CellOf(b.lo(0), b.lo(1), dims_ == 3 ? b.lo(2) : 0.0);
    const CellCoord hi = CellOf(b.hi(0), b.hi(1), dims_ == 3 ? b.hi(2) : 0.0);
    for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
      for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
        for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
          cells_[CellKey({cx, cy, cz})].push_back(i);
        }
      }
    }
  }
}

// Mixes the three cell coordinates into one key. Collisions are harmless
// (cells just share a bucket); correctness never depends on the key.
uint64_t SegmentGrid::CellKey(const CellCoord& c) {
  const uint64_t a = static_cast<uint64_t>(c.x) * 0x9E3779B97F4A7C15ull;
  const uint64_t b = static_cast<uint64_t>(c.y) * 0xC2B2AE3D27D4EB4Full;
  const uint64_t z = static_cast<uint64_t>(c.z) * 0x165667B19E3779F9ull;
  uint64_t h = a ^ (b >> 1) ^ (z << 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace traclus::cluster
