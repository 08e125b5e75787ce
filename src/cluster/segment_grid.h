#ifndef TRACLUS_CLUSTER_SEGMENT_GRID_H_
#define TRACLUS_CLUSTER_SEGMENT_GRID_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/bbox.h"

namespace traclus::cluster {

/// Uniform grid over per-segment MBRs: the candidate generator of
/// ChunkedNeighborhood, built from the chunked store's always-resident
/// catalog. (The eager join, cluster::TileJoin, prunes Morton blocks
/// instead.)
///
/// The cell edge defaults to twice the mean MBR extent, keeping per-segment
/// cell fan-out O(1) on the paper's workloads.
class SegmentGrid {
 public:
  /// `bboxes[i]` is segment i's MBR. `cell_size` ≤ 0 selects the automatic
  /// heuristic.
  SegmentGrid(const std::vector<geom::BBox>& bboxes, int dims,
              double cell_size);

  /// Calls visit(i) for every member i of every cell that `box` grown by
  /// `radius` overlaps, in cell order then insertion (index) order. A
  /// segment spanning several cells is visited once per cell; callers
  /// deduplicate.
  template <typename Visit>
  void ForEachInReach(const geom::BBox& box, double radius,
                      const Visit& visit) const {
    const CellCoord lo = CellOf(box.lo(0) - radius, box.lo(1) - radius,
                                dims_ == 3 ? box.lo(2) - radius : 0.0);
    const CellCoord hi = CellOf(box.hi(0) + radius, box.hi(1) + radius,
                                dims_ == 3 ? box.hi(2) + radius : 0.0);
    for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
      for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
        for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
          const auto it = cells_.find(CellKey({cx, cy, cz}));
          if (it == cells_.end()) continue;
          for (const size_t i : it->second) visit(i);
        }
      }
    }
  }

 private:
  struct CellCoord {
    int64_t x;
    int64_t y;
    int64_t z;
  };

  CellCoord CellOf(double x, double y, double z) const {
    return CellCoord{static_cast<int64_t>(std::floor(x / cell_size_)),
                     static_cast<int64_t>(std::floor(y / cell_size_)),
                     static_cast<int64_t>(std::floor(z / cell_size_))};
  }
  static uint64_t CellKey(const CellCoord& c);

  int dims_;
  double cell_size_ = 1.0;
  std::unordered_map<uint64_t, std::vector<size_t>> cells_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_SEGMENT_GRID_H_
