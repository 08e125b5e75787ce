#include "cluster/shard_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Inclusive slack on the squared ghost-threshold comparison, mirroring the
// batch layer's prune slack: boundary segments must land in the halo, never
// out of it.
constexpr double kGhostSlack = 1e-9;

struct CellCoord {
  int64_t x = 0;
  int64_t y = 0;
  int64_t z = 0;
};

bool LexLess(const CellCoord& a, const CellCoord& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

}  // namespace

ShardGrid::ShardGrid(const traj::SegmentStore& store, size_t num_shards)
    : store_(store), dims_(store.dims()) {
  TRACLUS_CHECK_GT(num_shards, 0u);
  const size_t n = store.size();
  owned_.resize(num_shards);
  h_max_.assign(num_shards, 0.0);
  owner_.assign(n, 0);
  if (n == 0) return;

  // Cell size: the midpoint bbox's largest extent split into
  // ceil(sqrt(16 · S)) cells per axis, giving the balanced split roughly 16
  // occupied-cell granules per shard to work with.
  double extent = 0.0;
  for (int d = 0; d < dims_; ++d) {
    const std::vector<double>& mid = store_.midpoint_coords(d);
    const auto [lo, hi] = std::minmax_element(mid.begin(), mid.end());
    extent = std::max(extent, *hi - *lo);
  }
  const double cells_per_axis =
      std::ceil(std::sqrt(16.0 * static_cast<double>(num_shards)));
  const double cell_size = std::max(extent / cells_per_axis, 1e-9);

  // Per-segment cell coordinates, then the occupied-cell list in
  // lexicographic order with occupancy counts.
  std::vector<CellCoord> coord(n);
  for (int d = 0; d < dims_; ++d) {
    const std::vector<double>& mid = store_.midpoint_coords(d);
    for (size_t i = 0; i < n; ++i) {
      const int64_t c = static_cast<int64_t>(std::floor(mid[i] / cell_size));
      if (d == 0) {
        coord[i].x = c;
      } else if (d == 1) {
        coord[i].y = c;
      } else {
        coord[i].z = c;
      }
    }
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&coord](size_t a, size_t b) {
    if (LexLess(coord[a], coord[b])) return true;
    if (LexLess(coord[b], coord[a])) return false;
    return a < b;
  });
  for (size_t k = 0; k < n; ++k) {
    const CellCoord& c = coord[order[k]];
    if (cells_.empty() || cells_.back().x != c.x || cells_.back().y != c.y ||
        cells_.back().z != c.z) {
      cells_.push_back(Cell{c.x, c.y, c.z, 0, 0});
    }
    ++cells_.back().count;
  }

  // Occupancy-balanced contiguous split of the lex-ordered cell walk:
  // advance to the next shard when adding the cell would overshoot the
  // running ceil(remaining / shards_left) target. Deterministic, and every
  // occupied cell lands in exactly one shard.
  size_t shard = 0;
  size_t in_shard = 0;
  size_t assigned_before = 0;
  for (Cell& cell : cells_) {
    const size_t shards_left = num_shards - shard;
    const size_t target =
        (n - assigned_before + shards_left - 1) / shards_left;
    if (in_shard > 0 && shard + 1 < num_shards &&
        in_shard + cell.count > target) {
      assigned_before += in_shard;
      in_shard = 0;
      ++shard;
    }
    cell.shard = shard;
    in_shard += cell.count;
  }

  // Owners: binary-search each segment's cell in the lex-ordered cell list.
  const std::vector<double>& half = store_.half_lengths();
  for (size_t i = 0; i < n; ++i) {
    const CellCoord& c = coord[i];
    const auto it = std::lower_bound(
        cells_.begin(), cells_.end(), c, [](const Cell& cell, const CellCoord& q) {
          return LexLess(CellCoord{cell.x, cell.y, cell.z}, q);
        });
    TRACLUS_DCHECK(it != cells_.end() && it->x == c.x && it->y == c.y &&
                   it->z == c.z);
    owner_[i] = it->shard;
    owned_[it->shard].push_back(i);
    h_max_[it->shard] = std::max(h_max_[it->shard], half[i]);
  }
  // owned_[s] is ascending by construction (segments visited in index order).
}

std::vector<std::vector<size_t>> ShardGrid::GhostLists(double reach) const {
  const size_t S = owned_.size();
  std::vector<std::vector<size_t>> ghosts(S);
  const size_t n = store_.size();
  if (S <= 1 || n == 0) return ghosts;

  // Degenerate lower-bound factor: no usable Euclidean bound — ghost every
  // non-owned segment to every non-empty shard.
  if (std::isinf(reach)) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t r = 0; r < S; ++r) {
        if (r != owner_[j] && !owned_[r].empty()) ghosts[r].push_back(j);
      }
    }
    return ghosts;
  }

  // Fine raster over the dilated bounding box of the whole store. The fine
  // cell is sized to the dilation radius (capped so the bitmap stays small):
  // marking an owned segment's reach-dilated box then costs O(box/reach)
  // cells, and the over-cover per side is at most one fine cell.
  const double pad = reach * (1.0 + kGhostSlack);
  const double* start_c[3] = {nullptr, nullptr, nullptr};
  const double* end_c[3] = {nullptr, nullptr, nullptr};
  double lo_all[3] = {0.0, 0.0, 0.0};
  double hi_all[3] = {0.0, 0.0, 0.0};
  for (int d = 0; d < dims_; ++d) {
    start_c[d] = store_.start_coords(d).data();
    end_c[d] = store_.end_coords(d).data();
    const auto [s_lo, s_hi] = std::minmax_element(
        store_.start_coords(d).begin(), store_.start_coords(d).end());
    const auto [e_lo, e_hi] = std::minmax_element(
        store_.end_coords(d).begin(), store_.end_coords(d).end());
    lo_all[d] = std::min(*s_lo, *e_lo) - pad;
    hi_all[d] = std::max(*s_hi, *e_hi) + pad;
  }
  // Cap the per-axis resolution so the bitmap stays ~1 MiB even when reach
  // is tiny relative to the data extent (2D: 724² ≈ 512 Ki cells; 3D: 80³).
  const int max_axis_cells = dims_ >= 3 ? 80 : 724;
  double fine = std::max(pad / 2.0, 1e-9);
  for (int d = 0; d < dims_; ++d) {
    fine = std::max(fine, (hi_all[d] - lo_all[d]) /
                              static_cast<double>(max_axis_cells));
  }
  int64_t count[3] = {1, 1, 1};
  size_t total = 1;
  for (int d = 0; d < dims_; ++d) {
    count[d] =
        static_cast<int64_t>(std::floor((hi_all[d] - lo_all[d]) / fine)) + 1;
    total *= static_cast<size_t>(count[d]);
  }
  const auto cell_of = [&](double v, int d) {
    const int64_t c =
        static_cast<int64_t>(std::floor((v - lo_all[d]) / fine));
    return std::clamp<int64_t>(c, 0, count[d] - 1);
  };

  // Rasterize every owned segment's reach-dilated bounding box into its
  // shard's bitmap.
  std::vector<std::vector<char>> marked(S);
  for (size_t r = 0; r < S; ++r) {
    if (!owned_[r].empty()) marked[r].assign(total, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<char>& bits = marked[owner_[i]];
    int64_t lo[3] = {0, 0, 0};
    int64_t hi[3] = {0, 0, 0};
    for (int d = 0; d < dims_; ++d) {
      const double a = start_c[d][i];
      const double b = end_c[d][i];
      lo[d] = cell_of(std::min(a, b) - pad, d);
      hi[d] = cell_of(std::max(a, b) + pad, d);
    }
    for (int64_t x = lo[0]; x <= hi[0]; ++x) {
      for (int64_t y = lo[1]; y <= hi[1]; ++y) {
        for (int64_t z = lo[2]; z <= hi[2]; ++z) {
          bits[static_cast<size_t>((x * count[1] + y) * count[2] + z)] = 1;
        }
      }
    }
  }

  // Segment j is within reach of shard r's owned boxes only if its own
  // (undilated) box overlaps a marked cell.
  for (size_t j = 0; j < n; ++j) {
    int64_t lo[3] = {0, 0, 0};
    int64_t hi[3] = {0, 0, 0};
    for (int d = 0; d < dims_; ++d) {
      const double a = start_c[d][j];
      const double b = end_c[d][j];
      lo[d] = cell_of(std::min(a, b), d);
      hi[d] = cell_of(std::max(a, b), d);
    }
    const size_t own = owner_[j];
    for (size_t r = 0; r < S; ++r) {
      if (r == own || marked[r].empty()) continue;
      const std::vector<char>& bits = marked[r];
      bool in_halo = false;
      for (int64_t x = lo[0]; x <= hi[0] && !in_halo; ++x) {
        for (int64_t y = lo[1]; y <= hi[1] && !in_halo; ++y) {
          for (int64_t z = lo[2]; z <= hi[2] && !in_halo; ++z) {
            in_halo =
                bits[static_cast<size_t>((x * count[1] + y) * count[2] + z)] !=
                0;
          }
        }
      }
      if (in_halo) ghosts[r].push_back(j);
    }
  }
  // Each ghosts[r] is ascending (outer loop visits j in index order).
  return ghosts;
}

}  // namespace traclus::cluster
