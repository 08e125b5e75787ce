#include "params/parameter_heuristic.h"

#include "cluster/neighborhood_index.h"
#include "common/logging.h"

namespace traclus::params {

ParameterEstimate EstimateParameters(const traj::SegmentStore& store,
                                     const distance::SegmentDistance& dist,
                                     const HeuristicOptions& options) {
  TRACLUS_CHECK_LT(options.eps_lo, options.eps_hi);
  TRACLUS_CHECK_GE(options.grid_points, 2);

  std::vector<double> grid(options.grid_points);
  const double step = (options.eps_hi - options.eps_lo) /
                      static_cast<double>(options.grid_points - 1);
  for (int i = 0; i < options.grid_points; ++i) {
    grid[i] = options.eps_lo + step * i;
  }

  NeighborhoodProfile profile(store, dist, grid, options.num_threads,
                              options.staging_block, options.kernel);
  ParameterEstimate est;
  est.grid_eps = grid;
  est.grid_entropy.reserve(grid.size());
  for (size_t g = 0; g < profile.grid_size(); ++g) {
    est.grid_entropy.push_back(profile.EntropyAt(g));
  }

  const size_t best = profile.MinEntropyPosition();
  est.eps = grid[best];
  est.entropy = est.grid_entropy[best];
  est.avg_neighborhood_size = profile.AvgNeighborhoodSizeAt(best);

  if (options.refine_with_annealing) {
    // Refine around the grid minimum with SA over a single-ε entropy objective
    // evaluated through the exact block-pruned TileJoin (batched refine
    // kernels inside).
    cluster::GridNeighborhoodIndex index(store, dist, options.kernel);
    auto objective = [&](double eps) {
      return NeighborhoodEntropy(
          NeighborhoodSizes(index, eps, options.num_threads));
    };
    AnnealingOptions sa = options.annealing;
    // Search the ±2 grid-step basin around the grid minimum.
    sa.lo = std::max(options.eps_lo, est.eps - 2.0 * step);
    sa.hi = std::min(options.eps_hi, est.eps + 2.0 * step);
    if (sa.lo < sa.hi) {
      const AnnealingResult r = Minimize1D(objective, sa);
      if (r.best_value < est.entropy) {
        est.eps = r.best_x;
        est.entropy = r.best_value;
        const std::vector<size_t> sizes =
            NeighborhoodSizes(index, est.eps, options.num_threads);
        double total = 0.0;
        for (const size_t s : sizes) total += static_cast<double>(s);
        est.avg_neighborhood_size =
            sizes.empty() ? 0.0 : total / static_cast<double>(sizes.size());
      }
    }
  }

  est.min_lns_low = est.avg_neighborhood_size + 1.0;
  est.min_lns_high = est.avg_neighborhood_size + 3.0;
  return est;
}

}  // namespace traclus::params
