#ifndef TRACLUS_PARAMS_ENTROPY_H_
#define TRACLUS_PARAMS_ENTROPY_H_

#include <cstddef>
#include <vector>

#include "cluster/neighborhood.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::params {

/// Shannon entropy H(X) of the ε-neighborhood-size distribution, Formula (10):
/// p(x_i) = |Nε(x_i)| / Σ_j |Nε(x_j)|. The §4.4 heuristic selects the ε
/// minimizing this entropy — uniform |Nε| (all 1, or all n) maximizes it, a
/// skewed distribution (real clusters) lowers it.
///
/// `neighborhood_sizes` must be the exact |Nε(L)| of every segment (each ≥ 1:
/// a neighborhood contains its own segment). Returns 0 for an empty input.
double NeighborhoodEntropy(const std::vector<size_t>& neighborhood_sizes);

/// Weighted-count overload used with the §4.2 weighted extension.
double NeighborhoodEntropy(const std::vector<double>& neighborhood_masses);

/// Computes |Nε(L)| for all L at one ε through a neighborhood provider.
/// `num_threads` batches the queries across a pool (0 = hardware concurrency);
/// the result is identical for every value.
std::vector<size_t> NeighborhoodSizes(
    const cluster::NeighborhoodProvider& provider, double eps,
    int num_threads = 1);

/// Precomputed neighborhood-size profile over a whole grid of ε values.
///
/// The Fig. 16/19 entropy curves need |Nε(L)| for every segment at every ε in a
/// sweep. Querying an index once per (ε, L) costs O(grid · n · query); this
/// profile instead makes a single O(n²) pass over segment pairs, bucketing each
/// pairwise distance into the first grid cell that admits it and
/// suffix-summing, which answers the whole sweep at once. Exact, and typically
/// ~grid-size times faster than repeated queries for sweep workloads. The
/// pairwise pass reads the store's invariant-cached distance fast path.
class NeighborhoodProfile {
 public:
  /// `eps_grid` must be strictly increasing. O(n²) construction; the pairwise
  /// distance pass is spread over `num_threads` workers (0 = hardware
  /// concurrency). Each row's distances stream through the batched kernels
  /// (distance::DistanceTileRange) in bounded blocks rather than one
  /// pair-at-a-time call per bucket insert; `kernel` selects scalar/SIMD
  /// (bit-identical values either way). Parallel workers do not stage whole
  /// grid × n count buffers: each streams its (grid position, segment)
  /// increments through a bounded block (`staging_block` entries, 0 =
  /// default 64 Ki) that is scatter-added into the shared counts under a
  /// lock when full — the same bounded-residency treatment the blocked
  /// DBSCAN batch path uses. Peak extra memory is
  /// O(workers · staging_block) instead of the former O(workers · grid · n).
  /// Integer addition commutes, so the profile is identical for every thread
  /// count, block size, and kernel.
  NeighborhoodProfile(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      std::vector<double> eps_grid, int num_threads = 1,
      size_t staging_block = 0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  size_t grid_size() const { return eps_grid_.size(); }
  const std::vector<double>& eps_grid() const { return eps_grid_; }

  /// |Nε(L)| for every segment at grid position g.
  const std::vector<size_t>& SizesAt(size_t g) const {
    TRACLUS_DCHECK(g < counts_.size());
    return counts_[g];
  }

  /// H(X) at grid position g.
  double EntropyAt(size_t g) const;

  /// avg|Nε(L)| at grid position g (§4.4 uses this to set MinLns).
  double AvgNeighborhoodSizeAt(size_t g) const;

  /// Grid position with minimal entropy (ties: smaller ε).
  size_t MinEntropyPosition() const;

 private:
  std::vector<double> eps_grid_;
  /// counts_[g][i] = |N_{eps_grid_[g]}(L_i)|.
  std::vector<std::vector<size_t>> counts_;
};

}  // namespace traclus::params

#endif  // TRACLUS_PARAMS_ENTROPY_H_
