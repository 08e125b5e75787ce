#include "params/entropy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"

namespace traclus::params {

namespace {

constexpr size_t kDefaultStagingBlock = size_t{64} * 1024;

/// Query rows per distance tile of the profile sweep. The candidate slice is
/// reused across this many rows while hot; the sub-diagonal corner of the
/// first slice each row block touches is evaluated but never bucketed
/// (~kTileRows²/2 wasted entries per block — noise next to the O(n²) sweep).
constexpr size_t kTileRows = 16;

/// Candidate columns per distance tile; bounds the scratch buffer at
/// kTileRows × kRowSlice doubles.
constexpr size_t kRowSlice = 1024;

/// Tiled upper-triangle sweep over leading rows [lo, hi): evaluates
/// kTileRows × kRowSlice blocks through the many-vs-many tile kernel and
/// invokes visit(i, j, d) for every pair i < j with leading index in
/// [lo, hi), in (i, then j) ascending order. Distances are bit-identical to
/// the per-pair path, so any bucketing built on top is unchanged.
template <typename VisitFn>
void SweepUpperTriangle(const traj::SegmentStore& store,
                        const distance::SegmentDistance& dist,
                        distance::BatchKernel kernel, size_t lo, size_t hi,
                        size_t n, const VisitFn& visit) {
  std::vector<double> tile(kTileRows * kRowSlice);
  for (size_t ib = lo; ib < hi; ib += kTileRows) {
    const size_t ie = std::min(hi, ib + kTileRows);
    for (size_t jb = ib + 1; jb < n; jb += kRowSlice) {
      const size_t je = std::min(n, jb + kRowSlice);
      const size_t width = je - jb;
      distance::DistanceTileRange(store, dist, ib, ie, jb, je, tile.data(),
                                  width, kernel);
      for (size_t i = ib; i < ie; ++i) {
        const double* row = tile.data() + (i - ib) * width;
        for (size_t j = std::max(i + 1, jb); j < je; ++j) {
          visit(i, j, row[j - jb]);
        }
      }
    }
  }
}

template <typename T>
double EntropyOfMasses(const std::vector<T>& masses) {
  double total = 0.0;
  for (const T m : masses) total += static_cast<double>(m);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const T m : masses) {
    if (m <= T{0}) continue;
    const double p = static_cast<double>(m) / total;
    h -= p * std::log2(p);
  }
  return h;
}

// Streams (grid position, segment) count increments into the shared delta
// table in bounded blocks: a worker never holds more than `cap` pending
// increments, and a full (or final) block is scatter-added under the mutex.
// Addition commutes, so the merged counts are independent of flush order and
// interleaving — bit-identical for every thread count and block size.
class BlockedIncrementSink {
 public:
  BlockedIncrementSink(std::vector<std::vector<size_t>>& delta,
                       common::Mutex& mu, size_t cap)
      : delta_(delta), mu_(mu), cap_(std::max<size_t>(1, cap)) {
    buffer_.reserve(cap_);
  }
  ~BlockedIncrementSink() { Flush(); }

  void Add(uint32_t grid_pos, uint32_t segment) {
    buffer_.emplace_back(grid_pos, segment);
    if (buffer_.size() >= cap_) Flush();
  }

  void Flush() TRACLUS_EXCLUDES(mu_) {
    if (buffer_.empty()) return;
    common::MutexLock lock(mu_);
    for (const auto& [g, i] : buffer_) ++delta_[g][i];
    buffer_.clear();
  }

 private:
  /// The shared merge table; every worker's sink aliases the same vectors,
  /// so scatter-adds happen only under mu_.
  std::vector<std::vector<size_t>>& delta_ TRACLUS_GUARDED_BY(mu_);
  common::Mutex& mu_;
  const size_t cap_;
  /// Thread-private pending increments; no guard needed.
  std::vector<std::pair<uint32_t, uint32_t>> buffer_;
};

}  // namespace

double NeighborhoodEntropy(const std::vector<size_t>& neighborhood_sizes) {
  return EntropyOfMasses(neighborhood_sizes);
}

double NeighborhoodEntropy(const std::vector<double>& neighborhood_masses) {
  return EntropyOfMasses(neighborhood_masses);
}

std::vector<size_t> NeighborhoodSizes(
    const cluster::NeighborhoodProvider& provider, double eps,
    int num_threads) {
  // Size-only batch across the pool (inline at one thread): the tile join
  // counts bits and materializes no list.
  return provider.AllNeighborhoodSizes(eps, common::SharedPool(num_threads));
}

NeighborhoodProfile::NeighborhoodProfile(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    std::vector<double> eps_grid, int num_threads, size_t staging_block,
    distance::BatchKernel kernel)
    : eps_grid_(std::move(eps_grid)) {
  TRACLUS_CHECK(!eps_grid_.empty());
  TRACLUS_CHECK(std::is_sorted(eps_grid_.begin(), eps_grid_.end()));
  const size_t n = store.size();
  const size_t g = eps_grid_.size();

  // delta[gi][i] counts pairs whose distance first fits at grid position gi.
  std::vector<std::vector<size_t>> delta(g, std::vector<size_t>(n, 0));
  const int threads = common::ResolveNumThreads(num_threads);
  if (threads == 1) {
    // Serial: tile the upper triangle, bucket straight into delta.
    SweepUpperTriangle(store, dist, kernel, 0, n, n,
                       [&](size_t i, size_t j, double d) {
                         const auto it = std::lower_bound(
                             eps_grid_.begin(), eps_grid_.end(), d);
                         if (it == eps_grid_.end()) return;  // > largest ε.
                         const size_t gi =
                             static_cast<size_t>(it - eps_grid_.begin());
                         ++delta[gi][i];
                         ++delta[gi][j];
                       });
  } else {
    // One contiguous leading-index band per worker. Row i owns n-1-i pairs —
    // cumulative work up to row x is ~nx - x²/2 — so equal-work boundaries
    // follow x_k = n(1 - sqrt(1 - k/K)). Each band streams its increments
    // through a bounded BlockedIncrementSink rather than staging a g × n
    // count buffer, so peak extra memory is O(threads · block), and the
    // commuting scatter-adds keep the merged counts scheduling-independent.
    TRACLUS_CHECK(n <= std::numeric_limits<uint32_t>::max());
    const size_t block =
        staging_block > 0 ? staging_block : kDefaultStagingBlock;
    const size_t bands = std::min<size_t>(static_cast<size_t>(threads), n);
    std::vector<size_t> bound(bands + 1, n);
    bound[0] = 0;
    for (size_t k = 1; k < bands; ++k) {
      const double frac = static_cast<double>(k) / static_cast<double>(bands);
      const size_t x = static_cast<size_t>(
          static_cast<double>(n) * (1.0 - std::sqrt(1.0 - frac)));
      bound[k] = std::max(bound[k - 1], std::min(x, n));
    }
    common::Mutex merge_mu;
    common::SharedPool(threads).ParallelFor(0, bands, [&](size_t band) {
      const size_t lo = bound[band];
      const size_t hi = bound[band + 1];
      if (lo >= hi) return;
      BlockedIncrementSink sink(delta, merge_mu, block);
      SweepUpperTriangle(store, dist, kernel, lo, hi, n,
                         [&](size_t i, size_t j, double d) {
                           const auto it = std::lower_bound(
                               eps_grid_.begin(), eps_grid_.end(), d);
                           if (it == eps_grid_.end()) return;  // > largest ε.
                           const auto gi =
                               static_cast<uint32_t>(it - eps_grid_.begin());
                           sink.Add(gi, static_cast<uint32_t>(i));
                           sink.Add(gi, static_cast<uint32_t>(j));
                         });
    });
  }

  // counts_[gi][i] = 1 (self) + Σ_{g' ≤ gi} delta[g'][i].
  counts_.assign(g, std::vector<size_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    size_t running = 1;
    for (size_t gi = 0; gi < g; ++gi) {
      running += delta[gi][i];
      counts_[gi][i] = running;
    }
  }
}

double NeighborhoodProfile::EntropyAt(size_t g) const {
  return NeighborhoodEntropy(SizesAt(g));
}

double NeighborhoodProfile::AvgNeighborhoodSizeAt(size_t g) const {
  const auto& sizes = SizesAt(g);
  if (sizes.empty()) return 0.0;
  double total = 0.0;
  for (const size_t s : sizes) total += static_cast<double>(s);
  return total / static_cast<double>(sizes.size());
}

size_t NeighborhoodProfile::MinEntropyPosition() const {
  size_t best = 0;
  double best_h = EntropyAt(0);
  for (size_t g = 1; g < grid_size(); ++g) {
    const double h = EntropyAt(g);
    if (h < best_h) {
      best_h = h;
      best = g;
    }
  }
  return best;
}

}  // namespace traclus::params
