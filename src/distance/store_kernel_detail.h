#ifndef TRACLUS_DISTANCE_STORE_KERNEL_DETAIL_H_
#define TRACLUS_DISTANCE_STORE_KERNEL_DETAIL_H_

// Internal: the store-backed canonical distance kernel shared by
// SegmentDistance's pair fast path (distance/segment_distance.cc) and the
// batched one-vs-many kernels (distance/batch_kernels.cc).
//
// Bit-identity across entry points is a hard invariant of this library (the
// golden pipeline files pin it): every path that evaluates the §2.3 distance
// over a SegmentStore must execute EXACTLY these floating-point expressions,
// in exactly this order. Keeping the kernel in one header — instead of one
// copy per call site — is what makes that invariant a structural property
// rather than a test-enforced coincidence. Do not re-order, re-associate, or
// "simplify" arithmetic here without regenerating the goldens.
//
// One rewrite is exact and therefore allowed: d∥ (Definition 2) is the MIN
// of four projection-to-endpoint distances, and this kernel takes √ of the
// smallest squared gap instead of the MIN of four roots. IEEE sqrt is
// correctly rounded and monotone: √ of the smaller square is never larger
// than √ of the larger one, and where two roots round equal, the MIN of the
// roots keeps one of two equal positive values. std::min(a, b) is
// (b < a) ? b : a, which keeps `a` whenever a NaN is involved, and sqrt
// passes NaN through, so a NaN gap wins in the same positions either way.
// The squares are sums of squares from +0.0, never −0.0. Hence
// √min(a, b, c, d) equals min(√a, √b, √c, √d) bit for bit on every non-NaN
// result and is NaN exactly when it is. The geom::Segment reference path
// (segment_distance.cc) keeps the four roots.
//
// Not part of the public API; include only from distance/ implementation
// files and white-box tests.

#include <algorithm>
#include <cmath>
#include <utility>

#include "geom/segment.h"
#include "geom/vector_ops.h"
#include "traj/segment_store.h"

namespace traclus::distance {

struct DistanceComponents;

namespace internal {

// Lexicographic endpoint comparison; final deterministic tie-break of the
// Lemma 2 canonical ordering.
inline bool LexLess(const geom::Segment& a, const geom::Segment& b) {
  for (int i = 0; i < a.dims(); ++i) {
    if (a.start()[i] != b.start()[i]) return a.start()[i] < b.start()[i];
  }
  for (int i = 0; i < a.dims(); ++i) {
    if (a.end()[i] != b.end()[i]) return a.end()[i] < b.end()[i];
  }
  return false;
}

// Two-store generalization of the Lemma 2 canonical ordering: true when the
// pair (sb, b) must take the Li (longer) role. The decision reads only
// cached lengths, ids, and endpoint bits — all bit-identical between a
// monolithic store and a chunk-local store holding the same segment — so the
// swap decision is independent of how the database is chunked.
inline bool CrossCanonicalSwap(const traj::SegmentStore& sa, size_t a,
                               const traj::SegmentStore& sb, size_t b) {
  const double la = sa.length(a);
  const double lb = sb.length(b);
  bool swap = false;
  if (la < lb) {
    swap = true;
  } else if (la == lb) {
    const geom::SegmentId ia = sa.id(a);
    const geom::SegmentId ib = sb.id(b);
    if (ia >= 0 && ib >= 0 && ia != ib) {
      swap = ia > ib;
    } else {
      swap = LexLess(sb.segment(b), sa.segment(a));
    }
  }
  return swap;
}

// Store-backed Canonicalize: the same ordering decision as the Segment
// overload (SegmentDistance::Canonicalize), but the lengths and Lemma 2
// tie-break ids come from the cache.
inline void CanonicalizeInStore(const traj::SegmentStore& store,
                                size_t& longer, size_t& shorter) {
  if (CrossCanonicalSwap(store, longer, store, shorter)) {
    std::swap(longer, shorter);
  }
}

// Store-backed canonical kernel. The caller has already ordered (li, lj) as
// (longer, shorter); this computes the three components with exactly the
// floating-point operations of the Segment-based path, but
//   * the line direction e − s and its squared norm come from the store
//     (cached from the identical expressions) instead of per-call
//     recomputation,
//   * the two endpoint projections onto Li's line are computed once and
//     shared between d⊥ (Definition 1) and d∥ (Definition 2) — the Segment
//     path derives them independently in PerpendicularCanonical and
//     ParallelCanonical,
//   * the angle cosine divides the cached dot product by the product of the
//     cached lengths, which is bit-identical to CosAngleBetween's
//     Dot / (Norm() * Norm()) because length(i) ≡ Direction().Norm().
//
// `Sink` receives (perpendicular, parallel, angle); it lets the pair path
// build a DistanceComponents and the batch path fold the weighted sum
// without an intermediate struct, with identical arithmetic either way.
// Two-store form: Li comes from `si`, Lj from `sj`. Because chunk-local
// stores cache bit-identical invariants for the same segments, evaluating a
// pair across two chunk stores executes the same floating-point operations
// on the same bits as evaluating it inside the monolithic store — the
// chunked grouping path inherits bit-identity from this.
template <typename Sink>
inline void CrossComponentsCanonicalInto(const traj::SegmentStore& si,
                                         size_t li,
                                         const traj::SegmentStore& sj,
                                         size_t lj, bool directed,
                                         Sink&& sink) {
  const geom::Segment& i_seg = si.segment(li);
  const geom::Segment& j_seg = sj.segment(lj);
  const geom::Point& s = i_seg.start();
  const geom::Point& e = i_seg.end();
  const geom::Point& se = si.direction(li);
  const double denom = si.squared_length(li);

  // ProjectOntoLine(p, s, e), with se and ||se||² read from the cache.
  const auto project = [&](const geom::Point& p) {
    const double u = denom == 0.0 ? 0.0 : geom::Dot(p - s, se) / denom;
    return s + se * u;
  };
  const geom::Point proj_start = project(j_seg.start());
  const geom::Point proj_end = project(j_seg.end());

  // Perpendicular (Definition 1): Lehmer mean of order 2.
  const double l1 = geom::Distance(j_seg.start(), proj_start);
  const double l2 = geom::Distance(j_seg.end(), proj_end);
  const double perp_denom = l1 + l2;
  const double perpendicular =
      perp_denom == 0.0 ? 0.0 : (l1 * l1 + l2 * l2) / perp_denom;

  // Parallel (Definition 2): distance from each projection to the nearer
  // endpoint of Li, MIN over the two projections — one sqrt of the smallest
  // squared gap (see the file comment).
  const double sq_par1 = std::min(geom::SquaredDistance(proj_start, s),
                                  geom::SquaredDistance(proj_start, e));
  const double sq_par2 = std::min(geom::SquaredDistance(proj_end, s),
                                  geom::SquaredDistance(proj_end, e));
  const double parallel = std::sqrt(std::min(sq_par1, sq_par2));

  // Angle (Definition 3), directed or undirected.
  const double len_j = sj.length(lj);
  if (len_j == 0.0) {
    // Point-like Lj has no directional strength.
    sink(perpendicular, parallel, 0.0);
    return;
  }
  const double len_i = si.length(li);
  // CosAngleBetween with the norms read from the cache.
  const double cos_theta =
      len_i == 0.0
          ? 1.0
          : std::clamp(geom::Dot(si.direction(li), sj.direction(lj)) /
                           (len_i * len_j),
                       -1.0, 1.0);
  if (directed && cos_theta <= 0.0) {
    sink(perpendicular, parallel, len_j);  // θ in [90°, 180°].
    return;
  }
  const double sin_theta =
      std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
  sink(perpendicular, parallel, len_j * sin_theta);
}

// One-store form: both segments resolved from the same store (the historical
// entry point; delegates to the two-store kernel with the store bound to
// both sides, which compiles to the identical instruction stream).
template <typename Sink>
inline void StoreComponentsCanonicalInto(const traj::SegmentStore& store,
                                         size_t li, size_t lj, bool directed,
                                         Sink&& sink) {
  CrossComponentsCanonicalInto(store, li, store, lj, directed,
                               std::forward<Sink>(sink));
}

// Full weighted distance across two stores for an already-canonicalized
// (longer, shorter) role assignment; the weighted sum folds left-to-right
// exactly like SegmentDistance::operator(). One-store callers pass the same
// store twice.
inline double CrossWeightedCanonical(const traj::SegmentStore& si, size_t li,
                                     const traj::SegmentStore& sj, size_t lj,
                                     bool directed, double w_perpendicular,
                                     double w_parallel, double w_angle) {
  double total = 0.0;
  CrossComponentsCanonicalInto(
      si, li, sj, lj, directed,
      [&](double perpendicular, double parallel, double angle) {
        total = w_perpendicular * perpendicular + w_parallel * parallel +
                w_angle * angle;
      });
  return total;
}

}  // namespace internal
}  // namespace traclus::distance

#endif  // TRACLUS_DISTANCE_STORE_KERNEL_DETAIL_H_
