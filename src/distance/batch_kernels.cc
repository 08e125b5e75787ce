#include "distance/batch_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

// The AVX2 kernels are compiled into every x86-64 build as
// target("avx2") functions and selected at run time (ResolveBatchKernel), so
// no translation unit is built with -mavx2: inline header code included here
// stays baseline x86-64 for scalar callers.
#if defined(__x86_64__)
#define TRACLUS_X86_SIMD 1
#include <immintrin.h>
#define TRACLUS_AVX2_FN __attribute__((target("avx2")))
#endif

#include "common/logging.h"
#include "distance/store_kernel_detail.h"
#include "geom/point.h"

namespace traclus::distance {

namespace {

constexpr size_t kDefaultRefineBlock = 256;

// Candidate columns per tile block: ~256 candidates × ~12 SoA columns × 8 B
// ≈ 24 KiB, sized to stay resident in L1/L2 while every query row of the
// tile walks it. Each pair's evaluation (lane or scalar) reads only that
// pair's columns, so regrouping a batch into blocks is bit-identical.
constexpr size_t kTileCandidateBlock = 256;

// Query-side state of the midpoint/half-length lower-bound prune, hoisted
// out of the per-candidate loop. An unusable bound has reach = +inf, which
// makes ProvablyFar false for every candidate without a branch.
struct PruneContext {
  double reach = 0.0;  // ε / c: the Euclidean radius that could matter.
  double half_q = 0.0;
  double mid_q[geom::kMaxDims] = {0.0, 0.0, 0.0};
  int dims = 2;
};

PruneContext MakePruneContext(const traj::SegmentStore& store,
                              const SegmentDistance& dist, size_t query,
                              double eps) {
  PruneContext p;
  p.dims = store.dims();
  p.reach = PruneReach(dist, eps);
  p.half_q = store.half_length(query);
  for (int d = 0; d < p.dims; ++d) {
    p.mid_q[d] = store.midpoint_coords(d)[query];
  }
  return p;
}

// The lower-bound prune over the candidates index(lo .. hi) of the columns
// mid[0 .. dims) and half: candidate j is provably farther than ε from the
// query when
//   dist ≥ c·mindist ≥ c·(‖mid_q − mid_j‖ − h_q − h_j) > ε,
// evaluated in squared form (no per-candidate sqrt) by ProvablyFar. Reads
// only the candidate columns, so it serves one-store and two-store refines
// and the catalog columns of PruneRuns alike, and it never prunes the query
// against itself (midpoint distance 0). Branch-free: each candidate's tag(k)
// is written to slots[m] and m advances only when the candidate survives, so
// survivors compact in candidate order without a branch per candidate.
// `slots` must have room for m + (hi − lo) entries. Returns the new m.
template <int D, typename IndexFn, typename TagFn>
size_t CompactSurvivorsD(const PruneContext& p, const double* const* mid,
                         const double* half, size_t lo, size_t hi,
                         const IndexFn& index, const TagFn& tag,
                         size_t* slots, size_t m) {
  const double* col[D];  // Local copies the compiler can keep in registers.
  for (int d = 0; d < D; ++d) col[d] = mid[d];
  for (size_t k = lo; k < hi; ++k) {
    const size_t j = index(k);
    double dmid_sq = 0.0;
    for (int d = 0; d < D; ++d) {
      const double diff = col[d][j] - p.mid_q[d];
      dmid_sq += diff * diff;
    }
    slots[m] = tag(k);
    m += ProvablyFar(dmid_sq, p.reach, p.half_q, half[j]) ? 0 : 1;
  }
  return m;
}

template <typename IndexFn, typename TagFn>
size_t CompactSurvivors(const PruneContext& p, const double* const* mid,
                        const double* half, size_t lo, size_t hi,
                        const IndexFn& index, const TagFn& tag, size_t* slots,
                        size_t m) {
  if (p.dims == 3) {
    return CompactSurvivorsD<3>(p, mid, half, lo, hi, index, tag, slots, m);
  }
  return CompactSurvivorsD<2>(p, mid, half, lo, hi, index, tag, slots, m);
}

// The same over the candidates index(lo .. hi) of store `cs`.
template <typename IndexFn, typename TagFn>
size_t CompactSurvivors(const PruneContext& p, const traj::SegmentStore& cs,
                        size_t lo, size_t hi, const IndexFn& index,
                        const TagFn& tag, size_t* slots, size_t m) {
  TRACLUS_DCHECK(hi == lo || index(hi - 1) < cs.size());
  const double* mid[geom::kMaxDims];
  for (int d = 0; d < p.dims; ++d) mid[d] = cs.midpoint_coords(d).data();
  return CompactSurvivors(p, mid, cs.half_lengths().data(), lo, hi, index,
                          tag, slots, m);
}

// The SoA columns a kernel reads, hoisted out of the candidate loop once per
// call.
struct StoreColumns {
  const double* len;
  const double* sqlen;
  const double* start[geom::kMaxDims];
  const double* end[geom::kMaxDims];
  const double* dir[geom::kMaxDims];
};

inline StoreColumns ColumnsOf(const traj::SegmentStore& store) {
  StoreColumns c{};
  c.len = store.lengths().data();
  c.sqlen = store.squared_lengths().data();
  for (int d = 0; d < store.dims(); ++d) {
    c.start[d] = store.start_coords(d).data();
    c.end[d] = store.end_coords(d).data();
    c.dir[d] = store.direction_coords(d).data();
  }
  return c;
}

// The candidates of one kernel call: batch position k is candidate idx[k]
// of an index list, or first + k of a contiguous range. From(k) is the same
// candidates starting at position k (the scalar tail of a lane loop).
struct IndexList {
  const size_t* idx;
  size_t operator()(size_t k) const { return idx[k]; }
  IndexList From(size_t k) const { return {idx + k}; }
};

struct IndexRange {
  size_t first;
  size_t operator()(size_t k) const { return first + k; }
  IndexRange From(size_t k) const { return {first + k}; }
};

// Canonical kernel over raw (Li, Lj) coordinate arrays: exactly the
// floating-point expressions of internal::CrossComponentsCanonicalInto plus
// the CrossWeightedCanonical fold, with the Point temporaries replaced by
// compile-time-unrolled loops over D dimensions. Every sum accumulates in
// ascending dimension order from 0.0 — the geom::Dot / Point::SquaredNorm
// order — and the build forbids FP contraction, so results are bit-identical
// to the store-backed kernel (the tile-vs-batch-vs-pair bitwise tests pin
// this on the adversarial corpus). Callers resolve the Lemma 2 swap first.
template <int D>
inline double RawWeightedCanonical(const double* s, const double* e,
                                   const double* se, double den, double len_i,
                                   const double* js, const double* je,
                                   const double* dj, double len_j,
                                   bool directed, double w_perpendicular,
                                   double w_parallel, double w_angle) {
  // ProjectOntoLine of both Lj endpoints: u = Dot(p − s, se) / ‖se‖².
  double dot1 = 0.0;
  double dot2 = 0.0;
  for (int d = 0; d < D; ++d) {
    dot1 += (js[d] - s[d]) * se[d];
    dot2 += (je[d] - s[d]) * se[d];
  }
  const double u1 = den == 0.0 ? 0.0 : dot1 / den;
  const double u2 = den == 0.0 ? 0.0 : dot2 / den;

  // proj = s + se·u; the six projection-relative squared norms (to Lj's
  // endpoints for d⊥, to Li's endpoints for d∥).
  double sq_perp1 = 0.0, sq_perp2 = 0.0;
  double sq_ps_s = 0.0, sq_ps_e = 0.0, sq_pe_s = 0.0, sq_pe_e = 0.0;
  for (int d = 0; d < D; ++d) {
    const double ps = s[d] + se[d] * u1;
    const double pe = s[d] + se[d] * u2;
    const double d1 = js[d] - ps;
    sq_perp1 += d1 * d1;
    const double d2 = je[d] - pe;
    sq_perp2 += d2 * d2;
    const double d3 = ps - s[d];
    sq_ps_s += d3 * d3;
    const double d4 = ps - e[d];
    sq_ps_e += d4 * d4;
    const double d5 = pe - s[d];
    sq_pe_s += d5 * d5;
    const double d6 = pe - e[d];
    sq_pe_e += d6 * d6;
  }

  // Perpendicular (Definition 1): Lehmer mean of order 2 over the root-ed
  // distances (l·l after the sqrt, like the reference — not the raw squares).
  const double l1 = std::sqrt(sq_perp1);
  const double l2 = std::sqrt(sq_perp2);
  const double perp_denom = l1 + l2;
  const double perpendicular =
      perp_denom == 0.0 ? 0.0 : (l1 * l1 + l2 * l2) / perp_denom;

  // Parallel (Definition 2): MIN over projections of the distance to the
  // nearer Li endpoint, as one sqrt of the smallest squared gap
  // (store_kernel_detail.h says why that is the same bits).
  const double parallel = std::sqrt(std::min(std::min(sq_ps_s, sq_ps_e),
                                             std::min(sq_pe_s, sq_pe_e)));

  // Angle (Definition 3): zero for a point-like Lj, cos forced to 1 for a
  // point-like Li, the directed regime contributing ‖Lj‖ outright.
  double angle = 0.0;
  if (len_j != 0.0) {
    double cos_theta = 1.0;
    if (len_i != 0.0) {
      double dot_ij = 0.0;
      for (int d = 0; d < D; ++d) dot_ij += se[d] * dj[d];
      cos_theta = std::clamp(dot_ij / (len_i * len_j), -1.0, 1.0);
    }
    if (directed && cos_theta <= 0.0) {
      angle = len_j;
    } else {
      const double sin_theta =
          std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
      angle = len_j * sin_theta;
    }
  }

  return w_perpendicular * perpendicular + w_parallel * parallel +
         w_angle * angle;
}

// Scalar batch kernel: dist(qs[query], cs[index(k)]) → out[k]. The query's
// columns are hoisted into locals once per call, and the Lemma 2 swap is
// resolved inline: the strict length compare covers almost every pair, and
// only exact ties run the full scalar tie-break. NaN lengths fail both
// compares and leave the query as Li — CrossCanonicalSwap's behavior
// exactly. The only other data-dependent branches are the ones the canonical
// kernel needs for bit-identity (degenerate lengths, angle regime).
template <int D, typename Index>
void BatchScalarD(const traj::SegmentStore& qs, const traj::SegmentStore& cs,
                  const SegmentDistanceConfig& cfg, size_t query, size_t n,
                  const Index& index, double* out) {
  const StoreColumns q_col = ColumnsOf(qs);
  const StoreColumns c_col = ColumnsOf(cs);
  double q_s[D], q_e[D], q_d[D];
  for (int d = 0; d < D; ++d) {
    q_s[d] = q_col.start[d][query];
    q_e[d] = q_col.end[d][query];
    q_d[d] = q_col.dir[d][query];
  }
  const double q_den = q_col.sqlen[query];
  const double q_len = q_col.len[query];

  for (size_t k = 0; k < n; ++k) {
    const size_t j = index(k);
    double c_s[D], c_e[D], c_d[D];
    for (int d = 0; d < D; ++d) {
      c_s[d] = c_col.start[d][j];
      c_e[d] = c_col.end[d][j];
      c_d[d] = c_col.dir[d][j];
    }
    const double c_len = c_col.len[j];
    bool swap = q_len < c_len;
    if (q_len == c_len) swap = internal::CrossCanonicalSwap(qs, query, cs, j);
    out[k] = swap ? RawWeightedCanonical<D>(c_s, c_e, c_d, c_col.sqlen[j],
                                            c_len, q_s, q_e, q_d, q_len,
                                            cfg.directed, cfg.w_perpendicular,
                                            cfg.w_parallel, cfg.w_angle)
                  : RawWeightedCanonical<D>(q_s, q_e, q_d, q_den, q_len, c_s,
                                            c_e, c_d, c_len, cfg.directed,
                                            cfg.w_perpendicular,
                                            cfg.w_parallel, cfg.w_angle);
  }
}

template <typename Index>
void BatchScalar(const traj::SegmentStore& qs, const traj::SegmentStore& cs,
                 const SegmentDistanceConfig& cfg, size_t query, size_t n,
                 const Index& index, double* out) {
  if (qs.dims() == 3) {
    BatchScalarD<3>(qs, cs, cfg, query, n, index, out);
  } else {
    BatchScalarD<2>(qs, cs, cfg, query, n, index, out);
  }
}

#if defined(TRACLUS_X86_SIMD)

// std::min(a, b) ≡ (b < a) ? b : a, lane-wise with identical NaN/zero
// semantics (blendv takes `b` exactly where the ordered compare holds).
TRACLUS_AVX2_FN inline __m256d MinStd(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}

// Broadcast weights of the four-lane canonical kernel.
struct SimdWeights {
  __m256d w_perp;
  __m256d w_par;
  __m256d w_ang;
  bool directed;
};

// The four-lane canonical arithmetic body. Each lane executes the exact
// operation sequence of the scalar canonical kernel (store_kernel_detail.h)
// on already-canonicalized (Li, Lj) role registers, with branches replaced by
// blends whose selected value matches the scalar ternary in every case
// (including NaN propagation and signed zeros). Every vector op is an
// IEEE-754 double op per lane and the build forbids FMA contraction, so lane
// results are bit-identical to the scalar kernel — asserted exhaustively in
// tests/segment_distance_test.cc.
TRACLUS_AVX2_FN inline __m256d CanonicalLanes(
    int dims, const __m256d* s_v, const __m256d* e_v, const __m256d* se_v,
    const __m256d* js_v, const __m256d* je_v, const __m256d* dj_v,
    __m256d den, __m256d len_i, __m256d len_j, const SimdWeights& w) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  const __m256d den_zero = _mm256_cmp_pd(den, zero, _CMP_EQ_OQ);

  // ProjectOntoLine of both Lj endpoints: u = Dot(p − s, se) / ‖se‖²
  // (0 for a degenerate Li), accumulated dimension-by-dimension exactly
  // like geom::Dot.
  __m256d dot1 = zero;
  __m256d dot2 = zero;
  for (int d = 0; d < dims; ++d) {
    dot1 = _mm256_add_pd(
        dot1, _mm256_mul_pd(_mm256_sub_pd(js_v[d], s_v[d]), se_v[d]));
    dot2 = _mm256_add_pd(
        dot2, _mm256_mul_pd(_mm256_sub_pd(je_v[d], s_v[d]), se_v[d]));
  }
  const __m256d u1 =
      _mm256_blendv_pd(_mm256_div_pd(dot1, den), zero, den_zero);
  const __m256d u2 =
      _mm256_blendv_pd(_mm256_div_pd(dot2, den), zero, den_zero);

  // proj = s + se·u; accumulate the four projection-relative squared
  // norms (to Lj's endpoints for d⊥, to Li's endpoints for d∥) in
  // dimension order, exactly like Point::SquaredNorm.
  __m256d sq_perp1 = zero, sq_perp2 = zero;
  __m256d sq_ps_s = zero, sq_ps_e = zero, sq_pe_s = zero, sq_pe_e = zero;
  for (int d = 0; d < dims; ++d) {
    const __m256d ps = _mm256_add_pd(s_v[d], _mm256_mul_pd(se_v[d], u1));
    const __m256d pe = _mm256_add_pd(s_v[d], _mm256_mul_pd(se_v[d], u2));
    const __m256d d1 = _mm256_sub_pd(js_v[d], ps);
    sq_perp1 = _mm256_add_pd(sq_perp1, _mm256_mul_pd(d1, d1));
    const __m256d d2 = _mm256_sub_pd(je_v[d], pe);
    sq_perp2 = _mm256_add_pd(sq_perp2, _mm256_mul_pd(d2, d2));
    const __m256d d3 = _mm256_sub_pd(ps, s_v[d]);
    sq_ps_s = _mm256_add_pd(sq_ps_s, _mm256_mul_pd(d3, d3));
    const __m256d d4 = _mm256_sub_pd(ps, e_v[d]);
    sq_ps_e = _mm256_add_pd(sq_ps_e, _mm256_mul_pd(d4, d4));
    const __m256d d5 = _mm256_sub_pd(pe, s_v[d]);
    sq_pe_s = _mm256_add_pd(sq_pe_s, _mm256_mul_pd(d5, d5));
    const __m256d d6 = _mm256_sub_pd(pe, e_v[d]);
    sq_pe_e = _mm256_add_pd(sq_pe_e, _mm256_mul_pd(d6, d6));
  }

  // Perpendicular (Definition 1): Lehmer mean of order 2, zero when both
  // endpoints sit on the line.
  const __m256d l1 = _mm256_sqrt_pd(sq_perp1);
  const __m256d l2 = _mm256_sqrt_pd(sq_perp2);
  const __m256d perp_den = _mm256_add_pd(l1, l2);
  const __m256d perp_raw = _mm256_div_pd(
      _mm256_add_pd(_mm256_mul_pd(l1, l1), _mm256_mul_pd(l2, l2)),
      perp_den);
  const __m256d perp = _mm256_blendv_pd(
      perp_raw, zero, _mm256_cmp_pd(perp_den, zero, _CMP_EQ_OQ));

  // Parallel (Definition 2): one sqrt of the smallest of the four squared
  // projection-to-endpoint gaps, in the scalar kernel's MIN order.
  const __m256d par = _mm256_sqrt_pd(
      MinStd(MinStd(sq_ps_s, sq_ps_e), MinStd(sq_pe_s, sq_pe_e)));

  // Angle (Definition 3). cos θ = Dot(dir_i, dir_j) / (‖i‖·‖j‖), clamped
  // to [−1, 1] with std::clamp's exact selection order, forced to 1 for a
  // degenerate Li; a degenerate Lj zeroes the whole component.
  __m256d dot_ij = zero;
  for (int d = 0; d < dims; ++d) {
    dot_ij = _mm256_add_pd(dot_ij, _mm256_mul_pd(se_v[d], dj_v[d]));
  }
  const __m256d len_i_zero = _mm256_cmp_pd(len_i, zero, _CMP_EQ_OQ);
  const __m256d len_j_zero = _mm256_cmp_pd(len_j, zero, _CMP_EQ_OQ);
  const __m256d cos_raw =
      _mm256_div_pd(dot_ij, _mm256_mul_pd(len_i, len_j));
  // std::clamp(v, −1, 1): (v < lo) ? lo : (hi < v) ? hi : v.
  __m256d cos_t = _mm256_blendv_pd(
      cos_raw, neg_one, _mm256_cmp_pd(cos_raw, neg_one, _CMP_LT_OQ));
  cos_t =
      _mm256_blendv_pd(cos_t, one, _mm256_cmp_pd(one, cos_t, _CMP_LT_OQ));
  cos_t = _mm256_blendv_pd(cos_t, one, len_i_zero);
  // sin θ = sqrt(std::max(0, 1 − cos²)); std::max(0, x) ≡ (0 < x) ? x : 0.
  const __m256d one_minus_sq =
      _mm256_sub_pd(one, _mm256_mul_pd(cos_t, cos_t));
  const __m256d sin_arg = _mm256_blendv_pd(
      zero, one_minus_sq, _mm256_cmp_pd(zero, one_minus_sq, _CMP_LT_OQ));
  __m256d ang = _mm256_mul_pd(len_j, _mm256_sqrt_pd(sin_arg));
  if (w.directed) {
    // θ ∈ [90°, 180°] contributes ‖Lj‖ outright.
    ang = _mm256_blendv_pd(ang, len_j,
                           _mm256_cmp_pd(cos_t, zero, _CMP_LE_OQ));
  }
  ang = _mm256_blendv_pd(ang, zero, len_j_zero);

  // Weighted fold, grouped (w⊥·d⊥ + w∥·d∥) + wθ·dθ like the scalar path.
  return _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(w.w_perp, perp),
                    _mm256_mul_pd(w.w_par, par)),
      _mm256_mul_pd(w.w_ang, ang));
}

TRACLUS_AVX2_FN inline SimdWeights MakeSimdWeights(
    const SegmentDistanceConfig& cfg) {
  SimdWeights w;
  w.w_perp = _mm256_set1_pd(cfg.w_perpendicular);
  w.w_par = _mm256_set1_pd(cfg.w_parallel);
  w.w_ang = _mm256_set1_pd(cfg.w_angle);
  w.directed = cfg.directed;
  return w;
}

// One column's entries for the four candidates at batch positions
// k .. k + 3: a gather through the index vector for an index list, an
// unaligned load for a contiguous range.
TRACLUS_AVX2_FN inline __m256d LoadLanes(const double* col,
                                         const IndexList& index, size_t k) {
  return _mm256_i64gather_pd(
      col,
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index.idx + k)), 8);
}

TRACLUS_AVX2_FN inline __m256d LoadLanes(const double* col,
                                         const IndexRange& index, size_t k) {
  return _mm256_loadu_pd(col + index.first + k);
}

// Four-lane AVX2 batch kernel: dist(qs[query], cs[index(k)]) → out[k]. The
// query's columns are broadcast once per call; each 4-candidate step loads
// the candidates' columns (LoadLanes), takes the Lemma 2 swap mask from a
// vector length compare, patches the scalar id / lexicographic tie-break
// (which does not vectorize) into exactly the equal-length lanes, and blends
// the query and candidate registers into the (Li, Lj) roles. Gathers, loads
// and blends only move bits, so CanonicalLanes sees the operands the scalar
// kernel would select, and the lanes stay bit-identical to it.
template <typename Index>
TRACLUS_AVX2_FN void BatchSimd(const traj::SegmentStore& qs,
                               const traj::SegmentStore& cs,
                               const SegmentDistanceConfig& cfg, size_t query,
                               size_t n, const Index& index, double* out) {
  const int dims = qs.dims();
  const StoreColumns q_col = ColumnsOf(qs);
  const StoreColumns c_col = ColumnsOf(cs);
  __m256d qs_v[geom::kMaxDims], qe_v[geom::kMaxDims], qd_v[geom::kMaxDims];
  for (int d = 0; d < dims; ++d) {
    qs_v[d] = _mm256_set1_pd(q_col.start[d][query]);
    qe_v[d] = _mm256_set1_pd(q_col.end[d][query]);
    qd_v[d] = _mm256_set1_pd(q_col.dir[d][query]);
  }
  const __m256d q_den = _mm256_set1_pd(q_col.sqlen[query]);
  const __m256d q_len = _mm256_set1_pd(q_col.len[query]);
  const SimdWeights w = MakeSimdWeights(cfg);

  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d cs_v[geom::kMaxDims], ce_v[geom::kMaxDims], cd_v[geom::kMaxDims];
    for (int d = 0; d < dims; ++d) {
      cs_v[d] = LoadLanes(c_col.start[d], index, k);
      ce_v[d] = LoadLanes(c_col.end[d], index, k);
      cd_v[d] = LoadLanes(c_col.dir[d], index, k);
    }
    const __m256d c_den = LoadLanes(c_col.sqlen, index, k);
    const __m256d c_len = LoadLanes(c_col.len, index, k);

    // Lemma 2 swap mask: the candidate takes the Li role where the query is
    // strictly shorter. Exact length ties (and only those — NaN lengths fail
    // both compares and keep the query as Li, like CrossCanonicalSwap) take
    // the scalar tie-break, patched lane-wise.
    __m256d swap = _mm256_cmp_pd(q_len, c_len, _CMP_LT_OQ);
    const int eq =
        _mm256_movemask_pd(_mm256_cmp_pd(q_len, c_len, _CMP_EQ_OQ));
    if (eq != 0) {
      alignas(32) uint64_t mask_l[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(mask_l),
                         _mm256_castpd_si256(swap));
      for (int lane = 0; lane < 4; ++lane) {
        if ((eq & (1 << lane)) != 0) {
          mask_l[lane] = internal::CrossCanonicalSwap(
                             qs, query, cs, index(k + static_cast<size_t>(lane)))
                             ? ~uint64_t{0}
                             : uint64_t{0};
        }
      }
      swap = _mm256_castsi256_pd(
          _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_l)));
    }

    // Role blends: Li ← candidate where swapped, else query (and vice versa
    // for Lj). Pure bit moves — no rounding.
    __m256d s_v[geom::kMaxDims], e_v[geom::kMaxDims], se_v[geom::kMaxDims];
    __m256d js_v[geom::kMaxDims], je_v[geom::kMaxDims], dj_v[geom::kMaxDims];
    for (int d = 0; d < dims; ++d) {
      s_v[d] = _mm256_blendv_pd(qs_v[d], cs_v[d], swap);
      e_v[d] = _mm256_blendv_pd(qe_v[d], ce_v[d], swap);
      se_v[d] = _mm256_blendv_pd(qd_v[d], cd_v[d], swap);
      js_v[d] = _mm256_blendv_pd(cs_v[d], qs_v[d], swap);
      je_v[d] = _mm256_blendv_pd(ce_v[d], qe_v[d], swap);
      dj_v[d] = _mm256_blendv_pd(cd_v[d], qd_v[d], swap);
    }
    const __m256d den = _mm256_blendv_pd(q_den, c_den, swap);
    const __m256d len_i = _mm256_blendv_pd(q_len, c_len, swap);
    const __m256d len_j = _mm256_blendv_pd(c_len, q_len, swap);

    _mm256_storeu_pd(out + k, CanonicalLanes(dims, s_v, e_v, se_v, js_v, je_v,
                                             dj_v, den, len_i, len_j, w));
  }

  // Tail lanes (< 4 remaining) run the scalar kernel — same bits.
  BatchScalar(qs, cs, cfg, query, n - k, index.From(k), out + k);
}

#endif  // TRACLUS_X86_SIMD

// Dispatches an already-resolved kernel choice.
template <typename Index>
void BatchDispatch(BatchKernel kernel, const traj::SegmentStore& qs,
                   const traj::SegmentStore& cs,
                   const SegmentDistanceConfig& cfg, size_t query, size_t n,
                   const Index& index, double* out) {
#if defined(TRACLUS_X86_SIMD)
  if (kernel == BatchKernel::kSimd) {
    BatchSimd(qs, cs, cfg, query, n, index, out);
    return;
  }
#else
  (void)kernel;
#endif
  BatchScalar(qs, cs, cfg, query, n, index, out);
}

size_t BlockSize(const BatchOptions& options) {
  return options.block > 0 ? options.block : kDefaultRefineBlock;
}

void AddStats(const RefineStats& counts, RefineStats* stats) {
  if (stats == nullptr) return;
  stats->candidates += counts.candidates;
  stats->pruned += counts.pruned;
  stats->refined += counts.refined;
  stats->accepted += counts.accepted;
}

// "No candidate is the query" marker of RefineRow's `self` (refines across
// two stores: their candidates never hold the query).
constexpr size_t kNoSelf = static_cast<size_t>(-1);

// The ε-refine pipeline for one query row: lower-bound prune → batch
// distance → threshold. The query is qs[query]; the candidates are
// cs[index(k)] for every k of every run, runs in order and k ascending
// (IndexList or IndexRange{0}).
// Survivors of the prune are staged across blocks and runs and refined once
// at least `block` of them are waiting, so short runs still fill the batch
// kernels. Appends `out_base + j` for every candidate j within ε, in
// candidate order. Candidate `self` is appended whatever its distance —
// Definition 4 self-inclusion when the query's store is also the candidate
// store; refines across two stores pass kNoSelf. Counters accumulate into
// `counts`.
//
// Per-thread staging keeps the hot path allocation-free across calls;
// residency is bounded by twice the block size. thread_local is the whole
// concurrency story here: the kernels read only the immutable store columns
// and write only these buffers plus the caller-owned `out`, so concurrent
// refines on pool workers need no mutex (and hence no capability
// annotations) — nothing is shared.
template <typename Index>
void RefineRow(BatchKernel kernel, const PruneContext& prune,
               const traj::SegmentStore& qs, const SegmentDistanceConfig& cfg,
               size_t query, const traj::SegmentStore& cs,
               common::Span<const IndexRun> runs, const Index& index,
               double eps, size_t self, size_t out_base, size_t block,
               std::vector<size_t>& out, RefineStats& counts) {
  thread_local std::vector<size_t> survivors;
  thread_local std::vector<double> distances;
  if (survivors.size() < 2 * block) survivors.resize(2 * block);

  size_t staged = 0;
  const auto refine_staged = [&] {
    distances.resize(staged);
    BatchDispatch(kernel, qs, cs, cfg, query, staged,
                  IndexList{survivors.data()}, distances.data());
    counts.refined += staged;
    for (size_t m = 0; m < staged; ++m) {
      const size_t j = survivors[m];
      if (j == self || distances[m] <= eps) {
        out.push_back(out_base + j);
        ++counts.accepted;
      }
    }
    staged = 0;
  };
  for (const IndexRun& run : runs) {
    TRACLUS_DCHECK(run.first <= run.last);
    for (size_t lo = run.first; lo < run.last; lo += block) {
      const size_t hi = std::min(run.last, lo + block);
      const size_t before = staged;
      staged = CompactSurvivors(prune, cs, lo, hi, index, index,
                                survivors.data(), staged);
      counts.candidates += hi - lo;
      counts.pruned += (hi - lo) - (staged - before);
      if (staged >= block) refine_staged();
    }
  }
  if (staged > 0) refine_staged();
}

// One query against candidate runs: the body of EpsilonRefineCross and
// EpsilonRefineRuns. The query is its own candidate exactly when both stores are one
// object.
template <typename Index>
size_t Refine(const traj::SegmentStore& qs, const SegmentDistance& dist,
              size_t query, const traj::SegmentStore& cs,
              common::Span<const IndexRun> runs, const Index& index,
              double eps, size_t out_base, std::vector<size_t>& out,
              const BatchOptions& options, RefineStats* stats) {
  TRACLUS_DCHECK(query < qs.size());
  TRACLUS_DCHECK_EQ(qs.dims(), cs.dims());
  RefineStats counts;
  RefineRow(ResolveBatchKernel(options.kernel),
            MakePruneContext(qs, dist, query, eps), qs, dist.config(), query,
            cs, runs, index, eps, &qs == &cs ? query : kNoSelf, out_base,
            BlockSize(options), out, counts);
  AddStats(counts, stats);
  return counts.accepted;
}

}  // namespace

bool SimdAvailable() {
#if defined(TRACLUS_X86_SIMD)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

BatchKernel ResolveBatchKernel(BatchKernel kernel) {
  if (kernel == BatchKernel::kScalar || !SimdAvailable()) {
    return BatchKernel::kScalar;
  }
  return BatchKernel::kSimd;
}

double PruneReach(const SegmentDistance& dist, double eps) {
  const double c = dist.LowerBoundFactor();
  // A zero factor (degenerate weights) or a non-finite/negative ε leaves no
  // provable prune.
  if (!(c > 0.0) || !std::isfinite(eps) || eps < 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return eps / c;
}

const char* BatchKernelName(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::kAuto:
      return "auto";
    case BatchKernel::kScalar:
      return "scalar";
    case BatchKernel::kSimd:
      return "simd";
  }
  return "auto";
}

common::Result<BatchKernel> ParseBatchKernel(std::string_view name) {
  if (name == "auto") return BatchKernel::kAuto;
  if (name == "scalar") return BatchKernel::kScalar;
  if (name == "simd") return BatchKernel::kSimd;
  return common::Status::InvalidArgument(
      "unknown distance kernel '" + std::string(name) +
      "' (expected auto, scalar, or simd)");
}

void DistanceBatch(const traj::SegmentStore& store,
                   const SegmentDistance& dist, size_t query,
                   common::Span<const size_t> candidates,
                   common::Span<double> out, BatchKernel kernel) {
  TRACLUS_DCHECK(query < store.size());
  TRACLUS_DCHECK_EQ(candidates.size(), out.size());
  BatchDispatch(ResolveBatchKernel(kernel), store, store, dist.config(), query,
                candidates.size(), IndexList{candidates.data()}, out.data());
}

size_t EpsilonRefineCross(const traj::SegmentStore& query_store,
                          const SegmentDistance& dist, size_t query,
                          const traj::SegmentStore& cand_store,
                          common::Span<const size_t> candidates, double eps,
                          size_t out_base, std::vector<size_t>& out_indices,
                          const BatchOptions& options, RefineStats* stats) {
  const IndexRun all{0, candidates.size()};
  return Refine(query_store, dist, query, cand_store, {&all, 1},
                IndexList{candidates.data()}, eps, out_base, out_indices,
                options, stats);
}

size_t EpsilonRefineRuns(const traj::SegmentStore& query_store,
                         const SegmentDistance& dist, size_t query,
                         const traj::SegmentStore& cand_store,
                         common::Span<const IndexRun> runs, double eps,
                         size_t out_base, std::vector<size_t>& out_indices,
                         const BatchOptions& options, RefineStats* stats) {
  return Refine(query_store, dist, query, cand_store, runs, IndexRange{0},
                eps, out_base, out_indices, options, stats);
}

void DistanceTileRange(const traj::SegmentStore& store,
                       const SegmentDistance& dist, size_t query_first,
                       size_t query_last, size_t cand_first, size_t cand_last,
                       double* out, size_t ldo, BatchKernel kernel) {
  TRACLUS_DCHECK(query_first <= query_last && query_last <= store.size());
  TRACLUS_DCHECK(cand_first <= cand_last && cand_last <= store.size());
  TRACLUS_DCHECK(ldo >= cand_last - cand_first);
  const BatchKernel resolved = ResolveBatchKernel(kernel);
  const SegmentDistanceConfig& cfg = dist.config();
  // Candidate-block-major over the contiguous range: each block's columns
  // serve every query row while hot.
  for (size_t jb = cand_first; jb < cand_last; jb += kTileCandidateBlock) {
    const size_t je = std::min(cand_last, jb + kTileCandidateBlock);
    for (size_t q = query_first; q < query_last; ++q) {
      BatchDispatch(resolved, store, store, cfg, q, je - jb, IndexRange{jb},
                    out + (q - query_first) * ldo + (jb - cand_first));
    }
  }
}

size_t EpsilonRefineTile(const traj::SegmentStore& store,
                         const SegmentDistance& dist,
                         common::Span<const size_t> queries, size_t first,
                         size_t last, double eps,
                         std::vector<size_t>* out_lists,
                         const BatchOptions& options, RefineStats* stats) {
  TRACLUS_DCHECK(out_lists != nullptr);
  TRACLUS_DCHECK(first <= last && last <= store.size());
  const BatchKernel kernel = ResolveBatchKernel(options.kernel);
  const size_t block = BlockSize(options);
  const SegmentDistanceConfig& cfg = dist.config();

  // One prune context per query, hoisted out of the block loop. Same
  // thread_local staging story as RefineRow: everything else lives in
  // caller-owned out_lists, so concurrent tiles on pool workers share
  // nothing.
  thread_local std::vector<PruneContext> prune;
  prune.clear();
  for (const size_t q : queries) {
    TRACLUS_DCHECK(q < store.size());
    prune.push_back(MakePruneContext(store, dist, q, eps));
  }

  // Candidate-block-major: each block's columns serve every query while hot.
  // Per query, blocks arrive in ascending order and each is one RefineRow
  // call, so out_lists[qi] matches a one-run EpsilonRefineRuns exactly.
  RefineStats counts;
  for (size_t base = first; base < last; base += block) {
    const size_t hi = std::min(last, base + block);
    const IndexRun run{base, hi};
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      RefineRow(kernel, prune[qi], store, cfg, queries[qi], store, {&run, 1},
                IndexRange{0}, eps, queries[qi], 0, block, out_lists[qi],
                counts);
    }
  }
  AddStats(counts, stats);
  return counts.accepted;
}

void NearestWithinEps(const traj::SegmentStore& query_store,
                      const SegmentDistance& dist,
                      common::Span<const size_t> queries,
                      const traj::SegmentStore& cand_store,
                      common::Span<const size_t> candidates, double eps,
                      common::Span<size_t> out_position,
                      common::Span<double> out_distance,
                      const BatchOptions& options) {
  TRACLUS_DCHECK_EQ(queries.size(), out_position.size());
  TRACLUS_DCHECK_EQ(queries.size(), out_distance.size());
  TRACLUS_DCHECK_EQ(query_store.dims(), cand_store.dims());
  const BatchKernel kernel = ResolveBatchKernel(options.kernel);
  const size_t block = BlockSize(options);
  const SegmentDistanceConfig& cfg = dist.config();

  thread_local std::vector<PruneContext> prune;
  thread_local std::vector<size_t> survivors;  // Positions into `candidates`.
  thread_local std::vector<size_t> survivor_ids;  // candidates[survivors[m]].
  thread_local std::vector<double> distances;
  if (survivors.size() < block) survivors.resize(block);
  prune.clear();
  for (const size_t q : queries) {
    TRACLUS_DCHECK(q < query_store.size());
    prune.push_back(MakePruneContext(query_store, dist, q, eps));
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    out_position[qi] = kNoNearest;
    out_distance[qi] = std::numeric_limits<double>::infinity();
  }

  // Candidate-block-major like the other tiles. The prune is against ε only
  // (admissible for every true ≤-ε candidate), never against the running
  // minimum, so the set of refined candidates — and with bit-identical
  // distances, the strict-< argmin below — does not depend on block size,
  // kernel, or evaluation order. Strict < keeps the earliest candidate on
  // ties because positions are scanned in ascending order.
  for (size_t base = 0; base < candidates.size(); base += block) {
    const size_t hi = std::min(candidates.size(), base + block);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const size_t kept =
          CompactSurvivors(prune[qi], cand_store, base, hi,
                           IndexList{candidates.data()}, IndexRange{0},
                           survivors.data(), 0);
      survivor_ids.resize(kept);
      for (size_t m = 0; m < kept; ++m) {
        survivor_ids[m] = candidates[survivors[m]];
      }
      distances.resize(kept);
      BatchDispatch(kernel, query_store, cand_store, cfg, queries[qi], kept,
                    IndexList{survivor_ids.data()}, distances.data());
      for (size_t m = 0; m < kept; ++m) {
        const double d = distances[m];
        if (d <= eps && d < out_distance[qi]) {
          out_distance[qi] = d;
          out_position[qi] = survivors[m];
        }
      }
    }
  }
}

common::Matrix PairwiseDistanceMatrix(const traj::SegmentStore& store,
                                      const SegmentDistance& dist,
                                      common::ThreadPool& pool,
                                      BatchKernel kernel) {
  const size_t n = store.size();
  common::Matrix m(n, n, 0.0);
  const BatchKernel resolved = ResolveBatchKernel(kernel);
  const SegmentDistanceConfig& cfg = dist.config();
  // Upper-triangle tile fill. The chunk owning rows [lo, hi) walks candidate
  // blocks outermost so each block's SoA columns serve every row of the
  // chunk while hot; the ragged diagonal start (row i owns columns > i) only
  // trims the first block each row intersects. After a block is filled, its
  // mirrored column entries are written as a blocked transpose — short
  // contiguous runs instead of one full-column stride per row. The chunk
  // owning row i writes dist(i, j) and its mirror m(j, i) for every j > i,
  // so every element has exactly one writer and the matrix is identical for
  // every thread count. The diagonal stays 0 (dist(L, L) = 0).
  pool.ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
    for (size_t jb = lo + 1; jb < n; jb += kTileCandidateBlock) {
      const size_t je = std::min(n, jb + kTileCandidateBlock);
      const size_t row_end = std::min(hi, je);
      for (size_t i = lo; i < row_end; ++i) {
        const size_t first = std::max(i + 1, jb);
        if (first >= je) continue;
        BatchDispatch(resolved, store, store, cfg, i, je - first,
                      IndexRange{first}, &m(i, first));
      }
      for (size_t j = jb; j < je; ++j) {
        const size_t i_end = std::min(hi, j);
        for (size_t i = lo; i < i_end; ++i) m(j, i) = m(i, j);
      }
    }
  });
  return m;
}

bool PruneProvablyFar(const traj::SegmentStore& store,
                      const SegmentDistance& dist, size_t a, size_t b,
                      double eps) {
  double mid_dist_sq = 0.0;
  for (int d = 0; d < store.dims(); ++d) {
    const double diff =
        store.midpoint_coords(d)[b] - store.midpoint_coords(d)[a];
    mid_dist_sq += diff * diff;
  }
  return a != b && ProvablyFar(mid_dist_sq, PruneReach(dist, eps),
                               store.half_length(a), store.half_length(b));
}

void PruneRuns(common::Span<const double* const> mid, const double* half,
               size_t query, double reach, common::Span<const IndexRun> runs,
               std::vector<size_t>& survivors) {
  TRACLUS_DCHECK(mid.size() == 2 || mid.size() == 3);
  PruneContext p;
  p.dims = static_cast<int>(mid.size());
  p.reach = reach;
  p.half_q = half[query];
  for (int d = 0; d < p.dims; ++d) p.mid_q[d] = mid[d][query];
  const IndexRange positions{0};
  size_t m = 0;
  for (const IndexRun& run : runs) {
    TRACLUS_DCHECK(run.first <= run.last);
    survivors.resize(m + (run.last - run.first));
    // Split the run around the query, which is never its own survivor.
    const bool split = run.first <= query && query < run.last;
    const size_t cut = split ? query : run.last;
    m = CompactSurvivors(p, mid.data(), half, run.first, cut, positions,
                         positions, survivors.data(), m);
    if (split) {
      m = CompactSurvivors(p, mid.data(), half, cut + 1, run.last, positions,
                           positions, survivors.data(), m);
    }
  }
  survivors.resize(m);
}

}  // namespace traclus::distance
