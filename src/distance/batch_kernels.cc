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

// ---------------------------------------------------------------------------
// The per-pair prune: one lane loop, three stages.
//
// Stage 1 is the midpoint bound of ProvablyFar. Stage 2 adds the angle term
// of the distance (SegmentDistance::LowerBoundFactor proves the bound): with
// L = max(len_q, len_j), H = h_q + h_j, d = ‖mid_q − mid_j‖ and
// A = |d_q × d_j| (len_q·len_j for a directed pair with d_q·d_j ≤ 0),
//   dist ≥ c·(d − H) + wθ·A/L,
// so the pair is farther than ε when c·L·d + wθ·A > E·L + c·L·H for some
// E ≥ ε. Multiplied through by L the test has no division, and where
// wθ·A ≤ E·L both sides are non-negative, so squaring them removes the root
// of d. A pair is pruned when
//   wθ·A > E·L   or   (c·L)²·d² > (E·L − wθ·A + c⁺·L·H)²,
// with E = ε·(1 + kPruneSlack) + wθ·kAngleSlack·L and c⁺ = c·(1 + kPruneSlack).
// (A 3-D cross product needs one root for its norm; 2-D needs none.)
//
// The angle margin. The kernel computes dθ as len_j·√(1 − cos²θ) from a
// rounded cos θ, and near θ = 0 that subtraction cancels, so A/L can exceed
// the kernel's dθ by about len_j·√(β·u), u = 2⁻⁵³ — far more than any
// relative margin on ε covers for a long segment. In full: the kernel's
// cos θ = Dot(d_i, d_j) / (len_i·len_j) is within κ·u of the cosine of the
// stored direction vectors, κ = 2·D + 5 (D products and sums in the dot, two
// rounded norms, their product and the division, O(u²) rounded up), and the
// clamp to [−1, 1] only moves it closer; then 1 − fl(cos²) ≥ sin²θ − β·u
// with β = 2κ + 3, and √(x − y) ≥ √x − √y gives
//   dθ_kernel ≥ len_j·(sin θ − √(β·u)) − O(u)·len_j.
// A is within a few u·len_q·len_j of |d_q|·|d_j|·sin θ and the cached lengths
// are within (D/2 + 1)·u of the norms, so with len_j ≤ L
//   A/L ≤ dθ_kernel + L·(√(β·u) + O(u)).
// β ≤ 32 for D ≤ 3, and √(32·u) = 2⁻²⁴ exactly; kAngleSlack doubles that,
// which covers the O(u) terms and the rounding of stage 2's own operations
// on wθ·A ≤ wθ·L² many times over. (The directed θ ≥ 90° branch needs none
// of it: A = len_q·len_j rounds once, against the kernel's exact len_j, and
// a product d_q·d_j ≤ 0 implies the kernel's cos θ ≤ 0.) ε keeps stage 1's
// relative margin kPruneSlack, and c⁺ applies it to c·L·H, whose rounding
// is relative to that term rather than to ε.
//
// Stage 3 swaps the midpoint term for the perpendicular one (the
// LowerBoundFactor comment proves it): dist ≥ w⊥·d⊥ + wθ·dθ, and with Li the
// longer segment, d_i its direction and C_k = ‖d_i × (q_k − s_i)‖² for the
// endpoints q_k of Lj, d⊥ ≥ √((C_1 + C_2)/2) / L. The stage evaluates
// (C_1 + C_2)/2 as G = ‖d_i × Δmid‖² + ‖d_q × d_j‖²/4 (Δmid = mid_j − mid_q,
// stage 1's difference; the cross product is stage 2's): both are the same
// quantity, because s_i − mid_i and q_k − mid_j are ∓d_i/2 and ∓d_j/2, so
// d_i × (q_k − s_i) = d_i × Δmid ∓ (d_i × d_j)/2 and the cross terms cancel in
// the sum. It reads no endpoint column, and only Li's direction depends on
// the roles. A pair is pruned when
//   w⊥²·G > r²   with   r = (E + w⊥·P)·L − wθ·A ≥ 0,
// E being stage 2's ε·(1 + kPruneSlack) + wθ·kAngleSlack·L and P the
// perpendicular margin below: again no division and no root, in 2-D and
// 3-D. Only a strict length compare fixes the roles, so tied or NaN lengths
// prune nothing here (the kernel breaks such ties by id, which this stage
// does not repeat).
//
// The scale margins. The kernel gets l⊥k and l∥k by subtracting the
// projection s + dir·u from a point, and that rounds at the scale of the
// coordinates, not of the distance: 10⁹-translated copies of a pair lose
// about 10⁻⁷ of it, and so do the cached midpoints fl(s + e)·0.5. So every
// stage adds a margin that grows with the pair's scale S: the query's
// ‖mid_q‖₁ + h_q plus the candidate store's SegmentStore::scale, a bound on
// the norm of every endpoint and every difference of two (D ≤ 3,
// u = 2⁻⁵³, O(u²) rounded up):
//   * the kernel's l⊥k: an error in u only slides the projection along the
//     line, which lengthens p − proj; dir·u, s + dir·u, p − proj, the squared
//     sum and its root take at most 7·u·S off l⊥k, and the Lehmer mean's
//     squares, sums and division 5·u·S more. Its d∥ does feel the error in
//     u (the slide is along the line): at most 16·u·S. The fold adds
//     2·u·(w⊥ + w∥)·S;
//   * the midpoint bound overstates mindist by at most 12·u·S (the two
//     rounded midpoints, ‖Δmid‖'s own rounding, the rounded half-lengths).
//     So c·(‖Δmid‖ − H) may exceed the kernel's w⊥·d⊥ + w∥·d∥ by
//     (14·w⊥ + 18·w∥ + 12·c)·u·S, and stages 1 and 2 add Reach::per_scale·S
//     = kScaleSlack·(w⊥ + w∥ + c)/c·S to the query's half-length:
//     kScaleSlack = 2⁻⁴⁵ = 256·u is fourteen times the 18·u needed;
//   * stage 3 measures to the line through mid_i along dir_i from the points
//     mid_j ± dir_j/2, which lie within 2·u·S of the kernel's line and
//     endpoints; Δmid, the cancelling cross products, the squares and sums,
//     and L read as the rounded length rather than ‖dir‖ add at most
//     9·u·S to √G / L. With the kernel's 12·u·S that is 23·u·S, and
//     P = kScaleSlack·S is eleven times it, which also covers the rounding of
//     r and of the final comparison on the w⊥·P part of r (the ε part keeps
//     kPruneSlack, the angle part kAngleSlack's factor 2).
// Gradual underflow takes at most 2⁻⁵³⁵ more off the kernel's d⊥ (a squared
// term's absolute error, under a root), hence the floor kPerpFloor = 2⁻⁵²⁵
// in P. The rest of stage 3's analysis is relative, so it runs only where
// its numbers are normal and finite: L ≥ 2⁻⁴⁰⁰ (a normal den in the kernel;
// the stage's own underflow in d_i × Δmid then stays below 2⁻⁶⁷⁰ on √G / L),
// r ≥ 2⁻⁴⁰⁰ (which also demands r ≥ 0), w⊥ within [2⁻¹⁰⁰, 2¹⁰⁰] (so
// w⊥²·G > r² forces G ≥ 2⁻¹⁰⁰⁰, where underflow in G is relative noise), and
// w⊥²·G < +∞ (an overflowed cross product reads +∞ and proves nothing).
//
// Definition 4's self-inclusion is exempt: the lane whose candidate is
// `self` survives whatever the bounds compute (stage 1 never prunes it, at
// midpoint distance 0, but nothing should rest on the later stages' rounding
// there).
// ---------------------------------------------------------------------------

constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
constexpr int kCosErrorUlps = 2 * geom::kMaxDims + 5;
constexpr int kSinSquaredErrorUlps = 2 * kCosErrorUlps + 3;
static_assert(kSinSquaredErrorUlps <= 32, "√(β·u) ≤ 2⁻²⁴ needs β ≤ 32");
constexpr double kSqrt32U = 0x1p-24;
static_assert(kSqrt32U * kSqrt32U == 32 * kUnitRoundoff, "√(32·u) = 2⁻²⁴");
constexpr double kAngleSlack = 2 * kSqrt32U;

constexpr double kScaleSlack = 0x1p-45;
static_assert(kScaleSlack >= 14 * 18 * kUnitRoundoff,
              "the midpoint term's scale margin must dwarf its 18·u error");
static_assert(kScaleSlack >= 11 * 23 * kUnitRoundoff,
              "the perpendicular margin must dwarf its 23·u·S error");
constexpr double kPerpFloor = 0x1p-525;
constexpr double kPerpMin = 0x1p-400;         // Smallest L and r stage 3 uses.
constexpr double kPerpWeightRange = 0x1p100;  // w⊥ within [1/this, this].

// "No candidate is the query" marker of the prune's and RefineRow's `self`
// (refines across two stores: their candidates never hold the query).
constexpr size_t kNoSelf = static_cast<size_t>(-1);

// The columns the prune reads, for queries and candidates alike: the
// midpoint and direction coordinates (dims of each), the half-lengths and the
// lengths, all indexed by one position; and the store's scale.
struct PruneColumns {
  int dims = 2;
  const double* mid[geom::kMaxDims] = {};
  const double* dir[geom::kMaxDims] = {};
  const double* half = nullptr;
  const double* len = nullptr;
  double scale = 0.0;
};

PruneColumns PruneColumnsOf(const traj::SegmentStore& store) {
  PruneColumns c;
  c.dims = store.dims();
  for (int d = 0; d < c.dims; ++d) {
    c.mid[d] = store.midpoint_coords(d).data();
    c.dir[d] = store.direction_coords(d).data();
  }
  c.half = store.half_lengths().data();
  c.len = store.lengths().data();
  c.scale = store.scale();
  return c;
}

// Query-side state of the three prune stages, hoisted out of the candidate
// loop. An unusable bound is +inf (reach, eps_hi) or a zero weight
// (w_perp_sq), which fails every comparison without a branch.
struct PruneContext {
  int dims = 2;
  bool directed = true;
  double reach = 0.0;   // Stage 1: ε / c, the Euclidean radius that matters.
  double half_q = 0.0;  // h_q plus the midpoint term's scale margin.
  double len_q = 0.0;
  double mid_q[geom::kMaxDims] = {0.0, 0.0, 0.0};
  double dir_q[geom::kMaxDims] = {0.0, 0.0, 0.0};
  double eps_hi = 0.0;       // Stage 2: ε·(1 + kPruneSlack).
  double angle_slack = 0.0;  // wθ·kAngleSlack.
  double w_angle = 0.0;
  double c = 0.0;     // SegmentDistance::LowerBoundFactor.
  double c_hi = 0.0;  // c·(1 + kPruneSlack).
  double w_perp_sq = 0.0;    // Stage 3: w⊥², 0 outside kPerpWeightRange.
  double perp_margin = 0.0;  // w⊥·P.
};

// The context of query `query` of the columns `q` against candidates of a
// store whose scale is `cand_scale`.
PruneContext MakePruneContext(const PruneColumns& q, size_t query,
                              double cand_scale, const SegmentDistance& dist,
                              double eps) {
  const SegmentDistanceConfig& cfg = dist.config();
  PruneContext p;
  p.dims = q.dims;
  p.directed = cfg.directed;
  // The pair's scale S: the query's ‖mid_q‖₁ + h_q plus the candidates'
  // bound.
  double scale = q.half[query];
  for (int d = 0; d < p.dims; ++d) {
    p.mid_q[d] = q.mid[d][query];
    p.dir_q[d] = q.dir[d][query];
    scale += std::fabs(p.mid_q[d]);
  }
  scale += cand_scale;
  const Reach reach = PruneReach(dist, eps);
  p.reach = reach.radius;
  p.half_q = q.half[query] + reach.per_scale * scale;
  p.len_q = q.len[query];
  // Like PruneReach: a non-finite or negative ε proves nothing.
  p.eps_hi = std::isfinite(eps) && eps >= 0.0
                 ? eps * (1.0 + kPruneSlack)
                 : std::numeric_limits<double>::infinity();
  p.angle_slack = cfg.w_angle * kAngleSlack;
  p.w_angle = cfg.w_angle;
  p.c = dist.LowerBoundFactor();
  p.c_hi = p.c * (1.0 + kPruneSlack);
  const double w_perp = cfg.w_perpendicular;
  p.w_perp_sq = w_perp >= 1.0 / kPerpWeightRange && w_perp <= kPerpWeightRange
                    ? w_perp * w_perp
                    : 0.0;
  p.perp_margin = w_perp * (kScaleSlack * scale + kPerpFloor);
  return p;
}

// Stages 2 and 3 for one pair that passed stage 1 (see the section comment);
// diff[d] = mid_j[d] − mid_q[d] and dmid_sq are stage 1's. The AVX2 lanes
// below run exactly these operations: the max and the role pick are
// blendv selections, and every comparison is ordered, so a NaN anywhere
// never prunes.
template <int D>
inline bool AngleOrPerpFar(const PruneContext& p, const double* diff,
                           double dmid_sq, double half_j, double len_j,
                           const double* dir_j) {
  const double l = p.len_q > len_j ? p.len_q : len_j;
  const double h = p.half_q + half_j;
  double cross_sq;  // ‖d_q × d_j‖².
  double area;
  if constexpr (D == 2) {
    const double z = p.dir_q[0] * dir_j[1] - p.dir_q[1] * dir_j[0];
    cross_sq = z * z;
    area = std::fabs(z);
  } else {
    const double x = p.dir_q[1] * dir_j[2] - p.dir_q[2] * dir_j[1];
    const double y = p.dir_q[2] * dir_j[0] - p.dir_q[0] * dir_j[2];
    const double z = p.dir_q[0] * dir_j[1] - p.dir_q[1] * dir_j[0];
    cross_sq = x * x + y * y + z * z;
    area = std::sqrt(cross_sq);
  }
  if (p.directed) {
    double dot = 0.0;
    for (int d = 0; d < D; ++d) dot += p.dir_q[d] * dir_j[d];
    if (dot <= 0.0) area = p.len_q * len_j;
  }
  const double e = p.eps_hi + p.angle_slack * l;
  const double el = e * l;
  const double wa = p.w_angle * area;
  const double cl = p.c * l;
  const double r = (el - wa) + p.c_hi * l * h;
  if (wa > el || cl * cl * dmid_sq > r * r) return true;

  // Stage 3: G = ‖d_i × Δmid‖² + ‖d_q × d_j‖²/4 with d_i the longer's.
  const double* dir_i = p.len_q > len_j ? p.dir_q : dir_j;
  double x_sq;
  if constexpr (D == 2) {
    const double x = dir_i[0] * diff[1] - dir_i[1] * diff[0];
    x_sq = x * x;
  } else {
    const double x = dir_i[1] * diff[2] - dir_i[2] * diff[1];
    const double y = dir_i[2] * diff[0] - dir_i[0] * diff[2];
    const double z = dir_i[0] * diff[1] - dir_i[1] * diff[0];
    x_sq = x * x + y * y + z * z;
  }
  const double g = x_sq + 0.25 * cross_sq;
  const double r3 = (e + p.perp_margin) * l - wa;
  const double lhs = p.w_perp_sq * g;
  return (p.len_q < len_j || len_j < p.len_q) && l >= kPerpMin &&
         r3 >= kPerpMin && lhs > r3 * r3 &&
         lhs < std::numeric_limits<double>::infinity();
}

// The scalar lane: true when any stage prunes candidate j.
template <int D>
inline bool FarScalar(const PruneContext& p, const PruneColumns& c,
                      size_t j) {
  double diff[D];
  double dmid_sq = 0.0;
  for (int d = 0; d < D; ++d) {
    diff[d] = c.mid[d][j] - p.mid_q[d];
    dmid_sq += diff[d] * diff[d];
  }
  const double half_j = c.half[j];
  if (ProvablyFar(dmid_sq, p.reach, p.half_q, half_j)) return true;
  double dir_j[D];
  for (int d = 0; d < D; ++d) dir_j[d] = c.dir[d][j];
  return AngleOrPerpFar<D>(p, diff, dmid_sq, half_j, c.len[j], dir_j);
}

// The prune over the candidates index(lo .. hi) of the columns `c`:
// each candidate's tag(k) is written to slots[m], and m advances when the
// candidate survives (or is `self`), so survivors compact in candidate
// order. `slots` must have room for m + (hi − lo) entries. Returns the new
// m.
template <int D, typename Index, typename Tag>
size_t CompactScalar(const PruneContext& p, const PruneColumns& c, size_t lo,
                     size_t hi, const Index& index, const Tag& tag,
                     size_t self, size_t* slots, size_t m) {
  for (size_t k = lo; k < hi; ++k) {
    const size_t j = index(k);
    slots[m] = tag(k);
    m += j == self || !FarScalar<D>(p, c, j) ? 1 : 0;
  }
  return m;
}

#if defined(TRACLUS_X86_SIMD)

// The positions k .. k + 3 of an index list or a contiguous range, as four
// 64-bit lanes.
TRACLUS_AVX2_FN inline __m256i IndexLanes(const IndexList& index, size_t k) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index.idx + k));
}

TRACLUS_AVX2_FN inline __m256i IndexLanes(const IndexRange& index, size_t k) {
  return _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(index.first + k)),
      _mm256_set_epi64x(3, 2, 1, 0));
}

// One prune column's entries at those positions: an unaligned load for a
// range; for an index list, four scalar loads assembled into the vector.
// The prune reads each column once per step, and on the measured Xeon that
// beat _mm256_i64gather_pd (bench_assign's AssignSegments/1, whose ~260
// listed candidates per query mostly survive stage 1: median 50.7 ms with
// scalar loads, 57.4 ms with gathers, 55.6 ms for the scalar midpoint-only
// prune before the angle stage, five runs each).
TRACLUS_AVX2_FN inline __m256d PruneLanes(const double* col,
                                          const IndexList& index, size_t k) {
  const size_t* i = index.idx + k;
  return _mm256_set_pd(col[i[3]], col[i[2]], col[i[1]], col[i[0]]);
}

TRACLUS_AVX2_FN inline __m256d PruneLanes(const double* col,
                                          const IndexRange& index, size_t k) {
  return _mm256_loadu_pd(col + index.first + k);
}

// Branch-free compress of four 64-bit lanes: for each 4-bit survivor mask,
// the _mm256_permutevar8x32_epi32 indices that move the kept lanes to the
// front in lane order, and how many there are (a table, not
// __builtin_popcount, which without POPCNT in the target is a library call
// from inside the ymm loop).
struct CompressTable {
  alignas(32) int32_t perm[16][8];
  size_t count[16];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int kept = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) continue;
      t.perm[mask][2 * kept] = 2 * lane;
      t.perm[mask][2 * kept + 1] = 2 * lane + 1;
      ++kept;
    }
    t.count[mask] = static_cast<size_t>(kept);
  }
  return t;
}

constexpr CompressTable kCompress = MakeCompressTable();

// The AVX2 lane loop: CompactScalar four candidates per step. Stage 1 runs
// on every step, stages 2 and 3 together on the steps where stage 1 keeps a
// lane: a lane is kept when no stage proves it far, which is FarScalar's
// decision (it returns at the first stage that does), so the survivors are
// the scalar loop's. A separate branch into stage 3 for the steps stage 2
// leaves a lane in mispredicts too often to pay: at seed 0, one thread, the
// hurricane join's prune and refine took 38.1 ms without stage 3, 39.9 ms
// with it behind its own branch and 34.8 ms with it fused into stage 2's
// (elk-half: 125 and 103 ms without and fused; medians of per-round
// minima, interleaved rounds).
// The kept tags are permuted to the front of one 4-lane store at slots[m]
// (the lanes past the kept ones land in slots the next step overwrites).
// The tail of fewer than four runs the scalar lane, after vzeroupper: the
// upper ymm halves must be clean before any SSE code runs again.
template <int D, typename Index, typename Tag>
TRACLUS_AVX2_FN size_t CompactSimd(const PruneContext& p,
                                   const PruneColumns& c, size_t lo,
                                   size_t hi, const Index& index,
                                   const Tag& tag, size_t self, size_t* slots,
                                   size_t m) {
  __m256d mid_q[D], dir_q[D];
  for (int d = 0; d < D; ++d) {
    mid_q[d] = _mm256_set1_pd(p.mid_q[d]);
    dir_q[d] = _mm256_set1_pd(p.dir_q[d]);
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d reach_half_q = _mm256_set1_pd(p.reach + p.half_q);
  const __m256d slack = _mm256_set1_pd(1.0 + kPruneSlack);
  const __m256d half_q = _mm256_set1_pd(p.half_q);
  const __m256d len_q = _mm256_set1_pd(p.len_q);
  const __m256d eps_hi = _mm256_set1_pd(p.eps_hi);
  const __m256d angle_slack = _mm256_set1_pd(p.angle_slack);
  const __m256d w_angle = _mm256_set1_pd(p.w_angle);
  const __m256d cc = _mm256_set1_pd(p.c);
  const __m256d c_hi = _mm256_set1_pd(p.c_hi);
  const __m256d w_perp_sq = _mm256_set1_pd(p.w_perp_sq);
  const __m256d perp_margin = _mm256_set1_pd(p.perp_margin);
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d perp_min = _mm256_set1_pd(kPerpMin);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256i self_v = _mm256_set1_epi64x(static_cast<long long>(self));

  size_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    __m256d diff[D];
    __m256d dmid_sq = zero;
    for (int d = 0; d < D; ++d) {
      diff[d] = _mm256_sub_pd(PruneLanes(c.mid[d], index, k), mid_q[d]);
      dmid_sq = _mm256_add_pd(dmid_sq, _mm256_mul_pd(diff[d], diff[d]));
    }
    const __m256d half_j = PruneLanes(c.half, index, k);
    const __m256d threshold = _mm256_add_pd(reach_half_q, half_j);
    int keep = ~_mm256_movemask_pd(_mm256_cmp_pd(
                   dmid_sq,
                   _mm256_mul_pd(_mm256_mul_pd(threshold, threshold), slack),
                   _CMP_GT_OQ)) &
               0xF;
    if (keep != 0) {
      const __m256d len_j = PruneLanes(c.len, index, k);
      __m256d dir_j[D];
      for (int d = 0; d < D; ++d) dir_j[d] = PruneLanes(c.dir[d], index, k);
      const __m256d l = _mm256_max_pd(len_q, len_j);
      const __m256d h = _mm256_add_pd(half_q, half_j);
      __m256d cross_sq, area;
      if constexpr (D == 2) {
        const __m256d z = _mm256_sub_pd(_mm256_mul_pd(dir_q[0], dir_j[1]),
                                        _mm256_mul_pd(dir_q[1], dir_j[0]));
        cross_sq = _mm256_mul_pd(z, z);
        area = _mm256_and_pd(abs_mask, z);
      } else {
        const __m256d x = _mm256_sub_pd(_mm256_mul_pd(dir_q[1], dir_j[2]),
                                        _mm256_mul_pd(dir_q[2], dir_j[1]));
        const __m256d y = _mm256_sub_pd(_mm256_mul_pd(dir_q[2], dir_j[0]),
                                        _mm256_mul_pd(dir_q[0], dir_j[2]));
        const __m256d z = _mm256_sub_pd(_mm256_mul_pd(dir_q[0], dir_j[1]),
                                        _mm256_mul_pd(dir_q[1], dir_j[0]));
        cross_sq = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
            _mm256_mul_pd(z, z));
        area = _mm256_sqrt_pd(cross_sq);
      }
      if (p.directed) {
        __m256d dot = zero;
        for (int d = 0; d < D; ++d) {
          dot = _mm256_add_pd(dot, _mm256_mul_pd(dir_q[d], dir_j[d]));
        }
        area = _mm256_blendv_pd(area, _mm256_mul_pd(len_q, len_j),
                                _mm256_cmp_pd(dot, zero, _CMP_LE_OQ));
      }
      const __m256d e = _mm256_add_pd(eps_hi, _mm256_mul_pd(angle_slack, l));
      const __m256d el = _mm256_mul_pd(e, l);
      const __m256d wa = _mm256_mul_pd(w_angle, area);
      const __m256d cl = _mm256_mul_pd(cc, l);
      const __m256d r = _mm256_add_pd(_mm256_sub_pd(el, wa),
                                      _mm256_mul_pd(_mm256_mul_pd(c_hi, l), h));
      const __m256d far = _mm256_or_pd(
          _mm256_cmp_pd(wa, el, _CMP_GT_OQ),
          _mm256_cmp_pd(_mm256_mul_pd(_mm256_mul_pd(cl, cl), dmid_sq),
                        _mm256_mul_pd(r, r), _CMP_GT_OQ));

      // Stage 3, in the same step (see the loop comment).
      const __m256d q_longer = _mm256_cmp_pd(len_q, len_j, _CMP_GT_OQ);
      __m256d dir_i[D];
      for (int d = 0; d < D; ++d) {
        dir_i[d] = _mm256_blendv_pd(dir_j[d], dir_q[d], q_longer);
      }
      __m256d x_sq;
      if constexpr (D == 2) {
        const __m256d x = _mm256_sub_pd(_mm256_mul_pd(dir_i[0], diff[1]),
                                        _mm256_mul_pd(dir_i[1], diff[0]));
        x_sq = _mm256_mul_pd(x, x);
      } else {
        const __m256d x = _mm256_sub_pd(_mm256_mul_pd(dir_i[1], diff[2]),
                                        _mm256_mul_pd(dir_i[2], diff[1]));
        const __m256d y = _mm256_sub_pd(_mm256_mul_pd(dir_i[2], diff[0]),
                                        _mm256_mul_pd(dir_i[0], diff[2]));
        const __m256d z = _mm256_sub_pd(_mm256_mul_pd(dir_i[0], diff[1]),
                                        _mm256_mul_pd(dir_i[1], diff[0]));
        x_sq = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
            _mm256_mul_pd(z, z));
      }
      const __m256d g = _mm256_add_pd(x_sq, _mm256_mul_pd(quarter, cross_sq));
      const __m256d r3 =
          _mm256_sub_pd(_mm256_mul_pd(_mm256_add_pd(e, perp_margin), l), wa);
      const __m256d lhs = _mm256_mul_pd(w_perp_sq, g);
      const __m256d far3 = _mm256_and_pd(
          _mm256_and_pd(_mm256_cmp_pd(len_q, len_j, _CMP_NEQ_OQ),
                        _mm256_cmp_pd(l, perp_min, _CMP_GE_OQ)),
          _mm256_and_pd(
              _mm256_and_pd(_mm256_cmp_pd(r3, perp_min, _CMP_GE_OQ),
                            _mm256_cmp_pd(lhs, _mm256_mul_pd(r3, r3),
                                          _CMP_GT_OQ)),
              _mm256_cmp_pd(lhs, inf, _CMP_LT_OQ)));
      keep &= ~_mm256_movemask_pd(_mm256_or_pd(far, far3));
    }
    keep |= _mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(IndexLanes(index, k), self_v)));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress.perm[keep]));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(slots + m),
        _mm256_permutevar8x32_epi32(IndexLanes(tag, k), perm));
    m += kCompress.count[keep];
  }
  _mm256_zeroupper();
  return CompactScalar<D>(p, c, k, hi, index, tag, self, slots, m);
}

#endif  // TRACLUS_X86_SIMD

// The prune lane loop the kernel choice picks (kSimd only when resolved to
// it). Both keep the same survivors.
template <typename Index, typename Tag>
size_t CompactSurvivors(BatchKernel kernel, const PruneContext& p,
                        const PruneColumns& c, size_t lo, size_t hi,
                        const Index& index, const Tag& tag, size_t self,
                        size_t* slots, size_t m) {
#if defined(TRACLUS_X86_SIMD)
  if (kernel == BatchKernel::kSimd) {
    return p.dims == 3
               ? CompactSimd<3>(p, c, lo, hi, index, tag, self, slots, m)
               : CompactSimd<2>(p, c, lo, hi, index, tag, self, slots, m);
  }
#else
  (void)kernel;
#endif
  return p.dims == 3
             ? CompactScalar<3>(p, c, lo, hi, index, tag, self, slots, m)
             : CompactScalar<2>(p, c, lo, hi, index, tag, self, slots, m);
}

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

// The ε-refine pipeline for one query row: two-stage prune → batch
// distance → threshold. The query is qs[query]; the candidates are cs[j]
// for every j of every run, runs in order and j ascending.
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
void RefineRow(BatchKernel kernel, const PruneContext& prune,
               const traj::SegmentStore& qs, const SegmentDistanceConfig& cfg,
               size_t query, const traj::SegmentStore& cs,
               common::Span<const IndexRun> runs, double eps, size_t self,
               size_t out_base, size_t block, std::vector<size_t>& out,
               RefineStats& counts) {
  thread_local std::vector<size_t> survivors;
  thread_local std::vector<double> distances;
  if (survivors.size() < 2 * block) survivors.resize(2 * block);

  const PruneColumns columns = PruneColumnsOf(cs);
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
      TRACLUS_DCHECK(hi <= cs.size());
      const IndexRange positions{0};
      staged = CompactSurvivors(kernel, prune, columns, lo, hi, positions,
                                positions, self, survivors.data(), staged);
      counts.candidates += hi - lo;
      counts.pruned += (hi - lo) - (staged - before);
      if (staged >= block) refine_staged();
    }
  }
  if (staged > 0) refine_staged();
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

Reach PruneReach(const SegmentDistance& dist, double eps) {
  const SegmentDistanceConfig& cfg = dist.config();
  const double c = dist.LowerBoundFactor();
  // A zero factor (degenerate weights) or a non-finite/negative ε leaves no
  // provable prune.
  if (!(c > 0.0) || !std::isfinite(eps) || eps < 0.0) {
    return {std::numeric_limits<double>::infinity(), 0.0};
  }
  return {eps / c,
          kScaleSlack * (cfg.w_perpendicular + cfg.w_parallel + c) / c};
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

size_t EpsilonRefineRuns(const traj::SegmentStore& query_store,
                         const SegmentDistance& dist, size_t query,
                         const traj::SegmentStore& cand_store,
                         common::Span<const IndexRun> runs, double eps,
                         size_t out_base, std::vector<size_t>& out_indices,
                         const BatchOptions& options, RefineStats* stats) {
  TRACLUS_DCHECK(query < query_store.size());
  TRACLUS_DCHECK_EQ(query_store.dims(), cand_store.dims());
  // The query is its own candidate exactly when both stores are one object.
  RefineStats counts;
  RefineRow(ResolveBatchKernel(options.kernel),
            MakePruneContext(PruneColumnsOf(query_store), query,
                             cand_store.scale(), dist, eps),
            query_store, dist.config(), query, cand_store, runs, eps,
            &query_store == &cand_store ? query : kNoSelf, out_base,
            BlockSize(options), out_indices, counts);
  AddStats(counts, stats);
  return counts.accepted;
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
  const PruneColumns columns = PruneColumnsOf(store);
  for (const size_t q : queries) {
    TRACLUS_DCHECK(q < store.size());
    prune.push_back(MakePruneContext(columns, q, columns.scale, dist, eps));
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
                eps, queries[qi], 0, block, out_lists[qi], counts);
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
  const PruneColumns query_columns = PruneColumnsOf(query_store);
  const PruneColumns cand_columns = PruneColumnsOf(cand_store);
  for (const size_t q : queries) {
    TRACLUS_DCHECK(q < query_store.size());
    prune.push_back(
        MakePruneContext(query_columns, q, cand_columns.scale, dist, eps));
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
          CompactSurvivors(kernel, prune[qi], cand_columns, base, hi,
                           IndexList{candidates.data()}, IndexRange{0},
                           kNoSelf, survivors.data(), 0);
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

bool PruneProvablyFar(const traj::SegmentStore& store,
                      const SegmentDistance& dist, size_t a, size_t b,
                      double eps) {
  const PruneColumns columns = PruneColumnsOf(store);
  const PruneContext p =
      MakePruneContext(columns, a, columns.scale, dist, eps);
  return a != b && (store.dims() == 3 ? FarScalar<3>(p, columns, b)
                                      : FarScalar<2>(p, columns, b));
}

}  // namespace traclus::distance
