#ifndef TRACLUS_DISTANCE_BATCH_KERNELS_H_
#define TRACLUS_DISTANCE_BATCH_KERNELS_H_

// Batched distance kernels over the SegmentStore's flat arrays — the ε-query
// hot path of the grouping phase (Lemma 3), the parameter heuristic
// (§4.2/§4.4), and the all-pairs consumers (entropy profile, k-medoids). The
// public surface is six entry points:
//
//   * one query vs an index list: DistanceBatch;
//   * one query vs contiguous ranges: EpsilonRefineRuns;
//   * many queries vs many candidates, candidate-block-major so each block
//     of SoA columns is loaded once and reused by every query row:
//     DistanceTileRange, EpsilonRefineTile and NearestWithinEps;
//   * the prune itself, for one pair: PruneProvablyFar (for tests). Every
//     refine above prunes through the same lane loop.
//
// Every operation has one implementation, written for two stores: the query
// from one SegmentStore, the candidates from another. The one-store entry
// points pass the same store twice; EpsilonRefineRuns and NearestWithinEps
// take either one store twice or two stores, such as two chunks of a
// ChunkedSegmentStore. Stores built from the same segment values cache
// bit-identical invariants, so both shapes execute the same floating-point
// operations on the same bits. Index lists and contiguous ranges feed the
// same lane loop; only the load of each step's candidates differs.
//
// Every ε-query in the pipeline decomposes into candidate generation (an
// index emits segment indices) followed by refinement (the exact §2.3
// three-component distance decides membership). This layer owns the
// refinement half:
//
//   candidates ──▶ stage 1: midpoint bound ──▶ stages 2 and 3: + angle term,
//              and perpendicular + angle terms ──▶ blocked batch distance
//              ──▶ ≤ ε?
//
//   * Stage 1 is a midpoint/half-length triangle inequality: every point
//     of segment L lies within half_length(L) of midpoint(L), so
//       mindist(Li, Lj) ≥ ‖mid_i − mid_j‖ − h_i − h_j,
//     and with the provable factor c = min(w⊥/2, w∥) from
//     SegmentDistance::LowerBoundFactor,
//       w⊥·d⊥ + w∥·d∥ ≥ c · (‖mid_i − mid_j‖ − h_i − h_j).
//     ProvablyFar is this comparison, shared with the tile join's
//     block-pair prune.
//   * Stage 2 adds the third term of the distance, which stage 1 drops:
//     wθ·dθ with dθ = |d_i × d_j| / max(len_i, len_j) (Definition 3; the
//     shorter length for a directed pair at θ ≥ 90°), so
//       dist ≥ c · (‖mid_i − mid_j‖ − h_i − h_j) + wθ·dθ,
//     tested in a form with no square root and no division (2-D; a 3-D
//     cross product needs one root for its norm). The LowerBoundFactor
//     comment proves it.
//   * Stage 3 swaps the midpoint term for the perpendicular one, which
//     near-parallel neighbours do not escape: with Li the longer segment
//     (Lemma 2), L its length and C_k = ‖d_i × (q_k − s_i)‖² for the
//     endpoints q_k of Lj, l⊥k = √C_k / L and the Lehmer mean d⊥ is at least
//     their quadratic mean, so
//       dist ≥ w⊥·√((C_1 + C_2)/2) / L + wθ·dθ,
//     squared into a test with no root and no division in 2-D and 3-D. Only
//     a strict length compare fixes the roles: tied or NaN lengths, and a
//     degenerate Li, prune nothing here. Stages 2 and 3 run together, four
//     lanes at a time, on the candidates stage 1 keeps.
//     A candidate any stage proves farther than ε (with the margins of
//     kPruneSlack, the angle slack and the scale margins derived in
//     batch_kernels.cc) skips the full evaluation; Definition 4's
//     self-inclusion is exempt. The prune is one lane loop, picked by the
//     kernel choice: the AVX2 kernel runs four candidates per step and the
//     scalar kernel runs the same operations per candidate, so both keep the
//     same survivors. Survivors are compacted branch-free into a staging
//     buffer, and full batches of them go to the distance kernel.
//   * The batch kernels evaluate the surviving pairs with EXACTLY the
//     floating-point expressions of the cached pair path
//     SegmentDistance::operator()(store, i, j) — results are bit-identical,
//     so every consumer (DBSCAN goldens included) can switch freely. Both
//     kernels hoist the query's columns out of the candidate loop and take
//     the Lemma 2 roles from a length compare, running the full id /
//     lexicographic tie-break only for pairs of exactly equal length. The
//     scalar kernel then runs the shared canonical expressions per pair. The
//     SIMD kernel broadcasts the query once per call and runs four candidate
//     lanes of the same operation sequence: each step gathers the four
//     candidates' SoA columns through the index vector (_mm256_i64gather_pd;
//     a contiguous range uses plain unaligned loads), blends query and
//     candidate registers into the (longer, shorter) roles by the
//     vector length compare, and patches the scalar tie-break into the
//     equal-length lanes only. Gathers and blends move bits without
//     rounding, IEEE-754 vector lanes round identically to scalar ops, and
//     the build forbids FP contraction (-ffp-contract=off), so the lanes are
//     bit-identical too (tests/segment_distance_test.cc pins all of this on
//     randomized, degenerate, tied, and 3-D segments, and on shuffled,
//     descending and duplicated index lists).
//
// Kernel selection happens at run time. Every x86-64 build compiles the
// SIMD kernels as target("avx2") functions inside batch_kernels.cc only;
// kAuto and kSimd resolve to them when the CPU reports AVX2
// (SimdAvailable), and to the scalar kernel otherwise. No translation unit
// is compiled with -mavx2, so inline header code never turns into AVX2
// code behind a scalar caller's back; tools/lint/check_determinism.py
// enforces both rules.
//
// Consumers: the ε-join (cluster::TileJoin, behind GridNeighborhoodIndex,
// BruteForceNeighborhood and the capped grouping stage) refines each
// unordered pair once: every query refines, through EpsilonRefineRuns, the
// runs after its own position in the surviving blocks from its own block on,
// which is exact because the distance is symmetric in the pair. Over a
// ChunkedSegmentStore the runs are clipped to each pinned chunk of a window
// and refined with the query's chunk store on the query side, two stores
// whose out_base is the candidate chunk's first position. The sharded stage
// re-checks halos with EpsilonRefineTile. The entropy NeighborhoodProfile
// and the k-medoids baseline ride DistanceTileRange; OPTICS streams blocked
// DistanceBatch calls; the sieve stage (core::SieveGroupStage, one store
// passed twice) and the frozen snapshot
// (core::ClusterSnapshot::AssignSegments, two stores: each query segment
// against the ascending candidates of the cluster::BlockLayout blocks not
// skipped for it) assign through NearestWithinEps. Kernel selection is a
// per-run knob (core::RunContext::distance_kernel, CLI
// --kernel auto|scalar|simd);
// ParseBatchKernel below is the single string→kernel parsing path in the
// tree — callers must not grow private switches.
//
// Thread-safety contract: every kernel here is lock-free by construction —
// inputs are the store's immutable SoA columns, outputs go to caller-owned
// buffers, and the only cross-call state is thread_local staging inside
// the refine pipeline. Concurrent calls from pool workers are safe with no
// mutex and hence no capability annotations; kernels that grow shared
// mutable state (e.g. a cross-query prune cache) must put it behind
// common::Mutex with TRACLUS_GUARDED_BY.

#include <cstddef>
#include <limits>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::distance {

/// Which refinement kernel evaluates a batch.
enum class BatchKernel {
  kAuto = 0,    ///< kSimd when the CPU has AVX2, else kScalar.
  kScalar = 1,  ///< Blocked scalar loop over the shared canonical kernel.
  kSimd = 2,    ///< AVX2 four-lane kernel over the SoA coordinate columns.
};

/// True when this process can run the SIMD kernel: an x86-64 build on a CPU
/// (and OS) that reports AVX2. Checked once, at run time.
bool SimdAvailable();

/// Resolves kAuto to the best available kernel; kSimd degrades to kScalar
/// when the CPU lacks AVX2 (results are identical either way, only
/// throughput differs).
BatchKernel ResolveBatchKernel(BatchKernel kernel);

/// "auto" / "scalar" / "simd".
const char* BatchKernelName(BatchKernel kernel);

/// Parses a kernel name (as spelled by BatchKernelName). Anything else is
/// kInvalidArgument naming the accepted spellings. This is the ONLY
/// string→BatchKernel conversion in the tree: every knob surface (CLI
/// --kernel, RunContext::distance_kernel feeders, heuristic/OPTICS options,
/// the sieve stage) routes through it, so the accepted vocabulary can never
/// drift between callers.
common::Result<BatchKernel> ParseBatchKernel(std::string_view name);

/// Per-call counters of the ε-refine pipeline (for benchmarks and tuning:
/// pruned / candidates is the prune rate).
struct RefineStats {
  size_t candidates = 0;  ///< Candidates examined.
  size_t pruned = 0;      ///< Skipped by the lower bound (provably > ε).
  size_t refined = 0;     ///< Full three-component evaluations.
  size_t accepted = 0;    ///< Emitted into the neighborhood.
};

/// Relative margin of the prune stages. Stage 1 (ProvablyFar) prunes only
/// when the squared midpoint distance exceeds (ε/c + h_a + h_b)² by this
/// factor, stages 2 and 3 when their bounds exceed ε·(1 + kPruneSlack), with
/// the half-length term also inflated by it. The bound arithmetic (a squared
/// midpoint distance, a few additions and multiplies) and the kernel's fold
/// of w⊥·d⊥ + w∥·d∥ accumulate a few ulps (~1e-15 relative) of rounding, so
/// this much larger margin keeps a pruned pair's computed distance above ε.
/// Two absolute margins come on top, both derived in batch_kernels.cc: the
/// angle term's (kAngleSlack), because the kernel's sin θ = √(1 − cos²θ)
/// cancels near θ = 0, and one that grows with the coordinates (Reach and
/// SegmentStore::scale), because the kernel's projections and the cached
/// midpoints round at the scale of the coordinates, not of the distance.
/// The admissibility tests in tests/segment_distance_test.cc attack all of
/// them on randomized, adversarial and 10⁹-translated pairs.
inline constexpr double kPruneSlack = 1e-9;

/// Stage 1's reach for one ε (PruneReach): the Euclidean radius ε / c,
/// c = SegmentDistance::LowerBoundFactor(), and the rounding margin the
/// midpoint bound adds per unit of a pair's scale. A pair's scale is the sum
/// of its two segments' ‖midpoint‖₁ + half-length, or any upper bound on it
/// (SegmentStore::scale of each side, or a midpoint box's corner norm plus
/// its largest half-length).
struct Reach {
  double radius = std::numeric_limits<double>::infinity();
  double per_scale = 0.0;
  /// The reach of a pair of scale at most `scale`: +inf (nothing provable)
  /// when the radius is, NaN (which never prunes) when the scale is.
  double At(double scale) const { return radius + per_scale * scale; }
};

/// The reach of the lower-bound prune at ε. The radius is +inf when nothing
/// is provable (c = 0, or ε non-finite or negative), which makes
/// ProvablyFar false.
Reach PruneReach(const SegmentDistance& dist, double eps);

/// The prune's comparison: true when two segments whose midpoints are
/// √mid_dist_sq apart and whose half-lengths are at most half_a and half_b
/// are provably farther apart than ε, i.e. c·(√mid_dist_sq − half_a − half_b)
/// exceeds ε with the kPruneSlack margin; `reach` is PruneReach(dist, ε)
/// taken At the pair's scale. Every input enters monotonically, so a lower
/// bound on the midpoint distance and upper bounds on the half-lengths and
/// the scale (a pair of boxes around many midpoints) prune only pairs the
/// per-pair test would prune.
inline bool ProvablyFar(double mid_dist_sq, double reach, double half_a,
                        double half_b) {
  const double threshold = reach + half_a + half_b;
  // threshold may round to +inf for extreme ε/c; the comparison then never
  // prunes, which is the safe direction.
  return mid_dist_sq > threshold * threshold * (1.0 + kPruneSlack);
}

/// Tuning knobs of the refine and nearest kernels. Every setting yields
/// identical output — the knobs trade only speed and scratch residency.
struct BatchOptions {
  BatchKernel kernel = BatchKernel::kAuto;
  /// Candidates staged per prune/refine block; bounds scratch memory at
  /// O(block). 0 = default (256).
  size_t block = 0;
};

/// dist(query, candidates[k]) → out[k] for every candidate, bit-identical to
/// SegmentDistance::operator()(store, query, candidates[k]).
/// `out.size()` must equal `candidates.size()`.
void DistanceBatch(const traj::SegmentStore& store,
                   const SegmentDistance& dist, size_t query,
                   common::Span<const size_t> candidates,
                   common::Span<double> out,
                   BatchKernel kernel = BatchKernel::kAuto);

/// A half-open candidate index range [first, last).
struct IndexRun {
  size_t first = 0;
  size_t last = 0;
};

/// The batched ε-refine over candidate runs: the query segment lives in
/// `query_store` (local index `query`) while the candidates are the
/// `cand_store` indices of every run in turn. For each candidate j with
/// dist ≤ eps, appends `out_base + j` to `out_indices`, in run order and
/// ascending within a run: exactly the per-pair loop
///   for run in runs: for j in run: if (dist(query, j) <= eps) emit out_base + j
/// (plus the self-inclusion rule below), but with lower-bound pruning and
/// blocked batch evaluation, the prune's survivors staged across runs so
/// short runs still fill whole kernel batches. Returns the number of
/// indices appended; `stats` (optional) accumulates counters.
///
/// The ε-join (cluster::TileJoin) passes the positions after the query's own
/// in the blocks that survive its block-pair prune: over one store passed
/// twice, or over two chunk-local stores of a ChunkedSegmentStore with
/// `out_base` the candidate chunk's first index. Because stores built from
/// the same segment values cache bit-identical invariants, the evaluation —
/// Lemma 2 canonicalization included — executes the same floating-point
/// operations either way, so results are bit-identical to passing one
/// merged store twice.
///
/// Definition 4 self-inclusion applies only when `query_store` and
/// `cand_store` are the same object (one store passed twice): the query
/// then always passes when listed. Across two stores the query is never its
/// own candidate.
size_t EpsilonRefineRuns(const traj::SegmentStore& query_store,
                         const SegmentDistance& dist, size_t query,
                         const traj::SegmentStore& cand_store,
                         common::Span<const IndexRun> runs, double eps,
                         size_t out_base, std::vector<size_t>& out_indices,
                         const BatchOptions& options = {},
                         RefineStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Many-vs-many tiles. All of them iterate candidate-block-major: a block of
// ≤ 256 candidate columns is walked once per query row while it is hot in
// cache, instead of streaming the full candidate set per query. Splitting a
// batch into blocks never changes bits — each pair's evaluation (lane or
// scalar) depends only on that pair — so every tile result is bit-identical
// to the corresponding per-query batch call and to the pair path.
// ---------------------------------------------------------------------------

/// Contiguous-range tile: dist(query_first + qi, cand_first + k) →
/// out[qi * ldo + k] over the index ranges [query_first, query_last) ×
/// [cand_first, cand_last), bit-identical to DistanceBatch per row. `ldo`
/// is the leading dimension (row stride, in doubles) of the caller's
/// row-major output block; it must be ≥ cand_last − cand_first.
void DistanceTileRange(const traj::SegmentStore& store,
                       const SegmentDistance& dist, size_t query_first,
                       size_t query_last, size_t cand_first, size_t cand_last,
                       double* out, size_t ldo,
                       BatchKernel kernel = BatchKernel::kAuto);

/// Many-query ε-refine tile over one shared candidate range: appends to
/// out_lists[qi] exactly what EpsilonRefineRuns with `store` passed twice,
/// the one run [first, last) and out_base 0 would for queries[qi] (same
/// candidate-order emission, same Definition 4 self-inclusion),
/// but evaluated candidate-block-major so each block's columns serve all
/// queries. `out_lists` must point to queries.size() vectors. Returns the
/// total number of indices appended; `stats` accumulates over all queries.
size_t EpsilonRefineTile(const traj::SegmentStore& store,
                         const SegmentDistance& dist,
                         common::Span<const size_t> queries, size_t first,
                         size_t last, double eps,
                         std::vector<size_t>* out_lists,
                         const BatchOptions& options = {},
                         RefineStats* stats = nullptr);

/// "No candidate within ε" marker of NearestWithinEps.
inline constexpr size_t kNoNearest = static_cast<size_t>(-1);

/// Batch nearest-candidate assignment: queries index `query_store`,
/// candidates index `cand_store`, and each query queries[qi] gets the
/// candidate minimizing dist(query, candidates[·]) subject to dist ≤ eps,
/// ties broken toward the earliest candidate in span order. Writes the
/// winning *position within `candidates`* to out_position[qi] (kNoNearest
/// when every candidate is farther than ε) and the winning distance to
/// out_distance[qi] (+inf when none). Candidates are lower-bound pruned
/// against ε only — never against the running minimum — so the refined set,
/// and therefore the argmin, is independent of block size, kernel, and
/// evaluation order; distances are bit-identical across kernels, so the
/// assignment is too. Both out spans must have queries.size() entries.
///
/// The sieve stage (core::SieveGroupStage) passes one store twice; the
/// frozen snapshot (core::ClusterSnapshot::AssignSegments) passes the
/// caller's query store, one query at a time, and the ascending positions of
/// its frozen candidate store that the block index did not skip.
void NearestWithinEps(const traj::SegmentStore& query_store,
                      const SegmentDistance& dist,
                      common::Span<const size_t> queries,
                      const traj::SegmentStore& cand_store,
                      common::Span<const size_t> candidates, double eps,
                      common::Span<size_t> out_position,
                      common::Span<double> out_distance,
                      const BatchOptions& options = {});

/// The exact prune predicate the ε-refines apply: true when a != b and
/// stage 1 (the midpoint/half-length bound), stage 2 (that bound plus the
/// angle term) or stage 3 (the perpendicular plus the angle term), each with
/// its rounding margins, proves dist(store, a, b) > eps. Admissibility — this never returns true for a true ε-neighbor — is
/// what makes the refine exact; exposed so tests can attack the claim
/// directly. It runs the scalar lane of the prune loop, which the AVX2 lanes
/// match decision for decision.
bool PruneProvablyFar(const traj::SegmentStore& store,
                      const SegmentDistance& dist, size_t a, size_t b,
                      double eps);

}  // namespace traclus::distance

#endif  // TRACLUS_DISTANCE_BATCH_KERNELS_H_
