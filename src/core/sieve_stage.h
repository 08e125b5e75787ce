#ifndef TRACLUS_CORE_SIEVE_STAGE_H_
#define TRACLUS_CORE_SIEVE_STAGE_H_

// SieveGroupStage — sieve-sampled grouping, the cpptraj `sieve_` idiom
// adapted to the TRACLUS pipeline: group only every k-th trajectory's
// segments through an arbitrary inner GroupStage, then batch-assign every
// sieved-out segment to the nearest cluster (or noise) with the many-vs-many
// distance tiles.
//
// Cost model: the inner backend's O((n/k)²) pairwise work plus one
// O(n · |cluster members of the sample|) assignment sweep — against the
// O(n²) of grouping everything. k is a pure quality/speed knob: k = 1 is the
// inner backend byte for byte; larger k trades boundary accuracy (a
// sieved-out segment joins the cluster of its nearest sampled anchor within
// ε, or becomes noise) for the quadratic-term reduction.
//
// Determinism contract (same bar as every other stage): for a fixed
// (sieve, sieve_offset) the sampled set is a pure function of the store's
// trajectory order, the inner stage is deterministic by its own contract,
// and the assignment evaluates a fixed candidate set per query — lower-bound
// pruned against ε only, never against the running minimum — through the
// bit-identical batch kernels, with ties broken toward the earliest anchor
// in ascending global index order. Labels are therefore byte-identical
// across thread counts and scalar/SIMD kernels.
//
// Thread-safety: the stage holds no mutable state (immutable inner pointer +
// options), so it needs no mutex and no capability annotations; the parallel
// assignment writes index-addressed slots only. Any future mutable caching
// must move behind a common::Mutex with TRACLUS_GUARDED_BY.
//
// Out-of-core: RunChunked inherits the kUnimplemented default, so a capped
// streaming run with sieved grouping is refused rather than merged (a
// chunk-resident many-vs-many path is future work — see ROADMAP).

#include <memory>
#include <string>

#include "core/stages.h"

namespace traclus::core {

/// Automatic sieve-stride selection: instead of fixing k, fix the sample
/// SIZE the inner backend should see and let the stage derive k from the
/// store — the cpptraj "sieve to about N frames" convention. Useful when one
/// engine serves databases of very different sizes: the quadratic inner work
/// stays roughly constant at target_sample².
struct AutoK {
  /// Desired sampled-segment count; k = ceil(store size / target_sample),
  /// clamped to ≥ 1 (a store at or under the target runs the inner backend
  /// in full). 0 disables auto selection.
  size_t target_sample = 0;
};

/// The k that AutoK picks for a store of `store_size` segments (exposed for
/// tests and tooling): 1 when `target_sample` is 0 or ≥ store_size, else
/// ceil(store_size / target_sample).
size_t ChooseSieveK(size_t store_size, size_t target_sample);

/// Configuration of the sieve assignment phase. The sampling knobs
/// themselves (k, offset) are per-run parameters and live on RunContext
/// (`sieve`, `sieve_offset`), so one engine can serve runs at different
/// sieve strides.
struct SieveGroupOptions {
  /// Assignment radius: a sieved-out segment farther than `eps` from every
  /// sampled cluster member is labelled noise. Use the inner stage's ε so
  /// membership means the same thing on both sides of the sieve. Must be
  /// positive and finite.
  double eps = 25.0;
  /// Distance function of the assignment sweep (§2.3). Must match the inner
  /// stage's configuration for the cost model to make sense. Weights must be
  /// finite and non-negative.
  distance::SegmentDistanceConfig distance;
  /// Automatic stride selection, used only by runs that leave
  /// RunContext::sieve at 0 (an explicit per-run sieve always wins — set
  /// sieve = 1 to force a full inner run on an AutoK engine).
  AutoK auto_k;
};

/// Decorator GroupStage implementing sieve-sampled grouping over any inner
/// backend (DBSCAN, OPTICS, or a custom stage).
class SieveGroupStage : public GroupStage {
 public:
  /// `inner` must be non-null (checked in Validate).
  explicit SieveGroupStage(std::shared_ptr<const GroupStage> inner,
                           const SieveGroupOptions& options = {});

  const char* name() const override;
  common::Status Validate() const override;
  /// The effective stride is ctx.sieve when > 0, else the AutoK-derived k
  /// when options().auto_k is set, else 0 (sieve off).
  /// Effective k ≤ 1: delegates to the inner stage unchanged
  /// (byte-identical).
  /// Otherwise: samples trajectories whose first-appearance rank ≡
  /// ctx.sieve_offset (mod ctx.sieve), groups the sampled segments through
  /// the inner stage (with sieve disabled in the inner context), maps the
  /// sample's labels back to global indices, and assigns each sieved-out
  /// segment to the cluster of its nearest sampled member within
  /// options().eps (distance::NearestWithinEps), or noise.
  common::Result<cluster::ClusteringResult> Run(
      const traj::SegmentStore& store, const RunContext& ctx) const override;

  const SieveGroupOptions& options() const { return options_; }
  const GroupStage* inner() const { return inner_.get(); }

 private:
  std::shared_ptr<const GroupStage> inner_;
  SieveGroupOptions options_;
  /// "group/sieve+<inner>" — built once; name() returns its c_str().
  std::string name_;
};

}  // namespace traclus::core

#endif  // TRACLUS_CORE_SIEVE_STAGE_H_
