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
// O(n²) of grouping everything. k is a pure quality/speed knob, fixed when
// the stage is built (like cpptraj's `sieve_`, set once in Init): larger k
// trades boundary accuracy (a sieved-out segment joins the cluster of its
// nearest sampled anchor within ε, or becomes noise) for the quadratic-term
// reduction. k must be ≥ 2 (Validate); without a sieve, build the inner
// stage alone.
//
// Determinism contract (same bar as every other stage): for a fixed
// (k, offset) the sampled set is a pure function of the store's
// trajectory order, the inner stage is deterministic by its own contract,
// and the assignment evaluates a fixed candidate set per query — lower-bound
// pruned against ε only, never against the running minimum — through the
// bit-identical batch kernels, with ties broken toward the earliest anchor
// in ascending global index order. Labels are therefore byte-identical
// across thread counts and scalar/SIMD kernels.
//
// Parameters: the assignment reads ε and the distance from the inner stage
// (GroupStage::density()); Validate refuses an inner stage that reports none.
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
#include <optional>
#include <string>

#include "core/stages.h"

namespace traclus::core {

/// Configuration of sieve-sampled grouping: the sampling knobs only. The
/// assignment radius and distance are the inner stage's ε and distance
/// (GroupStage::density()), so membership means the same thing on both
/// sides of the sieve.
struct SieveGroupOptions {
  /// Sieve stride: only every k-th trajectory (by first-appearance rank in
  /// store order) is grouped through the inner backend. Must be set, ≥ 2.
  size_t k = 0;
  /// Which residue class of the trajectory rank is sampled (taken modulo
  /// k); lets repeated engines sample disjoint subsets.
  size_t offset = 0;
};

/// Decorator GroupStage implementing sieve-sampled grouping over any inner
/// backend (DBSCAN, OPTICS, or a custom stage).
class SieveGroupStage : public GroupStage {
 public:
  /// `inner` must be non-null and report density() (checked in Validate).
  explicit SieveGroupStage(std::shared_ptr<const GroupStage> inner,
                           const SieveGroupOptions& options = {});

  const char* name() const override;
  common::Status Validate() const override;
  /// The inner stage's parameters: the sieve groups with them.
  std::optional<DensityParams> density() const override;
  /// Samples trajectories whose first-appearance rank ≡ options().offset
  /// (mod options().k), groups the sampled segments through the inner
  /// stage, maps the sample's labels back to global indices, and assigns
  /// each sieved-out segment to the cluster of its nearest sampled member
  /// within the inner stage's ε (distance::NearestWithinEps), or noise.
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
