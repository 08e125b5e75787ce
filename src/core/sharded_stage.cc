#include "core/sharded_stage.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/shard_grid.h"
#include "common/logging.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "geom/segment.h"

namespace traclus::core {

namespace {

common::Status CancelledIn(const char* stage) {
  return common::Status::Cancelled(std::string("run cancelled in stage '") +
                                   stage + "'");
}

void Report(const RunContext& ctx, const char* stage, double fraction) {
  if (ctx.progress) ctx.progress(stage, fraction);
}

/// Everything one shard (rank) computes in superstep 1 and consumes in
/// superstep 2. Each slot is written only by the pool task running that
/// rank; peers and the calling thread read it after the pool's blocking
/// ParallelFor (the barrier), so no per-slot locking is needed.
struct ShardState {
  common::Status status = common::Status::OK();
  /// Local index → global index: owned segments (ascending) then ghosts
  /// (ascending).
  std::vector<size_t> global_of;
  size_t owned_count = 0;
  cluster::ClusteringResult local;
  /// Per owned local index: its ε-neighbors among the ghost tail (local
  /// indices into [owned_count, local size)), ascending. Empty ⇒ interior.
  std::vector<std::vector<size_t>> ghost_neighbors;
  /// Exact global core flag, computed for border owned members only
  /// (interior members never feed the merge).
  std::vector<char> core;
  // --- superstep-2 products, consumed by the driver merge ---
  /// Cross-border core–core ε-edges as provisional-cluster id pairs.
  std::vector<std::pair<size_t, size_t>> edges;
  /// (global index, provisional id): locally-noise owned members adopted by
  /// a peer shard's cluster through a globally-core ghost neighbor.
  std::vector<std::pair<size_t, size_t>> attaches;
  size_t pairs = 0;
  size_t dissolved = 0;
};

size_t LocalIndexOf(const std::vector<size_t>& ascending, size_t global) {
  const auto it =
      std::lower_bound(ascending.begin(), ascending.end(), global);
  TRACLUS_DCHECK(it != ascending.end() && *it == global);
  return static_cast<size_t>(it - ascending.begin());
}

size_t Find(std::vector<size_t>& parent, size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Union toward the smaller root (deterministic representative). Returns
/// true when two distinct trees were joined.
bool Union(std::vector<size_t>& parent, size_t a, size_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a == b) return false;
  if (b < a) std::swap(a, b);
  parent[b] = a;
  return true;
}

}  // namespace

ShardedGroupStage::ShardedGroupStage(std::shared_ptr<const GroupStage> inner,
                                     const ShardedGroupOptions& options)
    : inner_(std::move(inner)), options_(options) {
  name_ = "group/sharded+";
  if (inner_ != nullptr) {
    // Strip the inner stage's layer prefix ("group/dbscan" → "dbscan") so
    // the composite reads "group/sharded+dbscan".
    std::string inner_name = inner_->name();
    const size_t slash = inner_name.rfind('/');
    name_ += slash == std::string::npos ? inner_name
                                        : inner_name.substr(slash + 1);
  } else {
    name_ += "null";
  }
}

const char* ShardedGroupStage::name() const { return name_.c_str(); }

common::Status ShardedGroupStage::Validate() const {
  if (inner_ == nullptr) {
    return common::Status::InvalidArgument(
        "ShardedGroupStage requires a non-null inner group stage");
  }
  TRACLUS_RETURN_NOT_OK(inner_->Validate());
  if (!inner_->density()) {
    return common::Status::InvalidArgument(
        std::string("ShardedGroupStage needs an inner group stage that "
                    "reports GroupStage::density(); '") +
        inner_->name() + "' reports none");
  }
  if (options_.shards < 2) {
    return common::Status::OutOfRange(
        "shard count must be >= 2 (without sharding, use the inner group "
        "stage directly)");
  }
  return common::Status::OK();
}

std::optional<DensityParams> ShardedGroupStage::density() const {
  return inner_ != nullptr ? inner_->density() : std::nullopt;
}

common::Result<cluster::ClusteringResult> ShardedGroupStage::Run(
    const traj::SegmentStore& store, const RunContext& ctx) const {
  const size_t S = options_.shards;
  const size_t n = store.size();
  if (n == 0) {
    // Nothing to decompose: the inner stage returns the empty clustering.
    return inner_->Run(store, ctx);
  }
  // Validate refuses an inner stage without density parameters.
  const DensityParams params = inner_->density().value();
  if (ctx.cancellation != nullptr && ctx.cancellation->cancelled()) {
    return CancelledIn(name());
  }
  Report(ctx, name(), 0.0);

  // Decomposition: cell grid over midpoints, halo radius ε/c in midpoint
  // space (c = the distance's triangle-inequality lower-bound factor; a
  // degenerate factor ghosts everything, which is correct and merely slow).
  const cluster::ShardGrid grid(store, S);
  const distance::SegmentDistance dist(params.distance);
  const double factor = dist.LowerBoundFactor();
  const double reach = factor > 0.0
                           ? params.eps / factor
                           : std::numeric_limits<double>::infinity();
  const std::vector<std::vector<size_t>> ghosts = grid.GhostLists(reach);

  // Per-shard inner runs: single-threaded (shard-level parallelism only —
  // nested pool use from a worker would deadlock), progress muted
  // (concurrent sinks would interleave), and shard_local set so
  // whole-database post-filters wait for the merge.
  RunContext inner_ctx = ctx;
  inner_ctx.num_threads = 1;
  inner_ctx.shard_local = true;
  inner_ctx.progress = nullptr;

  std::vector<ShardState> states(S);
  common::ThreadPool& pool = common::SharedPool(ctx.num_threads);

  // --- Superstep 1: shard-local clustering and border analysis. ----------
  // The blocking ParallelFor is the barrier: superstep 2 reads every
  // owner's post-dissolution labels and core flags only after it returns.
  pool.ParallelFor(0, S, [&](size_t s) {
    ShardState& st = states[s];
    const std::vector<size_t>& owned = grid.owned()[s];
    const std::vector<size_t>& ghost = ghosts[s];
    st.owned_count = owned.size();
    if (owned.empty()) return;

    // Shard-local store: owned segments then ghosts, each ascending. The
    // rebuilt invariant cache is bit-identical to the global store's for the
    // same segments (CrossCanonicalSwap is a pure per-segment function).
    st.global_of.reserve(owned.size() + ghost.size());
    std::vector<geom::Segment> segments;
    segments.reserve(owned.size() + ghost.size());
    for (const size_t i : owned) {
      st.global_of.push_back(i);
      segments.push_back(store.segment(i));
    }
    for (const size_t j : ghost) {
      st.global_of.push_back(j);
      segments.push_back(store.segment(j));
    }
    const traj::SegmentStore local_store =
        traj::SegmentStore::FromSegments(std::move(segments));
    const size_t local_size = local_store.size();

    auto inner_result = inner_->Run(local_store, inner_ctx);
    if (!inner_result.ok()) {
      st.status = inner_result.status();
      return;
    }
    st.local = *std::move(inner_result);
#ifndef NDEBUG
    // The merge indexes clusters by label value; both shipped backends
    // number clusters densely as their index.
    for (size_t c = 0; c < st.local.clusters.size(); ++c) {
      TRACLUS_DCHECK(st.local.clusters[c].id == static_cast<int>(c));
    }
#endif

    distance::BatchOptions batch;
    batch.kernel = ctx.distance_kernel;

    // Border detection: one many-vs-many ε-tile of every owned segment
    // against the ghost tail (PR 8 kernels). Non-empty list ⇒ border.
    st.ghost_neighbors.assign(st.owned_count, {});
    if (!ghost.empty()) {
      std::vector<size_t> queries(st.owned_count);
      for (size_t i = 0; i < st.owned_count; ++i) queries[i] = i;
      distance::EpsilonRefineTile(
          local_store, dist,
          common::Span<const size_t>(queries.data(), queries.size()),
          st.owned_count, local_size, params.eps,
          st.ghost_neighbors.data(), batch);
    }
    std::vector<size_t> border;
    for (size_t i = 0; i < st.owned_count; ++i) {
      if (!st.ghost_neighbors[i].empty()) border.push_back(i);
    }

    // Exact core re-check for border members: their full ε-neighborhood is
    // present in the local store (halo soundness), so the Definition 5 mass
    // over one full-range tile is their global core status.
    st.core.assign(st.owned_count, 0);
    if (!border.empty()) {
      std::vector<std::vector<size_t>> full(border.size());
      distance::EpsilonRefineTile(
          local_store, dist,
          common::Span<const size_t>(border.data(), border.size()), 0,
          local_size, params.eps, full.data(), batch);
      const std::vector<double>& weights = local_store.weights();
      for (size_t b = 0; b < border.size(); ++b) {
        double mass = 0.0;
        if (params.use_weights) {
          for (const size_t m : full[b]) mass += weights[m];
        } else {
          mass = static_cast<double>(full[b].size());
        }
        st.core[border[b]] = mass >= params.min_lns ? 1 : 0;
      }
    }

    // Dissolution: a local cluster is globally valid iff it contains an
    // owned member that is interior (no ghost neighbors — its expansion
    // chain is certainly owned-core-anchored) or border-and-core. Clusters
    // reachable only through ghost seeds dissolve; their owned members are
    // all within ε of a globally-core ghost, so the attach pass below
    // re-homes every one of them.
    std::vector<char> survives(st.local.clusters.size(), 0);
    for (size_t c = 0; c < st.local.clusters.size(); ++c) {
      for (const size_t m : st.local.clusters[c].member_indices) {
        if (m >= st.owned_count) continue;
        if (st.ghost_neighbors[m].empty() || st.core[m]) {
          survives[c] = 1;
          break;
        }
      }
      if (!survives[c]) ++st.dissolved;
    }
    for (size_t i = 0; i < st.owned_count; ++i) {
      const int label = st.local.labels[i];
      if (label >= 0 && !survives[static_cast<size_t>(label)]) {
        st.local.labels[i] = cluster::kNoise;
      }
    }
  });

  for (size_t s = 0; s < S; ++s) {
    if (!states[s].status.ok()) return states[s].status;
  }
  if (ctx.cancellation != nullptr && ctx.cancellation->cancelled()) {
    return CancelledIn(name());
  }

  // Provisional cluster ids: shard s's local cluster c ↦ offset[s] + c.
  std::vector<size_t> offset(S + 1, 0);
  for (size_t s = 0; s < S; ++s) {
    offset[s + 1] = offset[s] + states[s].local.clusters.size();
  }
  const size_t total_provisional = offset[S];

  // --- Superstep 2: read the ghosts' owner-side state, emit merge edges
  // and attaches. Each ghost's post-dissolution label and exact core flag
  // come from its owner's superstep-1 slot, which nothing writes any more.
  pool.ParallelFor(0, S, [&](size_t s) {
    ShardState& st = states[s];
    struct GhostInfo {
      int label = cluster::kNoise;
      char core = 0;
      size_t owner = 0;
    };
    const std::vector<size_t>& ghost = ghosts[s];
    std::vector<GhostInfo> info(ghost.size());
    for (size_t pos = 0; pos < ghost.size(); ++pos) {
      const size_t j = ghost[pos];
      const size_t r = grid.owner_of(j);
      const ShardState& owner = states[r];
      const size_t li = LocalIndexOf(grid.owned()[r], j);
      info[pos] = GhostInfo{owner.local.labels[li], owner.core[li], r};
    }

    // Owned members in ascending local (= global) order; each ghost
    // neighbor list is ascending too, so "earliest globally-core ghost
    // neighbor" is the first core hit — part of the determinism contract.
    for (size_t i = 0; i < st.owned_count; ++i) {
      const int label = st.local.labels[i];
      const bool is_core = st.core.empty() ? false : st.core[i] != 0;
      size_t attach_to = static_cast<size_t>(-1);
      for (const size_t g : st.ghost_neighbors[i]) {
        const size_t pos = g - st.owned_count;
        const GhostInfo& gi = info[pos];
        ++st.pairs;
        if (is_core && gi.core) {
          // Two exact cores within ε are directly density-connected: a
          // union edge. Core ⇒ clustered and surviving on both sides.
          TRACLUS_DCHECK(label >= 0 && gi.label >= 0);
          st.edges.emplace_back(
              offset[s] + static_cast<size_t>(label),
              offset[gi.owner] + static_cast<size_t>(gi.label));
        }
        if (label < 0 && gi.core && attach_to == static_cast<size_t>(-1)) {
          attach_to = offset[gi.owner] + static_cast<size_t>(gi.label);
        }
      }
      if (label < 0 && attach_to != static_cast<size_t>(-1)) {
        st.attaches.emplace_back(st.global_of[i], attach_to);
      }
    }
  });
  if (ctx.cancellation != nullptr && ctx.cancellation->cancelled()) {
    return CancelledIn(name());
  }

  // --- Driver merge: rank-ordered union-find over the border edges. ------
  std::vector<size_t> parent(total_provisional);
  for (size_t p = 0; p < total_provisional; ++p) parent[p] = p;
  size_t border_merges = 0;
  for (size_t s = 0; s < S; ++s) {
    for (const auto& [a, b] : states[s].edges) {
      if (Union(parent, a, b)) ++border_merges;
    }
  }

  // Provisional id per segment: the owner's surviving label, overridden by
  // the attach pass for dissolved/locally-noise members.
  std::vector<int64_t> provisional(n, -1);
  size_t attached = 0;
  for (size_t s = 0; s < S; ++s) {
    const ShardState& st = states[s];
    for (size_t i = 0; i < st.owned_count; ++i) {
      const int label = st.local.labels[i];
      if (label >= 0) {
        provisional[st.global_of[i]] =
            static_cast<int64_t>(offset[s] + static_cast<size_t>(label));
      }
    }
    for (const auto& [global, prov] : st.attaches) {
      provisional[global] = static_cast<int64_t>(prov);
      ++attached;
    }
  }

  // Assemble merged clusters, numbered densely by first member in ascending
  // segment order (see the header's numbering note).
  cluster::ClusteringResult merged;
  merged.labels.assign(n, cluster::kNoise);
  std::vector<int> dense_of(total_provisional, -1);
  for (size_t i = 0; i < n; ++i) {
    if (provisional[i] < 0) continue;
    const size_t root =
        Find(parent, static_cast<size_t>(provisional[i]));
    int dense = dense_of[root];
    if (dense < 0) {
      dense = static_cast<int>(merged.clusters.size());
      dense_of[root] = dense;
      cluster::Cluster c;
      c.id = dense;
      merged.clusters.push_back(std::move(c));
    }
    merged.clusters[static_cast<size_t>(dense)].member_indices.push_back(i);
    merged.labels[i] = dense;
  }

  // Global trajectory-cardinality filter (Fig. 12 step 3), applied once on
  // the merged clusters with the inner backends' exact semantics.
  cluster::ClusteringResult out = cluster::FilterByTrajectoryCardinality(
      cluster::SegmentSetView::Of(store), params.min_trajectory_cardinality,
      params.min_lns, std::move(merged));

  if (options_.stats != nullptr) {
    ShardedRunStats stats;
    for (size_t s = 0; s < S; ++s) {
      const ShardState& st = states[s];
      if (st.owned_count > 0) ++stats.shards_run;
      stats.border_pairs += st.pairs;
      stats.dissolved_clusters += st.dissolved;
    }
    for (const std::vector<size_t>& g : ghosts) {
      stats.ghost_segments += g.size();
    }
    stats.border_merges = border_merges;
    stats.attached_segments = attached;
    *options_.stats = stats;
  }

  Report(ctx, name(), 1.0);
  return out;
}

}  // namespace traclus::core
