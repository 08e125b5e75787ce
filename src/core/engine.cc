#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "cluster/dbscan_segments.h"
#include "cluster/neighbor_cache_file.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "cluster/optics_segments.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "partition/approximate_partitioner.h"
#include "partition/optimal_partitioner.h"
#include "partition/partitioner.h"

namespace traclus::core {

namespace {

common::Status CancelledIn(const char* stage) {
  return common::Status::Cancelled(std::string("run cancelled in stage '") +
                                   stage + "'");
}

void Report(const RunContext& ctx, const char* stage, double fraction) {
  if (ctx.progress) ctx.progress(stage, fraction);
}

// Shared by the two grouping adapters: the ε-neighborhood source of Lemma 3,
// bound to the run's segment store and the run's batch-kernel selection.
std::unique_ptr<cluster::NeighborhoodProvider> MakeProvider(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    bool use_index, distance::BatchKernel kernel) {
  if (use_index) {
    return std::make_unique<cluster::GridNeighborhoodIndex>(store, dist,
                                                            kernel);
  }
  return std::make_unique<cluster::BruteForceNeighborhood>(store, dist,
                                                           kernel);
}

// The run's provider plus, when RunContext::neighbor_cache_dir is set, the
// persistent file cache wrapping it. Both owners stay alive together — the
// cache holds a reference into the base for its miss path.
struct ProviderBundle {
  std::unique_ptr<cluster::NeighborhoodProvider> base;
  std::unique_ptr<cluster::FileNeighborhoodCache> cache;  // May be null.
  const cluster::NeighborhoodProvider& provider() const {
    return cache != nullptr ? static_cast<cluster::NeighborhoodProvider&>(
                                  *cache)
                            : *base;
  }
};

common::Result<ProviderBundle> MakeRunProvider(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    bool use_index, double eps, const RunContext& ctx) {
  ProviderBundle bundle;
  bundle.base = MakeProvider(store, dist, use_index, ctx.distance_kernel);
  if (!ctx.neighbor_cache_dir.empty()) {
    // Keyed by (store content, distance config, ε): a sieve sample or a
    // shard's sub-store hashes differently from the full database, so every
    // effective query store gets its own file and the decorators compose
    // without coordination.
    TRACLUS_ASSIGN_OR_RETURN(
        bundle.cache,
        cluster::FileNeighborhoodCache::Create(
            *bundle.base, store, dist.config(), eps, ctx.neighbor_cache_dir,
            common::SharedPool(ctx.num_threads)));
  }
  return bundle;
}

common::Status ValidateDistanceConfig(
    const distance::SegmentDistanceConfig& config) {
  if (!(config.w_perpendicular >= 0.0) || !(config.w_parallel >= 0.0) ||
      !(config.w_angle >= 0.0) || !std::isfinite(config.w_perpendicular) ||
      !std::isfinite(config.w_parallel) || !std::isfinite(config.w_angle)) {
    return common::Status::InvalidArgument(
        "distance weights (w_perpendicular, w_parallel, w_angle) must be "
        "finite and non-negative");
  }
  return common::Status::OK();
}

common::Status ValidateEpsMinLns(double eps, double min_lns) {
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return common::Status::OutOfRange(
        "eps must be finite and > 0 (Definition 4 neighborhood radius)");
  }
  if (!(min_lns >= 1.0) || !std::isfinite(min_lns)) {
    return common::Status::OutOfRange(
        "MinLns must be finite and >= 1 (Definition 5 density threshold)");
  }
  return common::Status::OK();
}

// Bounds-checks a clustering against the segment database it claims to
// describe (monolithic or chunked — only the size matters).
common::Status ValidateClusteringAgainstSize(
    const cluster::ClusteringResult& clustering, size_t size) {
  for (const auto& cluster : clustering.clusters) {
    for (const size_t member : cluster.member_indices) {
      if (member >= size) {
        return common::Status::FailedPrecondition(
            "clustering refers to segment index " + std::to_string(member) +
            " outside the provided segment database (size " +
            std::to_string(size) + ")");
      }
    }
  }
  return common::Status::OK();
}

// The DBSCAN options of one DbscanGroupStage run — shared by Run and
// RunChunked.
cluster::DbscanOptions MakeDbscanOptions(const DbscanGroupOptions& options,
                                         const char* stage,
                                         const RunContext& ctx) {
  cluster::DbscanOptions o;
  o.eps = options.eps;
  o.min_lns = options.min_lns;
  // A shard-local run (ShardedGroupStage) sees only one shard's fragment of
  // each cross-border cluster, so the whole-database cardinality filter must
  // wait for the halo merge — the sharded stage applies it once, globally.
  o.min_trajectory_cardinality =
      ctx.shard_local ? 0.0 : options.min_trajectory_cardinality;
  o.use_weights = options.use_weights;
  o.num_threads = ctx.num_threads;
  o.cancellation = ctx.cancellation;
  if (ctx.progress) {
    // The caller's ctx outlives the DBSCAN run these options configure.
    const ProgressFn* sink = &ctx.progress;
    o.progress = [sink, stage](double fraction) { (*sink)(stage, fraction); };
  }
  return o;
}

// The sweep options of one SweepRepresentativeStage run — shared by Run and
// RunChunked.
cluster::RepresentativeOptions MakeRepresentativeOptions(
    const SweepRepresentativeOptions& options, const RunContext& ctx) {
  cluster::RepresentativeOptions o;
  o.min_lns = options.min_lns;
  o.gamma = options.gamma;
  o.method = options.method;
  o.use_weights = options.use_weights;
  o.num_threads = ctx.num_threads;
  return o;
}

// The chunked-store default: a stage without an out-of-core path refuses a
// capped run instead of merging the store, which would break the cap.
common::Status NoCappedPath(const char* stage) {
  return common::Status::Unimplemented(
      std::string("stage '") + stage +
      "' has no residency-capped path (RunChunked); run it without "
      "max_resident_chunks");
}

// The eager entry points build no chunked store, so a chunk knob set on
// their context would be silently ignored: refuse it instead, naming it.
common::Status RefuseChunkKnobs(const RunContext& ctx) {
  const auto refuse = [](const char* knob, size_t value) {
    return common::Status::InvalidArgument(
        std::string(knob) + " (" + std::to_string(value) +
        ") applies only to a streaming run (Run(TrajectorySource&)); an "
        "eager run builds no chunked store");
  };
  if (ctx.chunk_capacity != 0) {
    return refuse("chunk_capacity", ctx.chunk_capacity);
  }
  if (ctx.max_resident_chunks != 0) {
    return refuse("max_resident_chunks", ctx.max_resident_chunks);
  }
  return common::Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Chunked-store stage defaults
// ---------------------------------------------------------------------------

common::Result<cluster::ClusteringResult> GroupStage::RunChunked(
    const traj::ChunkedSegmentStore& /*store*/,
    const RunContext& /*ctx*/) const {
  return NoCappedPath(name());
}

common::Result<std::vector<traj::Trajectory>> RepresentativeStage::RunChunked(
    const traj::ChunkedSegmentStore& /*store*/,
    const cluster::ClusteringResult& /*clustering*/,
    const RunContext& /*ctx*/) const {
  return NoCappedPath(name());
}

// ---------------------------------------------------------------------------
// MdlPartitionStage
// ---------------------------------------------------------------------------

const char* MdlPartitionStage::name() const {
  return options_.variant == MdlVariant::kOptimal ? "partition/mdl-optimal"
                                                  : "partition/mdl-approx";
}

common::Status MdlPartitionStage::Validate() const {
  if (!(options_.mdl.suppression_bits >= 0.0) ||
      !std::isfinite(options_.mdl.suppression_bits)) {
    return common::Status::InvalidArgument(
        "MDL suppression_bits must be finite and non-negative");
  }
  return common::Status::OK();
}

common::Result<PartitionOutput> MdlPartitionStage::Run(
    const traj::TrajectoryDatabase& db, const RunContext& ctx) const {
  std::unique_ptr<partition::TrajectoryPartitioner> partitioner;
  switch (options_.variant) {
    case MdlVariant::kApproximate:
      partitioner =
          std::make_unique<partition::ApproximatePartitioner>(options_.mdl);
      break;
    case MdlVariant::kOptimal:
      partitioner =
          std::make_unique<partition::OptimalPartitioner>(options_.mdl);
      break;
  }

  Report(ctx, name(), 0.0);
  // Fig. 4 lines 01-03, parallelized per trajectory: the MDL scans are
  // independent (the partitioners are stateless), so each trajectory's
  // characteristic points land in their own slot. Segment materialization
  // stays sequential below because segment IDs must be consecutive in
  // database order — that pass is linear and cheap next to the MDL scans.
  const auto& trajectories = db.trajectories();
  PartitionOutput out;
  out.characteristic_points.resize(trajectories.size());
  auto& cps = out.characteristic_points;
  const common::CancellationToken* cancel = ctx.cancellation;
  try {
    common::SharedPool(ctx.num_threads)
        .ParallelFor(0, trajectories.size(), [&, cancel](size_t i) {
          common::ThrowIfCancelled(cancel);
          cps[i] = partitioner->CharacteristicPoints(trajectories[i]);
        });
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }

  std::vector<geom::Segment> segments;
  for (size_t i = 0; i < trajectories.size(); ++i) {
    std::vector<geom::Segment> partitions = partition::MakePartitionSegments(
        trajectories[i], cps[i],
        static_cast<geom::SegmentId>(segments.size()));
    segments.insert(segments.end(), partitions.begin(), partitions.end());
  }
  // Freeze the database: one O(n) pass computes every per-segment invariant
  // the downstream stages would otherwise recompute per distance call.
  out.store = traj::SegmentStore(std::move(segments));
  Report(ctx, name(), 1.0);
  return out;
}

// ---------------------------------------------------------------------------
// DbscanGroupStage
// ---------------------------------------------------------------------------

const char* DbscanGroupStage::name() const { return "group/dbscan"; }

common::Status DbscanGroupStage::Validate() const {
  TRACLUS_RETURN_NOT_OK(ValidateEpsMinLns(options_.eps, options_.min_lns));
  return ValidateDistanceConfig(options_.distance);
}

std::optional<DensityParams> DbscanGroupStage::density() const {
  DensityParams p;
  p.eps = options_.eps;
  p.min_lns = options_.min_lns;
  p.min_trajectory_cardinality = options_.min_trajectory_cardinality;
  p.use_weights = options_.use_weights;
  p.distance = options_.distance;
  return p;
}

common::Result<cluster::ClusteringResult> DbscanGroupStage::Run(
    const traj::SegmentStore& store, const RunContext& ctx) const {
  const distance::SegmentDistance dist(options_.distance);
  TRACLUS_ASSIGN_OR_RETURN(
      const ProviderBundle bundle,
      MakeRunProvider(store, dist, options_.use_index, options_.eps, ctx));

  const cluster::DbscanOptions o = MakeDbscanOptions(options_, name(), ctx);
  try {
    // Fig. 4 line 04.
    return cluster::DbscanSegments(store, bundle.provider(), o);
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }
}

common::Result<cluster::ClusteringResult> DbscanGroupStage::RunChunked(
    const traj::ChunkedSegmentStore& store, const RunContext& ctx) const {
  const distance::SegmentDistance dist(options_.distance);
  const cluster::TileJoin provider(store, dist, options_.use_index,
                                   ctx.distance_kernel);

  const cluster::DbscanOptions o = MakeDbscanOptions(options_, name(), ctx);
  try {
    // The same Fig. 12 walk as Run: expansion reads the catalog view, the
    // ε-queries fault payload chunks under the store's residency cap.
    return cluster::DbscanSegments(cluster::SegmentSetView::Of(store),
                                   provider, o);
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }
}

// ---------------------------------------------------------------------------
// OpticsGroupStage
// ---------------------------------------------------------------------------

const char* OpticsGroupStage::name() const { return "group/optics"; }

common::Status OpticsGroupStage::Validate() const {
  TRACLUS_RETURN_NOT_OK(ValidateEpsMinLns(options_.eps, options_.min_lns));
  // ≤ 0 is the documented "use eps" sentinel; anything else must be a real
  // cut — a NaN (e.g. from a buggy upstream estimator) must surface here, not
  // silently fall back.
  if (std::isnan(options_.eps_cut) || options_.eps_cut > options_.eps) {
    return common::Status::OutOfRange(
        "OPTICS extraction cut eps_cut must be <= the generating eps "
        "(or <= 0 for 'use eps')");
  }
  return ValidateDistanceConfig(options_.distance);
}

std::optional<DensityParams> OpticsGroupStage::density() const {
  DensityParams p;
  p.eps = options_.eps;
  p.min_lns = options_.min_lns;
  p.min_trajectory_cardinality = options_.min_trajectory_cardinality;
  p.use_weights = false;
  p.distance = options_.distance;
  return p;
}

common::Result<cluster::ClusteringResult> OpticsGroupStage::Run(
    const traj::SegmentStore& store, const RunContext& ctx) const {
  if (ctx.cancellation != nullptr && ctx.cancellation->cancelled()) {
    return CancelledIn(name());
  }
  Report(ctx, name(), 0.0);
  const distance::SegmentDistance dist(options_.distance);
  TRACLUS_ASSIGN_OR_RETURN(
      const ProviderBundle bundle,
      MakeRunProvider(store, dist, options_.use_index, options_.eps, ctx));
  cluster::OpticsOptions o;
  o.eps = options_.eps;
  o.min_lns = options_.min_lns;
  o.kernel = ctx.distance_kernel;
  o.cancellation = ctx.cancellation;
  if (ctx.progress) {
    const ProgressFn& sink = ctx.progress;
    const char* stage = name();
    o.progress = [&sink, stage](double fraction) { sink(stage, fraction); };
  }
  try {
    // The ordering walk is inherently sequential (ctx.num_threads does not
    // apply); cancellation is polled once per ordering step inside.
    const auto optics = cluster::OpticsSegments(store, dist,
                                                bundle.provider(), o);
    const double cut =
        options_.eps_cut > 0.0 ? options_.eps_cut : options_.eps;
    // Same shard-local contract as the DBSCAN stage: the cardinality filter
    // is a whole-database decision, deferred to the sharded driver.
    return cluster::ExtractDbscanClustering(
        store, optics, cut, options_.min_lns,
        ctx.shard_local ? 0.0 : options_.min_trajectory_cardinality);
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }
}

// ---------------------------------------------------------------------------
// SweepRepresentativeStage
// ---------------------------------------------------------------------------

const char* SweepRepresentativeStage::name() const {
  return options_.method == cluster::RepresentativeMethod::kRotation2D
             ? "represent/sweep-rotation2d"
             : "represent/sweep-projection";
}

common::Status SweepRepresentativeStage::Validate() const {
  if (!(options_.min_lns >= 0.0) || !std::isfinite(options_.min_lns)) {
    return common::Status::OutOfRange(
        "representative MinLns must be finite and non-negative");
  }
  if (!(options_.gamma >= 0.0) || !std::isfinite(options_.gamma)) {
    return common::Status::InvalidArgument(
        "smoothing parameter gamma must be finite and non-negative");
  }
  return common::Status::OK();
}

common::Result<std::vector<traj::Trajectory>> SweepRepresentativeStage::Run(
    const traj::SegmentStore& store,
    const cluster::ClusteringResult& clustering, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(
      ValidateClusteringAgainstSize(clustering, store.size()));

  const cluster::RepresentativeOptions o =
      MakeRepresentativeOptions(options_, ctx);

  Report(ctx, name(), 0.0);
  // Fig. 4 lines 05-06, one independent sweep per cluster; a large cluster's
  // sweep also splits across the same pool.
  std::vector<traj::Trajectory> reps(clustering.clusters.size());
  const common::CancellationToken* cancel = ctx.cancellation;
  try {
    common::SharedPool(ctx.num_threads)
        .ParallelFor(0, clustering.clusters.size(), [&, cancel](size_t i) {
          common::ThrowIfCancelled(cancel);
          reps[i] = cluster::RepresentativeTrajectory(
              store, clustering.clusters[i], o);
        });
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }
  Report(ctx, name(), 1.0);
  return reps;
}

common::Result<std::vector<traj::Trajectory>>
SweepRepresentativeStage::RunChunked(
    const traj::ChunkedSegmentStore& store,
    const cluster::ClusteringResult& clustering, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(
      ValidateClusteringAgainstSize(clustering, store.size()));

  const cluster::RepresentativeOptions o =
      MakeRepresentativeOptions(options_, ctx);

  Report(ctx, name(), 0.0);
  // Cluster-parallel across the run's pool: each iteration gathers one
  // cluster's member segments and sweeps them. It visits the members grouped
  // by chunk, pinning one chunk at a time (the bounded cache's interior lock
  // serializes concurrent faults), and writes each segment into its member
  // position, so the sweep sees the members in cluster order. Per-cluster
  // work touches only its own index-addressed reps slot, and the sweep plus
  // the average-direction axis read only member-indexed values plus
  // cluster.id, so output is byte-identical to the serial walk for every
  // thread count.
  std::vector<traj::Trajectory> reps(clustering.clusters.size());
  common::Mutex error_mu;
  common::Status first_error;  // Guarded by error_mu (local — no annotation).
  try {
    common::SharedPool(ctx.num_threads)
        .ParallelFor(0, clustering.clusters.size(), [&](size_t i) {
          common::ThrowIfCancelled(ctx.cancellation);
          const cluster::Cluster& c = clustering.clusters[i];
          // Member positions in ascending global index: chunk by chunk.
          std::vector<size_t> order(c.member_indices.size());
          std::iota(order.begin(), order.end(), size_t{0});
          std::sort(order.begin(), order.end(), [&c](size_t a, size_t b) {
            return c.member_indices[a] < c.member_indices[b];
          });
          std::vector<geom::Segment> members(c.member_indices.size());
          std::shared_ptr<const traj::SegmentStore> chunk;
          size_t chunk_begin = 0;
          for (const size_t pos : order) {
            const size_t idx = c.member_indices[pos];
            if (chunk == nullptr || idx >= chunk_begin + chunk->size()) {
              const size_t chunk_id = store.chunk_of(idx);
              auto pinned = store.Chunk(chunk_id);
              if (!pinned.ok()) {
                common::MutexLock lock(error_mu);
                if (first_error.ok()) first_error = pinned.status();
                return;
              }
              chunk = std::move(pinned).ValueOrDie();
              chunk_begin = store.chunk_begin(chunk_id);
            }
            members[pos] = chunk->segment(idx - chunk_begin);
          }
          chunk.reset();  // Unpin before the sweep.
          cluster::Cluster local;
          local.id = c.id;
          local.member_indices.resize(c.member_indices.size());
          std::iota(local.member_indices.begin(), local.member_indices.end(),
                    size_t{0});
          // The vector overload sums Segment::Direction(), which equals the
          // store's cached direction column bit for bit; no freeze needed.
          reps[i] = cluster::RepresentativeTrajectory(members, local, o);
        });
  } catch (const common::OperationCancelled&) {
    return CancelledIn(name());
  }
  if (!first_error.ok()) return first_error;
  Report(ctx, name(), 1.0);
  return reps;
}

// ---------------------------------------------------------------------------
// TraclusEngine::Builder
// ---------------------------------------------------------------------------

TraclusEngine::Builder::Builder() {
  UseMdlPartitioning();
  UseDbscanGrouping(DbscanGroupOptions{});
  UseSweepRepresentatives();
}

TraclusEngine::Builder& TraclusEngine::Builder::SetPartitionStage(
    std::shared_ptr<const PartitionStage> stage) {
  partition_ = std::move(stage);
  return *this;
}

TraclusEngine::Builder& TraclusEngine::Builder::SetGroupStage(
    std::shared_ptr<const GroupStage> stage) {
  group_ = std::move(stage);
  return *this;
}

TraclusEngine::Builder& TraclusEngine::Builder::SetRepresentativeStage(
    std::shared_ptr<const RepresentativeStage> stage) {
  representative_ = std::move(stage);
  return *this;
}

TraclusEngine::Builder& TraclusEngine::Builder::UseMdlPartitioning(
    const MdlPartitionOptions& options) {
  return SetPartitionStage(std::make_shared<MdlPartitionStage>(options));
}

TraclusEngine::Builder& TraclusEngine::Builder::UseDbscanGrouping(
    const DbscanGroupOptions& options) {
  return SetGroupStage(std::make_shared<DbscanGroupStage>(options));
}

TraclusEngine::Builder& TraclusEngine::Builder::UseOpticsGrouping(
    const OpticsGroupOptions& options) {
  return SetGroupStage(std::make_shared<OpticsGroupStage>(options));
}

TraclusEngine::Builder& TraclusEngine::Builder::UseSweepRepresentatives(
    const SweepRepresentativeOptions& options) {
  return SetRepresentativeStage(
      std::make_shared<SweepRepresentativeStage>(options));
}

TraclusEngine::Builder& TraclusEngine::Builder::WithSieveGrouping(
    const SieveGroupOptions& options) {
  // Wraps whatever backend is configured right now; with none configured the
  // decorator holds a null inner stage and Build()'s Validate sweep reports
  // it (keeping the builder's errors-at-Build contract).
  return SetGroupStage(
      std::make_shared<SieveGroupStage>(std::move(group_), options));
}

TraclusEngine::Builder& TraclusEngine::Builder::WithShardedGrouping(
    const ShardedGroupOptions& options) {
  // Same wrap-whatever-is-configured contract as WithSieveGrouping; a null
  // inner stage is reported by Build()'s Validate sweep.
  return SetGroupStage(
      std::make_shared<ShardedGroupStage>(std::move(group_), options));
}

TraclusEngine::Builder& TraclusEngine::Builder::WithoutRepresentatives() {
  representative_.reset();
  return *this;
}

TraclusEngine::Builder& TraclusEngine::Builder::SetDefaultNumThreads(
    int num_threads) {
  default_num_threads_ = num_threads;
  return *this;
}

common::Result<TraclusEngine> TraclusEngine::Builder::Build() const {
  if (partition_ == nullptr) {
    return common::Status::InvalidArgument(
        "engine requires a partition stage (SetPartitionStage was given "
        "nullptr)");
  }
  if (group_ == nullptr) {
    return common::Status::InvalidArgument(
        "engine requires a group stage (SetGroupStage was given nullptr)");
  }
  TRACLUS_RETURN_NOT_OK(partition_->Validate());
  TRACLUS_RETURN_NOT_OK(group_->Validate());
  if (representative_ != nullptr) {
    TRACLUS_RETURN_NOT_OK(representative_->Validate());
  }
  return TraclusEngine(partition_, group_, representative_,
                       default_num_threads_);
}

// ---------------------------------------------------------------------------
// TraclusEngine
// ---------------------------------------------------------------------------

common::Result<TraclusEngine> TraclusEngine::FromConfig(
    const TraclusConfig& config) {
  Builder builder;

  MdlPartitionOptions partition;
  partition.mdl = config.partition;
  partition.variant =
      config.partitioning_algorithm == PartitioningAlgorithm::kOptimalMdl
          ? MdlVariant::kOptimal
          : MdlVariant::kApproximate;
  builder.UseMdlPartitioning(partition);

  DbscanGroupOptions group;
  group.eps = config.eps;
  group.min_lns = config.min_lns;
  group.min_trajectory_cardinality = config.min_trajectory_cardinality;
  group.use_weights = config.use_weights;
  group.use_index = config.use_index;
  group.distance = config.distance;
  builder.UseDbscanGrouping(group);

  if (config.generate_representatives) {
    builder.UseSweepRepresentatives(RepresentativeOptionsFromConfig(config));
  } else {
    builder.WithoutRepresentatives();
  }

  builder.SetDefaultNumThreads(config.num_threads);
  return builder.Build();
}

SweepRepresentativeOptions RepresentativeOptionsFromConfig(
    const TraclusConfig& config) {
  SweepRepresentativeOptions options;
  options.min_lns = config.representative_min_lns < 0.0
                        ? config.min_lns
                        : config.representative_min_lns;
  options.gamma = std::max(config.gamma, 0.0);
  options.method = config.representative_method;
  options.use_weights = config.use_weights;
  return options;
}

RunContext TraclusEngine::ResolveContext(const RunContext& ctx) const {
  RunContext resolved = ctx;
  if (resolved.num_threads == 0) {
    resolved.num_threads = default_num_threads_;
  }
  // < 0 = "hardware concurrency regardless of the engine default", which is
  // what the pool layer's 0 means.
  if (resolved.num_threads < 0) resolved.num_threads = 0;
  return resolved;
}

common::Result<PartitionOutput> TraclusEngine::PartitionImpl(
    const traj::TrajectoryDatabase& db, const RunContext& rctx) const {
  if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
    return common::Status::Cancelled("run cancelled before the partition "
                                     "stage");
  }
  if (db.size() == 0) {
    return common::Status::FailedPrecondition(
        "trajectory database is empty (partitioning needs at least one "
        "trajectory)");
  }
  return partition_->Run(db, rctx);
}

common::Result<cluster::ClusteringResult> TraclusEngine::GroupImpl(
    const traj::SegmentStore& store, const RunContext& rctx) const {
  if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
    return common::Status::Cancelled("run cancelled before the group stage");
  }
  return group_->Run(store, rctx);
}

common::Result<std::vector<traj::Trajectory>>
TraclusEngine::RepresentativesImpl(const traj::SegmentStore& store,
                                   const cluster::ClusteringResult& clustering,
                                   const RunContext& rctx) const {
  if (representative_ == nullptr) {
    return common::Status::FailedPrecondition(
        "engine was built without a representative stage "
        "(WithoutRepresentatives)");
  }
  if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
    return common::Status::Cancelled(
        "run cancelled before the representative stage");
  }
  return representative_->Run(store, clustering, rctx);
}

common::Result<PartitionOutput> TraclusEngine::Partition(
    const traj::TrajectoryDatabase& db, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(RefuseChunkKnobs(ctx));
  return PartitionImpl(db, ResolveContext(ctx));
}

common::Result<cluster::ClusteringResult> TraclusEngine::Group(
    const traj::SegmentStore& store, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(RefuseChunkKnobs(ctx));
  return GroupImpl(store, ResolveContext(ctx));
}

common::Result<std::vector<traj::Trajectory>> TraclusEngine::Representatives(
    const traj::SegmentStore& store,
    const cluster::ClusteringResult& clustering, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(RefuseChunkKnobs(ctx));
  return RepresentativesImpl(store, clustering, ResolveContext(ctx));
}

common::Result<TraclusResult> TraclusEngine::Run(
    const traj::TrajectoryDatabase& db, const RunContext& ctx) const {
  TRACLUS_RETURN_NOT_OK(RefuseChunkKnobs(ctx));
  const RunContext rctx = ResolveContext(ctx);
  TraclusResult out;
  {
    auto partitioned = PartitionImpl(db, rctx);
    if (!partitioned.ok()) return partitioned.status();
    out.store = std::move(partitioned->store);
    out.characteristic_points = std::move(partitioned->characteristic_points);
  }
  {
    auto grouped = GroupImpl(out.store, rctx);
    if (!grouped.ok()) return grouped.status();
    out.clustering = std::move(grouped).ValueOrDie();
  }
  if (representative_ != nullptr) {
    auto reps = RepresentativesImpl(out.store, out.clustering, rctx);
    if (!reps.ok()) return reps.status();
    out.representatives = std::move(reps).ValueOrDie();
  }
  return out;
}

common::Result<TraclusResult> TraclusEngine::Run(
    traj::TrajectorySource& source, const RunContext& ctx) const {
  const RunContext rctx = ResolveContext(ctx);
  if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
    return common::Status::Cancelled("run cancelled before the partition "
                                     "stage");
  }
  if (rctx.max_resident_chunks > 0 && !rctx.neighbor_cache_dir.empty()) {
    // The capped grouping path never builds the file cache; accepting the
    // directory would silently ignore it.
    return common::Status::InvalidArgument(
        "neighbor_cache_dir ('" + rctx.neighbor_cache_dir +
        "') does not apply to a residency-capped run (max_resident_chunks " +
        std::to_string(rctx.max_resident_chunks) + ")");
  }

  traj::ChunkedStoreOptions store_options;
  store_options.chunk_capacity = rctx.chunk_capacity;
  store_options.max_resident_chunks = rctx.max_resident_chunks;
  auto chunked = std::make_shared<traj::ChunkedSegmentStore>(store_options);

  // Ingest: pull trajectories in small blocks, partition each block on
  // arrival, and append the segments straight into the chunked store. Only
  // one block of trajectories is ever resident — the full TrajectoryDatabase
  // is never materialized. The per-block partition runs with progress muted
  // (a source has no known length, so block fractions would be meaningless);
  // the outer stage start/end reports bracket the whole ingest instead.
  RunContext block_ctx = rctx;
  block_ctx.progress = nullptr;
  constexpr size_t kIngestBlock = 256;

  TraclusResult out;
  out.chunked_store = chunked;
  Report(rctx, partition_->name(), 0.0);

  // Trajectories pulled so far == the position the eager TrajectoryDatabase
  // would have stored the next one at; negative ids are assigned from it,
  // replicating TrajectoryDatabase::Add across block boundaries.
  geom::TrajectoryId next_position = 0;
  // Segments appended so far == the eager path's first_segment_id for the
  // next trajectory's partitions; block-local ids are rebased by it (an
  // exact integer add), replicating the consecutive-in-database-order
  // contract of the partition stage.
  size_t segments_so_far = 0;
  bool at_end = false;
  while (!at_end) {
    traj::TrajectoryDatabase block;
    while (block.size() < kIngestBlock) {
      traj::Trajectory tr;
      TRACLUS_ASSIGN_OR_RETURN(const bool more, source.Next(&tr));
      if (!more) {
        at_end = true;
        break;
      }
      if (tr.id() < 0) tr.set_id(next_position);
      ++next_position;
      block.Add(std::move(tr));
    }
    if (block.size() == 0) break;

    TRACLUS_ASSIGN_OR_RETURN(PartitionOutput partitioned,
                             partition_->Run(block, block_ctx));
    std::vector<geom::Segment> segments = partitioned.store.segments();
    for (geom::Segment& s : segments) {
      s.set_id(s.id() + static_cast<geom::SegmentId>(segments_so_far));
    }
    segments_so_far += segments.size();
    TRACLUS_RETURN_NOT_OK(chunked->AppendAll(segments));
    for (auto& cps : partitioned.characteristic_points) {
      out.characteristic_points.push_back(std::move(cps));
    }
  }
  if (next_position == 0) {
    return common::Status::FailedPrecondition(
        "trajectory database is empty (partitioning needs at least one "
        "trajectory)");
  }
  TRACLUS_RETURN_NOT_OK(chunked->Finalize());
  Report(rctx, partition_->name(), 1.0);

  if (rctx.max_resident_chunks == 0) {
    // Unbounded residency: merge the chunks back into the monolithic store
    // (bit-identical to the eager freeze of the same segments) and run the
    // existing grouping/representative stages on it.
    TRACLUS_ASSIGN_OR_RETURN(traj::SegmentStore merged, chunked->Merge());
    out.store = std::move(merged);
    {
      auto grouped = GroupImpl(out.store, rctx);
      if (!grouped.ok()) return grouped.status();
      out.clustering = std::move(grouped).ValueOrDie();
    }
    if (representative_ != nullptr) {
      auto reps = RepresentativesImpl(out.store, out.clustering, rctx);
      if (!reps.ok()) return reps.status();
      out.representatives = std::move(reps).ValueOrDie();
    }
    return out;
  }

  // Bounded residency: the out-of-core path. out.store stays empty —
  // materializing it would defeat the cap — and the stages run their
  // chunked entry points against the store's bounded reader cache.
  if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
    return common::Status::Cancelled("run cancelled before the group stage");
  }
  {
    auto grouped = group_->RunChunked(*chunked, rctx);
    if (!grouped.ok()) return grouped.status();
    out.clustering = std::move(grouped).ValueOrDie();
  }
  if (representative_ != nullptr) {
    if (rctx.cancellation != nullptr && rctx.cancellation->cancelled()) {
      return common::Status::Cancelled(
          "run cancelled before the representative stage");
    }
    auto reps = representative_->RunChunked(*chunked, out.clustering, rctx);
    if (!reps.ok()) return reps.status();
    out.representatives = std::move(reps).ValueOrDie();
  }
  return out;
}

}  // namespace traclus::core
