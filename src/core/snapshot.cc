#include "core/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "partition/approximate_partitioner.h"
#include "partition/partitioner.h"
#include "traj/source.h"

namespace traclus::core {
namespace {

// 'TSN1' little-endian.
constexpr uint32_t kMagic = 0x314E5354u;
// Cap on fallback member segments per representative-less cluster.
constexpr size_t kMaxFallbackMembers = 32;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

template <typename T>
void WriteRaw(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadRaw(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

void WriteDouble(std::ofstream& out, double v) { WriteRaw(out, DoubleBits(v)); }

bool ReadDouble(std::ifstream& in, double* v) {
  uint64_t bits = 0;
  if (!ReadRaw(in, &bits)) return false;
  *v = BitsToDouble(bits);
  return true;
}

void WriteString(std::ofstream& out, const std::string& s) {
  WriteRaw(out, static_cast<uint64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

common::Status Truncated(const std::string& path) {
  return common::Status::IOError("truncated snapshot file " + path);
}

common::Status Corrupt(const std::string& path, const std::string& what) {
  return common::Status::InvalidArgument("corrupt snapshot file " + path +
                                         ": " + what);
}

// True when `count` records of `record_bytes` each fit between the read
// position and the end of a `file_size`-byte file: a length field is checked
// against this before anything is reserved, so a lying count cannot ask for
// more memory than the file could fill.
bool CountFits(std::ifstream& in, uint64_t file_size, uint64_t count,
               uint64_t record_bytes) {
  const std::streamoff pos = in.tellg();
  if (pos < 0 || static_cast<uint64_t>(pos) > file_size) return false;
  return count <= (file_size - static_cast<uint64_t>(pos)) / record_bytes;
}

common::Status CountTooLarge(const std::string& path, const char* what) {
  return common::Status::IOError("truncated snapshot file " + path + ": " +
                                 what + " count exceeds the bytes left");
}

// True for a coordinate the snapshot accepts from outside: finite and within
// the CSV sources' bound (traj::kMaxCoordinate).
bool CoordinateOk(double x) { return std::fabs(x) <= traj::kMaxCoordinate; }

// InvalidArgument naming `what` and its rejected coordinate `value`.
common::Status BadCoordinate(const std::string& what, double value) {
  char text[128];
  std::snprintf(text, sizeof(text),
                " has coordinate %.17g: coordinates must be finite and "
                "within ±%g",
                value, traj::kMaxCoordinate);
  return common::Status::InvalidArgument(what + text);
}

// Reads `count` coordinates, each CoordinateOk.
common::Status ReadCoordinates(std::ifstream& in, const std::string& path,
                               uint64_t count, double* coords) {
  for (uint64_t d = 0; d < count; ++d) {
    if (!ReadDouble(in, &coords[d])) return Truncated(path);
    if (!CoordinateOk(coords[d])) {
      return Corrupt(path, "coordinate non-finite or beyond 1e150");
    }
  }
  return common::Status::OK();
}

geom::Point MakePoint(const double* coords, int dims) {
  geom::Point p =
      dims == 3 ? geom::Point(coords[0], coords[1], coords[2])
                : geom::Point(coords[0], dims > 1 ? coords[1] : 0.0);
  return p;
}

}  // namespace

common::Result<std::unique_ptr<ClusterSnapshot>> ClusterSnapshot::FromResult(
    const TraclusResult& result, const SnapshotParams& params) {
  if (!(params.eps > 0.0)) {
    return common::Status::InvalidArgument("snapshot eps must be > 0");
  }
  if (result.store.size() != result.clustering.labels.size()) {
    return common::Status::InvalidArgument(
        "snapshot needs a materialized, labeled store (" +
        std::to_string(result.store.size()) + " segments vs " +
        std::to_string(result.clustering.labels.size()) +
        " labels) — residency-capped streaming runs leave the store empty");
  }
  if (!result.representatives.empty() &&
      result.representatives.size() != result.clustering.clusters.size()) {
    return common::Status::InvalidArgument(
        "representatives, when present, must be parallel to clusters");
  }
  auto snap = std::unique_ptr<ClusterSnapshot>(new ClusterSnapshot());
  snap->store_ = result.store;
  snap->clustering_ = result.clustering;
  snap->representatives_ = result.representatives;
  snap->params_ = params;
  snap->InitServing();
  return snap;
}

void ClusterSnapshot::InitServing() {
  std::vector<geom::Segment> candidates;
  std::vector<int> labels;
  geom::SegmentId next_id = 0;
  for (size_t ci = 0; ci < clustering_.clusters.size(); ++ci) {
    const cluster::Cluster& c = clustering_.clusters[ci];
    // Preferred serving shape: the representative polyline's segments.
    std::vector<geom::Segment> segs;
    if (ci < representatives_.size() && representatives_[ci].size() >= 2) {
      segs = representatives_[ci].RawSegments();
    }
    if (segs.empty()) {
      // Sweep emitted nothing (or representatives are disabled): fall back
      // to at most kMaxFallbackMembers evenly-strided member segments —
      // a deterministic function of the member list, so FromResult and
      // Load agree.
      const size_t m = c.member_indices.size();
      const size_t take = std::min(m, kMaxFallbackMembers);
      for (size_t k = 0; k < take; ++k) {
        segs.push_back(store_.segment(c.member_indices[(k * m) / take]));
      }
    }
    for (geom::Segment& s : segs) {
      s.set_id(next_id++);
      s.set_trajectory_id(c.id);
      candidates.push_back(s);
      labels.push_back(c.id);
    }
  }
  candidates_ = traj::SegmentStore(std::move(candidates));
  candidate_label_ = std::move(labels);
  layout_ = cluster::BlockLayout::Morton(candidates_);
}

common::Status ClusterSnapshot::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return common::Status::IOError("cannot open " + tmp + " for writing");
  }
  WriteRaw(out, kMagic);
  WriteRaw(out, kSnapshotFileVersion);

  WriteDouble(out, params_.eps);
  WriteDouble(out, params_.distance.w_perpendicular);
  WriteDouble(out, params_.distance.w_parallel);
  WriteDouble(out, params_.distance.w_angle);
  WriteRaw(out, static_cast<uint64_t>(params_.distance.directed ? 1 : 0));
  WriteRaw(out, static_cast<uint64_t>(params_.mdl.encoding));
  WriteDouble(out, params_.mdl.suppression_bits);
  WriteRaw(out, static_cast<uint64_t>(params_.mdl.directed ? 1 : 0));

  const uint64_t n = store_.size();
  WriteRaw(out, n);
  WriteRaw(out, static_cast<uint64_t>(store_.dims()));
  for (size_t i = 0; i < n; ++i) {
    const geom::Segment& s = store_.segment(i);
    WriteRaw(out, static_cast<int64_t>(s.id()));
    WriteRaw(out, static_cast<int64_t>(s.trajectory_id()));
    WriteDouble(out, s.weight());
    for (int d = 0; d < store_.dims(); ++d) WriteDouble(out, s.start()[d]);
    for (int d = 0; d < store_.dims(); ++d) WriteDouble(out, s.end()[d]);
  }

  WriteRaw(out, static_cast<uint64_t>(clustering_.clusters.size()));
  for (const cluster::Cluster& c : clustering_.clusters) {
    WriteRaw(out, static_cast<int64_t>(c.id));
    WriteRaw(out, static_cast<uint64_t>(c.member_indices.size()));
    for (const size_t idx : c.member_indices) {
      WriteRaw(out, static_cast<uint64_t>(idx));
    }
  }
  for (const int label : clustering_.labels) {
    WriteRaw(out, static_cast<int32_t>(label));
  }
  WriteRaw(out, static_cast<uint64_t>(clustering_.num_noise));

  WriteRaw(out, static_cast<uint64_t>(representatives_.size()));
  for (const traj::Trajectory& rep : representatives_) {
    WriteRaw(out, static_cast<int64_t>(rep.id()));
    WriteDouble(out, rep.weight());
    WriteString(out, rep.label());
    WriteRaw(out, static_cast<uint64_t>(rep.size()));
    for (const geom::Point& p : rep.points()) {
      for (int d = 0; d < store_.dims(); ++d) WriteDouble(out, p[d]);
    }
  }

  WriteRaw(out, kMagic);
  out.close();
  if (!out.good()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return common::Status::IOError("failed writing snapshot file " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return common::Status::IOError("cannot move " + tmp + " into place: " +
                                   ec.message());
  }
  return common::Status::OK();
}

common::Result<std::unique_ptr<ClusterSnapshot>> ClusterSnapshot::Load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::Status::NotFound("no snapshot file at " + path);
  }
  std::error_code size_error;
  const uint64_t file_size = std::filesystem::file_size(path, size_error);
  if (size_error) {
    return common::Status::IOError("cannot size snapshot file " + path);
  }

  uint32_t magic = 0;
  uint32_t version = 0;
  if (!ReadRaw(in, &magic) || !ReadRaw(in, &version)) return Truncated(path);
  if (magic != kMagic) return Corrupt(path, "bad magic");
  if (version != kSnapshotFileVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(version));
  }

  auto snap = std::unique_ptr<ClusterSnapshot>(new ClusterSnapshot());
  SnapshotParams& params = snap->params_;
  uint64_t directed = 0;
  uint64_t encoding = 0;
  uint64_t mdl_directed = 0;
  if (!ReadDouble(in, &params.eps) ||
      !ReadDouble(in, &params.distance.w_perpendicular) ||
      !ReadDouble(in, &params.distance.w_parallel) ||
      !ReadDouble(in, &params.distance.w_angle) || !ReadRaw(in, &directed) ||
      !ReadRaw(in, &encoding) ||
      !ReadDouble(in, &params.mdl.suppression_bits) ||
      !ReadRaw(in, &mdl_directed)) {
    return Truncated(path);
  }
  params.distance.directed = directed != 0;
  if (!(params.eps > 0.0) || !std::isfinite(params.eps)) {
    return Corrupt(path, "eps not finite and > 0");
  }
  for (const double w :
       {params.distance.w_perpendicular, params.distance.w_parallel,
        params.distance.w_angle, params.mdl.suppression_bits}) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Corrupt(path, "distance weight or MDL suppression not finite "
                           "and non-negative");
    }
  }
  if (encoding >
      static_cast<uint64_t>(partition::MdlEncoding::kLog2Clamped)) {
    return Corrupt(path, "unknown MDL encoding");
  }
  params.mdl.encoding = static_cast<partition::MdlEncoding>(encoding);
  params.mdl.directed = mdl_directed != 0;

  uint64_t n = 0;
  uint64_t dims = 0;
  if (!ReadRaw(in, &n) || !ReadRaw(in, &dims)) return Truncated(path);
  if (dims < 2 || dims > static_cast<uint64_t>(geom::kMaxDims)) {
    return Corrupt(path, "dims out of range");
  }
  if (!CountFits(in, file_size, n, 24 + 16 * dims)) {
    return CountTooLarge(path, "segment");
  }
  std::vector<geom::Segment> segments;
  segments.reserve(n);
  std::vector<double> coords(2 * dims);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t id = 0;
    int64_t tid = 0;
    double weight = 0;
    if (!ReadRaw(in, &id) || !ReadRaw(in, &tid) || !ReadDouble(in, &weight)) {
      return Truncated(path);
    }
    const common::Status read =
        ReadCoordinates(in, path, 2 * dims, coords.data());
    if (!read.ok()) return read;
    segments.emplace_back(
        MakePoint(coords.data(), static_cast<int>(dims)),
        MakePoint(coords.data() + dims, static_cast<int>(dims)), id, tid,
        weight);
  }
  // Rebuilding from endpoints recomputes every invariant with the exact
  // expressions the original store used — bit-identical by the
  // SegmentStore contract, so serving matches the in-memory snapshot.
  snap->store_ = traj::SegmentStore(std::move(segments));

  uint64_t num_clusters = 0;
  if (!ReadRaw(in, &num_clusters)) return Truncated(path);
  if (!CountFits(in, file_size, num_clusters, 16)) {
    return CountTooLarge(path, "cluster");
  }
  snap->clustering_.clusters.resize(num_clusters);
  for (uint64_t ci = 0; ci < num_clusters; ++ci) {
    cluster::Cluster& c = snap->clustering_.clusters[ci];
    int64_t id = 0;
    uint64_t members = 0;
    if (!ReadRaw(in, &id) || !ReadRaw(in, &members)) return Truncated(path);
    c.id = static_cast<int>(id);
    if (members > n) return Corrupt(path, "cluster larger than the store");
    if (!CountFits(in, file_size, members, 8)) {
      return CountTooLarge(path, "member");
    }
    c.member_indices.resize(members);
    for (uint64_t k = 0; k < members; ++k) {
      uint64_t idx = 0;
      if (!ReadRaw(in, &idx)) return Truncated(path);
      if (idx >= n) return Corrupt(path, "member index out of range");
      c.member_indices[k] = idx;
    }
  }
  snap->clustering_.labels.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    int32_t label = 0;
    if (!ReadRaw(in, &label)) return Truncated(path);
    snap->clustering_.labels[i] = label;
  }
  uint64_t num_noise = 0;
  if (!ReadRaw(in, &num_noise)) return Truncated(path);
  snap->clustering_.num_noise = num_noise;

  uint64_t num_reps = 0;
  if (!ReadRaw(in, &num_reps)) return Truncated(path);
  if (num_reps != 0 && num_reps != num_clusters) {
    return Corrupt(path, "representatives not parallel to clusters");
  }
  snap->representatives_.resize(num_reps);
  for (uint64_t ri = 0; ri < num_reps; ++ri) {
    int64_t id = 0;
    double weight = 0;
    uint64_t label_len = 0;
    if (!ReadRaw(in, &id) || !ReadDouble(in, &weight) ||
        !ReadRaw(in, &label_len)) {
      return Truncated(path);
    }
    if (label_len > (1u << 20)) return Corrupt(path, "label too long");
    std::string label(label_len, '\0');
    in.read(label.data(), static_cast<std::streamsize>(label_len));
    if (!in.good()) return Truncated(path);
    traj::Trajectory rep(id, std::move(label), weight);
    uint64_t npoints = 0;
    if (!ReadRaw(in, &npoints)) return Truncated(path);
    if (!CountFits(in, file_size, npoints, 8 * dims)) {
      return CountTooLarge(path, "point");
    }
    for (uint64_t pi = 0; pi < npoints; ++pi) {
      const common::Status read =
          ReadCoordinates(in, path, dims, coords.data());
      if (!read.ok()) return read;
      rep.Add(MakePoint(coords.data(), static_cast<int>(dims)));
    }
    snap->representatives_[ri] = std::move(rep);
  }

  uint32_t trailing = 0;
  if (!ReadRaw(in, &trailing)) return Truncated(path);
  if (trailing != kMagic) return Corrupt(path, "missing trailing sentinel");
  // Exactly at EOF now; anything further is an appended/corrupt tail.
  if (in.peek() != std::ifstream::traits_type::eof()) {
    return Corrupt(path, "trailing bytes after sentinel");
  }

  snap->InitServing();
  return snap;
}

common::Status ClusterSnapshot::AssignSegments(
    const traj::SegmentStore& queries, common::Span<int> out_labels,
    common::Span<double> out_distance, const AssignOptions& options) const {
  if (out_labels.size() != queries.size() ||
      out_distance.size() != queries.size()) {
    return common::Status::InvalidArgument(
        "AssignSegments output spans must have queries.size() entries");
  }
  if (!queries.empty() && !candidates_.empty() &&
      queries.dims() != candidates_.dims()) {
    return common::Status::InvalidArgument(
        "query dims " + std::to_string(queries.dims()) +
        " != snapshot dims " + std::to_string(candidates_.dims()));
  }
  const int dims = queries.dims();
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int d = 0; d < dims; ++d) {
      const double x = queries.start_coords(d)[i];
      const double y = queries.end_coords(d)[i];
      if (!CoordinateOk(x) || !CoordinateOk(y)) {
        return BadCoordinate("AssignSegments query segment " +
                                 std::to_string(i),
                             CoordinateOk(x) ? y : x);
      }
    }
  }
  const distance::SegmentDistance dist(params_.distance);
  const distance::Reach reach = distance::PruneReach(dist, params_.eps);
  distance::BatchOptions batch;
  batch.kernel = options.kernel;
  common::ThreadPool& pool = common::SharedPool(options.num_threads);
  // Each query's answer depends only on its own candidate list, so the
  // output is identical for every thread count and chunking.
  pool.ParallelForChunked(0, queries.size(), [&](size_t lo, size_t hi) {
    thread_local std::vector<distance::IndexRun> runs;
    thread_local std::vector<size_t> list;
    thread_local std::vector<uint64_t> bits;
    for (size_t q = lo; q < hi; ++q) {
      double mid[geom::kMaxDims];
      for (int d = 0; d < dims; ++d) mid[d] = queries.midpoint_coords(d)[q];
      layout_.SegmentRuns(mid, queries.half_length(q), reach, runs);
      list.clear();
      for (const distance::IndexRun& run : runs) {
        const size_t first = list.size();
        list.resize(first + run.last - run.first);
        std::iota(list.begin() + first, list.end(), run.first);
      }
      // Ascending candidate order keeps the full scan's tie-break: the
      // earliest candidate wins.
      layout_.ToSortedIndices(list, bits);
      size_t position = distance::kNoNearest;
      distance::NearestWithinEps(
          queries, dist, common::Span<const size_t>(&q, 1), candidates_,
          common::Span<const size_t>(list.data(), list.size()), params_.eps,
          common::Span<size_t>(&position, 1),
          common::Span<double>(out_distance.data() + q, 1), batch);
      out_labels[q] = position == distance::kNoNearest
                          ? cluster::kNoise
                          : candidate_label_[list[position]];
    }
  });
  return common::Status::OK();
}

common::Result<TrajectoryAssignment> ClusterSnapshot::AssignTrajectory(
    const traj::Trajectory& trajectory, const AssignOptions& options) const {
  if (trajectory.size() < 2) {
    return common::Status::InvalidArgument(
        "AssignTrajectory needs at least 2 points");
  }
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const geom::Point& p = trajectory[i];
    for (int d = 0; d < p.dims(); ++d) {
      if (!CoordinateOk(p[d])) {
        return BadCoordinate("AssignTrajectory point " + std::to_string(i),
                             p[d]);
      }
    }
  }
  const partition::ApproximatePartitioner partitioner(params_.mdl);
  const std::vector<size_t> cps = partitioner.CharacteristicPoints(trajectory);
  std::vector<geom::Segment> segments =
      partition::MakePartitionSegments(trajectory, cps, /*first_segment_id=*/0);
  TrajectoryAssignment assignment;
  if (segments.empty()) {
    // Every partition degenerate (all points coincident): nothing to assign.
    return assignment;
  }
  const traj::SegmentStore query_store(std::move(segments));
  assignment.segment_labels.resize(query_store.size());
  assignment.segment_distances.resize(query_store.size());
  AssignOptions inline_options = options;
  inline_options.num_threads = 1;  // A handful of segments; fan-out is waste.
  TRACLUS_RETURN_NOT_OK(AssignSegments(
      query_store,
      common::Span<int>(assignment.segment_labels.data(),
                        assignment.segment_labels.size()),
      common::Span<double>(assignment.segment_distances.data(),
                           assignment.segment_distances.size()),
      inline_options));

  // Majority vote over the non-noise labels; the ordered map walk makes the
  // strictly-greater comparison break ties toward the smaller cluster id.
  std::map<int, size_t> votes;
  for (const int label : assignment.segment_labels) {
    if (label != cluster::kNoise) ++votes[label];
  }
  size_t best = 0;
  for (const auto& [label, count] : votes) {
    if (count > best) {
      best = count;
      assignment.cluster = label;
    }
  }
  return assignment;
}

}  // namespace traclus::core
