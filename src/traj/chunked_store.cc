#include "traj/chunked_store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

namespace traclus::traj {

namespace {

// Fixed-width spill record: provenance + raw endpoint doubles. Invariants are
// NOT spilled — they are recomputed by the SegmentStore constructor from the
// same endpoint bits, which is what makes a faulted chunk bit-identical to
// the chunk that was evicted.
struct SpillRecord {
  int64_t id;
  int64_t trajectory_id;
  double weight;
  double start[geom::kMaxDims];
  double end[geom::kMaxDims];
};

SpillRecord ToRecord(const geom::Segment& s) {
  SpillRecord r;
  std::memset(&r, 0, sizeof(r));
  r.id = s.id();
  r.trajectory_id = s.trajectory_id();
  r.weight = s.weight();
  for (int d = 0; d < s.dims(); ++d) {
    r.start[d] = s.start()[d];
    r.end[d] = s.end()[d];
  }
  return r;
}

geom::Segment FromRecord(const SpillRecord& r, int dims) {
  const geom::Point start =
      dims == 3 ? geom::Point(r.start[0], r.start[1], r.start[2])
                : geom::Point(r.start[0], r.start[1]);
  const geom::Point end = dims == 3
                              ? geom::Point(r.end[0], r.end[1], r.end[2])
                              : geom::Point(r.end[0], r.end[1]);
  return geom::Segment(start, end, r.id, r.trajectory_id, r.weight);
}

}  // namespace

ChunkedSegmentStore::ChunkedSegmentStore(const ChunkedStoreOptions& options)
    : options_(options) {}

ChunkedSegmentStore::~ChunkedSegmentStore() {
  if (spill_ != nullptr) std::fclose(spill_);
}

common::Status ChunkedSegmentStore::Append(const geom::Segment& segment) {
  if (finalized_) {
    return common::Status::FailedPrecondition(
        "ChunkedSegmentStore: Append after Finalize");
  }
  if (dims_ == 0) {
    dims_ = segment.dims();
  } else if (segment.dims() != dims_) {
    return common::Status::InvalidArgument(
        "ChunkedSegmentStore: " + std::to_string(segment.dims()) +
        "-D segment appended to a " + std::to_string(dims_) + "-D store");
  }

  // Catalog invariants: the exact floating-point expressions of the
  // SegmentStore constructor, so each catalog column is bit-identical to the
  // monolithic store's column for the same index.
  const double length = std::sqrt(segment.Direction().SquaredNorm());
  half_length_.push_back(0.5 * length);
  const geom::Point midpoint = segment.Midpoint();
  id_.push_back(segment.id());
  trajectory_id_.push_back(segment.trajectory_id());
  weight_.push_back(segment.weight());
  for (int d = 0; d < geom::kMaxDims; ++d) {
    midpoint_c_[d].push_back(d < dims_ ? midpoint[d] : 0.0);
  }

  if (chunks_.empty()) chunks_.emplace_back();
  chunks_.back().raw.push_back(segment);
  ++chunks_.back().count;
  ++size_;
  if (options_.chunk_capacity > 0 &&
      chunks_.back().count == options_.chunk_capacity) {
    TRACLUS_RETURN_NOT_OK(SealOpenChunk());
    chunks_.emplace_back();
  }
  return common::Status::OK();
}

common::Status ChunkedSegmentStore::AppendAll(
    const std::vector<geom::Segment>& segments) {
  for (const auto& s : segments) {
    TRACLUS_RETURN_NOT_OK(Append(s));
  }
  return common::Status::OK();
}

common::Status ChunkedSegmentStore::SealOpenChunk() {
  ChunkMeta& chunk = chunks_.back();
  if (options_.max_resident_chunks == 0) return common::Status::OK();
  // Bounded mode: raw records go to the spill file; the in-memory copy is
  // dropped. Cold chunks cost catalog bytes only. The lock covers the
  // spill-file traffic (once per sealed chunk, not per segment); ingest is
  // single-writer, but readers of an already-finalized store share the same
  // FILE* discipline.
  common::MutexLock lock(mu_);
  if (spill_ == nullptr) {
    spill_ = std::tmpfile();
    if (spill_ == nullptr) {
      return common::Status::IOError(
          "ChunkedSegmentStore: cannot create spill file");
    }
  }
  if (std::fseek(spill_, spill_tail_, SEEK_SET) != 0) {
    return common::Status::IOError("ChunkedSegmentStore: spill seek failed");
  }
  chunk.spill_offset = spill_tail_;
  for (const auto& s : chunk.raw) {
    const SpillRecord r = ToRecord(s);
    if (std::fwrite(&r, sizeof(r), 1, spill_) != 1) {
      return common::Status::IOError("ChunkedSegmentStore: spill write failed");
    }
  }
  spill_tail_ += static_cast<long>(chunk.raw.size() * sizeof(SpillRecord));
  chunk.raw.clear();
  chunk.raw.shrink_to_fit();
  chunk.spilled = true;
  return common::Status::OK();
}

common::Status ChunkedSegmentStore::Finalize() {
  if (finalized_) {
    return common::Status::FailedPrecondition(
        "ChunkedSegmentStore: Finalize called twice");
  }
  if (!chunks_.empty()) {
    if (chunks_.back().count == 0) {
      // Append sealed exactly at capacity and opened a fresh chunk that never
      // received a segment; drop it rather than publish an empty chunk.
      chunks_.pop_back();
    } else {
      TRACLUS_RETURN_NOT_OK(SealOpenChunk());
    }
  }
  chunk_count_ = chunks_.size();
  finalized_ = true;
  return common::Status::OK();
}

size_t ChunkedSegmentStore::chunk_size(size_t c) const {
  TRACLUS_DCHECK(c < chunks_.size());
  return chunks_[c].count;
}

common::Status ChunkedSegmentStore::LoadRaw(
    size_t c, size_t first, size_t count,
    std::vector<geom::Segment>* out) const {
  const ChunkMeta& chunk = chunks_[c];
  TRACLUS_DCHECK(first + count <= chunk.count);
  out->clear();
  if (!chunk.spilled) {
    const auto begin = chunk.raw.begin() + static_cast<std::ptrdiff_t>(first);
    out->assign(begin, begin + static_cast<std::ptrdiff_t>(count));
    return common::Status::OK();
  }
  const long offset =
      chunk.spill_offset + static_cast<long>(first * sizeof(SpillRecord));
  if (std::fseek(spill_, offset, SEEK_SET) != 0) {
    return common::Status::IOError("ChunkedSegmentStore: spill seek failed");
  }
  // One read: the records are contiguous in the file.
  std::vector<SpillRecord> records(count);
  if (std::fread(records.data(), sizeof(SpillRecord), records.size(),
                 spill_) != records.size()) {
    return common::Status::IOError("ChunkedSegmentStore: spill read failed");
  }
  out->reserve(count);
  for (const SpillRecord& r : records) out->push_back(FromRecord(r, dims_));
  return common::Status::OK();
}

common::Result<std::shared_ptr<const SegmentStore>> ChunkedSegmentStore::Chunk(
    size_t c) const {
  if (!finalized_) {
    return common::Status::FailedPrecondition(
        "ChunkedSegmentStore: Chunk before Finalize");
  }
  if (c >= chunk_count_) {
    return common::Status::InvalidArgument(
        "ChunkedSegmentStore: chunk " + std::to_string(c) + " out of range (" +
        std::to_string(chunk_count_) + " chunks)");
  }
  common::MutexLock lock(mu_);
  if (auto hit = TouchLocked(c)) return hit;
  std::vector<geom::Segment> raw;
  TRACLUS_RETURN_NOT_OK(LoadRaw(c, 0, chunks_[c].count, &raw));
  ++faults_;
  auto store = std::make_shared<const SegmentStore>(std::move(raw));
  // Evict before insert: the cache never owns more than the cap, so the
  // residency high-water mark cannot exceed it.
  while (options_.max_resident_chunks > 0 &&
         cache_.size() >= options_.max_resident_chunks) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
  }
  lru_.push_front(c);
  cache_.emplace(c, CacheEntry{lru_.begin(), store});
  if (cache_.size() > peak_resident_) peak_resident_ = cache_.size();
  return store;
}

std::shared_ptr<const SegmentStore> ChunkedSegmentStore::TouchLocked(
    size_t c) const {
  const auto it = cache_.find(c);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.store;
}

std::shared_ptr<const SegmentStore> ChunkedSegmentStore::ResidentChunk(
    size_t c) const {
  common::MutexLock lock(mu_);
  return TouchLocked(c);
}

size_t ChunkedSegmentStore::resident_chunks() const {
  common::MutexLock lock(mu_);
  return cache_.size();
}

size_t ChunkedSegmentStore::peak_resident_chunks() const {
  common::MutexLock lock(mu_);
  return peak_resident_;
}

size_t ChunkedSegmentStore::chunk_faults() const {
  common::MutexLock lock(mu_);
  return faults_;
}

common::Result<SegmentStore> ChunkedSegmentStore::Merge() const {
  if (!finalized_) {
    return common::Status::FailedPrecondition(
        "ChunkedSegmentStore: Merge before Finalize");
  }
  common::MutexLock lock(mu_);
  std::vector<geom::Segment> all;
  all.reserve(size_);
  std::vector<geom::Segment> chunk_raw;
  for (size_t c = 0; c < chunk_count_; ++c) {
    TRACLUS_RETURN_NOT_OK(LoadRaw(c, 0, chunks_[c].count, &chunk_raw));
    all.insert(all.end(), chunk_raw.begin(), chunk_raw.end());
  }
  return SegmentStore(std::move(all));
}

common::Result<std::unique_ptr<ChunkedSegmentStore>>
ChunkedSegmentStore::Permuted(const std::vector<size_t>& order) const {
  if (!finalized_) {
    return common::Status::FailedPrecondition(
        "ChunkedSegmentStore: Permuted before Finalize");
  }
  // rank[i]: the copy's index of segment i (size_ until one is found).
  std::vector<size_t> rank(size_, size_);
  bool permutation = order.size() == size_;
  for (size_t k = 0; permutation && k < size_; ++k) {
    permutation = order[k] < size_ && rank[order[k]] == size_;
    if (permutation) rank[order[k]] = k;
  }
  if (!permutation) {
    return common::Status::InvalidArgument(
        "ChunkedSegmentStore: Permuted needs a permutation of the " +
        std::to_string(size_) + " indices");
  }
  auto copy = std::make_unique<ChunkedSegmentStore>(options_);
  copy->dims_ = dims_;
  const auto gather = [&order](const auto& column) {
    std::decay_t<decltype(column)> out(order.size());
    for (size_t k = 0; k < order.size(); ++k) out[k] = column[order[k]];
    return out;
  };
  copy->half_length_ = gather(half_length_);
  copy->weight_ = gather(weight_);
  copy->id_ = gather(id_);
  copy->trajectory_id_ = gather(trajectory_id_);
  for (int d = 0; d < geom::kMaxDims; ++d) {
    copy->midpoint_c_[d] = gather(midpoint_c_[d]);
  }

  // Each chunk of the copy is gathered in place, into its raw segments: its
  // source indices in ascending order (a bitmap scan), a window of at most
  // kWindow consecutive records of one source chunk per read, so the reads
  // follow the file and the read buffer stays small next to a chunk.
  constexpr size_t kWindow = 64;
  const size_t capacity =
      options_.chunk_capacity > 0 ? options_.chunk_capacity : size_;
  common::MutexLock lock(mu_);
  std::vector<uint64_t> marks((size_ + 63) / 64, 0);
  std::vector<size_t> wanted;  // Source indices, ascending.
  std::vector<geom::Segment> window;
  for (size_t begin = 0; begin < size_; begin += capacity) {
    const size_t end = std::min(size_, begin + capacity);
    for (size_t k = begin; k < end; ++k) {
      marks[order[k] / 64] |= uint64_t{1} << (order[k] % 64);
    }
    wanted.clear();
    for (size_t w = 0; w < marks.size(); ++w) {
      for (uint64_t word = marks[w]; word != 0; word &= word - 1) {
        wanted.push_back(w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
      }
      marks[w] = 0;
    }
    if (begin > 0) TRACLUS_RETURN_NOT_OK(copy->SealOpenChunk());
    ChunkMeta& chunk = copy->chunks_.emplace_back();
    chunk.raw.resize(end - begin);
    for (size_t w = 0; w < wanted.size();) {
      const size_t first = wanted[w];
      const size_t c = chunk_of(first);
      const size_t limit =
          std::min(first + kWindow, chunk_begin(c) + chunks_[c].count);
      size_t last = w + 1;
      while (last < wanted.size() && wanted[last] < limit) ++last;
      TRACLUS_RETURN_NOT_OK(LoadRaw(c, first - chunk_begin(c),
                                    wanted[last - 1] - first + 1, &window));
      for (; w < last; ++w) {
        chunk.raw[rank[wanted[w]] - begin] = window[wanted[w] - first];
      }
    }
    chunk.count = end - begin;
    copy->size_ = end;
  }
  TRACLUS_RETURN_NOT_OK(copy->Finalize());
  return copy;
}

}  // namespace traclus::traj
