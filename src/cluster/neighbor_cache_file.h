#ifndef TRACLUS_CLUSTER_NEIGHBOR_CACHE_FILE_H_
#define TRACLUS_CLUSTER_NEIGHBOR_CACHE_FILE_H_

// Persistent ε-neighborhood cache: serialize every Nε(L) list to a versioned
// binary file so repeated runs over unchanged inputs skip the O(n²)
// candidate/refine work entirely (the cpptraj load_pair_ / PAIRDISTFILE
// idiom, adapted to neighborhood lists).
//
// Keying. Each file is named by the 64-bit content hash of everything the
// answer depends on — the SegmentStore's defining columns, the distance
// weights + directed flag, and ε (distance::NeighborhoodCacheKey). The
// cache directory therefore holds one file per distinct (store, config, ε)
// ever run against it: the sieve stage's sampled store and each shard's
// effective query store hash differently from the full store and get their
// own files, so the cache composes with every grouping decorator without
// coordination. Mutating ANY key input — one coordinate, one id, one
// weight, ε — changes the hash and misses (tests/neighbor_cache_test.cc
// perturbs each input and asserts it).
//
// File format v3 (little-endian, all integers u64 unless noted):
//   u32 magic 'NBC1'   u32 version=3
//   u64 key            u64 n              u64 eps (raw double bits)
//   u64 total_indices
//   u64 offsets[n+1]   — list i occupies payload[offsets[i], offsets[i+1])
//   u64 payload[total_indices]
//   u64 checksum       — a 64-bit word fold h = (h ^ w) · p (p the FNV
//                        prime) over the payload words, then the offset
//                        words
//   u32 magic 'NBC1'   — trailing sentinel, catches truncation
// A load validates magic/version (corrupt → InvalidArgument; a v1 or v2
// file is an unsupported version), the recorded key and ε against the
// expected ones (stale → FailedPrecondition), total_indices against the
// bytes left and the exact file size implied by the header (truncated →
// IOError), then reads the offsets and the payload, each with one read, and
// checks in one pass over memory the offsets (spanning and strictly
// increasing), the payload (every list strictly ascending, indices < n,
// holding its own index — Definition 4's self-inclusion), the checksum
// (corrupt → InvalidArgument) and the trailing sentinel; a missing file is
// NotFound. A bad file is NEVER silently served — the caller decides
// whether to recompute. Writes go to `path + ".tmp"` and rename into place,
// so a crashed writer cannot leave a half-written file under the live name.
//
// Memory. The cache serves every list from the payload words the load read
// and validated — or, on a cold miss, the words the writer computed and
// wrote, without reading the file back — so it holds 8 B per list entry
// plus 8 B per list for the offsets: 0.54 MB for the hurricane set at
// ε = 0.94, 35 MB for elk-half. No run that opens a cache directory has a
// residency cap (the engine and the CLI refuse --max-resident with a cache
// directory), and an uncapped run already holds the whole SegmentStore
// (and, on a cold run, the join's ε-graph). Nothing is read from the file
// after the load or the write, so a file changed underneath a running
// cache cannot change what it serves.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "cluster/neighborhood.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::cluster {

/// Current on-disk format version.
inline constexpr uint32_t kNeighborCacheFileVersion = 3;

/// The file holding `key`'s lists inside `directory`: nbc-<hex16 key>.bin.
std::string NeighborCacheFilePath(const std::string& directory, uint64_t key);

/// A validated cache file: its header, offset table and payload, read once
/// by the load and served from memory afterwards.
struct NeighborCacheFileHeader {
  uint64_t key = 0;
  uint64_t n = 0;
  double eps = 0.0;
  uint64_t total_indices = 0;
  /// n+1 entries, in index (not byte) units into the payload.
  std::vector<uint64_t> offsets;
  /// total_indices words: list i is payload[offsets[i], offsets[i+1]).
  std::vector<uint64_t> payload;
  /// The file's checksum over the payload, then the offsets.
  uint64_t checksum = 0;
};

/// Opens and fully validates a cache file against the expected key, size,
/// and ε (raw-bit comparison). Typed failures, never a silent wrong answer:
///   * missing file                          → NotFound
///   * bad magic / version / offsets /
///     payload list / checksum               → InvalidArgument (corrupt)
///   * file size != header-implied size      → IOError (truncated)
///   * recorded key, n or ε != expected      → FailedPrecondition (stale)
common::Result<NeighborCacheFileHeader> LoadNeighborCacheFileHeader(
    const std::string& path, uint64_t expected_key, uint64_t expected_n,
    double expected_eps);

/// Computes every ε-neighborhood through `base` (in bounded NeighborsBatch
/// slices across `pool`) and writes the v3 file for `key` at `path`,
/// atomically (tmp + rename). Overwrites an existing file. Returns what it
/// wrote — the header, offsets, payload and checksum a load of the file
/// reads — so a cold cache serves it without reading the file back.
common::Result<NeighborCacheFileHeader> WriteNeighborCacheFile(
    const std::string& path, uint64_t key, const NeighborhoodProvider& base,
    double eps, common::ThreadPool& pool);

/// NeighborhoodProvider decorator that loads-or-computes through the cache
/// directory: on key match it serves the file's lists; on miss (or any
/// stale/corrupt/truncated file) it recomputes through `base`, rewrites the
/// file, and serves the lists it wrote. Either way, every served list
/// equals base.Neighbors(i, eps) exactly — the writer computes through the
/// same provider the direct path would use, so cached cluster output is
/// byte-identical (the goldens pin this).
///
/// The lists are served from the payload the load validated, or the writer
/// wrote (see Memory in the file comment): the file is not read again, and
/// every query is a lock-free copy, so concurrent queries are race-free.
///
/// Bound to one ε at construction; querying a different ε is a programming
/// error (checked).
class FileNeighborhoodCache : public NeighborhoodProvider {
 public:
  /// Builds the cache for (store, config, eps) under `directory` (created
  /// if absent). `base` must answer ε-queries over exactly `store`; the
  /// cache keeps no reference to either. Load failures fall back to
  /// recompute+rewrite; genuine write/IO failures propagate.
  static common::Result<std::unique_ptr<FileNeighborhoodCache>> Create(
      const NeighborhoodProvider& base, const traj::SegmentStore& store,
      const distance::SegmentDistanceConfig& config, double eps,
      const std::string& directory, common::ThreadPool& pool);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  /// Answered from the offset table alone.
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;
  size_t size() const override { return header_.n; }

  /// True when this run served from a pre-existing file (warm hit); false
  /// when the lists were recomputed and the file rewritten (cold miss).
  bool loaded_from_file() const { return loaded_from_file_; }
  uint64_t key() const { return header_.key; }
  const std::string& file_path() const { return path_; }

 private:
  FileNeighborhoodCache(NeighborCacheFileHeader header, std::string path,
                        double eps, bool loaded_from_file);

  /// A copy of list i.
  std::vector<size_t> ListOf(size_t i) const;

  NeighborCacheFileHeader header_;
  std::string path_;
  double eps_;
  bool loaded_from_file_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBOR_CACHE_FILE_H_
