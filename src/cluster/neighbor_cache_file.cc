#include "cluster/neighbor_cache_file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "distance/hashing.h"

namespace traclus::cluster {
namespace {

// 'NBC1' little-endian.
constexpr uint32_t kMagic = 0x3143424Eu;
// Fixed-size header prefix: magic + version + key + n + eps + total_indices.
constexpr uint64_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;
// Fixed-size trailer: checksum + sentinel magic.
constexpr uint64_t kTrailerBytes = 8 + 4;
// Queries per NeighborsBatch slice while writing — bounds the writer's peak
// resident lists the same way the blocked grouping pass bounds its own.
constexpr size_t kWriteBatch = 1024;

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

// The file checksum: h = (h ^ w) · p for each 64-bit word w, with p the
// 64-bit FNV prime, from distance::HashInit(). For a fixed h, xor with w and
// multiplication by an odd p are bijections mod 2^64, so changing any one
// word always changes the result. It folds a word per step where
// distance::HashBytes folds a byte (the cache key keeps that hash).
uint64_t FoldWords(uint64_t h, const uint64_t* words, size_t n) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ words[i]) * kPrime;
  return h;
}

common::Status Corrupt(const std::string& path, const std::string& what) {
  return common::Status::InvalidArgument("corrupt neighbor cache file " +
                                         path + ": " + what);
}

}  // namespace

std::string NeighborCacheFilePath(const std::string& directory, uint64_t key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key));
  return directory + "/nbc-" + hex + ".bin";
}

common::Result<NeighborCacheFileHeader> LoadNeighborCacheFileHeader(
    const std::string& path, uint64_t expected_key, uint64_t expected_n,
    double expected_eps) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::Status::NotFound("no neighbor cache file at " + path);
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size < kHeaderBytes) {
    return common::Status::IOError("truncated neighbor cache file " + path +
                                   ": smaller than the fixed header");
  }

  uint32_t magic = 0;
  uint32_t version = 0;
  NeighborCacheFileHeader h;
  uint64_t eps_bits = 0;
  if (!ReadRaw(in, &magic) || !ReadRaw(in, &version) || !ReadRaw(in, &h.key) ||
      !ReadRaw(in, &h.n) || !ReadRaw(in, &eps_bits) ||
      !ReadRaw(in, &h.total_indices)) {
    return common::Status::IOError("unreadable neighbor cache header in " +
                                   path);
  }
  if (magic != kMagic) return Corrupt(path, "bad magic");
  if (version != kNeighborCacheFileVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(version));
  }
  h.eps = BitsToDouble(eps_bits);
  // Stale checks before structural ones: a file written for different inputs
  // is expected (the caller recomputes), so report it as the precondition
  // failure it is rather than guessing at corruption.
  if (h.key != expected_key) {
    return common::Status::FailedPrecondition(
        "stale neighbor cache file " + path +
        ": key mismatch (inputs changed since it was written)");
  }
  if (h.n != expected_n) {
    return common::Status::FailedPrecondition(
        "stale neighbor cache file " + path + ": stores " +
        std::to_string(h.n) + " lists, expected " +
        std::to_string(expected_n));
  }
  if (eps_bits != DoubleBits(expected_eps)) {
    return common::Status::FailedPrecondition(
        "stale neighbor cache file " + path + ": eps mismatch");
  }

  // Exact size the header implies; any shortfall is a truncated write. n
  // equals the caller's store size here, so only total_indices can be a
  // lie: check it against the bytes left before multiplying.
  const uint64_t offsets_bytes = (h.n + 1) * sizeof(uint64_t);
  const uint64_t fixed_bytes = kHeaderBytes + offsets_bytes + kTrailerBytes;
  if (file_size < fixed_bytes ||
      h.total_indices > (file_size - fixed_bytes) / sizeof(uint64_t)) {
    return common::Status::IOError(
        "truncated neighbor cache file " + path + ": " +
        std::to_string(file_size) + " bytes cannot hold " +
        std::to_string(h.total_indices) + " payload indices");
  }
  const uint64_t expected_size =
      fixed_bytes + h.total_indices * sizeof(uint64_t);
  if (file_size != expected_size) {
    return common::Status::IOError(
        "truncated neighbor cache file " + path + ": " +
        std::to_string(file_size) + " bytes, header implies " +
        std::to_string(expected_size));
  }

  // Both reads are bounded by the file size checked above.
  h.offsets.resize(h.n + 1);
  h.payload.resize(h.total_indices);
  in.read(reinterpret_cast<char*>(h.offsets.data()),
          static_cast<std::streamsize>(offsets_bytes));
  in.read(reinterpret_cast<char*>(h.payload.data()),
          static_cast<std::streamsize>(h.total_indices * sizeof(uint64_t)));
  uint32_t trailing = 0;
  if (!in.good() || !ReadRaw(in, &h.checksum) || !ReadRaw(in, &trailing)) {
    return common::Status::IOError("unreadable neighbor cache file " + path);
  }
  if (h.offsets.front() != 0 || h.offsets.back() != h.total_indices) {
    return Corrupt(path, "offset table does not span the payload");
  }

  // Every list holds at least its own index, so offsets strictly increase;
  // with the span check this keeps every list inside the payload.
  for (uint64_t i = 0; i < h.n; ++i) {
    if (h.offsets[i] >= h.offsets[i + 1]) {
      return Corrupt(path, "offset table is not strictly increasing");
    }
  }
  // One pass over the lists: every list strictly ascending, every index
  // < n, every list holding its own index (Definition 4), and the checksum
  // over payload then offsets. A list that passes could still be wrong only
  // if a corruption also matched the checksum.
  uint64_t checksum = distance::HashInit();
  for (uint64_t i = 0; i < h.n; ++i) {
    const uint64_t* list = h.payload.data() + h.offsets[i];
    const uint64_t count = h.offsets[i + 1] - h.offsets[i];
    bool saw_self = false;
    for (uint64_t k = 0; k < count; ++k) {
      const uint64_t v = list[k];
      if (v >= h.n) {
        return Corrupt(path, "list " + std::to_string(i) +
                                 " holds out-of-range index " +
                                 std::to_string(v));
      }
      if (k > 0 && v <= list[k - 1]) {
        return Corrupt(path, "list " + std::to_string(i) +
                                 " is not strictly ascending");
      }
      saw_self = saw_self || v == i;
    }
    if (!saw_self) {
      return Corrupt(path, "list " + std::to_string(i) +
                               " lacks its own index");
    }
    checksum = FoldWords(checksum, list, count);
  }
  checksum = FoldWords(checksum, h.offsets.data(), h.offsets.size());
  if (h.checksum != checksum) return Corrupt(path, "checksum mismatch");
  if (trailing != kMagic) return Corrupt(path, "missing trailing sentinel");
  return h;
}

common::Result<NeighborCacheFileHeader> WriteNeighborCacheFile(
    const std::string& path, uint64_t key, const NeighborhoodProvider& base,
    double eps, common::ThreadPool& pool) {
  NeighborCacheFileHeader h;
  h.key = key;
  h.n = base.size();
  h.eps = eps;
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return common::Status::IOError("cannot open " + tmp + " for writing");
  }

  // Placeholder header + offsets first; the payload streams behind them in
  // bounded NeighborsBatch slices, then one seek rewrites the real values.
  // The payload words stay in memory: the cache serves them.
  WriteRaw(out, kMagic);
  WriteRaw(out, kNeighborCacheFileVersion);
  WriteRaw(out, key);
  WriteRaw(out, h.n);
  WriteRaw(out, DoubleBits(eps));
  WriteRaw(out, h.total_indices);
  h.offsets.assign(h.n + 1, 0);
  out.write(reinterpret_cast<const char*>(h.offsets.data()),
            static_cast<std::streamsize>(h.offsets.size() * sizeof(uint64_t)));

  std::vector<size_t> queries;
  for (uint64_t base_i = 0; base_i < h.n; base_i += kWriteBatch) {
    const uint64_t hi = std::min<uint64_t>(h.n, base_i + kWriteBatch);
    queries.clear();
    for (uint64_t i = base_i; i < hi; ++i) queries.push_back(i);
    const auto lists = base.NeighborsBatch(queries, eps, pool);
    const size_t slice = h.payload.size();
    for (uint64_t i = base_i; i < hi; ++i) {
      h.offsets[i] = h.payload.size();
      for (const size_t v : lists[i - base_i]) h.payload.push_back(v);
    }
    out.write(reinterpret_cast<const char*>(h.payload.data() + slice),
              static_cast<std::streamsize>((h.payload.size() - slice) *
                                           sizeof(uint64_t)));
  }
  h.total_indices = h.payload.size();
  h.offsets[h.n] = h.total_indices;
  h.checksum = FoldWords(distance::HashInit(), h.payload.data(),
                         h.payload.size());
  h.checksum = FoldWords(h.checksum, h.offsets.data(), h.offsets.size());
  WriteRaw(out, h.checksum);
  WriteRaw(out, kMagic);

  out.seekp(static_cast<std::streamoff>(kHeaderBytes - sizeof(uint64_t)));
  WriteRaw(out, h.total_indices);
  out.write(reinterpret_cast<const char*>(h.offsets.data()),
            static_cast<std::streamsize>(h.offsets.size() * sizeof(uint64_t)));
  out.close();
  if (!out.good()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return common::Status::IOError("failed writing neighbor cache file " +
                                   tmp);
  }

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return common::Status::IOError("cannot move " + tmp + " into place: " +
                                   ec.message());
  }
  return h;
}

common::Result<std::unique_ptr<FileNeighborhoodCache>>
FileNeighborhoodCache::Create(const NeighborhoodProvider& base,
                              const traj::SegmentStore& store,
                              const distance::SegmentDistanceConfig& config,
                              double eps, const std::string& directory,
                              common::ThreadPool& pool) {
  TRACLUS_DCHECK_EQ(base.size(), store.size());
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return common::Status::IOError("cannot create neighbor cache directory " +
                                   directory + ": " + ec.message());
  }
  const uint64_t key = distance::NeighborhoodCacheKey(store, config, eps);
  const std::string path = NeighborCacheFilePath(directory, key);

  auto header = LoadNeighborCacheFileHeader(path, key, store.size(), eps);
  const bool loaded = header.ok();
  if (!loaded) {
    // Any load failure — missing, stale, truncated, corrupt — means the
    // file cannot be served; recompute through the base provider, rewrite,
    // and serve the lists just written (the file is not read back). Only a
    // genuine write failure escapes.
    header = WriteNeighborCacheFile(path, key, base, eps, pool);
    TRACLUS_RETURN_NOT_OK(header.status());
  }

  return std::unique_ptr<FileNeighborhoodCache>(new FileNeighborhoodCache(
      std::move(header).ValueOrDie(), path, eps, loaded));
}

FileNeighborhoodCache::FileNeighborhoodCache(NeighborCacheFileHeader header,
                                             std::string path, double eps,
                                             bool loaded_from_file)
    : header_(std::move(header)),
      path_(std::move(path)),
      eps_(eps),
      loaded_from_file_(loaded_from_file) {}

std::vector<size_t> FileNeighborhoodCache::ListOf(size_t i) const {
  TRACLUS_DCHECK(i < header_.n);
  const uint64_t* payload = header_.payload.data();
  return std::vector<size_t>(payload + header_.offsets[i],
                             payload + header_.offsets[i + 1]);
}

std::vector<size_t> FileNeighborhoodCache::Neighbors(size_t query_index,
                                                     double eps) const {
  TRACLUS_DCHECK(eps == eps_);
  (void)eps;
  return ListOf(query_index);
}

std::vector<std::vector<size_t>> FileNeighborhoodCache::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_DCHECK(eps == eps_);
  (void)eps;
  (void)pool;  // Served on the calling thread, like NeighborhoodCache.
  std::vector<std::vector<size_t>> lists(header_.n);
  for (size_t i = 0; i < header_.n; ++i) lists[i] = ListOf(i);
  return lists;
}

std::vector<size_t> FileNeighborhoodCache::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_DCHECK(eps == eps_);
  (void)eps;
  (void)pool;
  std::vector<size_t> sizes(header_.n);
  for (size_t i = 0; i < header_.n; ++i) {
    sizes[i] = header_.offsets[i + 1] - header_.offsets[i];
  }
  return sizes;
}

std::vector<std::vector<size_t>> FileNeighborhoodCache::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  TRACLUS_DCHECK(eps == eps_);
  (void)eps;
  (void)pool;
  std::vector<std::vector<size_t>> lists(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    lists[k] = ListOf(queries[k]);
  }
  return lists;
}

}  // namespace traclus::cluster
