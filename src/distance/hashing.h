#ifndef TRACLUS_DISTANCE_HASHING_H_
#define TRACLUS_DISTANCE_HASHING_H_

// Content hashing for cache keys.
//
// The persistent neighbor cache (cluster/neighbor_cache_file.h) keys its
// on-disk files by a 64-bit content hash of everything the ε-neighborhood
// answer depends on: the SegmentStore's defining columns (endpoint
// coordinates, ids, trajectory ids, weights), the distance weights, and ε.
// Derived invariants (lengths, directions, midpoints) are excluded
// on purpose — they are bit-exact functions of the endpoints, so hashing
// them would only slow the key down without adding discrimination.
//
// The hash is 64-bit FNV-1a over the raw little-endian byte patterns of the
// inputs. Doubles are hashed by bit pattern, so any ULP-level change to a
// coordinate or weight changes the key — exactly the sensitivity the
// bit-identical goldens demand. The key is NOT cryptographic; it guards
// against accidental staleness, not adversarial collisions.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::distance {

/// FNV-1a offset basis: the accumulator every hash starts from.
inline uint64_t HashInit() { return 14695981039346656037ull; }

/// Folds `n` raw bytes into the accumulator.
uint64_t HashBytes(uint64_t h, const void* data, size_t n);

/// Folds one 64-bit value (little-endian byte order on every target we
/// build for; the cache file records the key, so cross-endian reuse would
/// simply miss).
uint64_t HashU64(uint64_t h, uint64_t v);

/// Folds a double by bit pattern — +0.0 and -0.0 hash differently, as do
/// distinct NaN payloads; callers hash what they would compute with.
uint64_t HashDouble(uint64_t h, double v);

/// Folds a whole double column.
uint64_t HashDoubles(uint64_t h, const std::vector<double>& values);

/// Content hash of a SegmentStore: size, dims, per-dimension start/end
/// coordinate columns (d < dims only — higher columns are zero-filled
/// padding), segment ids, trajectory ids, and weights. Two stores hash
/// equal iff rebuilding either from its segments() yields bit-identical
/// columns, so the hash identifies the store up to the invariants the
/// kernels consume.
uint64_t HashSegmentStoreContent(const traj::SegmentStore& store);

/// Content hash of the distance configuration (three weights + directed).
uint64_t HashSegmentDistanceConfig(const SegmentDistanceConfig& config);

/// The neighbor-cache key: store content ⊕ distance config ⊕ ε, all folded
/// through one FNV-1a stream. Any perturbation of any input — one
/// coordinate, one id, one weight, the directed flag, ε — changes the key
/// (tests/neighbor_cache_test.cc perturbs each and asserts it).
uint64_t NeighborhoodCacheKey(const traj::SegmentStore& store,
                              const SegmentDistanceConfig& config, double eps);

}  // namespace traclus::distance

#endif  // TRACLUS_DISTANCE_HASHING_H_
