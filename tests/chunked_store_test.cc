// Tests for traj::ChunkedSegmentStore: every chunk is a bit-exact slice of
// the monolithic SegmentStore over the same segments (all invariant columns),
// the spill/fault round trip in bounded mode preserves those bits, the LRU
// reader cache never exceeds its residency cap, and Merge() reproduces the
// eager freeze exactly, and Permuted() copies a store into another order
// without faulting a chunk. Also pins the SegmentStore::FromSegments factory that
// replaces the deprecated Group(vector) implicit freeze.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/segment.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"

namespace traclus::traj {
namespace {

using common::StatusCode;

std::vector<geom::Segment> RandomSegments(size_t n, uint64_t seed,
                                          int dims = 2) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(-50.0, 50.0);
  std::uniform_real_distribution<double> weight(0.5, 3.0);
  std::vector<geom::Segment> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const geom::Point s = dims == 3
                              ? geom::Point(coord(rng), coord(rng), coord(rng))
                              : geom::Point(coord(rng), coord(rng));
    const geom::Point e = dims == 3
                              ? geom::Point(coord(rng), coord(rng), coord(rng))
                              : geom::Point(coord(rng), coord(rng));
    out.emplace_back(s, e, static_cast<geom::SegmentId>(i),
                     static_cast<geom::TrajectoryId>(i / 7), weight(rng));
  }
  return out;
}

// Every column of `chunk` must equal the monolithic store's columns over
// [base, base + chunk.size()) bit-for-bit.
void ExpectChunkIsExactSlice(const SegmentStore& chunk, size_t base,
                             const SegmentStore& mono) {
  ASSERT_LE(base + chunk.size(), mono.size());
  ASSERT_EQ(chunk.dims(), mono.dims());
  for (size_t i = 0; i < chunk.size(); ++i) {
    const size_t g = base + i;
    EXPECT_EQ(chunk.length(i), mono.length(g));
    EXPECT_EQ(chunk.squared_length(i), mono.squared_length(g));
    EXPECT_EQ(chunk.half_length(i), mono.half_length(g));
    EXPECT_EQ(chunk.inv_length(i), mono.inv_length(g));
    EXPECT_EQ(chunk.weight(i), mono.weight(g));
    EXPECT_EQ(chunk.id(i), mono.id(g));
    EXPECT_EQ(chunk.trajectory_id(i), mono.trajectory_id(g));
    for (int d = 0; d < mono.dims(); ++d) {
      EXPECT_EQ(chunk.direction(i)[d], mono.direction(g)[d]);
      EXPECT_EQ(chunk.unit_direction(i)[d], mono.unit_direction(g)[d]);
      EXPECT_EQ(chunk.midpoint(i)[d], mono.midpoint(g)[d]);
      EXPECT_EQ(chunk.segment(i).start()[d], mono.segment(g).start()[d]);
      EXPECT_EQ(chunk.segment(i).end()[d], mono.segment(g).end()[d]);
    }
    for (int d = 0; d < geom::kMaxDims; ++d) {
      EXPECT_EQ(chunk.start_coords(d)[i], mono.start_coords(d)[g]);
      EXPECT_EQ(chunk.end_coords(d)[i], mono.end_coords(d)[g]);
      EXPECT_EQ(chunk.direction_coords(d)[i], mono.direction_coords(d)[g]);
      EXPECT_EQ(chunk.midpoint_coords(d)[i], mono.midpoint_coords(d)[g]);
    }
  }
}

void ExpectStoresIdentical(const SegmentStore& a, const SegmentStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ExpectChunkIsExactSlice(a, 0, b);
}

// ---------------------------------------------------------------------------
// Chunk layout and catalog.
// ---------------------------------------------------------------------------

TEST(ChunkedStoreTest, ChunksAreBitExactSlicesOfTheMonolithicStore) {
  const auto segments = RandomSegments(233, /*seed=*/42);
  const SegmentStore mono(segments);

  for (const size_t cap : {1u, 7u, 64u, 233u, 1024u, 0u}) {
    SCOPED_TRACE(testing::Message() << "chunk_capacity " << cap);
    ChunkedStoreOptions options;
    options.chunk_capacity = cap;
    ChunkedSegmentStore store(options);
    ASSERT_TRUE(store.AppendAll(segments).ok());
    ASSERT_TRUE(store.Finalize().ok());

    ASSERT_EQ(store.size(), mono.size());
    const size_t expect_chunks =
        cap == 0 ? 1 : (segments.size() + cap - 1) / cap;
    EXPECT_EQ(store.num_chunks(), expect_chunks);

    // Catalog columns are bitwise the monolithic columns.
    for (size_t i = 0; i < store.size(); ++i) {
      EXPECT_EQ(store.half_length(i), mono.half_length(i));
      EXPECT_EQ(store.weight(i), mono.weight(i));
      EXPECT_EQ(store.id(i), mono.id(i));
      EXPECT_EQ(store.trajectory_id(i), mono.trajectory_id(i));
      for (int d = 0; d < mono.dims(); ++d) {
        EXPECT_EQ(store.midpoint_coords(d)[i], mono.midpoint_coords(d)[i]);
      }
    }

    // Each payload chunk is a valid kernel slice.
    for (size_t c = 0; c < store.num_chunks(); ++c) {
      const auto chunk = store.Chunk(c);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      EXPECT_EQ((*chunk)->size(), store.chunk_size(c));
      ExpectChunkIsExactSlice(**chunk, store.chunk_begin(c), mono);
    }
  }
}

TEST(ChunkedStoreTest, ChunkIndexArithmetic) {
  ChunkedStoreOptions options;
  options.chunk_capacity = 10;
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(RandomSegments(25, 1)).ok());
  ASSERT_TRUE(store.Finalize().ok());
  EXPECT_EQ(store.num_chunks(), 3u);
  EXPECT_EQ(store.chunk_of(0), 0u);
  EXPECT_EQ(store.chunk_of(9), 0u);
  EXPECT_EQ(store.chunk_of(10), 1u);
  EXPECT_EQ(store.chunk_of(24), 2u);
  EXPECT_EQ(store.chunk_begin(2), 20u);
  EXPECT_EQ(store.chunk_size(0), 10u);
  EXPECT_EQ(store.chunk_size(2), 5u);  // Only the last chunk is short.
}

// ---------------------------------------------------------------------------
// Bounded mode: spill round trip and the residency cap.
// ---------------------------------------------------------------------------

TEST(ChunkedStoreTest, SpillRoundTripIsBitIdentical) {
  const auto segments = RandomSegments(150, /*seed=*/7);
  const SegmentStore mono(segments);

  ChunkedStoreOptions options;
  options.chunk_capacity = 16;
  options.max_resident_chunks = 1;  // Everything spills, everything faults.
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  ASSERT_TRUE(store.Finalize().ok());

  // Fault every chunk twice (the second pass re-faults after eviction) —
  // bits must survive the disk round trip both times.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < store.num_chunks(); ++c) {
      const auto chunk = store.Chunk(c);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      ExpectChunkIsExactSlice(**chunk, store.chunk_begin(c), mono);
    }
  }
  EXPECT_LE(store.peak_resident_chunks(), 1u);
}

TEST(ChunkedStoreTest, SpillRoundTripPreserves3DSegments) {
  const auto segments = RandomSegments(40, /*seed=*/11, /*dims=*/3);
  const SegmentStore mono(segments);
  ChunkedStoreOptions options;
  options.chunk_capacity = 8;
  options.max_resident_chunks = 2;
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  ASSERT_TRUE(store.Finalize().ok());
  EXPECT_EQ(store.dims(), 3);
  for (size_t c = 0; c < store.num_chunks(); ++c) {
    const auto chunk = store.Chunk(c);
    ASSERT_TRUE(chunk.ok());
    ExpectChunkIsExactSlice(**chunk, store.chunk_begin(c), mono);
  }
}

TEST(ChunkedStoreTest, ResidencyNeverExceedsTheCap) {
  for (const size_t cap : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "max_resident_chunks " << cap);
    ChunkedStoreOptions options;
    options.chunk_capacity = 8;
    options.max_resident_chunks = cap;
    ChunkedSegmentStore store(options);
    ASSERT_TRUE(store.AppendAll(RandomSegments(96, cap)).ok());
    ASSERT_TRUE(store.Finalize().ok());
    ASSERT_GT(store.num_chunks(), cap) << "test needs more chunks than cap";

    // A worst-case access pattern: strided, repeated, and backwards.
    for (size_t round = 0; round < 3; ++round) {
      for (size_t c = 0; c < store.num_chunks(); ++c) {
        ASSERT_TRUE(store.Chunk((c * 5 + round) % store.num_chunks()).ok());
        EXPECT_LE(store.resident_chunks(), cap);
      }
    }
    EXPECT_LE(store.peak_resident_chunks(), cap);
    EXPECT_GE(store.peak_resident_chunks(), 1u);
  }
}

TEST(ChunkedStoreTest, ChunkFaultsCountCacheMisses) {
  ChunkedStoreOptions options;
  options.chunk_capacity = 4;
  options.max_resident_chunks = 2;
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(RandomSegments(12, 5)).ok());
  ASSERT_TRUE(store.Finalize().ok());
  EXPECT_EQ(store.chunk_faults(), 0u);

  for (const size_t c : {0u, 0u, 1u, 0u, 2u, 1u, 0u}) {
    ASSERT_TRUE(store.Chunk(c).ok());
  }
  // Misses: 0, 1, 2 (evicts 1), 1 (evicts 0), 0 (evicts 2).
  EXPECT_EQ(store.chunk_faults(), 5u);
  // Merge streams every chunk without entering the cache.
  ASSERT_TRUE(store.Merge().ok());
  EXPECT_EQ(store.chunk_faults(), 5u);
}

TEST(ChunkedStoreTest, ResidentChunkPinsOnlyCachedChunksAndNeverFaults) {
  ChunkedStoreOptions options;
  options.chunk_capacity = 4;
  options.max_resident_chunks = 2;
  ChunkedSegmentStore store(options);
  const auto segments = RandomSegments(12, 9);
  const SegmentStore mono(segments);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  ASSERT_TRUE(store.Finalize().ok());

  // Nothing is cached yet: every chunk is spilled, and asking never faults.
  for (size_t c = 0; c < store.num_chunks(); ++c) {
    EXPECT_EQ(store.ResidentChunk(c), nullptr) << "chunk " << c;
  }
  EXPECT_EQ(store.chunk_faults(), 0u);
  EXPECT_EQ(store.resident_chunks(), 0u);

  ASSERT_TRUE(store.Chunk(0).ok());
  ASSERT_TRUE(store.Chunk(1).ok());
  const auto resident = store.ResidentChunk(0);
  ASSERT_NE(resident, nullptr);
  ExpectChunkIsExactSlice(*resident, store.chunk_begin(0), mono);
  EXPECT_EQ(store.ResidentChunk(2), nullptr);
  EXPECT_EQ(store.chunk_faults(), 2u);

  // The hit touched chunk 0, so faulting chunk 2 evicts chunk 1, not 0.
  ASSERT_TRUE(store.Chunk(2).ok());
  EXPECT_EQ(store.chunk_faults(), 3u);
  EXPECT_NE(store.ResidentChunk(0), nullptr);
  EXPECT_EQ(store.ResidentChunk(1), nullptr);
  EXPECT_NE(store.ResidentChunk(2), nullptr);
  EXPECT_EQ(store.chunk_faults(), 3u);
  EXPECT_LE(store.peak_resident_chunks(), 2u);
}

TEST(ChunkedStoreTest, CacheHitsKeepThePinnedChunkAlive) {
  ChunkedStoreOptions options;
  options.chunk_capacity = 4;
  options.max_resident_chunks = 1;
  ChunkedSegmentStore store(options);
  const auto segments = RandomSegments(12, 3);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  ASSERT_TRUE(store.Finalize().ok());

  auto pinned = store.Chunk(0);
  ASSERT_TRUE(pinned.ok());
  const std::shared_ptr<const SegmentStore> pin = *pinned;
  // Faulting other chunks evicts chunk 0 from the cache, but the pin keeps
  // the store alive and readable (buffer-pool semantics).
  ASSERT_TRUE(store.Chunk(1).ok());
  ASSERT_TRUE(store.Chunk(2).ok());
  EXPECT_EQ(pin->size(), 4u);
  EXPECT_EQ(pin->segment(0).start().x(), segments[0].start().x());
  EXPECT_LE(store.resident_chunks(), 1u);
}

// Regression lane for the race-detector CI job: N threads fault chunks
// concurrently in seeded pseudo-random orders while readers poll the
// residency counters. Every faulted chunk must still be a bit-exact slice
// of the monolithic store, and the LRU cap must hold under contention.
// Run under TSan (the `tsan` preset) this doubles as the lock-discipline
// check for ChunkedSegmentStore's guarded spill/cache state.
TEST(ChunkedStoreTest, ConcurrentFaultHammerStaysBoundedAndBitExact) {
  constexpr size_t kThreads = 6;
  constexpr size_t kFaultsPerThread = 400;
  constexpr size_t kCap = 3;

  const auto segments = RandomSegments(96, /*seed=*/77);
  const SegmentStore mono(segments);

  ChunkedStoreOptions options;
  options.chunk_capacity = 8;
  options.max_resident_chunks = kCap;
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  ASSERT_TRUE(store.Finalize().ok());
  ASSERT_GT(store.num_chunks(), kCap) << "test needs more chunks than cap";

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::uniform_int_distribution<size_t> pick(0, store.num_chunks() - 1);
      for (size_t i = 0; i < kFaultsPerThread; ++i) {
        const size_t c = pick(rng);
        const auto chunk = store.Chunk(c);
        if (!chunk.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Spot-check one segment per fault against the monolithic columns
        // (the full-slice sweep runs single-threaded below); EXPECT_* is
        // not thread-safe, so tally and assert after the join.
        const SegmentStore& slice = **chunk;
        const size_t base = store.chunk_begin(c);
        const size_t local = i % slice.size();
        if (slice.length(local) != mono.length(base + local) ||
            slice.id(local) != mono.id(base + local) ||
            slice.midpoint_coords(0)[local] !=
                mono.midpoint_coords(0)[base + local]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // Interleave counter reads with the faults: these take the same
        // mutex as the miss path and must never observe an over-cap value.
        if (store.resident_chunks() > kCap) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(store.peak_resident_chunks(), kCap);
  EXPECT_GE(store.peak_resident_chunks(), 1u);

  // The hammer must not have corrupted anything: every chunk is still a
  // bit-exact slice of the monolithic store.
  for (size_t c = 0; c < store.num_chunks(); ++c) {
    const auto chunk = store.Chunk(c);
    ASSERT_TRUE(chunk.ok());
    ExpectChunkIsExactSlice(**chunk, store.chunk_begin(c), mono);
  }
}

// ---------------------------------------------------------------------------
// Merge and lifecycle.
// ---------------------------------------------------------------------------

TEST(ChunkedStoreTest, MergeReproducesTheEagerFreeze) {
  const auto segments = RandomSegments(123, /*seed=*/5);
  const SegmentStore mono(segments);

  for (const size_t resident : {0u, 2u}) {
    SCOPED_TRACE(testing::Message() << "max_resident_chunks " << resident);
    ChunkedStoreOptions options;
    options.chunk_capacity = 17;
    options.max_resident_chunks = resident;
    ChunkedSegmentStore store(options);
    ASSERT_TRUE(store.AppendAll(segments).ok());
    ASSERT_TRUE(store.Finalize().ok());
    const auto merged = store.Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectStoresIdentical(*merged, mono);
  }
}

TEST(ChunkedStoreTest, AppendAfterFinalizeIsFailedPrecondition) {
  ChunkedSegmentStore store;
  ASSERT_TRUE(store.AppendAll(RandomSegments(3, 1)).ok());
  ASSERT_TRUE(store.Finalize().ok());
  const auto st = store.Append(RandomSegments(1, 2)[0]);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ChunkedStoreTest, ReadBeforeFinalizeIsFailedPrecondition) {
  ChunkedSegmentStore store;
  ASSERT_TRUE(store.AppendAll(RandomSegments(3, 1)).ok());
  EXPECT_EQ(store.Chunk(0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Merge().status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChunkedStoreTest, MixedDimensionalityIsInvalidArgument) {
  ChunkedSegmentStore store;
  ASSERT_TRUE(
      store.Append(geom::Segment(geom::Point(0, 0), geom::Point(1, 1), 0, 0))
          .ok());
  const auto st = store.Append(
      geom::Segment(geom::Point(0, 0, 0), geom::Point(1, 1, 1), 1, 0));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ChunkedStoreTest, EmptyStoreFinalizesToZeroChunks) {
  ChunkedSegmentStore store;
  ASSERT_TRUE(store.Finalize().ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.num_chunks(), 0u);
  EXPECT_EQ(store.dims(), 2);
  const auto merged = store.Merge();
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->empty());
}

// ---------------------------------------------------------------------------
// Permuted: the ε-join's Morton-ordered copy.
// ---------------------------------------------------------------------------

// A permutation of [0, n) that keeps some runs of consecutive indices (the
// copy reads those with one read) and breaks the rest.
std::vector<size_t> MixedOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t k = 0; k + 1 < n; k += 5) {
    std::swap(order[k], order[rng() % n]);
  }
  return order;
}

TEST(ChunkedStoreTest, PermutedCopyIsTheStoreOfThePermutedSegments) {
  for (const int dims : {2, 3}) {
    const auto segments = RandomSegments(233, /*seed=*/61, dims);
    const std::vector<size_t> order = MixedOrder(segments.size(), 62);
    std::vector<geom::Segment> permuted;
    for (const size_t i : order) permuted.push_back(segments[i]);
    const SegmentStore mono(permuted);
    // 40 is not a multiple of the join's 16-segment blocks; 0 is one chunk.
    for (const size_t capacity : {40u, 64u, 0u}) {
      for (const size_t resident : {0u, 2u}) {
        SCOPED_TRACE(testing::Message() << dims << "-D capacity " << capacity
                                        << " resident " << resident);
        ChunkedStoreOptions options;
        options.chunk_capacity = capacity;
        options.max_resident_chunks = resident;
        ChunkedSegmentStore store(options);
        ASSERT_TRUE(store.AppendAll(segments).ok());
        ASSERT_TRUE(store.Finalize().ok());
        const auto copy = store.Permuted(order);
        ASSERT_TRUE(copy.ok()) << copy.status().ToString();
        const ChunkedSegmentStore& c = **copy;
        ASSERT_TRUE(c.finalized());
        EXPECT_EQ(c.options().chunk_capacity, capacity);
        EXPECT_EQ(c.options().max_resident_chunks, resident);
        EXPECT_EQ(c.dims(), dims);
        ASSERT_EQ(c.size(), store.size());
        ASSERT_EQ(c.num_chunks(), store.num_chunks());

        // The catalog is the source catalog permuted, bit for bit.
        for (size_t k = 0; k < c.size(); ++k) {
          const size_t i = order[k];
          EXPECT_EQ(c.half_length(k), store.half_length(i));
          EXPECT_EQ(c.weight(k), store.weight(i));
          EXPECT_EQ(c.id(k), store.id(i));
          EXPECT_EQ(c.trajectory_id(k), store.trajectory_id(i));
          for (int d = 0; d < geom::kMaxDims; ++d) {
            EXPECT_EQ(c.midpoint_coords(d)[k], store.midpoint_coords(d)[i]);
          }
        }
        // Building the copy faulted no source chunk and cached none.
        EXPECT_EQ(store.chunk_faults(), 0u);
        EXPECT_EQ(store.peak_resident_chunks(), 0u);
        EXPECT_EQ(store.resident_chunks(), 0u);

        // Every chunk is a slice of the store of the permuted segments.
        for (size_t k = 0; k < c.num_chunks(); ++k) {
          const auto chunk = c.Chunk(k);
          ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
          EXPECT_EQ((*chunk)->size(), c.chunk_size(k));
          ExpectChunkIsExactSlice(**chunk, c.chunk_begin(k), mono);
        }
        if (resident > 0) {
          EXPECT_LE(c.peak_resident_chunks(), resident);
        }
        const auto merged = c.Merge();
        ASSERT_TRUE(merged.ok());
        ExpectStoresIdentical(*merged, mono);
      }
    }
  }
}

TEST(ChunkedStoreTest, PermutedOfTheEmptyStoreIsEmpty) {
  for (const size_t resident : {0u, 3u}) {
    ChunkedStoreOptions options;
    options.chunk_capacity = 16;
    options.max_resident_chunks = resident;
    ChunkedSegmentStore store(options);
    ASSERT_TRUE(store.Finalize().ok());
    const auto copy = store.Permuted({});
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    EXPECT_TRUE((*copy)->finalized());
    EXPECT_EQ((*copy)->size(), 0u);
    EXPECT_EQ((*copy)->num_chunks(), 0u);
    EXPECT_EQ((*copy)->dims(), 2);
  }
}

TEST(ChunkedStoreTest, PermutedRefusesWhatIsNotAPermutation) {
  const auto segments = RandomSegments(20, /*seed=*/63);
  ChunkedStoreOptions options;
  options.chunk_capacity = 8;
  options.max_resident_chunks = 1;
  ChunkedSegmentStore store(options);
  ASSERT_TRUE(store.AppendAll(segments).ok());
  std::vector<size_t> identity(segments.size());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  EXPECT_EQ(store.Permuted(identity).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.Finalize().ok());
  std::vector<size_t> short_order(identity.begin(), identity.end() - 1);
  std::vector<size_t> repeated = identity;
  repeated[3] = 4;
  std::vector<size_t> out_of_range = identity;
  out_of_range[5] = segments.size();
  for (const auto& order : {short_order, repeated, out_of_range}) {
    EXPECT_EQ(store.Permuted(order).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(store.Permuted(identity).ok());
  EXPECT_EQ(store.chunk_faults(), 0u);
}

// ---------------------------------------------------------------------------
// SegmentStore::FromSegments — the explicit freeze.
// ---------------------------------------------------------------------------

TEST(SegmentStoreFactoryTest, FromSegmentsEqualsTheConstructor) {
  const auto segments = RandomSegments(31, /*seed=*/9);
  const SegmentStore via_ctor(segments);
  const SegmentStore via_factory = SegmentStore::FromSegments(segments);
  ExpectStoresIdentical(via_factory, via_ctor);
}

}  // namespace
}  // namespace traclus::traj
