// FrameCache: the per-epoch LRU cache of finished εKDV frames
// (serve/frame_cache.h). Covers LRU order, capacity (the default 16, 1 and
// the disabled 0), every key field, same-key replacement, the MemBudget
// charge each entry holds, and concurrent Lookup/Insert.
#include "serve/frame_cache.h"

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace kdv {
namespace {

FrameKey KeyFor(double eps) {
  FrameKey key;
  key.width = 4;
  key.height = 3;
  key.hi0 = 1.0;
  key.hi1 = 1.0;
  key.eps = eps;
  key.tile_shared = true;
  key.tile_rows = 16;
  return key;
}

// A 4x3 frame whose every pixel is `fill`, so a hit names its insert.
std::shared_ptr<const DensityFrame> FrameWith(double fill) {
  return std::make_shared<const DensityFrame>(4, 3, fill);
}

TEST(FrameCacheTest, LookupMissesOnEmptyCache) {
  FrameCache cache;
  EXPECT_EQ(cache.Lookup(KeyFor(0.05)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FrameCacheTest, InsertThenLookupHits) {
  FrameCache cache;
  const FrameKey key = KeyFor(0.05);
  cache.Insert(key, FrameWith(3.0));
  std::shared_ptr<const DensityFrame> frame = cache.Lookup(key);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->values, std::vector<double>(12, 3.0));
}

// A frame depends on every key field: changing any one of them must miss.
TEST(FrameCacheTest, KeyDiffersByEveryField) {
  const std::vector<std::function<void(FrameKey*)>> changes = {
      [](FrameKey* k) { k->width = 5; },
      [](FrameKey* k) { k->height = 4; },
      [](FrameKey* k) { k->lo0 = -0.5; },
      [](FrameKey* k) { k->lo1 = -0.5; },
      [](FrameKey* k) { k->hi0 = 2.0; },
      [](FrameKey* k) { k->hi1 = 2.0; },
      [](FrameKey* k) { k->eps = 0.1; },
      [](FrameKey* k) { k->tile_shared = false; },
      [](FrameKey* k) { k->tile_rows = 8; },
  };
  for (size_t i = 0; i < changes.size(); ++i) {
    FrameCache cache;
    cache.Insert(KeyFor(0.05), FrameWith(1.0));
    FrameKey other = KeyFor(0.05);
    changes[i](&other);
    EXPECT_EQ(cache.Lookup(other), nullptr) << "field " << i;
    EXPECT_NE(cache.Lookup(KeyFor(0.05)), nullptr) << "field " << i;
  }
}

TEST(FrameCacheTest, KeyOfReadsGridAndOptions) {
  Rect domain(2);
  domain.set_lo(0, -1.0);
  domain.set_hi(0, 2.0);
  domain.set_lo(1, -3.0);
  domain.set_hi(1, 4.0);
  RenderOptions options;
  options.tile_shared = true;
  options.tile_rows = 5;
  options.num_threads = 8;  // not part of the key
  const FrameKey key = FrameKey::Of(PixelGrid(7, 6, domain), 0.02, options);
  EXPECT_EQ(key.width, 7);
  EXPECT_EQ(key.height, 6);
  EXPECT_EQ(key.lo0, -1.0);
  EXPECT_EQ(key.hi0, 2.0);
  EXPECT_EQ(key.lo1, -3.0);
  EXPECT_EQ(key.hi1, 4.0);
  EXPECT_EQ(key.eps, 0.02);
  EXPECT_TRUE(key.tile_shared);
  EXPECT_EQ(key.tile_rows, 5);
  options.num_threads = 1;
  EXPECT_EQ(FrameKey::Of(PixelGrid(7, 6, domain), 0.02, options), key);
}

TEST(FrameCacheTest, SameKeyInsertReplaces) {
  FrameCache cache(2);
  const FrameKey key = KeyFor(0.05);
  cache.Insert(key, FrameWith(1.0));
  cache.Insert(key, FrameWith(2.0));
  std::shared_ptr<const DensityFrame> frame = cache.Lookup(key);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->values[0], 2.0);
  // Replacement must not take a second slot: another key still fits
  // without evicting the replaced entry.
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(KeyFor(0.1), FrameWith(9.0));
  EXPECT_NE(cache.Lookup(key), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(0.1)), nullptr);
}

TEST(FrameCacheTest, EvictsLeastRecentlyUsed) {
  FrameCache cache(2);
  const FrameKey a = KeyFor(0.01);
  const FrameKey b = KeyFor(0.02);
  const FrameKey c = KeyFor(0.03);
  cache.Insert(a, FrameWith(1.0));
  cache.Insert(b, FrameWith(2.0));
  // Touch `a` so `b` becomes the least recently used entry.
  ASSERT_NE(cache.Lookup(a), nullptr);
  cache.Insert(c, FrameWith(3.0));
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
}

// The default capacity holds sixteen viewports; the seventeenth evicts the
// oldest.
TEST(FrameCacheTest, DefaultCapacityIsSixteen) {
  FrameCache cache;
  for (int i = 0; i < 16; ++i) {
    cache.Insert(KeyFor(0.01 * (i + 1)), FrameWith(i));
  }
  EXPECT_EQ(cache.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(cache.Lookup(KeyFor(0.01 * (i + 1))), nullptr) << i;
  }
  cache.Insert(KeyFor(0.5), FrameWith(16.0));
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.Lookup(KeyFor(0.01)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(0.02)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(0.5)), nullptr);
}

TEST(FrameCacheTest, CapacityOneKeepsNewestOnly) {
  FrameCache cache(1);
  cache.Insert(KeyFor(0.01), FrameWith(1.0));
  cache.Insert(KeyFor(0.02), FrameWith(2.0));
  EXPECT_EQ(cache.Lookup(KeyFor(0.01)), nullptr);
  std::shared_ptr<const DensityFrame> frame = cache.Lookup(KeyFor(0.02));
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->values[0], 2.0);
}

TEST(FrameCacheTest, CapacityZeroDisablesCache) {
  MemBudget budget;
  FrameCache cache(0, &budget);
  const FrameKey key = KeyFor(0.05);
  cache.Insert(key, FrameWith(1.0));  // must not crash, must not store
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, FrameWith(2.0));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(FrameCacheTest, NullFrameInsertIsIgnored) {
  FrameCache cache;
  cache.Insert(KeyFor(0.05), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(0.05)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// Every entry charges its pixels under kFrameBuffers: replacing keeps one
// charge, eviction and destruction release it.
TEST(FrameCacheTest, EntriesChargeTheMemBudget) {
  MemBudget budget;
  const uint64_t frame_bytes = 12 * sizeof(double);
  {
    FrameCache cache(2, &budget);
    cache.Insert(KeyFor(0.01), FrameWith(1.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), frame_bytes);
    cache.Insert(KeyFor(0.01), FrameWith(2.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), frame_bytes);
    cache.Insert(KeyFor(0.02), FrameWith(3.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), 2 * frame_bytes);
    cache.Insert(KeyFor(0.03), FrameWith(4.0));  // evicts 0.01
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), 2 * frame_bytes);
    EXPECT_EQ(budget.used_bytes(), 2 * frame_bytes);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
}

// Hammer one cache from several threads: interleaved Insert/Lookup over a
// key space larger than the capacity, checking only invariants that hold
// under any interleaving (no race under TSan, no torn or crossed entries:
// a hit returns the frame some thread inserted for that key).
TEST(FrameCacheTest, ConcurrentLookupInsert) {
  MemBudget budget;
  FrameCache cache(4, &budget);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int slot = (t + i) % 8;  // 8 keys over 4 entries
        const FrameKey key = KeyFor(0.01 * (slot + 1));
        if (i % 3 == 0) {
          cache.Insert(key, FrameWith(static_cast<double>(slot)));
        } else if (std::shared_ptr<const DensityFrame> frame =
                       cache.Lookup(key)) {
          hits.fetch_add(1);
          for (double v : frame->values) {
            ASSERT_EQ(v, static_cast<double>(slot));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(budget.used_bytes(), 4 * 12 * sizeof(double));
}

}  // namespace
}  // namespace kdv
