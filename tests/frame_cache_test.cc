// FrameCache: the per-epoch LRU cache of finished εKDV frames
// (serve/frame_cache.h). Covers LRU order, capacity (the default 16, 1 and
// the disabled 0), every key field, ε matching (a looser request hits a
// tighter entry, never the reverse), same-key replacement, the MemBudget
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

// The key of viewport `i` at ε = 0.05: viewports differ in their domain.
FrameKey ViewKey(int i) {
  FrameKey key = KeyFor(0.05);
  key.lo0 = -static_cast<double>(i);
  return key;
}

// A 4x3 frame whose every pixel is `fill`, so a hit names its insert.
std::shared_ptr<const DensityFrame> FrameWith(double fill) {
  return std::make_shared<const DensityFrame>(4, 3, fill);
}

TEST(FrameCacheTest, LookupMissesOnEmptyCache) {
  FrameCache cache;
  EXPECT_FALSE(cache.Lookup(KeyFor(0.05)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FrameCacheTest, InsertThenLookupHits) {
  FrameCache cache;
  const FrameKey key = KeyFor(0.05);
  cache.Insert(key, FrameWith(3.0));
  const FrameCache::Hit hit = cache.Lookup(key);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.frame->values, std::vector<double>(12, 3.0));
  EXPECT_EQ(hit.eps, 0.05);
}

// A frame depends on every key field but ε: changing any one of them must
// miss, at the entry's ε and at a looser one.
TEST(FrameCacheTest, KeyDiffersByEveryField) {
  const std::vector<std::function<void(FrameKey*)>> changes = {
      [](FrameKey* k) { k->width = 5; },
      [](FrameKey* k) { k->height = 4; },
      [](FrameKey* k) { k->lo0 = -0.5; },
      [](FrameKey* k) { k->lo1 = -0.5; },
      [](FrameKey* k) { k->hi0 = 2.0; },
      [](FrameKey* k) { k->hi1 = 2.0; },
      [](FrameKey* k) { k->tile_shared = false; },
      [](FrameKey* k) { k->tile_rows = 8; },
  };
  for (size_t i = 0; i < changes.size(); ++i) {
    FrameCache cache;
    cache.Insert(KeyFor(0.05), FrameWith(1.0));
    for (double eps : {0.05, 0.15}) {
      FrameKey other = KeyFor(eps);
      changes[i](&other);
      EXPECT_FALSE(cache.Lookup(other)) << "field " << i << " eps " << eps;
    }
    EXPECT_TRUE(cache.Lookup(KeyFor(0.05))) << "field " << i;
  }
}

// A frame certified at ε' holds for every ε >= ε': a looser request hits a
// tighter entry and ships with the entry's ε; a tighter request misses a
// looser one.
TEST(FrameCacheTest, LooserRequestHitsTighterEntryNeverTheReverse) {
  FrameCache cache;
  cache.Insert(KeyFor(0.05), FrameWith(5.0));
  FrameCache::Hit hit = cache.Lookup(KeyFor(0.15));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.eps, 0.05);
  EXPECT_EQ(hit.frame->values[0], 5.0);
  EXPECT_FALSE(cache.Lookup(KeyFor(0.04)));

  // With both a tight and a loose entry, the tightest answer wins.
  cache.Insert(KeyFor(0.01), FrameWith(1.0));
  hit = cache.Lookup(KeyFor(0.15));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.eps, 0.01);
  EXPECT_EQ(hit.frame->values[0], 1.0);
  hit = cache.Lookup(KeyFor(0.04));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.eps, 0.01);
  EXPECT_EQ(cache.size(), 2u);
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
  const FrameKey key = ViewKey(0);
  cache.Insert(key, FrameWith(1.0));
  cache.Insert(key, FrameWith(2.0));
  const FrameCache::Hit hit = cache.Lookup(key);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.frame->values[0], 2.0);
  // Replacement must not take a second slot: another key still fits
  // without evicting the replaced entry.
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(ViewKey(1), FrameWith(9.0));
  EXPECT_TRUE(cache.Lookup(key));
  EXPECT_TRUE(cache.Lookup(ViewKey(1)));
}

TEST(FrameCacheTest, EvictsLeastRecentlyUsed) {
  FrameCache cache(2);
  const FrameKey a = ViewKey(1);
  const FrameKey b = ViewKey(2);
  const FrameKey c = ViewKey(3);
  cache.Insert(a, FrameWith(1.0));
  cache.Insert(b, FrameWith(2.0));
  // Touch `a` so `b` becomes the least recently used entry.
  ASSERT_TRUE(cache.Lookup(a));
  cache.Insert(c, FrameWith(3.0));
  EXPECT_TRUE(cache.Lookup(a));
  EXPECT_FALSE(cache.Lookup(b));
  EXPECT_TRUE(cache.Lookup(c));
}

// The default capacity holds sixteen viewports; the seventeenth evicts the
// oldest.
TEST(FrameCacheTest, DefaultCapacityIsSixteen) {
  FrameCache cache;
  for (int i = 0; i < 16; ++i) cache.Insert(ViewKey(i), FrameWith(i));
  EXPECT_EQ(cache.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(cache.Lookup(ViewKey(i))) << i;
  cache.Insert(ViewKey(16), FrameWith(16.0));
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_FALSE(cache.Lookup(ViewKey(0)));
  EXPECT_TRUE(cache.Lookup(ViewKey(1)));
  EXPECT_TRUE(cache.Lookup(ViewKey(16)));
}

TEST(FrameCacheTest, CapacityOneKeepsNewestOnly) {
  FrameCache cache(1);
  cache.Insert(ViewKey(1), FrameWith(1.0));
  cache.Insert(ViewKey(2), FrameWith(2.0));
  EXPECT_FALSE(cache.Lookup(ViewKey(1)));
  const FrameCache::Hit hit = cache.Lookup(ViewKey(2));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.frame->values[0], 2.0);
}

TEST(FrameCacheTest, CapacityZeroDisablesCache) {
  MemBudget budget;
  FrameCache cache(0, &budget);
  const FrameKey key = KeyFor(0.05);
  cache.Insert(key, FrameWith(1.0));  // must not crash, must not store
  EXPECT_FALSE(cache.Lookup(key));
  cache.Insert(key, FrameWith(2.0));
  EXPECT_FALSE(cache.Lookup(key));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(FrameCacheTest, NullFrameInsertIsIgnored) {
  FrameCache cache;
  cache.Insert(KeyFor(0.05), nullptr);
  EXPECT_FALSE(cache.Lookup(KeyFor(0.05)));
  EXPECT_EQ(cache.size(), 0u);
}

// Every entry charges its pixels under kFrameBuffers: replacing keeps one
// charge, eviction and destruction release it.
TEST(FrameCacheTest, EntriesChargeTheMemBudget) {
  MemBudget budget;
  const uint64_t frame_bytes = 12 * sizeof(double);
  {
    FrameCache cache(2, &budget);
    cache.Insert(ViewKey(1), FrameWith(1.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), frame_bytes);
    cache.Insert(ViewKey(1), FrameWith(2.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), frame_bytes);
    cache.Insert(ViewKey(2), FrameWith(3.0));
    EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), 2 * frame_bytes);
    cache.Insert(ViewKey(3), FrameWith(4.0));  // evicts viewport 1
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
        const FrameKey key = ViewKey(slot);
        if (i % 3 == 0) {
          cache.Insert(key, FrameWith(static_cast<double>(slot)));
        } else if (const FrameCache::Hit hit = cache.Lookup(key)) {
          hits.fetch_add(1);
          for (double v : hit.frame->values) {
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
