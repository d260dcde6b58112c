// Cross-request cache of finished εKDV frames, one per epoch renderer.
//
// A served viewport is often asked for again: a user pans back, a
// dashboard refreshes, many clients watch one hot spot. A completed frame
// depends only on the index, the viewport and the query parameters, so the
// repeat can be answered with a copy of the pixels instead of a second
// refinement of every pixel. ResilientRenderer owns one FrameCache; the
// serve layer keeps one renderer per epoch, so a hot-swapped index
// generation starts with an empty cache and can never be served a frame of
// its predecessor.
//
// Only frames that completed with zero numeric faults and an OK status are
// inserted (ResilientRenderer decides); a hit therefore carries the
// guarantee of the render it copies. A frame certified at ε' answers any
// request for its viewport and mode at ε ≥ ε': a looser request hits a
// tighter entry, and ships with the entry's ε.
//
// Thread safety: all operations take an internal mutex; cached frames are
// immutable (shared_ptr<const DensityFrame>), so a hit is copied out
// without holding the lock. Eviction is LRU over a small fixed capacity:
// the working set is the viewports currently being served. Every entry
// charges its pixel buffer to a MemBudget under kFrameBuffers until it is
// evicted or the cache is destroyed.
//
// The capacity must hold the hot viewports plus the fresh ones served
// between two requests for one of them, or every fresh viewport pushes a
// hot frame out. With six hot viewports taking 70% of requests in turn and
// 30% fresh (the serve_hot benchmark workload), 8 entries keep a hot frame
// until its next request only about 55% of the time, 16 nearly always.
#ifndef QUADKDV_SERVE_FRAME_CACHE_H_
#define QUADKDV_SERVE_FRAME_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/mem_budget.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Everything a completed εKDV frame depends on besides the index (which the
// owning epoch renderer stands in for). The thread count is not part of it:
// frames are bit-identical for any thread count. Doubles compare exactly: a
// viewport differing in the last ulp is a different viewport.
struct FrameKey {
  int width = 0;
  int height = 0;
  double lo0 = 0.0, lo1 = 0.0, hi0 = 0.0, hi1 = 0.0;  // the grid's domain
  double eps = 0.0;
  bool tile_shared = false;
  int tile_rows = 0;
  bool operator==(const FrameKey&) const = default;

  static FrameKey Of(const PixelGrid& grid, double eps,
                     const RenderOptions& parallel) {
    FrameKey key;
    key.width = grid.width();
    key.height = grid.height();
    key.lo0 = grid.domain().lo(0);
    key.lo1 = grid.domain().lo(1);
    key.hi0 = grid.domain().hi(0);
    key.hi1 = grid.domain().hi(1);
    key.eps = eps;
    key.tile_shared = parallel.tile_shared;
    key.tile_rows = parallel.tile_rows;
    return key;
  }
};

class FrameCache {
 public:
  static constexpr size_t kDefaultCapacity = 16;

  // capacity 0 disables the cache: Lookup always misses and Insert is a
  // no-op. `budget` may be null (no accounting).
  explicit FrameCache(size_t capacity = kDefaultCapacity,
                      MemBudget* budget = &MemBudget::Global())
      : capacity_(capacity), budget_(budget) {}

  FrameCache(const FrameCache&) = delete;
  FrameCache& operator=(const FrameCache&) = delete;

  // A lookup's answer: the cached frame (null on a miss) and its ε.
  struct Hit {
    std::shared_ptr<const DensityFrame> frame;
    double eps = 0.0;
    explicit operator bool() const { return frame != nullptr; }
  };

  // Returns the tightest cached frame whose key equals `key` but for an ε
  // no looser than key.eps, or a miss.
  Hit Lookup(const FrameKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      FrameKey asked = key;
      asked.eps = slot.key.eps;
      if (asked == slot.key && slot.key.eps <= key.eps &&
          (best == nullptr || slot.key.eps < best->key.eps)) {
        best = &slot;
      }
    }
    if (best == nullptr) return Hit();
    best->last_used = ++seq_;
    return Hit{best->frame, best->key.eps};
  }

  // Publishes a finished frame, replacing an entry with the same key or,
  // when full, the least recently used one.
  void Insert(const FrameKey& key, std::shared_ptr<const DensityFrame> frame) {
    if (frame == nullptr || capacity_ == 0) return;
    ScopedMemCharge charge(budget_, MemSource::kFrameBuffers,
                           frame->values.size() * sizeof(double));
    std::lock_guard<std::mutex> lock(mu_);
    Slot* target = nullptr;
    for (Slot& slot : slots_) {
      if (slot.key == key) {
        target = &slot;
        break;
      }
    }
    if (target == nullptr && slots_.size() < capacity_) {
      target = &slots_.emplace_back();
    }
    if (target == nullptr) {
      target = &slots_[0];
      for (Slot& slot : slots_) {
        if (slot.last_used < target->last_used) target = &slot;
      }
    }
    *target = Slot{key, std::move(frame), ++seq_, std::move(charge)};
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

 private:
  struct Slot {
    FrameKey key;
    std::shared_ptr<const DensityFrame> frame;
    uint64_t last_used = 0;
    ScopedMemCharge charge;  // the frame's pixels, released with the slot
  };

  const size_t capacity_;
  MemBudget* const budget_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  uint64_t seq_ = 0;
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_FRAME_CACHE_H_
