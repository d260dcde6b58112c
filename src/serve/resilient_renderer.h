// Resilient render front-end: QUAD under a budget, with graceful degradation.
//
// Every render makes at most one certified attempt: a whole εKDV frame
// through the frame driver (RenderEpsFrameParallel, viz/parallel_render.h)
// on the request's deadline. What ships depends on how that attempt ends:
//
//   1. kCertified    the attempt completed: every pixel within the
//                    requested ε. A viewport the renderer has already
//                    rendered cleanly ships from its frame cache instead
//                    (serve/frame_cache.h), at the tier a completed attempt
//                    would get.
//   2. kProgressive  the attempt completed, but without a certificate:
//                    some pixel was clamped by numeric hardening, or a
//                    brownout cap (max_tier) forbade the claim.
//   3. kCoarse       the attempt was cut short (deadline, injected fault)
//                    or skipped (zero budget, brownout to coarse): the
//                    stand-in, the same frame driver at ε_c =
//                    kCoarseEpsMultiple·ε, caller-only, on the attempt's
//                    tokens and heartbeat but no deadline of its own, or a
//                    cached frame certified at ε_c or tighter.
//   4. kFlat         all-zero frame. Returned when the stand-in faults or
//                    clamps a pixel, and for cancelled or fail-fast renders
//                    that did not complete.
//
// A cut-short attempt never ships its partial frame: its unclaimed pixels
// carry no value at all.
//
// Invariants, whatever happens inside:
//   * The returned frame always has the requested dimensions and only
//     finite values (ScrubNonFinite is the last line of defense).
//   * Cancellation, of the attempt or of the stand-in, always yields a
//     non-OK kCancelled status: a cancelled request must not be mistaken
//     for a served one.
//   * In fail-fast mode (degrade = false) a missed deadline yields a non-OK
//     kDeadlineExceeded status instead of a lower tier.
#ifndef QUADKDV_SERVE_RESILIENT_RENDERER_H_
#define QUADKDV_SERVE_RESILIENT_RENDERER_H_

#include <cstdint>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "obs/trace.h"
#include "serve/frame_cache.h"
#include "serve/watchdog.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Quality tier actually delivered, best (certified bounds) to worst (flat).
enum class QualityTier {
  kCertified,
  kProgressive,
  kCoarse,
  kFlat,
};

// Human-readable tier name ("certified", "progressive", ...).
const char* QualityTierName(QualityTier tier);

struct ResilientRenderOptions {
  double eps = 0.05;  // εKDV target for the certified path

  // Wall-clock budget. < 0: no deadline (run to completion). == 0: treated
  // as already expired — the certified path is skipped entirely.
  double budget_seconds = -1.0;

  // true: walk the degradation ladder on deadline/fault. false: fail fast
  // with a non-OK status (kdvtool --on-deadline=fail).
  bool degrade = true;

  // Optional cooperative cancellation; may outlive the call.
  const CancelToken* cancel = nullptr;

  // Optional render-watchdog entry (serve/watchdog.h). Its kill token is a
  // second kill switch, polled and reported like `cancel`, and its
  // heartbeat is bumped at every poll, so the watchdog can tell "slow" from
  // "wedged". The stand-in releases its budget when it starts.
  WatchEntry* watch = nullptr;

  // Best tier the render is allowed to claim/attempt — the brownout
  // governor's lever. kCertified (default): full ladder. kProgressive: the
  // attempt runs caller-only (tile_pool unused) and a completed frame ships
  // as kProgressive with no ε certificate (the refinement work still honors
  // `eps`, which the governor raises alongside this cap). kCoarse or
  // kFlat: straight to the stand-in, as RenderCoarseOnly.
  QualityTier max_tier = QualityTier::kCertified;

  // Frame-driver options of the certified attempt (and the stand-in), and
  // its helper pool. Helpers come from `tile_pool` when `parallel.num_threads` resolves above
  // 1; otherwise the calling thread renders alone. `parallel.tile_shared`
  // is a work reduction, so it pays single-threaded too. The pool is
  // borrowed, never owned, and must outlive the call. `parallel.tile_shared`
  // and `parallel.tile_rows` are part of the frame cache key.
  RenderOptions parallel;
  Executor* tile_pool = nullptr;

  // Optional per-request trace span (obs/trace.h). When set, the renderer
  // attributes its time to the tile_pass / refinement / coarse / scrub
  // stages. Borrowed; must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

struct RenderOutcome {
  DensityFrame frame;  // always sized to the grid, always finite
  QualityTier tier = QualityTier::kFlat;

  // ε actually certified for every pixel of the frame (a cached frame's may
  // be tighter than asked); < 0 on kProgressive and kFlat.
  double certified_eps = -1.0;

  bool deadline_expired = false;
  bool cancelled = false;
  uint64_t numeric_faults = 0;   // pixel envelopes clamped by hardening
  uint64_t pixels_scrubbed = 0;  // non-finite pixels zeroed at the end

  // First fault encountered. OK for a clean (possibly degraded-by-deadline)
  // render; non-OK for cancellation, fail-fast deadline misses, and
  // internal/injected faults (which may still ship a degraded frame).
  Status status = OkStatus();

  // Stats of the certified attempt, cut short or not (zeroed if it was
  // skipped). A cached frame with no attempt before it refined nothing:
  // stats.frontier_cache_hits is 1 and every work counter 0.
  BatchStats stats;

  // Whether the render's last frame-cache lookup (the attempt's, else the
  // stand-in's) missed or shipped the frame. kSkipped when none ran.
  enum class Cache { kSkipped, kMiss, kHit };
  Cache cache = Cache::kSkipped;
  bool from_cache() const { return cache == Cache::kHit; }
  // Served from the cache, with no attempt run and no stand-in rendered.
  bool refined_nothing() const { return stats.frontier_cache_hits > 0; }

  bool ok() const { return status.ok(); }
};

// Thread safety: the evaluator, its KdTree, and its bound profiles are all
// immutable after construction, and the frame cache is synchronized, so
// every Render* method may be called concurrently from any number of
// threads on one shared instance (the property the concurrent
// RenderService in serve/render_service.h relies on).
class ResilientRenderer {
 public:
  // ε_c / ε: the largest integer multiple that keeps CoarseTierTest's
  // average-error bound (DESIGN.md §7).
  static constexpr double kCoarseEpsMultiple = 3.0;

  // `evaluator` must outlive the renderer. `clock` times the certified
  // attempt's deadline: a RenderService passes its own clock, so the
  // attempt and the request's queue deadline read one time source. Null
  // uses CurrentClock() at each render. Borrowed; must outlive the renderer.
  explicit ResilientRenderer(const KdeEvaluator* evaluator,
                             const Clock* clock = nullptr);

  // Renders `grid` under `options`, never throwing and never returning a
  // non-finite pixel. See the ladder description above.
  RenderOutcome Render(const PixelGrid& grid,
                       const ResilientRenderOptions& options) const;

  // Skips the certified attempt and serves the stand-in (or flat), as
  // Render does under a coarse cap (a brownout, or a budget spent in the
  // service's queue). Honors options.cancel; same invariants as Render.
  RenderOutcome RenderCoarseOnly(const PixelGrid& grid,
                                 const ResilientRenderOptions& options) const;

  // Refines nothing: ships a cached frame of the viewport certified at ε_c
  // or tighter (kCoarse), or flat. The open breaker's short-circuit.
  RenderOutcome RenderCachedOnly(const PixelGrid& grid,
                                 const ResilientRenderOptions& options) const;

 private:
  // Fills outcome->frame with the stand-in (tier kCoarse), or leaves the
  // flat frame (tier kFlat). See the ladder above.
  void RenderCoarse(const PixelGrid& grid, const ResilientRenderOptions& opts,
                    RenderOutcome* outcome) const;

  // Looks the viewport up at `eps` and records the lookup on `outcome`. A
  // hit copies its frame into outcome->frame and returns the ε it is
  // certified at; a miss returns -1.
  double LookupCached(const PixelGrid& grid, double eps,
                      const ResilientRenderOptions& opts,
                      RenderOutcome* outcome) const;

  const KdeEvaluator* evaluator_;
  const Clock* clock_;  // null: CurrentClock() at each render

  // Finished frames of this renderer's evaluator, keyed by viewport and
  // query (serve/frame_cache.h). Internally synchronized.
  mutable FrameCache frame_cache_;
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_RESILIENT_RENDERER_H_
