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
//                    or skipped (zero budget, brownout to coarse, open
//                    breaker): a GridKde (binned convolution) frame over
//                    the viewport, with no error guarantee but a
//                    recognizable density map.
//   4. kFlat         all-zero frame. Returned when even the coarse path is
//                    unavailable (injected fault, non-2-d data), and for
//                    cancelled or fail-fast renders that did not complete.
//
// A cut-short attempt never ships its partial frame: its unclaimed pixels
// carry no value at all, and the coarse tier is the better no-guarantee
// answer.
//
// Invariants, whatever happens inside:
//   * The returned frame always has the requested dimensions and only
//     finite values (ScrubNonFinite is the last line of defense).
//   * Cancellation always yields a non-OK kCancelled status: a cancelled
//     request must not be mistaken for a served one.
//   * In fail-fast mode (degrade = false) a missed deadline yields a non-OK
//     kDeadlineExceeded status instead of a lower tier.
#ifndef QUADKDV_SERVE_RESILIENT_RENDERER_H_
#define QUADKDV_SERVE_RESILIENT_RENDERER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "approx/grid_kde.h"
#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "obs/trace.h"
#include "serve/frame_cache.h"
#include "util/cancel.h"
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

  // Second, service-owned kill switch (the render watchdog's). Checked at
  // the same poll points as `cancel` and reported identically (kCancelled);
  // kept separate so the watchdog can kill a request without sharing the
  // client's token.
  const CancelToken* force_cancel = nullptr;

  // Liveness counter bumped on every cooperative poll inside the
  // refinement loops; the watchdog reads it to tell "slow" from "wedged".
  std::atomic<uint64_t>* heartbeat = nullptr;

  // Best tier the render is allowed to claim/attempt — the brownout
  // governor's lever. kCertified (default): full ladder. kProgressive: the
  // attempt runs caller-only (tile_pool unused) and a completed frame ships
  // as kProgressive with no ε certificate (the refinement work still honors
  // `eps`, which the governor raises alongside this cap). kCoarse or
  // kFlat: straight to the GridKde fallback, as RenderCoarseOnly.
  QualityTier max_tier = QualityTier::kCertified;

  // Options for the GridKde coarse fallback.
  GridKde::Options coarse;

  // Frame-driver options of the certified attempt, and its helper pool.
  // Helpers come from `tile_pool` when `parallel.num_threads` resolves above
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

  // ε actually certified for every pixel of the frame; < 0 when the frame
  // carries no guarantee (any tier below kCertified).
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
  // skipped). A frame served from the cache did no work:
  // stats.frontier_cache_hits is 1 and every work counter 0.
  BatchStats stats;

  // Whether the certified attempt looked its viewport up in the frame cache
  // (kMiss: and rendered it), and whether the frame shipped from it (kHit).
  // kSkipped when no certified attempt started.
  enum class Cache { kSkipped, kMiss, kHit };
  Cache cache = Cache::kSkipped;
  bool from_cache() const { return cache == Cache::kHit; }

  bool ok() const { return status.ok(); }
};

// Thread safety: the evaluator, its KdTree, and its bound profiles are all
// immutable after construction, so Render/RenderCoarseOnly may be called
// concurrently from any number of threads on one shared instance (the
// property the concurrent RenderService in serve/render_service.h relies
// on). The coarse-tier GridKde is built once per (domain, options) and
// shared behind a mutex-guarded single-entry cache — a browned-out service
// serves the coarse tier for every request, and rebinning the full point
// set each time would make the "cheap" tier scale with dataset size.
class ResilientRenderer {
 public:
  // `evaluator` must outlive the renderer.
  explicit ResilientRenderer(const KdeEvaluator* evaluator);

  // Renders `grid` under `options`, never throwing and never returning a
  // non-finite pixel. See the ladder description above.
  RenderOutcome Render(const PixelGrid& grid,
                       const ResilientRenderOptions& options) const;

  // Skips the certified path entirely and serves the coarse tier (or flat
  // if unavailable). Used when the caller already knows the certified path
  // is not worth attempting: circuit breaker open, deadline spent while the
  // request sat in a queue. Honors options.cancel; same frame invariants
  // as Render.
  RenderOutcome RenderCoarseOnly(const PixelGrid& grid,
                                 const ResilientRenderOptions& options) const;

 private:
  // Fills outcome->frame from the GridKde fallback (tier kCoarse), or
  // leaves the flat frame (tier kFlat) if the fallback is unavailable.
  void RenderCoarse(const PixelGrid& grid, const ResilientRenderOptions& opts,
                    RenderOutcome* outcome) const;

  // Returns the cached GridKde for (domain, options), building it under the
  // lock on a miss so concurrent coarse renders share one build instead of
  // each paying for their own.
  std::shared_ptr<const GridKde> CoarseKde(const Rect& domain,
                                           const GridKde::Options& opts) const;

  const KdeEvaluator* evaluator_;

  // Finished frames of this renderer's evaluator, keyed by viewport and
  // query (serve/frame_cache.h). Internally synchronized.
  mutable FrameCache frame_cache_;

  mutable std::mutex coarse_mu_;
  mutable std::shared_ptr<const GridKde> coarse_cache_;
  mutable Rect coarse_domain_;          // cache key: domain...
  mutable GridKde::Options coarse_opts_;  // ...and fallback options
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_RESILIENT_RENDERER_H_
