#include "serve/resilient_renderer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Per-render observability: stage histograms and delivered-tier counters,
// recorded once per render (never inside pixel loops).
struct RenderObs {
  obs::Histogram* tile_pass_seconds;
  obs::Histogram* refinement_seconds;
  obs::Histogram* scrub_seconds;
  obs::Histogram* coarse_seconds;
  obs::Counter* pixels_scrubbed;
  obs::Counter* tiers[4];
  RenderObs() {
    auto& r = obs::MetricsRegistry::Global();
    tile_pass_seconds = r.GetHistogram("kdv_render_tile_pass_seconds");
    refinement_seconds = r.GetHistogram("kdv_render_refinement_seconds");
    scrub_seconds = r.GetHistogram("kdv_render_scrub_seconds");
    coarse_seconds = r.GetHistogram("kdv_render_coarse_seconds");
    pixels_scrubbed = r.GetCounter("kdv_render_pixels_scrubbed_total");
    tiers[0] = r.GetCounter("kdv_render_tier_certified_total");
    tiers[1] = r.GetCounter("kdv_render_tier_progressive_total");
    tiers[2] = r.GetCounter("kdv_render_tier_coarse_total");
    tiers[3] = r.GetCounter("kdv_render_tier_flat_total");
  }
  static RenderObs& Get() {
    static RenderObs& o = *new RenderObs();
    return o;
  }
};

// Records the first non-OK status seen; later faults don't overwrite it.
void RecordFault(RenderOutcome* outcome, const Status& status) {
  if (outcome->status.ok()) outcome->status = status;
}

// Last line of defense before the frame ships: scrub non-finite pixels and
// settle the delivered-tier accounting. Every Render* exit funnels through
// here, so this is also where the render-level metrics are recorded.
void Finalize(const ResilientRenderOptions& opts, RenderOutcome* outcome) {
  Timer scrub_timer;
  outcome->pixels_scrubbed = ScrubNonFinite(&outcome->frame);
  outcome->numeric_faults += outcome->pixels_scrubbed;
  const double scrub_seconds = scrub_timer.ElapsedSeconds();
  if (opts.trace != nullptr) {
    opts.trace->AddStage(obs::TraceStage::kScrub, scrub_seconds);
  }
  RenderObs& o = RenderObs::Get();
  o.scrub_seconds->Record(scrub_seconds);
  if (outcome->pixels_scrubbed > 0) {
    o.pixels_scrubbed->Increment(outcome->pixels_scrubbed);
  }
  o.tiers[static_cast<int>(outcome->tier)]->Increment();
}

// Ships a frame with every pixel painted, rendered or copied from the frame
// cache, and certified at `eps`. Clamped pixels, or a brownout cap below the
// certified tier, strip the certificate: the frame still ships, but claims
// no ε.
void ShipCompleted(const ResilientRenderOptions& opts, double eps,
                   RenderOutcome* outcome) {
  if (outcome->numeric_faults == 0 &&
      opts.max_tier == QualityTier::kCertified) {
    outcome->tier = QualityTier::kCertified;
    outcome->certified_eps = eps;
  } else {
    outcome->tier = QualityTier::kProgressive;
  }
  Finalize(opts, outcome);
}

// Either kill switch (client's or watchdog's) has fired.
bool Cancelled(const ResilientRenderOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->cancelled()) return true;
  return opts.watch != nullptr && opts.watch->kill.cancelled();
}

// The render's kill switches and heartbeat, without a deadline.
QueryControl StopControl(const ResilientRenderOptions& opts) {
  QueryControl control;
  control.cancel = opts.cancel;
  if (opts.watch != nullptr) {
    control.force_cancel = &opts.watch->kill;
    control.heartbeat = &opts.watch->heartbeat;
  }
  return control;
}

}  // namespace

const char* QualityTierName(QualityTier tier) {
  switch (tier) {
    case QualityTier::kCertified:
      return "certified";
    case QualityTier::kProgressive:
      return "progressive";
    case QualityTier::kCoarse:
      return "coarse";
    case QualityTier::kFlat:
      return "flat";
  }
  return "unknown";
}

ResilientRenderer::ResilientRenderer(const KdeEvaluator* evaluator)
    : evaluator_(evaluator) {
  KDV_CHECK(evaluator != nullptr);
}

double ResilientRenderer::LookupCached(const PixelGrid& grid, double eps,
                                       const ResilientRenderOptions& opts,
                                       RenderOutcome* outcome) const {
  const FrameCache::Hit hit =
      frame_cache_.Lookup(FrameKey::Of(grid, eps, opts.parallel));
  if (!hit) {
    outcome->cache = RenderOutcome::Cache::kMiss;
    return -1.0;
  }
  outcome->cache = RenderOutcome::Cache::kHit;
  outcome->frame = *hit.frame;
  // Nothing was refined unless an attempt ran first: a cut-short attempt,
  // the only kind a lookup follows, leaves stats.completed false.
  if (outcome->stats.completed) outcome->stats.frontier_cache_hits = 1;
  return hit.eps;
}

void ResilientRenderer::RenderCoarse(const PixelGrid& grid,
                                     const ResilientRenderOptions& opts,
                                     RenderOutcome* outcome) const {
  obs::StageTimer coarse_stage(opts.trace, obs::TraceStage::kCoarse);
  Timer coarse_timer;
  // No deadline of its own, so the watchdog kills it only for a wedge.
  if (opts.watch != nullptr) {
    opts.watch->budget_released.store(true, std::memory_order_release);
  }
  Status injected = KDV_FAILPOINT_STATUS("serve.coarse");
  if (!injected.ok()) {
    RecordFault(outcome, injected);
    return;  // flat frame stands
  }
  const double eps = kCoarseEpsMultiple * opts.eps;
  outcome->certified_eps = LookupCached(grid, eps, opts, outcome);
  if (outcome->from_cache()) {
    outcome->tier = QualityTier::kCoarse;
    return;
  }
  BatchStats stats;
  DensityFrame frame =
      RenderEpsFrameParallel(*evaluator_, grid, eps, opts.parallel,
                             /*pool=*/nullptr, StopControl(opts), &stats);
  RenderObs::Get().coarse_seconds->Record(coarse_timer.ElapsedSeconds());
  if (stats.cancelled) {
    outcome->cancelled = true;
    RecordFault(outcome, CancelledError("render cancelled"));
    return;
  }
  RecordFault(outcome, stats.status);
  // Only a complete, clean frame certifies ε_c; anything else leaves flat.
  if (!stats.completed || !stats.status.ok() || stats.numeric_faults > 0 ||
      ScrubNonFinite(&frame) > 0) {
    return;
  }
  outcome->frame = std::move(frame);
  outcome->tier = QualityTier::kCoarse;
  outcome->certified_eps = eps;
  frame_cache_.Insert(FrameKey::Of(grid, eps, opts.parallel),
                      std::make_shared<const DensityFrame>(outcome->frame));
}

RenderOutcome ResilientRenderer::RenderCoarseOnly(
    const PixelGrid& grid, const ResilientRenderOptions& opts) const {
  RenderOutcome outcome;
  outcome.frame = DensityFrame(grid.width(), grid.height());
  if (Cancelled(opts)) {
    outcome.cancelled = true;
    RecordFault(&outcome, CancelledError("render cancelled before start"));
  } else {
    RenderCoarse(grid, opts, &outcome);
  }
  Finalize(opts, &outcome);
  return outcome;
}

RenderOutcome ResilientRenderer::RenderCachedOnly(
    const PixelGrid& grid, const ResilientRenderOptions& opts) const {
  RenderOutcome outcome;
  outcome.frame = DensityFrame(grid.width(), grid.height());
  outcome.certified_eps =
      LookupCached(grid, kCoarseEpsMultiple * opts.eps, opts, &outcome);
  if (outcome.from_cache()) outcome.tier = QualityTier::kCoarse;
  Finalize(opts, &outcome);
  return outcome;
}

RenderOutcome ResilientRenderer::Render(
    const PixelGrid& grid, const ResilientRenderOptions& opts) const {
  // Browned out below the refinement tiers, or cancelled before the start:
  // RenderCoarseOnly is the whole answer (it reports the cancellation).
  if (opts.max_tier == QualityTier::kCoarse ||
      opts.max_tier == QualityTier::kFlat || Cancelled(opts)) {
    return RenderCoarseOnly(grid, opts);
  }

  RenderOutcome outcome;
  // An injected entry fault, or a zero budget (treated as already expired),
  // skips the certified attempt.
  Status injected = KDV_FAILPOINT_STATUS("serve.render");
  if (!injected.ok() || opts.budget_seconds == 0.0) {
    outcome.frame = DensityFrame(grid.width(), grid.height());
    outcome.deadline_expired = injected.ok();
    if (!injected.ok()) {
      RecordFault(&outcome, injected);
    } else if (!opts.degrade) {
      RecordFault(&outcome,
                  DeadlineExceededError("render budget exhausted (0s)"));
    }
    if (opts.degrade) RenderCoarse(grid, opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  // A viewport this renderer has already rendered cleanly, at this ε or a
  // tighter one and this chunking, ships as a copy of that frame: no
  // refinement at all.
  const double cached_eps = LookupCached(grid, opts.eps, opts, &outcome);
  if (cached_eps >= 0.0) {
    ShipCompleted(opts, cached_eps, &outcome);
    return outcome;
  }

  // The certified attempt: one εKDV frame through the frame driver, on the
  // deadline. A brownout cap below kCertified runs it caller-only, so the
  // shared tile pool stays free for full-tier requests.
  Deadline deadline(opts.budget_seconds > 0.0 ? opts.budget_seconds : 0.0);
  QueryControl control = StopControl(opts);
  if (opts.budget_seconds > 0.0) control.deadline = &deadline;
  Executor* pool =
      opts.max_tier == QualityTier::kCertified ? opts.tile_pool : nullptr;
  Timer attempt_timer;
  outcome.frame = RenderEpsFrameParallel(*evaluator_, grid, opts.eps,
                                         opts.parallel, pool, control,
                                         &outcome.stats);
  // Split the attempt between the shared region passes (tile_seconds, CPU
  // time summed by the tile workers) and everything else, which is the
  // per-pixel refinement work.
  const BatchStats& stats = outcome.stats;
  const double attempt_seconds = attempt_timer.ElapsedSeconds();
  const double refine_seconds =
      std::max(0.0, attempt_seconds - stats.tile_seconds);
  if (opts.trace != nullptr) {
    opts.trace->AddStage(obs::TraceStage::kTilePass, stats.tile_seconds);
    opts.trace->AddStage(obs::TraceStage::kRefinement, refine_seconds);
  }
  RenderObs::Get().tile_pass_seconds->Record(stats.tile_seconds);
  RenderObs::Get().refinement_seconds->Record(refine_seconds);
  outcome.numeric_faults = stats.numeric_faults;
  outcome.deadline_expired = stats.deadline_expired;
  outcome.cancelled = stats.cancelled;

  if (stats.completed) {
    ShipCompleted(opts, opts.eps, &outcome);
    // Only a clean frame is kept for repeats: none of its pixels was
    // clamped or scrubbed, and nothing faulted.
    if (outcome.numeric_faults == 0 && stats.status.ok()) {
      frame_cache_.Insert(FrameKey::Of(grid, opts.eps, opts.parallel),
                          std::make_shared<const DensityFrame>(outcome.frame));
    }
    return outcome;
  }

  // Cut short by a cancellation, a fault or the deadline: the frame has
  // unpainted pixels and never ships. A cancelled request is never served;
  // otherwise the stand-in ships (degrade) or the miss is an error.
  std::fill(outcome.frame.values.begin(), outcome.frame.values.end(), 0.0);
  if (outcome.cancelled) {
    RecordFault(&outcome, CancelledError("render cancelled"));
  } else {
    if (!stats.status.ok()) {
      RecordFault(&outcome, stats.status);
    } else if (!opts.degrade) {
      RecordFault(&outcome, DeadlineExceededError("render budget exhausted"));
    }
    if (opts.degrade) RenderCoarse(grid, opts, &outcome);
  }
  Finalize(opts, &outcome);
  return outcome;
}

}  // namespace kdv
