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

// Either kill switch (client's or watchdog's) has fired.
bool Cancelled(const ResilientRenderOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->cancelled()) return true;
  return opts.force_cancel != nullptr && opts.force_cancel->cancelled();
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

std::shared_ptr<const GridKde> ResilientRenderer::CoarseKde(
    const Rect& domain, const GridKde::Options& opts) const {
  auto same_rect = [](const Rect& a, const Rect& b) {
    if (a.dim() != b.dim()) return false;
    for (int i = 0; i < a.dim(); ++i) {
      if (a.lo(i) != b.lo(i) || a.hi(i) != b.hi(i)) return false;
    }
    return true;
  };
  std::lock_guard<std::mutex> lock(coarse_mu_);
  if (coarse_cache_ == nullptr || !same_rect(coarse_domain_, domain) ||
      coarse_opts_.grid_size != opts.grid_size ||
      coarse_opts_.truncation != opts.truncation ||
      coarse_opts_.precompute != opts.precompute) {
    coarse_cache_ = std::make_shared<const GridKde>(
        evaluator_->tree(), evaluator_->params(), domain, opts);
    coarse_domain_ = domain;
    coarse_opts_ = opts;
  }
  return coarse_cache_;
}

void ResilientRenderer::RenderCoarse(const PixelGrid& grid,
                                     const ResilientRenderOptions& opts,
                                     RenderOutcome* outcome) const {
  obs::StageTimer coarse_stage(opts.trace, obs::TraceStage::kCoarse);
  Timer coarse_timer;
  Status injected = KDV_FAILPOINT_STATUS("serve.coarse");
  if (!injected.ok()) {
    RecordFault(outcome, injected);
    return;  // flat frame stands
  }
  // GridKde bins on a 2-d grid; higher-dimensional data has no coarse path.
  if (evaluator_->tree().dim() != 2) return;
  // GridKde skips points outside its domain, so bin over the viewport grown
  // by the truncation radius: a point farther out adds less than
  // `truncation` to any pixel in view.
  GridKde::Options coarse_opts = opts.coarse;
  const double radius =
      TruncationRadius(evaluator_->params(), coarse_opts.truncation);
  Rect domain = grid.domain();
  for (int axis = 0; axis < 2; ++axis) {
    domain.set_lo(axis, domain.lo(axis) - radius);
    domain.set_hi(axis, domain.hi(axis) + radius);
  }
  // The serve tier renders the same coarse surface many times per epoch
  // (brownouts, degradations, scrubber baselines); precompute makes every
  // render after the first cache fill O(pixels) instead of O(data). The
  // table build costs grid^2 cell evaluations vs pixels per direct frame
  // (both O(occupied) per evaluation), so it pays for itself after
  // ~grid^2/pixels frames — enabled only when that break-even is a handful
  // of frames, so small frames against a fine grid never stall a brownout
  // burst behind a table build they would not amortize.
  const long pixels = static_cast<long>(grid.width()) * grid.height();
  const long cells = static_cast<long>(coarse_opts.grid_size) *
                     static_cast<long>(coarse_opts.grid_size);
  coarse_opts.precompute = pixels * 8 >= cells;
  std::shared_ptr<const GridKde> approx = CoarseKde(domain, coarse_opts);
  outcome->frame = approx->RenderFrame(grid);
  outcome->tier = QualityTier::kCoarse;
  RenderObs::Get().coarse_seconds->Record(coarse_timer.ElapsedSeconds());
}

RenderOutcome ResilientRenderer::RenderCoarseOnly(
    const PixelGrid& grid, const ResilientRenderOptions& opts) const {
  RenderOutcome outcome;
  outcome.frame = DensityFrame(grid.width(), grid.height());
  if (Cancelled(opts)) {
    outcome.cancelled = true;
    RecordFault(&outcome, CancelledError("render cancelled before start"));
    Finalize(opts, &outcome);
    return outcome;
  }
  RenderCoarse(grid, opts, &outcome);
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
    if (!injected.ok()) {
      RecordFault(&outcome, injected);
    } else {
      outcome.deadline_expired = true;
      if (!opts.degrade) {
        RecordFault(&outcome,
                    DeadlineExceededError("render budget exhausted (0s)"));
      }
    }
    if (opts.degrade) RenderCoarse(grid, opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  // The certified attempt: one εKDV frame through the frame driver, on the
  // deadline. A brownout cap below kCertified runs it caller-only, so the
  // shared tile pool stays free for full-tier requests.
  Deadline deadline(opts.budget_seconds > 0.0 ? opts.budget_seconds : 0.0);
  QueryControl control;
  if (opts.budget_seconds > 0.0) control.deadline = &deadline;
  control.cancel = opts.cancel;
  control.force_cancel = opts.force_cancel;
  control.heartbeat = opts.heartbeat;
  RenderOptions parallel_opts = opts.parallel;
  if (parallel_opts.tile_shared && parallel_opts.frontier_cache == nullptr) {
    parallel_opts.frontier_cache = &frontier_cache_;
  }
  Executor* pool =
      opts.max_tier == QualityTier::kCertified ? opts.tile_pool : nullptr;
  Timer attempt_timer;
  outcome.frame = RenderEpsFrameParallel(*evaluator_, grid, opts.eps,
                                         parallel_opts, pool, control,
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
    // Every pixel is painted. Clamped pixels, or a brownout cap below the
    // certified tier, strip the certificate: the frame still ships, but
    // claims no ε.
    if (stats.numeric_faults == 0 &&
        opts.max_tier == QualityTier::kCertified) {
      outcome.tier = QualityTier::kCertified;
      outcome.certified_eps = opts.eps;
    } else {
      outcome.tier = QualityTier::kProgressive;
    }
    Finalize(opts, &outcome);
    return outcome;
  }

  // Cut short by a cancellation, a fault or the deadline: the frame has
  // unpainted pixels and never ships. A cancelled request is never served;
  // otherwise the coarse tier stands in (degrade) or the miss is an error.
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
