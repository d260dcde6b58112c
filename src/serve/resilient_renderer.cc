#include "serve/resilient_renderer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "progressive/progressive.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
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

// A brownout cap below the certified tier strips the certificate: the frame
// is still served, but must not claim an ε guarantee it was not allowed to
// earn.
void ClampTier(const ResilientRenderOptions& opts, RenderOutcome* outcome) {
  if (opts.max_tier == QualityTier::kProgressive &&
      outcome->tier == QualityTier::kCertified) {
    outcome->tier = QualityTier::kProgressive;
    outcome->certified_eps = -1.0;
  }
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
        evaluator_->tree().points(), evaluator_->params(), domain, opts);
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
  // The serve tier renders the same coarse surface many times per epoch
  // (brownouts, degradations, scrubber baselines); precompute makes every
  // render after the first cache fill O(pixels) instead of O(data). The
  // table build costs grid^2 cell evaluations vs pixels per direct frame
  // (both O(occupied) per evaluation), so it pays for itself after
  // ~grid^2/pixels frames — enabled only when that break-even is a handful
  // of frames, so small frames against a fine grid never stall a brownout
  // burst behind a table build they would not amortize.
  GridKde::Options coarse_opts = opts.coarse;
  const long pixels = static_cast<long>(grid.width()) * grid.height();
  const long cells = static_cast<long>(coarse_opts.grid_size) *
                     static_cast<long>(coarse_opts.grid_size);
  coarse_opts.precompute = pixels * 8 >= cells;
  std::shared_ptr<const GridKde> approx =
      CoarseKde(grid.domain(), coarse_opts);
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
  // Browned out below the refinement tiers: the coarse path is the ladder.
  if (opts.max_tier == QualityTier::kCoarse ||
      opts.max_tier == QualityTier::kFlat) {
    return RenderCoarseOnly(grid, opts);
  }

  RenderOutcome outcome;
  outcome.frame = DensityFrame(grid.width(), grid.height());

  if (Cancelled(opts)) {
    outcome.cancelled = true;
    RecordFault(&outcome, CancelledError("render cancelled before start"));
    Finalize(opts, &outcome);
    return outcome;
  }

  Status injected = KDV_FAILPOINT_STATUS("serve.render");
  if (!injected.ok()) {
    RecordFault(&outcome, injected);
    if (opts.degrade) RenderCoarse(grid, opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  // A zero budget is treated as already expired: skip the certified path.
  const bool pre_expired = opts.budget_seconds == 0.0;
  if (pre_expired) {
    outcome.deadline_expired = true;
    if (!opts.degrade) {
      RecordFault(&outcome,
                  DeadlineExceededError("render budget exhausted (0s)"));
      Finalize(opts, &outcome);
      return outcome;
    }
    RenderCoarse(grid, opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  // Certified path: progressive quad-tree refinement under the deadline.
  Deadline deadline(opts.budget_seconds > 0.0 ? opts.budget_seconds : 0.0);
  QueryControl control;
  if (opts.budget_seconds > 0.0) control.deadline = &deadline;
  control.cancel = opts.cancel;
  control.force_cancel = opts.force_cancel;
  control.heartbeat = opts.heartbeat;

  // Tiled certified attempt: a tile-parallel εKDV frame on the same
  // deadline. A clean completion is a certificate; anything cut short falls
  // through to the serial progressive ladder below (sharing the deadline, so
  // total budget is still honored). Taken when there is genuine fan-out
  // (a pool and >1 threads) OR when tile-shared refinement is on — the
  // shared region pass is a work reduction, not a parallelism play, so it
  // pays at one thread too (the renderer runs chunks inline on a null pool).
  // Skipped under a progressive brownout cap: the attempt exists to win a
  // certificate this render may not claim, and skipping it keeps the shared
  // tile pool free for full-tier requests.
  BatchStats parallel_stats;
  const bool tried_parallel =
      opts.max_tier == QualityTier::kCertified &&
      (opts.parallel.tile_shared ||
       (opts.tile_pool != nullptr &&
        ResolveRenderThreads(opts.parallel.num_threads) > 1));
  if (tried_parallel) {
    // The tiled attempt materializes a second full frame alongside the
    // outcome's; charge it for as long as both are alive.
    ScopedMemCharge pframe_charge(
        &MemBudget::Global(), MemSource::kFrameBuffers,
        static_cast<uint64_t>(grid.width()) *
            static_cast<uint64_t>(grid.height()) * sizeof(double));
    RenderOptions parallel_opts = opts.parallel;
    if (parallel_opts.tile_shared && parallel_opts.frontier_cache == nullptr) {
      parallel_opts.frontier_cache = &frontier_cache_;
    }
    Timer attempt_timer;
    DensityFrame pframe =
        RenderEpsFrameParallel(*evaluator_, grid, opts.eps, parallel_opts,
                               opts.tile_pool, control, &parallel_stats);
    // Split the attempt between the shared region passes (tile_seconds, CPU
    // time summed by the tile workers) and everything else, which is the
    // per-pixel refinement work.
    const double attempt_seconds = attempt_timer.ElapsedSeconds();
    const double refine_seconds =
        std::max(0.0, attempt_seconds - parallel_stats.tile_seconds);
    if (opts.trace != nullptr) {
      opts.trace->AddStage(obs::TraceStage::kTilePass,
                           parallel_stats.tile_seconds);
      opts.trace->AddStage(obs::TraceStage::kRefinement, refine_seconds);
    }
    RenderObs::Get().tile_pass_seconds->Record(parallel_stats.tile_seconds);
    RenderObs::Get().refinement_seconds->Record(refine_seconds);
    outcome.numeric_faults += parallel_stats.numeric_faults;
    outcome.deadline_expired |= parallel_stats.deadline_expired;
    outcome.cancelled |= parallel_stats.cancelled;

    if (parallel_stats.cancelled) {
      outcome.stats = parallel_stats;
      outcome.frame = std::move(pframe);
      outcome.tier = parallel_stats.queries > 0 ? QualityTier::kProgressive
                                                : QualityTier::kFlat;
      RecordFault(&outcome, CancelledError("render cancelled"));
      Finalize(opts, &outcome);
      return outcome;
    }
    if (!parallel_stats.status.ok()) {
      // Internal/injected fault in the parallel certified path: same
      // degradation (and breaker/retry visibility) as a serial-path fault.
      outcome.stats = parallel_stats;
      RecordFault(&outcome, parallel_stats.status);
      if (opts.degrade) RenderCoarse(grid, opts, &outcome);
      Finalize(opts, &outcome);
      return outcome;
    }
    if (parallel_stats.completed) {
      outcome.stats = parallel_stats;
      outcome.frame = std::move(pframe);
      if (parallel_stats.numeric_faults == 0) {
        outcome.tier = QualityTier::kCertified;
        outcome.certified_eps = opts.eps;
      } else {
        // Fully painted but clamped somewhere: usable, no certificate.
        outcome.tier = QualityTier::kProgressive;
      }
      Finalize(opts, &outcome);
      return outcome;
    }
    // Deadline fired mid-frame: the tiled frame has unclaimed holes; let the
    // progressive ladder paint a complete (coarser) one on what remains.
  }

  Timer prog_timer;
  ProgressiveResult prog = RenderProgressive(
      *evaluator_, grid, opts.eps, control,
      QuadTreeSchedule(grid.width(), grid.height()));
  const double prog_seconds = prog_timer.ElapsedSeconds();
  if (opts.trace != nullptr) {
    opts.trace->AddStage(obs::TraceStage::kRefinement, prog_seconds);
  }
  RenderObs::Get().refinement_seconds->Record(prog_seconds);
  outcome.stats = prog.stats;
  // Work spent in the abandoned tiled attempt (including its tile pass and
  // any frontier-cache hit) still counts.
  if (tried_parallel) AddWorkCounters(parallel_stats, &outcome.stats);
  outcome.numeric_faults += prog.numeric_faults;
  outcome.deadline_expired |= prog.deadline_expired;
  outcome.cancelled |= prog.cancelled;

  if (prog.cancelled) {
    // A cancelled request is never "served": keep whatever frame exists but
    // report the cancellation.
    outcome.frame = std::move(prog.frame);
    outcome.tier = prog.pixels_evaluated > 0 ? QualityTier::kProgressive
                                             : QualityTier::kFlat;
    RecordFault(&outcome, CancelledError("render cancelled"));
    Finalize(opts, &outcome);
    return outcome;
  }

  if (!prog.status.ok()) {
    // Internal/injected fault in the certified path.
    RecordFault(&outcome, prog.status);
    if (opts.degrade) RenderCoarse(grid, opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  if (prog.completed && prog.numeric_faults == 0) {
    outcome.frame = std::move(prog.frame);
    outcome.tier = QualityTier::kCertified;
    outcome.certified_eps = opts.eps;
    ClampTier(opts, &outcome);
    Finalize(opts, &outcome);
    return outcome;
  }

  if (prog.completed || prog.pixels_evaluated > 0) {
    // Fully painted but either clamped somewhere or cut short: a usable
    // frame without a certificate.
    outcome.frame = std::move(prog.frame);
    outcome.tier = QualityTier::kProgressive;
    if (outcome.deadline_expired && !opts.degrade) {
      RecordFault(&outcome, DeadlineExceededError("render budget exhausted"));
    }
    Finalize(opts, &outcome);
    return outcome;
  }

  // Deadline fired before a single pixel was refined.
  if (!opts.degrade) {
    RecordFault(&outcome, DeadlineExceededError("render budget exhausted"));
    Finalize(opts, &outcome);
    return outcome;
  }
  RenderCoarse(grid, opts, &outcome);
  Finalize(opts, &outcome);
  return outcome;
}

}  // namespace kdv
