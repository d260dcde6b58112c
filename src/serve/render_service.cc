#include "serve/render_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/mem_budget.h"

namespace kdv {

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

namespace {

// Transition-log cap, mirroring the governor's: observability must not grow
// memory without bound under a pathologically flapping breaker.
constexpr size_t kMaxBreakerTransitions = 1024;

}  // namespace

CircuitBreaker::CircuitBreaker(Options options, const Clock* clock)
    : options_(options), clock_(clock != nullptr ? clock : CurrentClock()) {
  KDV_CHECK(options.failure_threshold >= 1);
  KDV_CHECK(options.cooldown_seconds >= 0.0);
}

double CircuitBreaker::Now() const { return clock_->NowSeconds(); }

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::RecordTransitionLocked(double now, State from,
                                            State to) {
  transitions_.push_back({now, from, to});
  if (transitions_.size() > kMaxBreakerTransitions) {
    transitions_.erase(transitions_.begin(),
                       transitions_.begin() + (transitions_.size() -
                                               kMaxBreakerTransitions));
  }
}

bool CircuitBreaker::AllowCertified() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (Now() - opened_at_ >= options_.cooldown_seconds) {
        RecordTransitionLocked(Now(), State::kOpen, State::kHalfOpen);
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      // One probe at a time; everyone else keeps short-circuiting until the
      // probe reports back.
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return true;
      }
      return false;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_faults_ = 0;
  if (state_ == State::kHalfOpen) {
    RecordTransitionLocked(Now(), State::kHalfOpen, State::kClosed);
    state_ = State::kClosed;
    probe_in_flight_ = false;
  }
}

void CircuitBreaker::RecordFault() {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_faults_;
  if (state_ == State::kHalfOpen) {
    // The probe failed: reopen and restart the cooldown.
    RecordTransitionLocked(Now(), State::kHalfOpen, State::kOpen);
    state_ = State::kOpen;
    opened_at_ = Now();
    probe_in_flight_ = false;
    ++trips_;
  } else if (state_ == State::kClosed &&
             consecutive_faults_ >= options_.failure_threshold) {
    RecordTransitionLocked(Now(), State::kClosed, State::kOpen);
    state_ = State::kOpen;
    opened_at_ = Now();
    ++trips_;
  }
  // Already open: faults from requests admitted before the trip don't
  // extend the cooldown.
}

void CircuitBreaker::RecordUntested() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) probe_in_flight_ = false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

std::vector<CircuitBreaker::Transition> CircuitBreaker::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

bool IsRetryableRenderFault(StatusCode code) {
  switch (code) {
    case StatusCode::kInternal:
      return true;  // transient certified-path fault (e.g. injected)
    default:
      // Deliberately exhaustive by exclusion: kResourceExhausted is shed
      // work (retrying amplifies overload), kCancelled/kDeadlineExceeded
      // mean someone already gave up on this request, kUnavailable is the
      // breaker doing its job, and data/argument errors won't get better.
      return false;
  }
}

// ---------------------------------------------------------------------------
// RenderService
// ---------------------------------------------------------------------------

// One admitted request. The timer starts at admission, so queue time counts
// against the deadline and shows up in queue_seconds.
struct RenderService::Job {
  const PixelGrid* grid = nullptr;
  ServeRequestOptions request;
  std::promise<ServeOutcome> promise;
  std::unique_ptr<Deadline> deadline;  // null: no budget
  bool pre_expired = false;            // budget was 0 at admission
  Timer timer;
  // Per-request trace span, filled as the job moves through the stack and
  // published to the registry's recent-trace ring at completion.
  obs::TraceSpan span;
  // Admission→completion memory accounting for the governor's pressure
  // signal: the queued-job bookkeeping and the output frame this request
  // will materialize.
  ScopedMemCharge mem_charge;
};

RenderService::RenderService(const KdeEvaluator* evaluator, Options options)
    : RenderService(std::move(options)) {
  SwapEvaluator(evaluator);
}

namespace {

// The governor normalizes its in-flight signal by the service's actual
// admission cap unless the caller pinned a capacity explicitly, and
// inherits the service clock unless it carries its own.
OverloadGovernor::Options ResolveGovernorOptions(
    OverloadGovernor::Options governor, size_t max_in_flight,
    Clock* clock) {
  if (governor.in_flight_capacity == 0) {
    governor.in_flight_capacity = max_in_flight;
  }
  if (governor.clock == nullptr) {
    governor.clock = clock;
  }
  return governor;
}

RenderWatchdog::Options ResolveWatchdogOptions(RenderWatchdog::Options wd,
                                               Clock* clock) {
  if (wd.clock == nullptr) {
    wd.clock = clock;
  }
  return wd;
}

// Serve-level observability: admission/outcome counters and end-to-end
// latency histograms mirrored into the process-wide registry, so the
// exporters see the service without reaching into ServiceStats. Handles
// resolve once per process; every update is a relaxed atomic.
struct ServeObs {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* shed;
  obs::Counter* completed;
  obs::Counter* served_ok;
  obs::Counter* degraded;
  obs::Counter* retries;
  obs::Counter* faults;
  obs::Counter* unavailable;
  obs::Counter* frame_cache_hits;
  obs::Counter* frame_cache_misses;
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* request_seconds;
  obs::Histogram* backoff_seconds;
  ServeObs() {
    auto& r = obs::MetricsRegistry::Global();
    submitted = r.GetCounter("kdv_serve_submitted_total");
    admitted = r.GetCounter("kdv_serve_admitted_total");
    shed = r.GetCounter("kdv_serve_shed_total");
    completed = r.GetCounter("kdv_serve_completed_total");
    served_ok = r.GetCounter("kdv_serve_ok_total");
    degraded = r.GetCounter("kdv_serve_degraded_total");
    retries = r.GetCounter("kdv_serve_retries_total");
    faults = r.GetCounter("kdv_serve_faults_total");
    unavailable = r.GetCounter("kdv_serve_unavailable_total");
    frame_cache_hits = r.GetCounter("kdv_frame_cache_hits_total");
    frame_cache_misses = r.GetCounter("kdv_frame_cache_misses_total");
    queue_wait_seconds = r.GetHistogram("kdv_serve_queue_wait_seconds");
    request_seconds = r.GetHistogram("kdv_serve_request_seconds");
    backoff_seconds = r.GetHistogram("kdv_serve_backoff_seconds");
  }
  static ServeObs& Get() {
    static ServeObs& o = *new ServeObs();
    return o;
  }
};

}  // namespace

RenderService::RenderService(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : CurrentClock()),
      max_in_flight_(options.max_in_flight > 0
                         ? options.max_in_flight
                         : options.max_queue +
                               static_cast<size_t>(
                                   std::max(1, options.num_threads))),
      breaker_(options.breaker, clock_),
      governor_(
          ResolveGovernorOptions(options.governor, max_in_flight_, clock_)),
      watchdog_(ResolveWatchdogOptions(options.watchdog, clock_),
                [this](const StallReport& report) {
                  // Repeated stalls must shed the certified path the same
                  // way repeated faults do; one stall is one breaker fault.
                  (void)report;
                  counters_.faults.fetch_add(1, std::memory_order_relaxed);
                  ServeObs::Get().faults->Increment();
                  breaker_.RecordFault();
                }),
      backoff_(options.backoff, options.backoff_seed) {
  KDV_CHECK(options.max_attempts >= 1);
  if (options.executor != nullptr) {
    pool_ = options.executor;
  } else {
    owned_pool_ =
        std::make_unique<ThreadPool>(ThreadPool::Options{
            options.num_threads, options.max_queue});
    pool_ = owned_pool_.get();
  }
  if (options.tile_executor != nullptr) {
    tile_pool_ = options.tile_executor;
  } else {
    const int frame_threads =
        ResolveRenderThreads(options.intra_frame_threads);
    if (frame_threads > 1) {
      // One shared helper pool for all in-flight frames. Each frame submits
      // at most frame_threads - 1 helper tasks; size the queue for every
      // request worker doing so at once (rejected helpers are shed to the
      // worker, so this is a throughput knob, not a correctness one).
      ThreadPool::Options popts;
      popts.num_threads = frame_threads - 1;
      popts.max_queue =
          static_cast<size_t>(std::max(1, options.num_threads)) *
          static_cast<size_t>(frame_threads);
      owned_tile_pool_ = std::make_unique<ThreadPool>(popts);
      tile_pool_ = owned_tile_pool_.get();
    }
  }
}

RenderService::~RenderService() { Stop(); }

void RenderService::Stop() {
  // Wake any worker parked in a retry-backoff sleep before draining, so
  // Stop() latency is bounded by real render work, not by pending backoff
  // delays. The waker is one-shot; Stop is terminal, so that is enough.
  stop_waker_.Set();
  pool_->Stop();
}

void RenderService::SwapEvaluator(const KdeEvaluator* evaluator) {
  KDV_CHECK(evaluator != nullptr);
  const uint64_t swap_number =
      swaps_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto epoch = std::make_shared<const Epoch>(evaluator, swap_number);
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    // The old epoch's refcount now belongs entirely to in-flight requests;
    // the last of them to finish destroys it.
    epoch_ = std::move(epoch);
  }
  ServiceHealth expected = ServiceHealth::kStarting;
  if (!health_.compare_exchange_strong(expected, ServiceHealth::kServing)) {
    expected = ServiceHealth::kRecovering;
    health_.compare_exchange_strong(expected, ServiceHealth::kServing);
  }
}

std::shared_ptr<const RenderService::Epoch> RenderService::CurrentEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

ServiceHealth RenderService::Health() const {
  const ServiceHealth recorded = health_.load(std::memory_order_acquire);
  if (recorded == ServiceHealth::kServing) {
    if (breaker_.state() == CircuitBreaker::State::kOpen) {
      return ServiceHealth::kDegraded;
    }
    // An active brownout is a degraded service by definition: requests are
    // being served below the quality they asked for.
    if (options_.governor.enabled &&
        governor_.stats().level != OverloadGovernor::Level::kNormal) {
      return ServiceHealth::kDegraded;
    }
  }
  return recorded;
}

const KdeEvaluator* RenderService::CurrentEvaluator() const {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  return epoch != nullptr ? epoch->evaluator : nullptr;
}

void RenderService::SetHealth(ServiceHealth health) {
  health_.store(health, std::memory_order_release);
}

void RenderService::SleepMs(double ms) {
  if (ms <= 0.0) return;
  clock_->WaitFor(ms / 1000.0, &stop_waker_);
}

StatusOr<std::future<ServeOutcome>> RenderService::Submit(
    const PixelGrid& grid, const ServeRequestOptions& request) {
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  ServeObs::Get().submitted->Increment();

  // Nothing published yet (still starting/recovering): there is no
  // evaluator any worker could render against.
  if (CurrentEpoch() == nullptr) {
    return UnavailableError("no evaluator published (service is " +
                            std::string(ServiceHealthName(Health())) + ")");
  }

  // In-flight cap first: it bounds admitted-but-unfinished work (queued +
  // executing), independent of the pool's own queue bound.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1 >
      max_in_flight_) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
    ServeObs::Get().shed->Increment();
    return ResourceExhaustedError(
        "render service at max in-flight requests (" +
        std::to_string(max_in_flight_) + ")");
  }

  // Brownout ceiling: below it the governor degrades instead of rejecting
  // (at execution time); at or above it even a coarse render is load the
  // service cannot spare.
  if (options_.governor.enabled) {
    governor_.RecordInFlight(in_flight_.load(std::memory_order_relaxed));
    const OverloadGovernor::Decision decision = governor_.Assess();
    if (decision.shed) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      counters_.brownout_shed.fetch_add(1, std::memory_order_relaxed);
      ServeObs::Get().shed->Increment();
      return ResourceExhaustedError(
          "render service past overload ceiling (pressure " +
          std::to_string(decision.pressure) + ")");
    }
  }

  auto job = std::make_shared<Job>();
  job->grid = &grid;
  job->request = request;
  job->timer = Timer(clock_);
  job->span.request_id =
      next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  job->mem_charge = ScopedMemCharge(
      &MemBudget::Global(), MemSource::kFrameBuffers,
      sizeof(Job) + static_cast<uint64_t>(grid.width()) *
                        static_cast<uint64_t>(grid.height()) *
                        sizeof(double));
  if (request.budget_seconds == 0.0) {
    job->pre_expired = true;
  } else if (request.budget_seconds > 0.0) {
    job->deadline = std::make_unique<Deadline>(request.budget_seconds, clock_);
  }
  std::future<ServeOutcome> future = job->promise.get_future();

  Status admitted = pool_->TrySubmit([this, job] { Execute(job); });
  if (!admitted.ok()) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (admitted.code() == StatusCode::kResourceExhausted) {
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      ServeObs::Get().shed->Increment();
    }
    return admitted;
  }
  counters_.admitted.fetch_add(1, std::memory_order_relaxed);
  ServeObs::Get().admitted->Increment();
  return future;
}

void RenderService::Execute(const std::shared_ptr<Job>& job) {
  ServeOutcome outcome;
  outcome.queue_seconds = job->timer.ElapsedSeconds();
  job->span.AddStage(obs::TraceStage::kQueueWait, outcome.queue_seconds);
  // Preflight time (epoch snapshot, governor assessment, queue-expiry
  // checks) is attributed to the admission stage at each exit below.
  Timer admission_timer(clock_);

  const PixelGrid& grid = *job->grid;
  const ServeRequestOptions& request = job->request;

  // One epoch per request, snapshotted at execution start: every attempt
  // (including retries and coarse fallbacks) renders against the same
  // evaluator even if SwapEvaluator publishes a successor mid-request.
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  const ResilientRenderer& renderer = epoch->renderer;
  outcome.epoch = epoch->id;

  ResilientRenderOptions ropts;
  ropts.eps = request.eps;
  ropts.degrade = request.degrade;
  ropts.cancel = request.cancel;
  ropts.parallel.num_threads = options_.intra_frame_threads;
  ropts.parallel.tile_rows = options_.tile_rows;
  ropts.parallel.tile_shared = options_.tile_shared;
  ropts.tile_pool = tile_pool_;
  ropts.trace = &job->span;

  // Brownout: fold the observed queue wait into the pressure signal, then
  // serve at the governor's level. Fail-fast requests are exempt — the
  // client asked for certified-or-error, and silently lowering their tier
  // would break that contract (they still pay the shed ceiling at Submit).
  if (options_.governor.enabled) {
    governor_.RecordQueueWait(outcome.queue_seconds);
    governor_.RecordInFlight(in_flight_.load(std::memory_order_relaxed));
    const OverloadGovernor::Decision decision = governor_.Assess();
    if (request.degrade &&
        decision.level != OverloadGovernor::Level::kNormal) {
      const bool coarse = decision.level == OverloadGovernor::Level::kCoarse;
      ropts.max_tier =
          coarse ? QualityTier::kCoarse : QualityTier::kProgressive;
      // The coarse level runs no attempt: a relaxed ε would only loosen its
      // stand-in, which renders at 3× the request's ε.
      if (!coarse) ropts.eps = request.eps * decision.eps_multiplier;
      counters_.brownout_applied.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Cancelled while queued: never touch the render path.
  if (request.cancel != nullptr && request.cancel->cancelled()) {
    job->span.AddStage(obs::TraceStage::kAdmission,
                       admission_timer.ElapsedSeconds());
    outcome.render.frame = DensityFrame(grid.width(), grid.height());
    outcome.render.cancelled = true;
    outcome.render.status = CancelledError("request cancelled while queued");
    outcome.status = outcome.render.status;
    FinishOutcome(job, std::move(outcome));
    return;
  }

  // Budget spent in the queue: the certified attempt is no longer worth
  // starting. Serve the stand-in or fail fast, per request policy.
  const bool has_deadline = job->pre_expired || job->deadline != nullptr;
  double remaining =
      job->pre_expired ? 0.0
                       : (job->deadline ? job->deadline->RemainingSeconds()
                                        : -1.0);
  if (has_deadline && remaining <= 0.0) {
    job->span.AddStage(obs::TraceStage::kAdmission,
                       admission_timer.ElapsedSeconds());
    if (request.degrade) {
      // Straight to the stand-in, watched with no budget (ropts has none
      // yet): it has no deadline, so only a wedge gets it killed.
      ropts.max_tier = QualityTier::kCoarse;
      bool watchdog_killed;
      outcome.render = RenderWatched(*job, renderer, ropts, &watchdog_killed);
    } else {
      outcome.render.frame = DensityFrame(grid.width(), grid.height());
      outcome.render.status =
          DeadlineExceededError("render budget exhausted while queued");
    }
    outcome.render.deadline_expired = true;
    outcome.status = outcome.render.status;
    FinishOutcome(job, std::move(outcome));
    return;
  }

  job->span.AddStage(obs::TraceStage::kAdmission,
                     admission_timer.ElapsedSeconds());

  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (!breaker_.AllowCertified()) {
      // Open breaker: refine nothing. Ship a cached frame of the viewport
      // or flat, or reject with kUnavailable in fail-fast mode. Either way
      // this request is counted as short-circuited.
      outcome.breaker_open = true;
      counters_.unavailable.fetch_add(1, std::memory_order_relaxed);
      ServeObs::Get().unavailable->Increment();
      if (request.degrade) {
        outcome.render = renderer.RenderCachedOnly(grid, ropts);
      } else {
        outcome.render.frame = DensityFrame(grid.width(), grid.height());
        outcome.render.status = UnavailableError(
            "certified render path unavailable (circuit breaker open)");
      }
      outcome.status = outcome.render.status;
      FinishOutcome(job, std::move(outcome));
      return;
    }

    outcome.attempts = attempt;
    // Clamp at 0: a deadline that expired since the queue check must read
    // as "already expired" (== 0), not "no deadline" (< 0).
    ropts.budget_seconds =
        job->deadline ? std::max(0.0, job->deadline->RemainingSeconds())
                      : -1.0;

    // Watched per attempt, so a retry restarts the overrun clock.
    bool watchdog_killed;
    Timer attempt_timer(clock_);
    RenderOutcome render =
        RenderWatched(*job, renderer, ropts, &watchdog_killed);
    job->span.AddStage(obs::TraceStage::kTierAttempt,
                       attempt_timer.ElapsedSeconds());

    // Breaker accounting: a retryable fault (kInternal — real or injected)
    // counts against the certified path; anything else — including
    // degraded-by-deadline and cancelled renders — is evidence the path
    // itself is healthy. A watchdog kill records nothing here: the stall
    // callback already charged the breaker, and the killed render must not
    // immediately erase that fault with a "success". A frame-cache hit
    // that refined nothing never ran the path, so it neither clears the
    // fault run nor closes a half-open breaker; a stand-in hit after an
    // attempt that ran is that attempt's evidence.
    const bool fault = IsRetryableRenderFault(render.status.code());
    if (fault) {
      counters_.faults.fetch_add(1, std::memory_order_relaxed);
      ServeObs::Get().faults->Increment();
      breaker_.RecordFault();
    } else if (render.refined_nothing()) {
      breaker_.RecordUntested();
    } else if (!watchdog_killed) {
      breaker_.RecordSuccess();
    }

    bool retry = fault && attempt < options_.max_attempts &&
                 !(request.cancel != nullptr && request.cancel->cancelled());
    if (retry && job->deadline != nullptr &&
        job->deadline->RemainingSeconds() <= 0.0) {
      retry = false;
    }
    if (!retry) {
      outcome.render = std::move(render);
      outcome.status = outcome.render.status;
      FinishOutcome(job, std::move(outcome));
      return;
    }

    counters_.retries.fetch_add(1, std::memory_order_relaxed);
    ServeObs::Get().retries->Increment();
    double delay_ms;
    {
      std::lock_guard<std::mutex> lock(backoff_mu_);
      delay_ms = backoff_.NextDelayMs();
    }
    if (job->deadline != nullptr) {
      delay_ms =
          std::min(delay_ms, job->deadline->RemainingSeconds() * 1000.0);
    }
    Timer backoff_timer(clock_);
    SleepMs(delay_ms);
    const double backoff_s = backoff_timer.ElapsedSeconds();
    job->span.AddStage(obs::TraceStage::kBackoff, backoff_s);
    ServeObs::Get().backoff_seconds->Record(backoff_s);
  }
}

RenderOutcome RenderService::RenderWatched(const Job& job,
                                           const ResilientRenderer& renderer,
                                           ResilientRenderOptions ropts,
                                           bool* watchdog_killed) {
  std::shared_ptr<WatchEntry> watch;
  if (options_.watchdog.enabled) {
    watch = watchdog_.Watch(job.span.request_id, ropts.budget_seconds);
    ropts.watch = watch.get();
  }
  RenderOutcome render = renderer.Render(*job.grid, ropts);
  *watchdog_killed = false;
  if (watch == nullptr) return render;
  watchdog_.Unwatch(watch);
  // Attribute the cancellation to the watchdog only if its kill is what
  // actually stopped the render (the client's own token wins, and a render
  // that raced the kill to completion is served normally).
  const CancelToken* client = job.request.cancel;
  *watchdog_killed = watch->WasKilled() && render.cancelled &&
                     !(client != nullptr && client->cancelled());
  if (*watchdog_killed) {
    counters_.watchdog_kills.fetch_add(1, std::memory_order_relaxed);
    render.cancelled = false;
    render.deadline_expired = true;
    render.status = DeadlineExceededError(
        "render force-cancelled by watchdog (wedged past its deadline)");
  }
  return render;
}

void RenderService::FinishOutcome(const std::shared_ptr<Job>& job,
                                  ServeOutcome outcome) {
  outcome.total_seconds = job->timer.ElapsedSeconds();

  // Settle the request's trace span and publish it to the recent-trace
  // ring, then mirror the outcome counters into the registry.
  obs::TraceSpan& span = job->span;
  span.epoch = outcome.epoch;
  span.has_epoch = outcome.epoch != 0;
  span.tier = QualityTierName(outcome.render.tier);
  span.attempts = outcome.attempts;
  span.frame_cache_hit = outcome.render.from_cache();
  span.certified_eps = outcome.render.certified_eps;
  span.ok = outcome.status.ok();
  span.total_seconds = outcome.total_seconds;
  ServeObs& so = ServeObs::Get();
  so.completed->Increment();
  so.queue_wait_seconds->Record(outcome.queue_seconds);
  so.request_seconds->Record(outcome.total_seconds);
  if (outcome.status.ok()) {
    so.served_ok->Increment();
    if (outcome.render.tier != QualityTier::kCertified) {
      so.degraded->Increment();
    }
  }
  obs::MetricsRegistry::Global().RecordTrace(span);

  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  // The registry counts frame-cache outcomes here too, once per request
  // like ServiceStats, so the two always agree.
  if (outcome.render.cache == RenderOutcome::Cache::kHit) {
    counters_.frame_cache_hits.fetch_add(1, std::memory_order_relaxed);
    so.frame_cache_hits->Increment();
  } else if (outcome.render.cache == RenderOutcome::Cache::kMiss) {
    counters_.frame_cache_misses.fetch_add(1, std::memory_order_relaxed);
    so.frame_cache_misses->Increment();
  }
  if (outcome.render.deadline_expired) {
    counters_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  }
  if (outcome.status.ok()) {
    counters_.served_ok.fetch_add(1, std::memory_order_relaxed);
    if (outcome.render.tier != QualityTier::kCertified) {
      counters_.degraded.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (outcome.status.code() == StatusCode::kCancelled) {
    counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  }
  switch (outcome.render.tier) {
    case QualityTier::kCertified:
      counters_.tier_certified.fetch_add(1, std::memory_order_relaxed);
      break;
    case QualityTier::kProgressive:
      counters_.tier_progressive.fetch_add(1, std::memory_order_relaxed);
      break;
    case QualityTier::kCoarse:
      counters_.tier_coarse.fetch_add(1, std::memory_order_relaxed);
      break;
    case QualityTier::kFlat:
      counters_.tier_flat.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  job->promise.set_value(std::move(outcome));
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

ServiceStats RenderService::stats() const {
  ServiceStats s;
  s.submitted = counters_.submitted.load(std::memory_order_relaxed);
  s.admitted = counters_.admitted.load(std::memory_order_relaxed);
  s.shed = counters_.shed.load(std::memory_order_relaxed);
  s.completed = counters_.completed.load(std::memory_order_relaxed);
  s.served_ok = counters_.served_ok.load(std::memory_order_relaxed);
  s.cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  s.deadline_expired =
      counters_.deadline_expired.load(std::memory_order_relaxed);
  s.degraded = counters_.degraded.load(std::memory_order_relaxed);
  s.retries = counters_.retries.load(std::memory_order_relaxed);
  s.faults = counters_.faults.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_.trips();
  s.unavailable = counters_.unavailable.load(std::memory_order_relaxed);
  s.tier_certified = counters_.tier_certified.load(std::memory_order_relaxed);
  s.tier_progressive =
      counters_.tier_progressive.load(std::memory_order_relaxed);
  s.tier_coarse = counters_.tier_coarse.load(std::memory_order_relaxed);
  s.tier_flat = counters_.tier_flat.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  s.epoch_published = epoch != nullptr;
  s.epoch = epoch != nullptr ? epoch->id : 0;
  s.brownout_applied =
      counters_.brownout_applied.load(std::memory_order_relaxed);
  s.brownout_shed = counters_.brownout_shed.load(std::memory_order_relaxed);
  s.watchdog_kills =
      counters_.watchdog_kills.load(std::memory_order_relaxed);
  s.frame_cache_hits =
      counters_.frame_cache_hits.load(std::memory_order_relaxed);
  s.frame_cache_misses =
      counters_.frame_cache_misses.load(std::memory_order_relaxed);
  const OverloadGovernor::Stats gov = governor_.stats();
  s.governor_level = static_cast<int>(gov.level);
  s.governor_max_level = static_cast<int>(gov.max_level);
  s.governor_pressure = gov.pressure;
  return s;
}

}  // namespace kdv
