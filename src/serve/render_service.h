// Concurrent render service: a multi-threaded, overload-safe front end
// over ResilientRenderer.
//
// The paper's framework is embarrassingly parallel across requests — the
// kd-tree and bound profiles are read-only after construction — so serving
// many users is a concurrency-control problem, not an algorithmic one.
// RenderService supplies the production pieces:
//
//   * Thread pool (util/thread_pool.h): fixed workers, bounded FIFO queue.
//   * Admission control: Submit() rejects with kResourceExhausted when the
//     queue is full or too many requests are in flight, instead of letting
//     latency grow without bound. Shedding is explicit and countable.
//   * Queue-aware deadlines: a request's budget starts at admission, so
//     time spent waiting in the queue counts against it. A request whose
//     budget died in the queue is served the coarse stand-in (degrade mode)
//     or failed with kDeadlineExceeded (fail-fast mode) without touching
//     the certified attempt.
//   * Retry with jittered exponential backoff (util/backoff.h) for
//     transient certified-path faults (kInternal, e.g. injected
//     failpoints), bounded by max_attempts and by the request's remaining
//     budget.
//   * Circuit breaker on the certified path: after breaker_threshold
//     consecutive faults the breaker opens and requests refine nothing:
//     each ships a cached frame of its viewport (coarse) or flat, or is
//     rejected with kUnavailable in fail-fast mode; after
//     breaker_cooldown_seconds one half-open probe is allowed through, and
//     its success closes the breaker again.
//   * Graceful drain: Stop() rejects new submits, finishes all admitted
//     requests, and never deadlocks. The destructor stops the service.
//   * Epoch-based hot-swap: SwapEvaluator() publishes a new evaluator
//     without stopping the service. Each request snapshots the current
//     epoch (a shared_ptr) at execution start; in-flight renders finish on
//     the epoch they started with, and an old epoch is destroyed only when
//     its last in-flight render drops the reference. No request is ever
//     dropped or served a half-swapped evaluator.
//   * Readiness (serve/health.h): Health() reports kStarting until an
//     evaluator is published, whatever SetHealth() last recorded
//     (kRecovering while a recovery manager replays state), and kDegraded
//     whenever the circuit breaker is open.
//
// Thread safety: Submit/Stop/SwapEvaluator/Health/stats may be called from
// any thread. The shared KdeEvaluator is used strictly const-concurrently
// (see the audit note on ResilientRenderer).
#ifndef QUADKDV_SERVE_RENDER_SERVICE_H_
#define QUADKDV_SERVE_RENDER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>

#include "serve/health.h"
#include "serve/overload_governor.h"
#include "serve/resilient_renderer.h"
#include "serve/watchdog.h"
#include "util/backoff.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kdv {

// Certified-path health tracker (closed → open → half-open → closed).
// Factored out of the service so the state machine is unit-testable with an
// injected clock. Thread-safe.
class CircuitBreaker {
 public:
  struct Options {
    int failure_threshold = 5;        // consecutive faults that trip it
    double cooldown_seconds = 0.25;   // open time before the half-open probe
  };
  enum class State { kClosed, kOpen, kHalfOpen };

  // `clock` provides monotonic seconds; null uses CurrentClock() (resolved
  // once, at construction).
  explicit CircuitBreaker(Options options, const Clock* clock = nullptr);

  // True if this request may attempt the certified path. While open, flips
  // to half-open once the cooldown has elapsed and admits exactly one
  // probe; everyone else is told to short-circuit.
  bool AllowCertified();

  // Reports the outcome of a certified-path attempt that AllowCertified
  // admitted. Success closes a half-open breaker and clears the fault run;
  // a fault extends the run, trips the breaker at the threshold, and
  // reopens a half-open breaker immediately.
  void RecordSuccess();
  void RecordFault();
  // Reports an admitted attempt that never ran the certified path (its
  // frame came from the frame cache), so it is no evidence either way: the
  // fault run stands, and a half-open probe gives its slot back for the
  // next admitted request to probe the path.
  void RecordUntested();

  State state() const;
  uint64_t trips() const;  // times the breaker transitioned closed/half-open -> open

  // One recorded state change, for observability and for the simulator's
  // state-machine legality checker. Legal edges: Closed→Open,
  // Open→HalfOpen, HalfOpen→Open, HalfOpen→Closed.
  struct Transition {
    double at_seconds = 0.0;  // breaker clock
    State from = State::kClosed;
    State to = State::kClosed;
  };
  // State-change log, oldest first, capped at an internal bound (the cap
  // drops the oldest entries).
  std::vector<Transition> transitions() const;

  static const char* StateName(State state);

 private:
  double Now() const;
  void RecordTransitionLocked(double now, State from, State to);

  const Options options_;
  const Clock* const clock_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_faults_ = 0;
  bool probe_in_flight_ = false;
  double opened_at_ = 0.0;
  uint64_t trips_ = 0;
  std::vector<Transition> transitions_;
};

// Classifies render-path faults a retry can plausibly fix. Only transient
// internal faults (kInternal — e.g. an injected failpoint or a clamped
// numeric fault) qualify. Everything else is definitively non-retryable:
// retrying kResourceExhausted amplifies the very overload that shed the
// work, kCancelled/kDeadlineExceeded mean the client (or watchdog) already
// gave up, and kUnavailable means the breaker is open on purpose.
bool IsRetryableRenderFault(StatusCode code);

// Per-request options. The render knobs mirror ResilientRenderOptions;
// budget_seconds is measured from Submit() (queue time included).
struct ServeRequestOptions {
  double eps = 0.05;
  // < 0: no deadline. 0: already expired at admission. > 0: wall-clock
  // budget starting the moment Submit() admits the request.
  double budget_seconds = -1.0;
  bool degrade = true;  // false: fail fast instead of serving lower tiers
  const CancelToken* cancel = nullptr;  // must outlive the request
};

// What the service delivered for one admitted request.
struct ServeOutcome {
  RenderOutcome render;  // frame (always finite), tier, render-path status

  // Authoritative request status: render.status, or kUnavailable for a
  // fail-fast rejection while the breaker is open.
  Status status = OkStatus();

  double queue_seconds = 0.0;  // admission -> first execution
  double total_seconds = 0.0;  // admission -> completion
  int attempts = 0;            // certified-path attempts (0 if short-circuited)
  bool breaker_open = false;   // served/failed without the certified path
  // Id of the evaluator epoch the render executed against (0 if the request
  // never reached execution). Lets an external oracle — the simulator's
  // ε-invariant checker — verify the frame against the evaluator it was
  // actually rendered with, even across hot-swaps.
  uint64_t epoch = 0;

  bool ok() const { return status.ok(); }
};

// Monotonic counters, readable at any time via RenderService::stats().
struct ServiceStats {
  uint64_t submitted = 0;       // Submit() calls
  uint64_t admitted = 0;        // accepted into the queue
  uint64_t shed = 0;            // rejected with kResourceExhausted
  uint64_t completed = 0;       // outcomes delivered (any status)
  uint64_t served_ok = 0;       // completed with an OK status
  uint64_t cancelled = 0;       // completed with kCancelled
  uint64_t deadline_expired = 0;  // outcomes that ran out of budget
  uint64_t degraded = 0;        // served below the certified tier
  uint64_t retries = 0;         // certified-path retry attempts
  uint64_t faults = 0;          // certified-path faults observed
  uint64_t breaker_trips = 0;   // closed/half-open -> open transitions
  uint64_t unavailable = 0;     // requests short-circuited by an open breaker
  uint64_t tier_certified = 0;
  uint64_t tier_progressive = 0;
  uint64_t tier_coarse = 0;
  uint64_t tier_flat = 0;
  uint64_t swaps = 0;  // SwapEvaluator() publications (initial one included)
  // Currently published epoch. epoch_published distinguishes "no evaluator
  // yet" from whatever the id happens to read — epoch ids start at 1 today,
  // but consumers must not infer liveness from the raw number, and the JSON
  // emitters render the epoch as null until epoch_published is true.
  uint64_t epoch = 0;
  bool epoch_published = false;
  // Requests served from the epoch renderer's frame cache
  // (serve/frame_cache.h), and requests whose last lookup missed.
  uint64_t frame_cache_hits = 0;
  uint64_t frame_cache_misses = 0;

  // Runtime self-defense (zero unless the governor/watchdog are enabled).
  uint64_t brownout_applied = 0;   // requests served below their asked tier
  uint64_t brownout_shed = 0;      // submits rejected at the governor ceiling
  uint64_t watchdog_kills = 0;     // renders force-cancelled by the watchdog
  int governor_level = 0;          // current OverloadGovernor::Level
  int governor_max_level = 0;      // worst level reached
  double governor_pressure = 0.0;  // last combined pressure signal
};

class RenderService {
 public:
  struct Options {
    int num_threads = 4;
    size_t max_queue = 32;     // waiting requests beyond the running ones
    size_t max_in_flight = 0;  // admitted-but-unfinished cap; 0 = max_queue + num_threads
    int max_attempts = 3;      // certified-path attempts per request
    // Intra-frame parallelism: threads per certified render, including the
    // request worker itself (0 = hardware_concurrency, 1 = serial). Above 1
    // the service owns one shared helper pool of intra_frame_threads - 1
    // workers, used by every in-flight frame's tile fan-out. The helper pool
    // is distinct from the request pool, so a frame never waits on its own
    // pool (no submit cycle), and an exhausted helper pool merely sheds
    // tiles back onto the request worker.
    int intra_frame_threads = 1;
    int tile_rows = 16;  // chunk edge in pixels (see RenderOptions::tile_rows)
    // Shared-traversal tile refinement for the certified attempt (see
    // viz/parallel_render.h). Whatever the mode, each epoch's renderer
    // keeps its own frame cache, so a repeated viewport ships a copy of its
    // finished frame and a hot-swap can never serve a stale one.
    bool tile_shared = false;
    BackoffPolicy backoff;
    uint64_t backoff_seed = 0x5EEDBACC0FFull;
    CircuitBreaker::Options breaker;
    // The service's time source: breaker cooldowns, queue/total latencies,
    // retry backoff sleeps, and each request's deadline from admission
    // through its certified attempt. Null uses CurrentClock() (resolved
    // once, at construction) — under the simulator that is the virtual
    // clock, and tests install a ManualClock to step through cooldowns
    // without sleeping. Also handed to the governor and watchdog unless
    // they carry their own clock.
    Clock* clock = nullptr;
    // Execution substrates, borrowed (must outlive the service). `executor`
    // runs request jobs; null makes the service own a ThreadPool of
    // num_threads/max_queue. `tile_executor` serves the intra-frame tile
    // fan-out; null falls back to an owned helper pool when
    // intra_frame_threads resolves above 1. The simulator injects its
    // SimExecutor through these so every task the service runs is
    // cooperatively scheduled.
    Executor* executor = nullptr;
    Executor* tile_executor = nullptr;

    // Runtime self-defense. Both default to disabled so the service's
    // behavior is bit-for-bit the pre-governor one unless the operator
    // opts in (kdvtool serve-sim --governor / --watchdog).
    //
    // When governor.enabled, every Submit() consults the brownout governor:
    // past its hard ceiling the request is shed (kResourceExhausted), and
    // at execution time degrade-mode requests are served at the governor's
    // level (certified → progressive → coarse) with a relaxed ε. When
    // governor.in_flight_capacity is 0 it is set to max_in_flight.
    OverloadGovernor::Options governor;
    // When watchdog.enabled, every render is registered with the watchdog,
    // which force-cancels wedged renders (see serve/watchdog.h) and trips
    // the circuit breaker through the same fault path as kInternal errors.
    RenderWatchdog::Options watchdog;
  };

  // `evaluator` must outlive the service and is shared const-concurrently
  // by all workers. Publishes it as epoch 1 and starts in kServing.
  RenderService(const KdeEvaluator* evaluator, Options options);

  // Starts with no evaluator published: Health() is kStarting and Submit()
  // rejects with kUnavailable until the first SwapEvaluator(). This is the
  // recovery-manager path — the service front door comes up (and reports
  // readiness) while state is still being replayed.
  explicit RenderService(Options options);

  ~RenderService();  // Stop()

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  // Admission-controlled asynchronous render. On success the future
  // resolves to the request's ServeOutcome (possibly degraded/cancelled —
  // inspect outcome.status). Rejections are synchronous:
  //   kResourceExhausted — queue full or max_in_flight reached (shed)
  //   kUnavailable       — Stop() has been called
  // `grid` must stay alive until the future resolves.
  StatusOr<std::future<ServeOutcome>> Submit(
      const PixelGrid& grid, const ServeRequestOptions& request);

  // Graceful drain: rejects new submits, finishes all admitted requests.
  void Stop();

  // Atomically publishes `evaluator` as a new epoch. Requests admitted
  // after this call render against it; requests already executing finish on
  // the epoch they snapshotted. The evaluator must outlive every request
  // that can still observe its epoch (in practice: the service). Promotes
  // kStarting/kRecovering health to kServing.
  void SwapEvaluator(const KdeEvaluator* evaluator);

  // Readiness for load balancers (see serve/health.h). SetHealth records an
  // explicit state (e.g. kRecovering during replay, kDegraded after a
  // lossy recovery); Health() additionally reports kDegraded whenever the
  // recorded state is kServing but the circuit breaker is open.
  ServiceHealth Health() const;
  void SetHealth(ServiceHealth health);

  ServiceStats stats() const;
  CircuitBreaker::State breaker_state() const { return breaker_.state(); }
  std::vector<CircuitBreaker::Transition> breaker_transitions() const {
    return breaker_.transitions();
  }
  int num_threads() const { return pool_->num_threads(); }
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // The evaluator of the currently published epoch (null before the first
  // SwapEvaluator). For the integrity scrubber's oracle checks; the caller
  // must keep the evaluator alive across swaps (the service only borrows
  // it).
  const KdeEvaluator* CurrentEvaluator() const;

  // Self-defense observability (serve-sim, tests).
  OverloadGovernor::Stats governor_stats() const {
    return governor_.stats();
  }
  std::vector<OverloadGovernor::Transition> governor_transitions() const {
    return governor_.transitions();
  }
  std::vector<StallReport> watchdog_stall_reports() const {
    return watchdog_.stall_reports();
  }
  // Runs one watchdog sweep synchronously. The simulator's entry point:
  // with watchdog.start_monitor = false no monitor thread exists, and the
  // sim driver calls this at deterministic points of virtual time instead.
  int WatchdogSweepOnce() { return watchdog_.SweepOnce(); }

 private:
  struct Job;

  // One published evaluator generation. Immutable once published; shared by
  // every request that snapshotted it while it was current. Its renderer
  // times attempts on the service's clock.
  struct Epoch {
    Epoch(const KdeEvaluator* evaluator, uint64_t id, const Clock* clock)
        : renderer(evaluator, clock), evaluator(evaluator), id(id) {}
    ResilientRenderer renderer;
    const KdeEvaluator* evaluator;
    uint64_t id;
  };

  std::shared_ptr<const Epoch> CurrentEpoch() const;
  void Execute(const std::shared_ptr<Job>& job);
  void FinishOutcome(const std::shared_ptr<Job>& job, ServeOutcome outcome);
  // renderer.Render of the job, registered with the watchdog when it is
  // on, under ropts.budget_seconds (< 0: none) and the job's trace id. A
  // render the watchdog killed comes back kDeadlineExceeded with
  // *watchdog_killed set, and is counted.
  RenderOutcome RenderWatched(const Job& job,
                              const ResilientRenderer& renderer,
                              ResilientRenderOptions ropts,
                              bool* watchdog_killed);
  void SleepMs(double ms);

  const Options options_;
  Clock* const clock_;  // never null (Options::clock or CurrentClock)
  const size_t max_in_flight_;
  CircuitBreaker breaker_;
  OverloadGovernor governor_;
  // Declared after breaker_: the stall callback records breaker faults, so
  // the breaker must outlive the monitor thread.
  RenderWatchdog watchdog_;
  // Request executor: Options::executor if injected, else owned_pool_.
  std::unique_ptr<ThreadPool> owned_pool_;
  Executor* pool_;
  // Shared tile-helper substrate for intra-frame parallelism; null when
  // intra_frame_threads resolves to 1 and no tile_executor was injected.
  // The owned pool is destroyed only after ~RenderService has drained
  // pool_, so no frame can still be fanning out tiles.
  std::unique_ptr<ThreadPool> owned_tile_pool_;
  Executor* tile_pool_ = nullptr;
  // Set by Stop(): cuts short any in-progress retry-backoff sleep so drain
  // latency is bounded by the running render, not by pending backoff.
  Waker stop_waker_;

  std::mutex backoff_mu_;  // guards backoff_ (shared RNG stream)
  Backoff backoff_;

  mutable std::mutex epoch_mu_;      // guards epoch_ publication only
  std::shared_ptr<const Epoch> epoch_;  // null until the first publication
  std::atomic<uint64_t> swaps_{0};
  std::atomic<ServiceHealth> health_{ServiceHealth::kStarting};

  std::atomic<size_t> in_flight_{0};
  // Trace-span ids, one per request; the watchdog's stall reports carry
  // them too.
  std::atomic<uint64_t> next_trace_id_{0};

  struct Counters {
    std::atomic<uint64_t> submitted{0}, admitted{0}, shed{0}, completed{0},
        served_ok{0}, cancelled{0}, deadline_expired{0}, degraded{0},
        retries{0}, faults{0}, unavailable{0}, tier_certified{0},
        tier_progressive{0}, tier_coarse{0}, tier_flat{0},
        brownout_applied{0}, brownout_shed{0}, watchdog_kills{0},
        frame_cache_hits{0}, frame_cache_misses{0};
  };
  mutable Counters counters_;
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_RENDER_SERVICE_H_
