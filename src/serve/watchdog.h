// Render watchdog: detects and kills wedged renders.
//
// The cooperative deadline layer (util/cancel.h) only works while the
// render keeps reaching its poll points. A render stuck where the deadline
// is never polled — a pathological leaf scan, a bug, an injected
// `refine.stall` — is invisible to it: the client times out, the worker
// thread stays occupied, and under load the whole pool can wedge one
// request at a time. The watchdog is the non-cooperative backstop: a
// monitor thread that watches every in-flight render and force-cancels any
// that is clearly stuck, by either criterion:
//
//   * overrun:     elapsed > deadline_multiple × the request's budget
//                  (only for requests that have a budget), or
//                  elapsed > no_budget_kill_seconds for budgetless ones,
//                  which a render becomes when its coarse stand-in starts
//                  (the stand-in has no deadline of its own).
//   * no progress: the render's heartbeat counter (bumped on every
//                  cooperative poll inside the refinement loops) has not
//                  moved for no_progress_seconds. A slow render heartbeats;
//                  a wedged one goes silent. Every render heartbeats, the
//                  coarse stand-in included (it runs the same frame driver
//                  on the attempt's heartbeat); the criterion applies only
//                  after the first beat, so a render wedged before its
//                  first poll point is caught by the overrun criterion
//                  instead.
//
// The kill is delivered on a dedicated force-cancel token (not the
// client's), so the render unwinds through the normal kCancelled path with
// a finite frame. Each kill produces a structured StallReport, and the
// service trips its circuit breaker on it, so repeated stalls shed the
// certified path entirely.
//
// Thread safety: all methods may be called from any thread. Watch handles
// are shared_ptrs — a render that finishes while the monitor is inspecting
// it stays valid until the monitor drops its reference.
#ifndef QUADKDV_SERVE_WATCHDOG_H_
#define QUADKDV_SERVE_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/timer.h"

namespace kdv {

// One watched render. The service hands it to the render
// (ResilientRenderOptions::watch), which threads `kill` and `heartbeat`
// into its QueryControl and sets `budget_released` when its stand-in
// starts, and checks WasKilled() after the render returns to attribute the
// cancellation to the watchdog.
struct WatchEntry {
  CancelToken kill;
  std::atomic<uint64_t> heartbeat{0};
  std::atomic<bool> killed{false};
  std::atomic<bool> budget_released{false};

  double budget_seconds = -1.0;  // < 0: no deadline
  uint64_t request_id = 0;
  Timer started;

  bool WasKilled() const { return killed.load(std::memory_order_acquire); }
};

// Structured record of one watchdog kill.
struct StallReport {
  uint64_t request_id = 0;
  double elapsed_seconds = 0.0;
  double budget_seconds = -1.0;
  uint64_t heartbeat = 0;   // last observed count
  bool no_progress = false; // true: heartbeat criterion; false: overrun
};

class RenderWatchdog {
 public:
  struct Options {
    // Off by default: the watchdog is opt-in (serve-sim --watchdog, tests),
    // so pre-watchdog service behavior is unchanged unless asked for.
    bool enabled = false;
    // Monitor wake-up period. The detection latency bound is
    // poll_interval_seconds on top of the criterion itself.
    double poll_interval_seconds = 0.01;
    // Overrun criterion: kill at deadline_multiple × budget.
    double deadline_multiple = 2.0;
    // Overrun criterion for budgetless renders (they have no deadline to
    // multiply); <= 0 disables killing them on elapsed time alone.
    double no_budget_kill_seconds = 30.0;
    // No-progress criterion: kill when the heartbeat has been static this
    // long (and the render has run at least this long); <= 0 disables it.
    double no_progress_seconds = 1.0;
    // Monotonic time source; null uses CurrentClock() (resolved once, at
    // construction). The render service passes its own clock through here.
    Clock* clock = nullptr;
    // When false, no monitor thread is ever spawned and the owner drives
    // SweepOnce() itself — the simulator's mode, where sweeps must happen
    // at deterministic points of virtual time rather than on a real thread.
    bool start_monitor = true;
  };

  // `on_stall` is invoked (on the monitor thread) for every kill, after the
  // force-cancel has been delivered. May be null.
  using StallFn = std::function<void(const StallReport&)>;

  explicit RenderWatchdog(Options options, StallFn on_stall = nullptr);
  ~RenderWatchdog();  // Stop()

  RenderWatchdog(const RenderWatchdog&) = delete;
  RenderWatchdog& operator=(const RenderWatchdog&) = delete;

  // Registers a render about to start. Returns the handle whose kill token
  // and heartbeat the caller must thread into the render; never null. The
  // monitor starts lazily on first registration.
  std::shared_ptr<WatchEntry> Watch(uint64_t request_id,
                                    double budget_seconds);
  // De-registers a finished render (idempotent; entry may already be gone).
  void Unwatch(const std::shared_ptr<WatchEntry>& entry);

  // Runs one monitor sweep synchronously — the unit-test entry point (the
  // background thread calls the same sweep). Returns the number of kills
  // delivered by this sweep.
  int SweepOnce();

  // Stops the monitor thread. Registered entries stay valid (shared_ptrs);
  // no further kills are delivered.
  void Stop();

  uint64_t kills() const { return kills_.load(std::memory_order_relaxed); }
  // All stall reports recorded so far, oldest first (capped internally).
  std::vector<StallReport> stall_reports() const;

 private:
  void MonitorLoop();
  void EnsureMonitorLocked();

  const Options options_;
  const StallFn on_stall_;
  Clock* const clock_;

  mutable std::mutex mu_;
  // Set by Stop(): ends the monitor's inter-sweep wait immediately, so
  // shutdown latency is one sweep, not up to one poll period.
  Waker stop_waker_;
  bool stopping_ = false;
  bool monitor_running_ = false;
  std::thread monitor_;
  std::vector<std::shared_ptr<WatchEntry>> entries_;
  // Heartbeat value and when it was last seen moving, parallel to entries_.
  struct Progress {
    uint64_t last_heartbeat = 0;
    double last_change_seconds = 0.0;
  };
  std::vector<Progress> progress_;
  std::vector<StallReport> reports_;
  std::atomic<uint64_t> kills_{0};
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_WATCHDOG_H_
