#include "serve/watchdog.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace kdv {

namespace {
constexpr size_t kMaxReports = 1024;

obs::Counter* WatchdogKillCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("kdv_watchdog_kills_total");
  return c;
}
}  // namespace

RenderWatchdog::RenderWatchdog(Options options, StallFn on_stall)
    : options_(options),
      on_stall_(std::move(on_stall)),
      clock_(options.clock != nullptr ? options.clock : CurrentClock()) {}

RenderWatchdog::~RenderWatchdog() { Stop(); }

std::shared_ptr<WatchEntry> RenderWatchdog::Watch(uint64_t request_id,
                                                  double budget_seconds) {
  auto entry = std::make_shared<WatchEntry>();
  entry->request_id = request_id;
  entry->budget_seconds = budget_seconds;
  entry->started = Timer(clock_);
  if (!options_.enabled) return entry;  // inert handle: never monitored
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return entry;
  entries_.push_back(entry);
  progress_.push_back({0, entry->started.ElapsedSeconds()});
  EnsureMonitorLocked();
  return entry;
}

void RenderWatchdog::Unwatch(const std::shared_ptr<WatchEntry>& entry) {
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i] == entry) {
      entries_.erase(entries_.begin() + i);
      progress_.erase(progress_.begin() + i);
      return;
    }
  }
}

int RenderWatchdog::SweepOnce() {
  std::vector<StallReport> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      WatchEntry& entry = *entries_[i];
      if (entry.WasKilled()) continue;
      const double elapsed = entry.started.ElapsedSeconds();
      const uint64_t beat = entry.heartbeat.load(std::memory_order_relaxed);
      Progress& prog = progress_[i];
      if (beat != prog.last_heartbeat) {
        prog.last_heartbeat = beat;
        prog.last_change_seconds = elapsed;
      }

      bool overrun = false;
      if (entry.budget_seconds > 0.0 &&
          !entry.budget_released.load(std::memory_order_acquire)) {
        overrun = elapsed > options_.deadline_multiple * entry.budget_seconds;
      } else if (options_.no_budget_kill_seconds > 0.0) {
        overrun = elapsed > options_.no_budget_kill_seconds;
      }
      // The no-progress criterion only applies once the render has
      // heartbeated at least once: every render heartbeats at its poll
      // points, so a silent entry is wedged before its first one, which
      // the overrun criterion covers.
      const bool stalled =
          beat > 0 && options_.no_progress_seconds > 0.0 &&
          elapsed - prog.last_change_seconds >= options_.no_progress_seconds;
      if (!overrun && !stalled) continue;

      entry.kill.RequestCancel();
      entry.killed.store(true, std::memory_order_release);
      kills_.fetch_add(1, std::memory_order_relaxed);
      WatchdogKillCounter()->Increment();

      StallReport report;
      report.request_id = entry.request_id;
      report.elapsed_seconds = elapsed;
      report.budget_seconds = entry.budget_seconds;
      report.heartbeat = beat;
      report.no_progress = stalled && !overrun;
      fired.push_back(report);
      reports_.push_back(report);
    }
    if (reports_.size() > kMaxReports) {
      reports_.erase(reports_.begin(),
                     reports_.begin() + (reports_.size() - kMaxReports));
    }
  }
  // Callbacks run outside the lock: the service's handler takes its own
  // locks (breaker, counters) and must be free to call back into us.
  if (on_stall_ != nullptr) {
    for (const StallReport& report : fired) on_stall_(report);
  }
  return static_cast<int>(fired.size());
}

void RenderWatchdog::EnsureMonitorLocked() {
  if (monitor_running_ || stopping_ || !options_.start_monitor) return;
  monitor_running_ = true;
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void RenderWatchdog::MonitorLoop() {
  const double period = std::max(options_.poll_interval_seconds, 1e-4);
  for (;;) {
    // The stop waker cuts the wait short, so Stop() never blocks for a
    // poll period — only for at most one in-progress sweep.
    clock_->WaitFor(period, &stop_waker_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    SweepOnce();
  }
}

void RenderWatchdog::Stop() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (monitor_running_) {
      joinee = std::move(monitor_);
      monitor_running_ = false;
    }
  }
  stop_waker_.Set();
  if (joinee.joinable()) joinee.join();
}

std::vector<StallReport> RenderWatchdog::stall_reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

}  // namespace kdv
