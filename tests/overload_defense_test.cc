// Unit suite for the runtime self-defense layer: the MemBudget accountant,
// retryable-fault classification, the brownout governor's hysteresis state
// machine (driven by an injected clock), the render watchdog's two kill
// criteria (driven by SweepOnce), and the integrity scrubber's CRC sweep,
// rebaseline, and pixel-oracle checks against real on-disk trees.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/serialization.h"
#include "serve/overload_governor.h"
#include "serve/render_service.h"
#include "serve/scrubber.h"
#include "serve/watchdog.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// MemBudget
// ---------------------------------------------------------------------------

TEST(MemBudgetTest, ChargesAndReleasesBalanceExactly) {
  MemBudget budget;
  budget.Charge(MemSource::kRefinementScratch, 100);
  budget.Charge(MemSource::kFrameBuffers, 250);
  budget.Charge(MemSource::kTaskQueue, 50);
  EXPECT_EQ(budget.used_bytes(), 400u);
  EXPECT_EQ(budget.used_bytes(MemSource::kRefinementScratch), 100u);
  EXPECT_EQ(budget.used_bytes(MemSource::kFrameBuffers), 250u);
  EXPECT_EQ(budget.used_bytes(MemSource::kTaskQueue), 50u);
  budget.Release(MemSource::kFrameBuffers, 250);
  budget.Release(MemSource::kRefinementScratch, 100);
  budget.Release(MemSource::kTaskQueue, 50);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemBudgetTest, PeakTracksTheHighWaterMark) {
  MemBudget budget;
  budget.Charge(MemSource::kFrameBuffers, 300);
  budget.Release(MemSource::kFrameBuffers, 300);
  budget.Charge(MemSource::kFrameBuffers, 120);
  EXPECT_EQ(budget.peak_bytes(), 300u);
  budget.ResetPeak();
  budget.Charge(MemSource::kFrameBuffers, 10);
  EXPECT_GE(budget.peak_bytes(), 130u);  // reset re-seeds from current usage
  budget.Release(MemSource::kFrameBuffers, 130);
}

TEST(MemBudgetTest, OverReleaseClampsToZeroInsteadOfWrapping) {
  MemBudget budget;
  budget.Charge(MemSource::kTaskQueue, 10);
  budget.Release(MemSource::kTaskQueue, 1000);  // caller bug: must not wrap
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(budget.used_bytes(MemSource::kTaskQueue), 0u);
  // The accountant still works after the clamp.
  budget.Charge(MemSource::kTaskQueue, 7);
  EXPECT_EQ(budget.used_bytes(), 7u);
  budget.Release(MemSource::kTaskQueue, 7);
}

TEST(MemBudgetTest, ScopedChargeReleasesOnDestructionAndMove) {
  MemBudget budget;
  {
    ScopedMemCharge charge(&budget, MemSource::kFrameBuffers, 64);
    EXPECT_EQ(budget.used_bytes(), 64u);
    ScopedMemCharge moved = std::move(charge);
    EXPECT_EQ(budget.used_bytes(), 64u);  // ownership moved, not doubled
    ScopedMemCharge other(&budget, MemSource::kFrameBuffers, 16);
    other = std::move(moved);  // releases other's 16, keeps the 64
    EXPECT_EQ(budget.used_bytes(), 64u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Retry classification (satellite bugfix: shed work must not be retried)
// ---------------------------------------------------------------------------

TEST(RetryClassificationTest, OnlyInternalFaultsAreRetryable) {
  EXPECT_TRUE(IsRetryableRenderFault(StatusCode::kInternal));
  // Retrying shed work amplifies the overload that shed it.
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kResourceExhausted));
  // Someone already gave up on these.
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kDeadlineExceeded));
  // The breaker is open on purpose.
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kUnavailable));
  // Deterministic failures won't get better.
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kDataLoss));
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableRenderFault(StatusCode::kOk));
}

// ---------------------------------------------------------------------------
// OverloadGovernor
// ---------------------------------------------------------------------------

OverloadGovernor::Options GovernorOptions(ManualClock* clock) {
  OverloadGovernor::Options options;
  options.enabled = true;
  options.in_flight_capacity = 10;
  options.recover_hold_seconds = 0.5;
  options.clock = clock;
  return options;
}

TEST(OverloadGovernorTest, EscalatesImmediatelyAsPressureRises) {
  ManualClock now;
  OverloadGovernor governor(GovernorOptions(&now));

  governor.RecordInFlight(2);  // pressure 0.2
  OverloadGovernor::Decision d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kNormal);
  EXPECT_DOUBLE_EQ(d.eps_multiplier, 1.0);
  EXPECT_FALSE(d.shed);

  governor.RecordInFlight(6);  // pressure 0.6 >= enter_progressive
  d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kProgressive);
  EXPECT_GT(d.eps_multiplier, 1.0);
  EXPECT_FALSE(d.shed);

  governor.RecordInFlight(9);  // pressure 0.9 >= enter_coarse
  d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kCoarse);
  EXPECT_FALSE(d.shed);

  // A full in-flight table is capped below the shed ceiling — admission
  // control owns that rejection — so the governor browns out but does not
  // shed on this signal alone.
  governor.RecordInFlight(10);  // ratio 1.0, capped to 0.95
  d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kCoarse);
  EXPECT_FALSE(d.shed);

  // Queue-wait saturation (a signal admission control cannot see) does
  // push past the ceiling.
  governor.RecordQueueWait(0.6);  // saturation is 0.5s: pressure 1.2
  d = governor.Assess();
  EXPECT_TRUE(d.shed);
  EXPECT_LE(d.eps_multiplier,
            OverloadGovernor::Options().eps_max_multiplier + 1e-12);

  OverloadGovernor::Stats stats = governor.stats();
  EXPECT_EQ(stats.max_level, OverloadGovernor::Level::kCoarse);
  EXPECT_GE(stats.activations, 2u);
  EXPECT_GE(stats.sheds, 1u);
}

TEST(OverloadGovernorTest, DeEscalatesOneLevelAtATimeAfterTheHold) {
  ManualClock now;
  OverloadGovernor governor(GovernorOptions(&now));

  governor.RecordInFlight(9);
  ASSERT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);

  // Calm down completely. The first calm assessment starts the hold; the
  // level must not move until recover_hold_seconds have elapsed.
  governor.RecordInFlight(0);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);
  now.SetTime(0.4);  // hold is 0.5
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);
  now.SetTime(0.6);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
  // One step only; the next hold starts at the next calm assessment (0.9).
  now.SetTime(0.9);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
  now.SetTime(1.2);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
  now.SetTime(1.5);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kNormal);

  // Transition log: every step is exactly one level, escalations included.
  std::vector<OverloadGovernor::Transition> transitions =
      governor.transitions();
  ASSERT_GE(transitions.size(), 3u);
  for (size_t i = 0; i < transitions.size(); ++i) {
    const int delta = static_cast<int>(transitions[i].to) -
                      static_cast<int>(transitions[i].from);
    if (delta < 0) {
      EXPECT_EQ(delta, -1);  // de-escalation is stepwise
    }
    if (i > 0) {
      EXPECT_EQ(transitions[i].from, transitions[i - 1].to);
      EXPECT_GE(transitions[i].at_seconds, transitions[i - 1].at_seconds);
    }
  }
}

TEST(OverloadGovernorTest, PressureSpikeDuringTheHoldResetsIt) {
  ManualClock now;
  OverloadGovernor governor(GovernorOptions(&now));
  governor.RecordInFlight(9);
  ASSERT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);

  governor.RecordInFlight(0);
  governor.Assess();  // hold starts at t=0
  now.SetTime(0.3);
  governor.RecordInFlight(7);  // 0.7: above coarse's exit threshold (0.65)
  governor.Assess();           // resets the hold
  governor.RecordInFlight(0);
  now.SetTime(0.7);  // a fresh hold starts here, not at the original t=0
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);
  now.SetTime(1.0);  // 0.3s into the fresh hold: still not enough
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kCoarse);
  now.SetTime(1.2);
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
}

TEST(OverloadGovernorTest, StaleQueueWaitSignalDecaysInsteadOfSheddingForever) {
  ManualClock now;
  OverloadGovernor::Options options = GovernorOptions(&now);
  options.queue_wait_saturation_seconds = 0.1;
  options.queue_wait_decay_halflife_seconds = 1.0;
  OverloadGovernor governor(options);

  // A burst drives the wait EWMA far past the shed ceiling. Queue-wait
  // samples only arrive when requests are admitted, so once shedding starts
  // the signal gets no new data — without decay this state is absorbing.
  governor.RecordQueueWait(0.4);  // pressure 4.0
  OverloadGovernor::Decision d = governor.Assess();
  EXPECT_TRUE(d.shed);

  now.SetTime(1.0);  // one half-life: pressure 2.0, still shedding
  EXPECT_TRUE(governor.Assess().shed);
  now.SetTime(3.0);  // three half-lives: pressure 0.5, below every threshold
  d = governor.Assess();
  EXPECT_FALSE(d.shed);
  EXPECT_LT(d.pressure, options.enter_progressive);
  EXPECT_NEAR(d.pressure, 0.5, 0.05);
  // The level itself still unwinds hysteretically: coarse until the hold
  // elapses, then one step per hold.
  EXPECT_EQ(d.level, OverloadGovernor::Level::kCoarse);
  now.SetTime(3.6);  // hold (0.5s) elapsed since the calm assessment at t=3.0
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
  now.SetTime(4.0);  // next hold starts here...
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kProgressive);
  now.SetTime(4.6);  // ...and completes: back to the full certified ladder
  EXPECT_EQ(governor.Assess().level, OverloadGovernor::Level::kNormal);
}

TEST(OverloadGovernorTest, MemoryPressureAloneCanTriggerBrownout) {
  ManualClock now;
  OverloadGovernor::Options options = GovernorOptions(&now);
  options.memory_budget_bytes = 1000;
  OverloadGovernor governor(options);

  // The governor reads the global accountant; park a charge on it.
  ScopedMemCharge charge(&MemBudget::Global(), MemSource::kFrameBuffers, 900);
  OverloadGovernor::Decision d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kCoarse);
  EXPECT_GE(d.pressure, 0.9);
}

TEST(OverloadGovernorTest, DisabledGovernorNeverActs) {
  OverloadGovernor::Options options;  // enabled defaults to false
  OverloadGovernor governor(options);
  governor.RecordInFlight(1000);
  governor.RecordQueueWait(1000.0);
  OverloadGovernor::Decision d = governor.Assess();
  EXPECT_EQ(d.level, OverloadGovernor::Level::kNormal);
  EXPECT_FALSE(d.shed);
  EXPECT_DOUBLE_EQ(d.eps_multiplier, 1.0);
  EXPECT_EQ(governor.stats().assessments, 0u);
}

// ---------------------------------------------------------------------------
// RenderWatchdog (SweepOnce drives the monitor deterministically; the
// background thread is parked on a long poll interval)
// ---------------------------------------------------------------------------

RenderWatchdog::Options WatchdogOptions() {
  RenderWatchdog::Options options;
  options.enabled = true;
  options.poll_interval_seconds = 30.0;  // unit tests sweep by hand
  options.deadline_multiple = 2.0;
  options.no_budget_kill_seconds = 0.0;
  options.no_progress_seconds = 0.0;
  return options;
}

TEST(RenderWatchdogTest, KillsARenderPastItsDeadlineMultiple) {
  RenderWatchdog watchdog(WatchdogOptions());
  std::shared_ptr<WatchEntry> watch = watchdog.Watch(1, /*budget=*/0.01);
  EXPECT_EQ(watchdog.SweepOnce(), 0);  // within budget: untouched
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watchdog.SweepOnce(), 1);
  EXPECT_TRUE(watch->WasKilled());
  EXPECT_TRUE(watch->kill.cancelled());
  EXPECT_EQ(watchdog.kills(), 1u);
  // A killed entry is not killed twice.
  EXPECT_EQ(watchdog.SweepOnce(), 0);
  std::vector<StallReport> reports = watchdog.stall_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].request_id, 1u);
  EXPECT_FALSE(reports[0].no_progress);  // overrun criterion
  watchdog.Unwatch(watch);
}

// A released budget (the coarse stand-in after a cut-short attempt, which
// has no deadline of its own) is judged as budgetless: far past
// deadline_multiple x its budget it lives on, and only
// no_budget_kill_seconds ends it.
TEST(RenderWatchdogTest, ReleasedBudgetIsJudgedAsBudgetless) {
  ManualClock clock;
  RenderWatchdog::Options options = WatchdogOptions();
  options.no_budget_kill_seconds = 1.0;
  options.clock = &clock;
  options.start_monitor = false;  // WaitFor would advance the manual clock
  RenderWatchdog watchdog(options);
  std::shared_ptr<WatchEntry> kept = watchdog.Watch(9, /*budget=*/0.01);
  std::shared_ptr<WatchEntry> released = watchdog.Watch(10, /*budget=*/0.01);
  released->budget_released.store(true);
  clock.SetTime(0.5);  // 50x the budget
  EXPECT_EQ(watchdog.SweepOnce(), 1);
  EXPECT_TRUE(kept->WasKilled());
  EXPECT_FALSE(released->WasKilled());
  clock.SetTime(1.5);  // past no_budget_kill_seconds
  EXPECT_EQ(watchdog.SweepOnce(), 1);
  EXPECT_TRUE(released->WasKilled());
  watchdog.Unwatch(kept);
  watchdog.Unwatch(released);
}

TEST(RenderWatchdogTest, SilentEntryWithoutHeartbeatsIsNotFlaggedStalled) {
  RenderWatchdog::Options options = WatchdogOptions();
  options.no_progress_seconds = 0.005;
  RenderWatchdog watchdog(options);
  // No budget and no beat yet (a render wedged before its first poll
  // point): the no-progress criterion must not fire before the first beat.
  std::shared_ptr<WatchEntry> watch = watchdog.Watch(2, /*budget=*/-1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.SweepOnce(), 0);
  EXPECT_FALSE(watch->WasKilled());
  watchdog.Unwatch(watch);
}

TEST(RenderWatchdogTest, StalledHeartbeatIsKilledAndBeatingOneIsNot) {
  RenderWatchdog::Options options = WatchdogOptions();
  options.no_progress_seconds = 0.02;
  RenderWatchdog watchdog(options);
  std::shared_ptr<WatchEntry> stalled = watchdog.Watch(3, /*budget=*/-1.0);
  std::shared_ptr<WatchEntry> beating = watchdog.Watch(4, /*budget=*/-1.0);
  stalled->heartbeat.fetch_add(1);  // one beat, then silence
  beating->heartbeat.fetch_add(1);
  watchdog.SweepOnce();  // observes both first beats

  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    beating->heartbeat.fetch_add(1);
    watchdog.SweepOnce();
  }
  EXPECT_TRUE(stalled->WasKilled());
  EXPECT_FALSE(beating->WasKilled());
  std::vector<StallReport> reports = watchdog.stall_reports();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_TRUE(reports[0].no_progress);
  watchdog.Unwatch(stalled);
  watchdog.Unwatch(beating);
}

TEST(RenderWatchdogTest, UnwatchedEntriesAreLeftAlone) {
  RenderWatchdog watchdog(WatchdogOptions());
  std::shared_ptr<WatchEntry> watch = watchdog.Watch(5, /*budget=*/0.001);
  watchdog.Unwatch(watch);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(watchdog.SweepOnce(), 0);
  EXPECT_FALSE(watch->WasKilled());
}

TEST(RenderWatchdogTest, StallCallbackFiresOncePerKill) {
  std::atomic<int> stalls{0};
  RenderWatchdog watchdog(WatchdogOptions(),
                          [&stalls](const StallReport&) { ++stalls; });
  std::shared_ptr<WatchEntry> a = watchdog.Watch(6, /*budget=*/0.001);
  std::shared_ptr<WatchEntry> b = watchdog.Watch(7, /*budget=*/0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(watchdog.SweepOnce(), 2);
  EXPECT_EQ(stalls.load(), 2);
  EXPECT_EQ(watchdog.SweepOnce(), 0);
  EXPECT_EQ(stalls.load(), 2);
  watchdog.Unwatch(a);
  watchdog.Unwatch(b);
}

TEST(RenderWatchdogTest, DisabledWatchdogHandsOutInertHandles) {
  RenderWatchdog::Options options;  // enabled defaults to false
  RenderWatchdog watchdog(options);
  std::shared_ptr<WatchEntry> watch = watchdog.Watch(8, /*budget=*/0.0001);
  ASSERT_NE(watch, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(watchdog.SweepOnce(), 0);
  EXPECT_FALSE(watch->WasKilled());
}

// ---------------------------------------------------------------------------
// IntegrityScrubber
// ---------------------------------------------------------------------------

class ScrubberTest : public ::testing::Test {
 protected:
  ScrubberTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian),
        evaluator_(bench_.MakeEvaluator(Method::kQuad)) {}

  IntegrityScrubber::Options BaseOptions() {
    IntegrityScrubber::Options options;
    options.enabled = true;
    options.slice_bytes = 4096;
    options.pixel_samples_per_tick = 0;
    return options;
  }

  // Runs ticks until `done` or the bound; returns the first non-OK status.
  Status TickUntil(IntegrityScrubber* scrubber,
                   const std::function<bool()>& done) {
    Status first_bad = OkStatus();
    for (int i = 0; i < 10000 && !done(); ++i) {
      Status s = scrubber->RunTick();
      if (!s.ok() && first_bad.ok()) first_bad = s;
    }
    return first_bad;
  }

  Workbench bench_;
  KdeEvaluator evaluator_;
};

TEST_F(ScrubberTest, CrcSweepDetectsAnInjectedBitFlip) {
  const std::string path = TempPath("scrub_flip.kdv");
  KdTree tree{GenerateMixture(CrimeSpec(0.002))};
  ASSERT_TRUE(SaveKdTree(tree, path).ok());

  std::string reason_seen;
  IntegrityScrubber::Options options = BaseOptions();
  options.index_path = path;
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [&reason_seen](const std::string& reason) {
        reason_seen = reason;
        return OkStatus();  // "healed" (quarantine + swap in production)
      });

  // First pass establishes the CRC baseline.
  EXPECT_TRUE(
      TickUntil(&scrubber, [&] { return scrubber.stats().crc_passes >= 1; })
          .ok());
  ASSERT_GE(scrubber.stats().crc_passes, 1u);
  ASSERT_EQ(scrubber.stats().mismatches, 0u);

  // Flip one byte in the middle of the file: the sweep CRC diverges AND the
  // checksummed loader rejects the file, confirming rot.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 64);
    const std::streamoff at = size / 2;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(at);
    f.write(&byte, 1);
  }

  Status bad = TickUntil(
      &scrubber, [&] { return scrubber.stats().mismatches >= 1; });
  IntegrityScrubber::Stats stats = scrubber.stats();
  EXPECT_EQ(stats.mismatches, 1u);
  EXPECT_EQ(stats.recoveries, 1u);  // our callback returned OK
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(reason_seen.empty());
  EXPECT_NE(stats.last_verdict.find("fails verification"), std::string::npos)
      << stats.last_verdict;
  std::remove(path.c_str());
}

TEST_F(ScrubberTest, AtomicReplacementRebaselinesInsteadOfAlarming) {
  const std::string path = TempPath("scrub_swap.kdv");
  KdTree small{GenerateMixture(CrimeSpec(0.002))};
  ASSERT_TRUE(SaveKdTree(small, path).ok());

  IntegrityScrubber::Options options = BaseOptions();
  options.index_path = path;
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [](const std::string&) { return OkStatus(); });
  EXPECT_TRUE(
      TickUntil(&scrubber, [&] { return scrubber.stats().crc_passes >= 1; })
          .ok());

  // A checkpoint atomically replaces the file with a different, valid tree.
  KdTree replacement{GenerateMixture(CrimeSpec(0.004))};
  ASSERT_TRUE(SaveKdTree(replacement, path).ok());

  EXPECT_TRUE(
      TickUntil(&scrubber, [&] { return scrubber.stats().rebaselines >= 1; })
          .ok());
  IntegrityScrubber::Stats stats = scrubber.stats();
  EXPECT_GE(stats.rebaselines, 1u);
  EXPECT_EQ(stats.mismatches, 0u);

  // The sweep keeps working against the new baseline.
  const uint64_t passes_before = stats.crc_passes;
  EXPECT_TRUE(TickUntil(&scrubber,
                        [&] {
                          return scrubber.stats().crc_passes >=
                                 passes_before + 2;
                        })
                  .ok());
  EXPECT_EQ(scrubber.stats().mismatches, 0u);
  std::remove(path.c_str());
}

TEST_F(ScrubberTest, PixelOracleAcceptsAHealthyEvaluator) {
  IntegrityScrubber::Options options = BaseOptions();
  options.pixel_samples_per_tick = 4;
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [](const std::string&) { return OkStatus(); });
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(scrubber.RunTick().ok());
  }
  IntegrityScrubber::Stats stats = scrubber.stats();
  EXPECT_EQ(stats.pixel_checks, 128u);
  EXPECT_EQ(stats.mismatches, 0u);
}

TEST_F(ScrubberTest, DeferGateSkipsTheTick) {
  std::atomic<bool> busy{true};
  IntegrityScrubber::Options options = BaseOptions();
  options.pixel_samples_per_tick = 2;
  options.defer = [&busy] { return busy.load(); };
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [](const std::string&) { return OkStatus(); });
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(scrubber.RunTick().ok());
  IntegrityScrubber::Stats stats = scrubber.stats();
  EXPECT_EQ(stats.deferred, 4u);
  EXPECT_EQ(stats.pixel_checks, 0u);

  busy.store(false);
  EXPECT_TRUE(scrubber.RunTick().ok());
  EXPECT_GT(scrubber.stats().pixel_checks, 0u);
}

TEST_F(ScrubberTest, DisabledScrubberDoesNothing) {
  IntegrityScrubber::Options options = BaseOptions();
  options.enabled = false;
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [](const std::string&) { return OkStatus(); });
  EXPECT_TRUE(scrubber.RunTick().ok());
  EXPECT_EQ(scrubber.stats().ticks, 0u);
  scrubber.Start();  // no-op
  scrubber.Stop();
}

TEST_F(ScrubberTest, CorruptFailpointForcesTheFullRecoveryPath) {
  if (!failpoint::enabled()) {
    GTEST_SKIP() << "requires -DKDV_FAILPOINTS=ON";
  }
  std::atomic<int> callbacks{0};
  IntegrityScrubber::Options options = BaseOptions();
  options.pixel_samples_per_tick = 1;
  IntegrityScrubber scrubber(
      options, [this] { return &evaluator_; },
      [&callbacks](const std::string& reason) {
        EXPECT_NE(reason.find("scrub.corrupt"), std::string::npos);
        ++callbacks;
        return OkStatus();
      });
  ASSERT_TRUE(failpoint::Arm("scrub.corrupt", failpoint::Action::kError,
                             /*delay_ms=*/0, /*max_hits=*/1)
                  .ok());
  Status first = scrubber.RunTick();
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(scrubber.stats().mismatches, 1u);
  EXPECT_EQ(scrubber.stats().recoveries, 1u);
  // Single-shot failpoint: the next tick is clean again.
  EXPECT_TRUE(scrubber.RunTick().ok());
  failpoint::Reset();
}

}  // namespace
}  // namespace kdv
