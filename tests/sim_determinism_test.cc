// Deterministic simulation suite: the replay contract and its machinery.
//
// Part 1 covers the substrate units — SimClock advance/wait routing,
// SimExecutor's cooperative scheduling (admission parity with ThreadPool,
// virtual-time sleeps, Waker wakeups, seed-identical interleavings), and
// FaultSchedule's spec round-trip plus the greedy shrinker. Part 2 is the
// whole-stack contract: RunSimulation twice with the same seed must produce
// byte-identical event logs (and hashes, and counters), different seeds must
// diverge, the seed's low bit must pick the service's frame path, and the
// planted-bug canary proves the invariant checkers and the
// schedule reducer actually catch and minimize a real bookkeeping bug.
// Part 3 asserts the Stop() latency bound the Clock seam exists to provide:
// components with periodic background loops (watchdog, scrubber) must stop
// promptly even mid-sleep, because their waits go through Clock::WaitFor
// with a Waker instead of raw sleeps.
#include "sim/sim_env.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fault_schedule.h"
#include "sim/sim_clock.h"
#include "sim/sim_executor.h"
#include "serve/scrubber.h"
#include "serve/watchdog.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/timer.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------------

TEST(SimClockTest, AdvanceIsMonotoneAndWaitForAdvancesOnDriverThread) {
  SimClock clock;
  EXPECT_EQ(clock.NowSeconds(), 0.0);
  EXPECT_TRUE(clock.IsSimulated());

  clock.AdvanceTo(2.5);
  EXPECT_EQ(clock.NowSeconds(), 2.5);
  clock.AdvanceTo(1.0);  // never goes backwards
  EXPECT_EQ(clock.NowSeconds(), 2.5);

  // Off a simulated task, WaitFor is a direct virtual-time advance.
  clock.WaitFor(0.5, nullptr);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 3.0);
}

TEST(SimClockTest, WaitForReturnsWithoutAdvanceWhenWakerAlreadySet) {
  SimClock clock;
  Waker waker;
  waker.Set();
  clock.WaitFor(100.0, &waker);
  EXPECT_EQ(clock.NowSeconds(), 0.0);
}

// ---------------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------------

TEST(SimExecutorTest, AdmissionMatchesThreadPoolContract) {
  SimClock clock;
  SimExecutor ex(&clock, {/*num_workers=*/1, /*max_queue=*/2, /*seed=*/1});
  int ran = 0;
  ASSERT_TRUE(ex.TrySubmit([&ran] { ++ran; }).ok());
  ASSERT_TRUE(ex.TrySubmit([&ran] { ++ran; }).ok());
  Status shed = ex.TrySubmit([&ran] { ++ran; });
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  ex.RunUntilIdle();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ex.tasks_executed(), 2u);

  ex.Stop();
  Status late = ex.TrySubmit([&ran] { ++ran; });
  EXPECT_EQ(late.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ran, 2);
}

TEST(SimExecutorTest, SleepersAdvanceVirtualTimeNotWallTime) {
  SimClock clock;
  SimExecutor ex(&clock, {/*num_workers=*/2, /*max_queue=*/8, /*seed=*/3});
  RealClock real;
  Timer wall(&real);
  ASSERT_TRUE(ex.TrySubmit([&clock] { clock.WaitFor(5.0, nullptr); }).ok());
  ASSERT_TRUE(ex.TrySubmit([&clock] { clock.WaitFor(9.0, nullptr); }).ok());
  ex.RunUntilIdle();
  EXPECT_GE(clock.NowSeconds(), 9.0);
  // 9 virtual seconds must cost nowhere near 9 wall seconds.
  EXPECT_LT(wall.ElapsedSeconds(), 5.0);
  ex.Stop();
}

TEST(SimExecutorTest, WakerCutsASleepShort) {
  SimClock clock;
  SimExecutor ex(&clock, {/*num_workers=*/2, /*max_queue=*/8, /*seed=*/7});
  Waker waker;
  bool sleeper_done = false;
  ASSERT_TRUE(ex.TrySubmit([&clock, &waker, &sleeper_done] {
                  clock.WaitFor(1000.0, &waker);
                  sleeper_done = true;
                }).ok());
  ASSERT_TRUE(ex.TrySubmit([&clock, &waker] {
                  clock.WaitFor(0.5, nullptr);
                  waker.Set();
                }).ok());
  ex.RunUntilIdle();
  EXPECT_TRUE(sleeper_done);
  // The 1000 s sleep was interrupted by the Set(), not slept out.
  EXPECT_LT(clock.NowSeconds(), 100.0);
  ex.Stop();
}

TEST(SimExecutorTest, SameSeedSameInterleaving) {
  auto run = [](uint64_t seed) {
    SimClock clock;
    SimExecutor ex(&clock, {/*num_workers=*/3, /*max_queue=*/16, seed});
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(ex.TrySubmit([&clock, &order, i] {
                      order.push_back(i);
                      clock.WaitFor(0.01 * (i % 3), nullptr);
                      order.push_back(10 + i);
                    }).ok());
    }
    ex.RunUntilIdle();
    ex.Stop();
    return order;
  };
  const std::vector<int> a = run(42);
  const std::vector<int> b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 12u);
}

// ---------------------------------------------------------------------------
// FaultSchedule
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, DerivationIsDeterministic) {
  FaultSchedule a = DeriveFaultSchedule(99, 300);
  FaultSchedule b = DeriveFaultSchedule(99, 300);
  EXPECT_EQ(a.Spec(), b.Spec());
  EXPECT_FALSE(a.events.empty());
  FaultSchedule c = DeriveFaultSchedule(100, 300);
  EXPECT_NE(a.Spec(), c.Spec());
}

TEST(FaultScheduleTest, SpecParsesBackToItself) {
  FaultSchedule derived = DeriveFaultSchedule(1234, 400);
  StatusOr<FaultSchedule> parsed = FaultSchedule::Parse(derived.Spec());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Spec(), derived.Spec());
}

TEST(FaultScheduleTest, ParseRejectsUnknownSitesAndGarbage) {
  EXPECT_FALSE(FaultSchedule::Parse("5:no.such.site=error").ok());
  EXPECT_FALSE(FaultSchedule::Parse("not a schedule").ok());
  EXPECT_FALSE(FaultSchedule::Parse("x:io.write=error").ok());
}

TEST(FaultScheduleTest, ShrinkerFindsTheOneGuiltyEvent) {
  StatusOr<FaultSchedule> parsed = FaultSchedule::Parse(
      "5:io.fsync=error;10:io.write=error;20:serve.render=delay(30,2);"
      "30:journal.tail=error");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // "Fails" iff the candidate still contains the io.write event.
  FaultSchedule minimal =
      ShrinkSchedule(*parsed, [](const FaultSchedule& candidate) {
        return std::any_of(candidate.events.begin(), candidate.events.end(),
                           [](const FaultEvent& e) {
                             return e.site == "io.write";
                           });
      });
  ASSERT_EQ(minimal.events.size(), 1u);
  EXPECT_EQ(minimal.events[0].site, "io.write");
}

// ---------------------------------------------------------------------------
// Whole-stack replay contract
// ---------------------------------------------------------------------------

SimOptions SmallRun(uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.num_ops = 100;
  options.state_root = ::testing::TempDir();
  return options;
}

TEST(SimReplayTest, SameSeedIsBitIdentical) {
  SimReport first = RunSimulation(SmallRun(11));
  SimReport second = RunSimulation(SmallRun(11));
  EXPECT_FALSE(first.failed) << first.failure;
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.event_hash, second.event_hash);
  EXPECT_EQ(first.submits, second.submits);
  EXPECT_EQ(first.completions, second.completions);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.virtual_seconds, second.virtual_seconds);
  EXPECT_GT(first.completions, 0u);
  // The second replay fingerprint: the registry is Reset() at run start and
  // every obs duration flows through the virtual clock (SimEnv installs it
  // as the process default), so the end-of-run metrics snapshot must be
  // byte-identical — a real-clock read anywhere in the instrumentation
  // shows up here as a differing duration histogram.
  EXPECT_FALSE(first.metrics_text.empty());
  EXPECT_EQ(first.metrics_text, second.metrics_text);
  EXPECT_EQ(first.metrics_crc, second.metrics_crc);
  EXPECT_NE(first.metrics_crc, 0u);
}

TEST(SimReplayTest, DifferentSeedsDiverge) {
  SimReport a = RunSimulation(SmallRun(11));
  SimReport b = RunSimulation(SmallRun(12));
  EXPECT_FALSE(a.failed) << a.failure;
  EXPECT_FALSE(b.failed) << b.failure;
  EXPECT_NE(a.event_hash, b.event_hash);
}

// The seed's low bit picks the service's frame path (odd: tile-shared), and
// the run's first event records it.
TEST(SimReplayTest, SeedParityPicksTheFramePath) {
  SimReport odd = RunSimulation(SmallRun(11));
  SimReport even = RunSimulation(SmallRun(12));
  EXPECT_FALSE(odd.failed) << odd.failure;
  EXPECT_FALSE(even.failed) << even.failure;
  ASSERT_FALSE(odd.events.empty());
  ASSERT_FALSE(even.events.empty());
  EXPECT_NE(odd.events[0].find("config tile_shared=1"), std::string::npos)
      << odd.events[0];
  EXPECT_NE(even.events[0].find("config tile_shared=0"), std::string::npos)
      << even.events[0];
}

TEST(SimReplayTest, FaultsDisabledStillRunsAndDiffersFromFaulted) {
  SimOptions options = SmallRun(11);
  options.faults_enabled = false;
  SimReport quiet = RunSimulation(options);
  EXPECT_FALSE(quiet.failed) << quiet.failure;
  // Same quiet run replays identically too.
  SimReport quiet2 = RunSimulation(options);
  EXPECT_EQ(quiet.event_hash, quiet2.event_hash);
}

TEST(SimReplayTest, PlantedBugIsCaughtAndMinimized) {
  // The canary: a deliberately corrupted completion ledger must trip the
  // "no lost/double-completed requests" invariant — proof the checkers see
  // real bugs, not just injected faults.
  SimOptions options = SmallRun(5);
  options.num_ops = 150;
  options.plant_bug = true;
  SimReport failing = RunSimulation(options);
  ASSERT_TRUE(failing.failed);
  EXPECT_NE(failing.failure.find("completed twice"), std::string::npos)
      << failing.failure;

  SimReport minimal = MinimizeFailure(options, failing);
  EXPECT_TRUE(minimal.failed);
  EXPECT_LE(minimal.schedule.events.size(), failing.schedule.events.size());
  // The repro line names everything needed to re-run this exact failure.
  const std::string repro = minimal.ReproLine();
  EXPECT_NE(repro.find("--seed 5"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--plant-bug"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--ops 150"), std::string::npos) << repro;
}

// ---------------------------------------------------------------------------
// Stop() latency bounds (the Clock seam's other job)
// ---------------------------------------------------------------------------

// Background loops sleep through Clock::WaitFor with a Waker, so Stop() can
// interrupt a sleep instead of waiting it out. With a 5 s poll interval, a
// prompt stop proves the wait is interruptible; a raw sleep would hold
// Stop() for the full interval and trip the bound (generously set for slow
// CI machines, still far under the interval).
TEST(StopLatencyTest, WatchdogStopsMidSleep) {
  RenderWatchdog::Options options;
  options.enabled = true;
  options.poll_interval_seconds = 5.0;
  RenderWatchdog watchdog(options);
  // First registration spawns the monitor thread, which goes to sleep.
  auto entry = watchdog.Watch(/*request_id=*/1, /*budget_seconds=*/0.0);
  ASSERT_NE(entry, nullptr);
  RealClock real;
  Timer wall(&real);
  watchdog.Stop();
  EXPECT_LT(wall.ElapsedSeconds(), 2.0);
}

TEST(StopLatencyTest, ScrubberStopsMidSleep) {
  IntegrityScrubber::Options options;
  options.enabled = true;
  options.interval_seconds = 5.0;
  options.pixel_samples_per_tick = 0;
  IntegrityScrubber scrubber(
      options, /*evaluator=*/[] { return nullptr; },
      /*on_corruption=*/[](const std::string&) { return OkStatus(); });
  scrubber.Start();
  RealClock real;
  Timer wall(&real);
  scrubber.Stop();
  EXPECT_LT(wall.ElapsedSeconds(), 2.0);
}

TEST(StopLatencyTest, SimExecutorStopDrainsSleepersInstantly) {
  SimClock clock;
  SimExecutor ex(&clock, {/*num_workers=*/2, /*max_queue=*/8, /*seed=*/1});
  ASSERT_TRUE(ex.TrySubmit([&clock] { clock.WaitFor(3600.0, nullptr); }).ok());
  RealClock real;
  Timer wall(&real);
  ex.Stop();  // drains by advancing virtual time, not by waiting
  EXPECT_LT(wall.ElapsedSeconds(), 2.0);
  EXPECT_GE(clock.NowSeconds(), 3600.0);
  EXPECT_EQ(ex.tasks_executed(), 1u);
}

}  // namespace
}  // namespace kdv
