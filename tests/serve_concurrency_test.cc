// Concurrent chaos suite for the render service stack.
//
// Everything here is written to run clean under ThreadSanitizer
// (-DKDV_SANITIZE=thread); CI's tsan job runs this suite via
// `ctest -L concurrency`. Part 1 covers the substrate (ThreadPool drain and
// shedding, CircuitBreaker state machine with an injected clock, concurrent
// const use of a shared KdeEvaluator). Part 2 covers RenderService behavior
// under load: overload sheds instead of queueing unboundedly, drain
// terminates, queue-aware deadlines, cancelled requests never report as
// served. Part 3 is the failpoint × cancellation × deadline sweep and the
// retry/breaker paths, which need -DKDV_FAILPOINTS=ON and skip elsewhere.
#include "serve/render_service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kdv_runner.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "viz/viewport_stream.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryAdmittedTask) {
  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/1024});
  std::atomic<int> executed{0};
  const int kTasks = 500;
  int admitted = 0;
  for (int i = 0; i < kTasks; ++i) {
    if (pool.TrySubmit([&executed] { executed.fetch_add(1); }).ok()) {
      ++admitted;
    }
  }
  pool.Stop();
  EXPECT_EQ(executed.load(), admitted);
  EXPECT_EQ(pool.tasks_executed(), static_cast<uint64_t>(admitted));
}

TEST(ThreadPoolTest, FullQueueRejectsWithResourceExhausted) {
  ThreadPool pool({/*num_threads=*/1, /*max_queue=*/2});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  // Park the single worker, then fill the queue.
  ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }).ok());
  // The worker may not have dequeued yet; admit until the queue is full.
  int admitted = 1;
  Status status = OkStatus();
  for (int i = 0; i < 4 && status.ok(); ++i) {
    status = pool.TrySubmit([gate] { gate.wait(); });
    if (status.ok()) ++admitted;
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(admitted, 3);  // 1 running + 2 queued
  release.set_value();
  pool.Stop();
}

TEST(ThreadPoolTest, StopDrainsQueuedTasksAndRejectsNewOnes) {
  ThreadPool pool({/*num_threads=*/2, /*max_queue=*/64});
  std::atomic<int> executed{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool
                    .TrySubmit([&executed] {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                      executed.fetch_add(1);
                    })
                    .ok());
  }
  pool.Stop();  // must finish all 32, then return
  EXPECT_EQ(executed.load(), 32);
  Status after = pool.TrySubmit([] {});
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
  pool.Stop();  // idempotent
}

TEST(ThreadPoolTest, ConcurrentSubmittersLoseNoTasks) {
  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/4096});
  std::atomic<int> executed{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (pool.TrySubmit([&executed] { executed.fetch_add(1); }).ok()) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Stop();
  EXPECT_EQ(executed.load(), admitted.load());
  EXPECT_EQ(admitted.load(), 800);  // queue was deep enough for everything
}

// ---------------------------------------------------------------------------
// Backoff (determinism is covered in util_test; here: thread interplay)
// ---------------------------------------------------------------------------

TEST(BackoffTest, SequenceGrowsToCapAndJitterStaysInBand) {
  Backoff backoff({/*initial_ms=*/1.0, /*multiplier=*/2.0, /*max_ms=*/8.0,
                   /*jitter=*/0.5},
                  /*seed=*/42);
  double prev_base = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    double base = std::min(8.0, 1.0 * std::pow(2.0, attempt));
    double d = backoff.NextDelayMs();
    EXPECT_GE(d, base * 0.5);
    EXPECT_LE(d, base);
    EXPECT_GE(base, prev_base);
    prev_base = base;
  }
  EXPECT_EQ(backoff.attempts(), 8);
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_LE(backoff.NextDelayMs(), 1.0);  // schedule restarted
}

// ---------------------------------------------------------------------------
// CircuitBreaker (injected clock: fully deterministic)
// ---------------------------------------------------------------------------

class BreakerTest : public ::testing::Test {
 protected:
  ManualClock clock_;
  CircuitBreaker::Options opts_{/*failure_threshold=*/3,
                                /*cooldown_seconds=*/1.0};
  CircuitBreaker breaker_{opts_, &clock_};
};

TEST_F(BreakerTest, TripsAfterConsecutiveFaultsOnly) {
  breaker_.RecordFault();
  breaker_.RecordFault();
  breaker_.RecordSuccess();  // breaks the run
  breaker_.RecordFault();
  breaker_.RecordFault();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.AllowCertified());
  breaker_.RecordFault();  // third consecutive
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 1u);
  EXPECT_FALSE(breaker_.AllowCertified());
}

TEST_F(BreakerTest, HalfOpenProbeRecoversAfterCooldown) {
  for (int i = 0; i < 3; ++i) breaker_.RecordFault();
  ASSERT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  clock_.SetTime(0.5);
  EXPECT_FALSE(breaker_.AllowCertified());  // still cooling down
  clock_.SetTime(1.5);
  EXPECT_TRUE(breaker_.AllowCertified());  // the half-open probe
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker_.AllowCertified());  // only one probe at a time
  breaker_.RecordSuccess();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.AllowCertified());
}

TEST_F(BreakerTest, FailedProbeReopensAndRestartsCooldown) {
  for (int i = 0; i < 3; ++i) breaker_.RecordFault();
  clock_.SetTime(1.5);
  ASSERT_TRUE(breaker_.AllowCertified());
  breaker_.RecordFault();  // probe failed
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 2u);
  clock_.SetTime(2.0);  // cooldown restarted at 1.5
  EXPECT_FALSE(breaker_.AllowCertified());
  clock_.SetTime(2.6);
  EXPECT_TRUE(breaker_.AllowCertified());
}

TEST_F(BreakerTest, UntestedAttemptsNeitherBreakTheRunNorCloseIt) {
  breaker_.RecordFault();
  breaker_.RecordFault();
  breaker_.RecordUntested();  // a frame-cache hit: the run stands
  breaker_.RecordFault();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  clock_.SetTime(1.5);
  ASSERT_TRUE(breaker_.AllowCertified());  // the half-open probe...
  breaker_.RecordUntested();               // ...answered from the cache
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker_.AllowCertified());  // its slot went back
  EXPECT_FALSE(breaker_.AllowCertified());
  breaker_.RecordSuccess();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Concurrency-hazard regressions from the audit
// ---------------------------------------------------------------------------

TEST(ConcurrencyAuditTest, CancelTokenCancellationIsVisibleAcrossThreads) {
  CancelToken token;
  std::atomic<int> observers_done{0};
  std::vector<std::thread> observers;
  for (int t = 0; t < 4; ++t) {
    observers.emplace_back([&] {
      while (!token.cancelled()) {
        std::this_thread::yield();
      }
      observers_done.fetch_add(1);
    });
  }
  std::thread canceller([copy = token] { copy.RequestCancel(); });
  canceller.join();
  for (std::thread& t : observers) t.join();
  EXPECT_EQ(observers_done.load(), 4);
  EXPECT_TRUE(token.cancelled());
}

TEST(ConcurrencyAuditTest, FailpointRegistryIsRaceFreeUnderArmAndHit) {
  // The hit-side functions are always compiled (they just see nothing armed
  // in a non-failpoint build), so this races Arm/Disarm/hits against
  // ConsumeStatus from many threads in every configuration; TSAN verifies.
  const std::string site = "serve.render";
  std::atomic<bool> stop{false};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&] {
      while (!stop.load()) {
        (void)failpoint::ConsumeStatus("serve.render");
        failpoint::MaybeDelay("serve.coarse");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        failpoint::Arm(site, failpoint::Action::kError, /*delay_ms=*/0,
                       /*max_hits=*/3)
            .ok());
    (void)failpoint::hits(site);
    failpoint::Disarm(site);
  }
  stop.store(true);
  for (std::thread& t : hitters) t.join();
  failpoint::Reset();
}

TEST(ConcurrencyAuditTest, SharedEvaluatorSupportsConcurrentConstQueries) {
  // KdeEvaluator / KdTree / NodeBounds are immutable after construction;
  // hammer one instance from many threads (TSAN proves the contract).
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  KdeEvaluator evaluator = bench.MakeEvaluator(Method::kQuad);
  PixelGrid grid(12, 9, bench.data_bounds());
  std::atomic<uint64_t> nonfinite{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&] {
      for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
          EvalResult r = evaluator.EvaluateEps(grid.PixelCenter(x, y), 0.05);
          if (!std::isfinite(r.estimate)) nonfinite.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(nonfinite.load(), 0u);
}

// ---------------------------------------------------------------------------
// RenderService
// ---------------------------------------------------------------------------

class RenderServiceTest : public ::testing::Test {
 protected:
  RenderServiceTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian),
        evaluator_(bench_.MakeEvaluator(Method::kQuad)),
        grid_(16, 12, bench_.data_bounds()) {}

  void ExpectFinite(const DensityFrame& frame) {
    ASSERT_EQ(frame.values.size(),
              static_cast<size_t>(grid_.width()) * grid_.height());
    for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
  }

  Workbench bench_;
  KdeEvaluator evaluator_;
  PixelGrid grid_;
};

TEST_F(RenderServiceTest, ConcurrentClientsAllGetCertifiedFrames) {
  RenderService::Options options;
  options.num_threads = 4;
  options.max_queue = 256;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.eps = 0.05;

  std::vector<std::future<ServeOutcome>> tickets;
  for (int i = 0; i < 48; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*std::move(t));
  }
  for (std::future<ServeOutcome>& t : tickets) {
    ServeOutcome outcome = t.get();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.render.tier, QualityTier::kCertified);
    EXPECT_EQ(outcome.attempts, 1);
    ExpectFinite(outcome.render.frame);
  }
  service.Stop();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 48u);
  EXPECT_EQ(stats.admitted, 48u);
  EXPECT_EQ(stats.completed, 48u);
  EXPECT_EQ(stats.served_ok, 48u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.tier_certified, 48u);
}

TEST_F(RenderServiceTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  RenderService::Options options;
  options.num_threads = 1;
  options.max_queue = 2;  // => max_in_flight = 3
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.eps = 0.01;

  // Burst far past capacity from several threads at once. At most
  // max_in_flight requests may be pending at any instant, so with a burst
  // much larger than capacity some MUST be shed, and every rejection must
  // be kResourceExhausted.
  std::atomic<int> shed{0}, admitted{0}, wrong_code{0};
  std::mutex mu;
  std::vector<std::future<ServeOutcome>> tickets;
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        StatusOr<std::future<ServeOutcome>> t =
            service.Submit(grid_, request);
        if (t.ok()) {
          admitted.fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          tickets.push_back(*std::move(t));
        } else if (t.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          wrong_code.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::future<ServeOutcome>& t : tickets) {
    ServeOutcome outcome = t.get();
    ExpectFinite(outcome.render.frame);
  }
  service.Stop();

  EXPECT_EQ(wrong_code.load(), 0);
  EXPECT_GT(shed.load(), 0);  // 64 near-simultaneous submits vs capacity 3
  EXPECT_EQ(admitted.load() + shed.load(), 64);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(admitted.load()));
}

TEST_F(RenderServiceTest, StopDrainsEveryAdmittedRequest) {
  RenderService::Options options;
  options.num_threads = 2;
  options.max_queue = 64;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;

  std::vector<std::future<ServeOutcome>> tickets;
  for (int i = 0; i < 24; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*std::move(t));
  }
  service.Stop();  // must not deadlock, must finish all 24
  for (std::future<ServeOutcome>& t : tickets) {
    ServeOutcome outcome = t.get();  // every promise resolves
    ExpectFinite(outcome.render.frame);
  }
  StatusOr<std::future<ServeOutcome>> late = service.Submit(grid_, request);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().completed, 24u);
}

TEST_F(RenderServiceTest, DeadlineKeepsTickingWhileQueued) {
  PixelGrid big_grid(96, 72, bench_.data_bounds());
  RenderService::Options options;
  options.num_threads = 1;
  options.max_queue = 8;
  RenderService service(&evaluator_, options);

  // Occupy the single worker with a heavy un-budgeted request, then enqueue
  // budgeted ones whose 1µs deadlines expire while they wait.
  ServeRequestOptions slow;
  slow.eps = 0.001;
  StatusOr<std::future<ServeOutcome>> head = service.Submit(big_grid, slow);
  ASSERT_TRUE(head.ok());

  ServeRequestOptions tiny_budget;
  tiny_budget.budget_seconds = 1e-6;
  StatusOr<std::future<ServeOutcome>> degraded =
      service.Submit(grid_, tiny_budget);
  ASSERT_TRUE(degraded.ok());

  ServeRequestOptions fail_fast = tiny_budget;
  fail_fast.degrade = false;
  StatusOr<std::future<ServeOutcome>> failed =
      service.Submit(grid_, fail_fast);
  ASSERT_TRUE(failed.ok());

  ServeOutcome d = degraded->get();
  EXPECT_TRUE(d.render.deadline_expired);
  EXPECT_TRUE(d.ok());  // degraded mode still serves a lower-tier frame
  EXPECT_NE(d.render.tier, QualityTier::kCertified);
  ExpectFinite(d.render.frame);

  ServeOutcome f = failed->get();
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(f.render.deadline_expired);

  (void)head->get();
  service.Stop();
  EXPECT_GE(service.stats().deadline_expired, 2u);
}

TEST_F(RenderServiceTest, CancelledRequestsNeverReportAsServed) {
  RenderService::Options options;
  options.num_threads = 2;
  options.max_queue = 128;
  RenderService service(&evaluator_, options);

  CancelToken token;
  ServeRequestOptions request;
  request.eps = 0.005;
  request.cancel = &token;

  std::vector<std::future<ServeOutcome>> tickets;
  for (int i = 0; i < 32; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*std::move(t));
  }
  token.RequestCancel();  // races the in-flight renders: both outcomes legal

  size_t cancelled = 0;
  for (std::future<ServeOutcome>& t : tickets) {
    ServeOutcome outcome = t.get();
    if (outcome.render.cancelled) {
      // The invariant under test: a cancelled request must carry a non-OK
      // kCancelled status, never "served".
      EXPECT_FALSE(outcome.ok());
      EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
      ++cancelled;
    } else {
      EXPECT_TRUE(outcome.ok());
    }
    ExpectFinite(outcome.render.frame);
  }
  service.Stop();
  EXPECT_GT(cancelled, 0u);  // 32 queued renders cannot all beat the cancel
  EXPECT_EQ(service.stats().cancelled, cancelled);
}

// ---------------------------------------------------------------------------
// Hot-swap and readiness
// ---------------------------------------------------------------------------

TEST_F(RenderServiceTest, ColdStartRejectsUntilFirstEvaluatorIsPublished) {
  RenderService::Options options;
  options.num_threads = 2;
  RenderService service(options);  // recovery-manager path: no evaluator yet
  EXPECT_EQ(service.Health(), ServiceHealth::kStarting);
  EXPECT_EQ(service.stats().epoch, 0u);
  // "No epoch yet" is explicit, not inferred from the raw id: before the
  // first SwapEvaluator the stats must say so (the JSON emitters render the
  // epoch as null off this bit).
  EXPECT_FALSE(service.stats().epoch_published);

  ServeRequestOptions request;
  StatusOr<std::future<ServeOutcome>> ticket = service.Submit(grid_, request);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);

  // A recovery manager reports replay in progress, then publishes.
  service.SetHealth(ServiceHealth::kRecovering);
  EXPECT_EQ(service.Health(), ServiceHealth::kRecovering);
  service.SwapEvaluator(&evaluator_);
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);

  ticket = service.Submit(grid_, request);
  ASSERT_TRUE(ticket.ok());
  ServeOutcome outcome = ticket->get();
  EXPECT_TRUE(outcome.ok());
  ExpectFinite(outcome.render.frame);
  service.Stop();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_TRUE(stats.epoch_published);
}

TEST_F(RenderServiceTest, HotSwapUnderLoadDropsNoAdmittedRequest) {
  // A second evaluator to flip to and from. Built before any thread starts:
  // MakeEvaluator is not thread-safe, published epochs are.
  KdeEvaluator next = bench_.MakeEvaluator(Method::kQuad);

  RenderService::Options options;
  options.num_threads = 4;
  options.max_queue = 512;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.eps = 0.05;

  // Swap continuously while clients submit: every admitted request must
  // resolve OK on whichever epoch it snapshotted. The requests ask for
  // fresh and repeated viewports. Frame-cache hits can finish a burst
  // before the swapper's next flip, so the second half is sent only once
  // the published epoch has moved past the one the first request ran on:
  // the outcomes then span at least two epochs.
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    int flips = 0;
    while (!stop_swapping.load()) {
      service.SwapEvaluator((flips++ % 2 == 0) ? &next : &evaluator_);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Submit borrows each grid until its ticket resolves.
  const ViewportStream viewports(grid_.width(), grid_.height(),
                                 grid_.domain(), /*seed=*/7);
  std::vector<PixelGrid> grids;
  for (int i = 0; i < 96; ++i) grids.push_back(viewports.Request(i));
  std::vector<std::future<ServeOutcome>> tickets;
  auto submit = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      StatusOr<std::future<ServeOutcome>> t = service.Submit(grids[i], request);
      if (t.ok()) tickets.push_back(*std::move(t));
    }
  };
  submit(0, 48);
  std::vector<ServeOutcome> outcomes;
  uint64_t first_epoch = 0;
  if (!tickets.empty()) {
    outcomes.push_back(tickets.front().get());
    first_epoch = outcomes.front().epoch;
  }
  while (service.stats().epoch <= first_epoch) std::this_thread::yield();
  submit(48, 96);
  for (size_t i = outcomes.size(); i < tickets.size(); ++i) {
    outcomes.push_back(tickets[i].get());
  }
  stop_swapping.store(true);
  swapper.join();
  service.Stop();

  std::set<uint64_t> epochs;
  for (const ServeOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.status.ToString();
    ExpectFinite(outcome.render.frame);
    epochs.insert(outcome.epoch);
  }
  EXPECT_GE(epochs.size(), 2u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(tickets.size()));
  EXPECT_EQ(stats.served_ok, static_cast<uint64_t>(tickets.size()));
  EXPECT_GE(stats.swaps, 2u);  // the initial publication plus the churn
  EXPECT_EQ(stats.epoch, stats.swaps);
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);
}

// A repeated viewport ships from the epoch renderer's frame cache: the same
// pixels, no refinement. The outcome, the request's trace span, the
// service counters and the registry all record the hit.
TEST_F(RenderServiceTest, RepeatedViewportIsServedFromTheFrameCache) {
  obs::Counter* hits_total =
      obs::MetricsRegistry::Global().GetCounter("kdv_frame_cache_hits_total");
  obs::Counter* misses_total = obs::MetricsRegistry::Global().GetCounter(
      "kdv_frame_cache_misses_total");
  const uint64_t hits_before = hits_total->value();
  const uint64_t misses_before = misses_total->value();

  RenderService::Options options;
  options.num_threads = 1;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.eps = 0.05;
  auto serve = [&service, &request](const PixelGrid& grid) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid, request);
    if (!t.ok()) {
      ADD_FAILURE() << t.status().ToString();
      return ServeOutcome();
    }
    return t->get();
  };
  const ServeOutcome first = serve(grid_);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.render.from_cache());
  EXPECT_FALSE(
      obs::MetricsRegistry::Global().Snapshot().traces.back().frame_cache_hit);

  const ServeOutcome repeat = serve(grid_);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.render.from_cache());
  EXPECT_EQ(repeat.render.tier, QualityTier::kCertified);
  EXPECT_EQ(repeat.render.stats.iterations, 0u);
  EXPECT_EQ(repeat.render.frame.values, first.render.frame.values);
  EXPECT_TRUE(
      obs::MetricsRegistry::Global().Snapshot().traces.back().frame_cache_hit);

  Rect left_half = grid_.domain();
  left_half.set_hi(0, 0.5 * (left_half.lo(0) + left_half.hi(0)));
  EXPECT_FALSE(serve(PixelGrid(grid_.width(), grid_.height(), left_half))
                   .render.from_cache());
  service.Stop();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frame_cache_hits, 1u);
  EXPECT_EQ(stats.frame_cache_misses, 2u);
  EXPECT_EQ(hits_total->value() - hits_before, 1u);
  EXPECT_EQ(misses_total->value() - misses_before, 2u);
}

// Each epoch renderer has its own frame cache: after SwapEvaluator the same
// viewport renders again on the new index, and no frame of the earlier
// epoch is ever served.
TEST_F(RenderServiceTest, SwappedEpochNeverServesAnEarlierEpochsFrame) {
  Workbench other_bench(GenerateMixture(CrimeSpec(0.004)),
                        KernelType::kGaussian);
  KdeEvaluator other = other_bench.MakeEvaluator(Method::kQuad);

  RenderService::Options options;
  options.num_threads = 2;
  options.tile_shared = true;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.eps = 0.05;
  auto serve = [&] {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    if (!t.ok()) {
      ADD_FAILURE() << t.status().ToString();
      return ServeOutcome();
    }
    return t->get();
  };
  const ServeOutcome old_miss = serve();
  const ServeOutcome old_hit = serve();
  ASSERT_EQ(old_hit.epoch, 1u);
  ASSERT_TRUE(old_hit.render.from_cache());

  service.SwapEvaluator(&other);
  const ServeOutcome swapped = serve();
  EXPECT_EQ(swapped.epoch, 2u);
  EXPECT_FALSE(swapped.render.from_cache());
  EXPECT_EQ(swapped.render.tier, QualityTier::kCertified);
  EXPECT_NE(swapped.render.frame.values, old_miss.render.frame.values);
  ResilientRenderer fresh(&other);
  ResilientRenderOptions ropts;
  ropts.eps = request.eps;
  ropts.parallel.tile_shared = true;
  EXPECT_EQ(swapped.render.frame.values,
            fresh.Render(grid_, ropts).frame.values);

  const ServeOutcome swapped_hit = serve();
  EXPECT_EQ(swapped_hit.epoch, 2u);
  EXPECT_TRUE(swapped_hit.render.from_cache());
  EXPECT_EQ(swapped_hit.render.frame.values, swapped.render.frame.values);
  service.Stop();
  EXPECT_EQ(service.stats().frame_cache_hits, 2u);
  EXPECT_EQ(service.stats().frame_cache_misses, 2u);
}

// ---------------------------------------------------------------------------
// Runtime self-defense: brownout health transitions, watchdog benignity
// ---------------------------------------------------------------------------

TEST_F(RenderServiceTest, BrownoutDegradesThenHealthRecoversHysteretically) {
  RenderService::Options options;
  options.num_threads = 2;
  options.max_queue = 64;
  options.governor.enabled = true;
  // The memory signal is the deterministic pressure lever: the test pins it
  // with a ScopedMemCharge instead of racing real queue waits.
  options.governor.memory_budget_bytes = 1 << 20;
  options.governor.recover_hold_seconds = 0.0;  // stepwise but immediate
  RenderService service(&evaluator_, options);
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);

  ServeRequestOptions request;
  {
    // 85% of budget: inside the brownout band (>= enter_coarse 0.80) but
    // below the shed ceiling — everything is still served, just cheaper.
    ScopedMemCharge pressure(&MemBudget::Global(), MemSource::kFrameBuffers,
                             (1u << 20) * 85 / 100);
    std::vector<std::future<ServeOutcome>> tickets;
    for (int i = 0; i < 8; ++i) {
      StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
      ASSERT_TRUE(t.ok());
      tickets.push_back(*std::move(t));
    }
    for (std::future<ServeOutcome>& t : tickets) {
      ServeOutcome outcome = t.get();
      EXPECT_TRUE(outcome.ok());
      EXPECT_EQ(outcome.render.tier, QualityTier::kCoarse);  // browned out
      ExpectFinite(outcome.render.frame);
    }
    EXPECT_EQ(service.Health(), ServiceHealth::kDegraded);
    ServiceStats mid = service.stats();
    EXPECT_EQ(mid.brownout_applied, 8u);
    EXPECT_EQ(mid.shed, 0u);  // the band degrades; it does not reject
    EXPECT_EQ(mid.governor_level, 2);

    // Fail-fast requests keep their certified-or-error contract even in a
    // brownout: their tier is never silently lowered.
    ServeRequestOptions fail_fast;
    fail_fast.degrade = false;
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, fail_fast);
    ASSERT_TRUE(t.ok());
    ServeOutcome certified = t->get();
    EXPECT_TRUE(certified.ok());
    EXPECT_EQ(certified.render.tier, QualityTier::kCertified);

    {
      // Past the hard ceiling the governor finally sheds, synchronously.
      ScopedMemCharge overload(&MemBudget::Global(), MemSource::kFrameBuffers,
                               (1u << 20) * 30 / 100);
      StatusOr<std::future<ServeOutcome>> rejected =
          service.Submit(grid_, request);
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
      EXPECT_GE(service.stats().brownout_shed, 1u);
    }
  }

  // Pressure gone: recovery walks the ladder one step per assessment
  // (coarse -> progressive -> normal), so a short trickle of healthy
  // requests returns the service to kServing.
  for (int i = 0; i < 8 && service.Health() != ServiceHealth::kServing; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    ServeOutcome outcome = t->get();
    EXPECT_TRUE(outcome.ok());
  }
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.governor_level, 0);
  EXPECT_EQ(stats.governor_max_level, 2);
  EXPECT_GE(stats.tier_certified, 1u);

  // The transition log is contiguous and de-escalates strictly one level at
  // a time — the monotone-brownout property the overload-chaos CI job
  // asserts on serve-sim output.
  std::vector<OverloadGovernor::Transition> transitions =
      service.governor_transitions();
  ASSERT_GE(transitions.size(), 3u);
  for (size_t i = 0; i < transitions.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(transitions[i].from, transitions[i - 1].to);
      EXPECT_GE(transitions[i].at_seconds, transitions[i - 1].at_seconds);
    }
    const int delta = static_cast<int>(transitions[i].to) -
                      static_cast<int>(transitions[i].from);
    if (delta < 0) {
      EXPECT_EQ(delta, -1);
    }
  }
  service.Stop();
}

TEST_F(RenderServiceTest, WatchdogLeavesHealthyRendersAlone) {
  RenderService::Options options;
  options.num_threads = 2;
  options.max_queue = 32;
  options.watchdog.enabled = true;
  options.watchdog.poll_interval_seconds = 0.002;
  options.watchdog.no_progress_seconds = 0.5;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  request.budget_seconds = 30.0;

  std::vector<std::future<ServeOutcome>> tickets;
  for (int i = 0; i < 16; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*std::move(t));
  }
  for (std::future<ServeOutcome>& t : tickets) {
    ServeOutcome outcome = t.get();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.render.tier, QualityTier::kCertified);
  }
  service.Stop();
  EXPECT_EQ(service.stats().watchdog_kills, 0u);
  EXPECT_TRUE(service.watchdog_stall_reports().empty());
}

// ---------------------------------------------------------------------------
// Failpoint-driven paths (retry, breaker, chaos sweep): -DKDV_FAILPOINTS=ON
// ---------------------------------------------------------------------------

class ServiceChaosTest : public RenderServiceTest {
 protected:
  void SetUp() override {
    if (!failpoint::enabled()) {
      GTEST_SKIP() << "failpoints not compiled in (build with "
                      "-DKDV_FAILPOINTS=ON)";
    }
    failpoint::Reset();
  }
  void TearDown() override { failpoint::Reset(); }
};

TEST_F(ServiceChaosTest, TransientFaultIsRetriedWithBackoffAndRecovers) {
  ASSERT_TRUE(failpoint::Arm("serve.render", failpoint::Action::kError,
                             /*delay_ms=*/0, /*max_hits=*/1)
                  .ok());
  RenderService::Options options;
  options.num_threads = 1;
  options.max_attempts = 3;
  ManualClock clock;  // backoff sleeps advance it; nothing else does
  options.clock = &clock;
  RenderService service(&evaluator_, options);

  StatusOr<std::future<ServeOutcome>> t =
      service.Submit(grid_, ServeRequestOptions());
  ASSERT_TRUE(t.ok());
  ServeOutcome outcome = t->get();
  service.Stop();

  EXPECT_TRUE(outcome.ok());  // second attempt succeeded
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.render.tier, QualityTier::kCertified);
  // Exactly one backoff sleep ran, and it went through the clock seam:
  // the manual clock only moves when the service's retry path waits on it.
  EXPECT_GT(clock.NowSeconds(), 0.0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.served_ok, 1u);
}

TEST_F(ServiceChaosTest, PersistentFaultExhaustsRetriesAndShipsDegraded) {
  ASSERT_TRUE(
      failpoint::Arm("serve.render", failpoint::Action::kError).ok());
  RenderService::Options options;
  options.num_threads = 1;
  options.max_attempts = 3;
  options.breaker.failure_threshold = 100;  // keep the breaker out of this
  ManualClock clock;  // retry backoff burns virtual time, not wall time
  options.clock = &clock;
  RenderService service(&evaluator_, options);

  StatusOr<std::future<ServeOutcome>> t =
      service.Submit(grid_, ServeRequestOptions());
  ASSERT_TRUE(t.ok());
  ServeOutcome outcome = t->get();
  service.Stop();

  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.render.tier, QualityTier::kCoarse);  // degraded frame
  ExpectFinite(outcome.render.frame);
  EXPECT_EQ(service.stats().retries, 2u);
}

TEST_F(ServiceChaosTest, BreakerTripsServesCoarseDirectlyAndRecovers) {
  ASSERT_TRUE(
      failpoint::Arm("serve.render", failpoint::Action::kError).ok());
  // Manual service clock: the cooldown elapses when the test says so, not
  // when wall time passes (TSAN slows everything down unpredictably).
  ManualClock clock;
  RenderService::Options options;
  options.num_threads = 1;
  options.max_attempts = 1;  // one fault per request: deterministic count
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_seconds = 60.0;
  options.clock = &clock;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;

  // Three faulting requests trip the breaker.
  for (int i = 0; i < 3; ++i) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    ServeOutcome outcome = t->get();
    EXPECT_FALSE(outcome.ok());
    EXPECT_FALSE(outcome.breaker_open);
  }
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.stats().breaker_trips, 1u);

  // While open, requests short-circuit to the coarse tier without touching
  // the (still faulting) certified path...
  {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    ServeOutcome outcome = t->get();
    EXPECT_TRUE(outcome.breaker_open);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.render.tier, QualityTier::kCoarse);
    EXPECT_EQ(outcome.attempts, 0);
    ExpectFinite(outcome.render.frame);
  }
  // ...and fail-fast requests surface kUnavailable.
  {
    ServeRequestOptions fail_fast;
    fail_fast.degrade = false;
    StatusOr<std::future<ServeOutcome>> t =
        service.Submit(grid_, fail_fast);
    ASSERT_TRUE(t.ok());
    ServeOutcome outcome = t->get();
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(outcome.breaker_open);
  }
  EXPECT_GE(service.stats().unavailable, 2u);

  // Heal the path and let the cooldown elapse: the half-open probe
  // recovers.
  failpoint::Reset();
  clock.SetTime(120.0);
  {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
    ASSERT_TRUE(t.ok());
    ServeOutcome outcome = t->get();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.render.tier, QualityTier::kCertified);
    EXPECT_FALSE(outcome.breaker_open);
  }
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
  service.Stop();
}

// A frame-cache hit never runs the certified path, so it tells the breaker
// nothing: hits between faulting fresh renders do not reset the fault run,
// and a half-open probe answered from the cache leaves the breaker
// half-open until a request actually renders.
TEST_F(ServiceChaosTest, FrameCacheHitsNeitherResetNorCloseTheBreaker) {
  ManualClock clock;
  RenderService::Options options;
  options.num_threads = 1;
  options.max_attempts = 1;  // one fault per fresh request
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_seconds = 60.0;
  options.clock = &clock;
  RenderService service(&evaluator_, options);
  ServeRequestOptions request;
  auto serve = [&service, &request](const PixelGrid& grid) {
    StatusOr<std::future<ServeOutcome>> t = service.Submit(grid, request);
    if (!t.ok()) {
      ADD_FAILURE() << t.status().ToString();
      return ServeOutcome();
    }
    return t->get();
  };
  const ViewportStream viewports(grid_.width(), grid_.height(),
                                 grid_.domain(), /*seed=*/7);
  uint64_t next_fresh = ViewportStream::kRepeated;
  auto fresh = [&] { return viewports.Viewport(next_fresh++); };

  // Cache the whole extent while the path is healthy, then break every
  // render that runs (viz.render sits past the frame-cache lookup).
  ASSERT_TRUE(serve(grid_).ok());
  ASSERT_TRUE(
      failpoint::Arm("viz.render", failpoint::Action::kError).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
    const ServeOutcome hit = serve(grid_);
    EXPECT_TRUE(hit.ok());
    EXPECT_TRUE(hit.render.from_cache());
    EXPECT_EQ(serve(fresh()).status.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.stats().breaker_trips, 1u);

  // After the cooldown, probes answered from the cache keep it half-open.
  clock.SetTime(120.0);
  for (int i = 0; i < 2; ++i) {
    const ServeOutcome probe = serve(grid_);
    EXPECT_TRUE(probe.ok());
    EXPECT_FALSE(probe.breaker_open);
    EXPECT_TRUE(probe.render.from_cache());
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kHalfOpen);
  }
  // A probe that renders, and faults, reopens it...
  EXPECT_FALSE(serve(fresh()).ok());
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.stats().breaker_trips, 2u);
  // ...and one that renders cleanly closes it.
  failpoint::Reset();
  clock.SetTime(240.0);
  const ServeOutcome healed = serve(fresh());
  EXPECT_TRUE(healed.ok());
  EXPECT_FALSE(healed.render.from_cache());
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
  service.Stop();
}

TEST_F(ServiceChaosTest, WatchdogKillsWedgedRenderAndBreakerRecovers) {
  // Wedge the first certified render where it never polls its deadline:
  // refine.stall parks it until a force-cancel arrives, which only the
  // watchdog can deliver. Single-shot, so later renders are healthy.
  ASSERT_TRUE(failpoint::Arm("refine.stall", failpoint::Action::kDelay,
                             /*delay_ms=*/10000, /*max_hits=*/1)
                  .ok());
  ManualClock clock;  // service/breaker time: advanced by the test only
  RenderService::Options options;
  options.num_threads = 1;
  options.max_attempts = 1;
  options.breaker.failure_threshold = 1;  // one stall trips it
  options.breaker.cooldown_seconds = 60.0;
  options.clock = &clock;
  // The watchdog must see real elapsed time: the injected stall wedges the
  // render in wall-clock terms, and only a real-time monitor can catch it.
  options.watchdog.clock = CurrentClock();
  options.watchdog.enabled = true;
  options.watchdog.poll_interval_seconds = 0.005;
  options.watchdog.deadline_multiple = 2.0;
  options.watchdog.no_progress_seconds = 0.0;  // isolate the overrun criterion
  RenderService service(&evaluator_, options);

  ServeRequestOptions request;
  request.budget_seconds = 0.2;
  Timer wall;
  StatusOr<std::future<ServeOutcome>> t = service.Submit(grid_, request);
  ASSERT_TRUE(t.ok());
  ServeOutcome outcome = t->get();

  // The watchdog, not the 10s stall, bounded the request: the kill lands
  // within deadline_multiple x budget plus monitor latency.
  EXPECT_LT(wall.ElapsedSeconds(), 5.0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(std::string(outcome.status.message()).find("watchdog"),
            std::string::npos);
  ExpectFinite(outcome.render.frame);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.watchdog_kills, 1u);
  EXPECT_EQ(stats.cancelled, 0u);  // not misattributed to the client
  std::vector<StallReport> reports = service.watchdog_stall_reports();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_FALSE(reports[0].no_progress);  // overrun, not heartbeat silence

  // The stall tripped the breaker: degraded but still serving coarse.
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.Health(), ServiceHealth::kDegraded);
  {
    StatusOr<std::future<ServeOutcome>> shorted =
        service.Submit(grid_, request);
    ASSERT_TRUE(shorted.ok());
    ServeOutcome o = shorted->get();
    EXPECT_TRUE(o.ok());
    EXPECT_TRUE(o.breaker_open);
    EXPECT_EQ(o.render.tier, QualityTier::kCoarse);
  }

  // Cooldown elapses on the fake clock; the stall was single-shot, so the
  // half-open probe renders certified and closes the breaker again.
  clock.SetTime(120.0);
  {
    StatusOr<std::future<ServeOutcome>> probe = service.Submit(grid_, request);
    ASSERT_TRUE(probe.ok());
    ServeOutcome o = probe->get();
    EXPECT_TRUE(o.ok());
    EXPECT_EQ(o.render.tier, QualityTier::kCertified);
    EXPECT_FALSE(o.breaker_open);
  }
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);
  service.Stop();
}

// The acceptance sweep: many client threads × every failpoint site and
// action × budgets × mid-flight cancellation, all at once, on one service.
// The invariants are the serving contract: every future resolves, every
// frame is finite, cancelled requests are never "served", rejections are
// kResourceExhausted only — and the whole thing is TSAN-clean.
TEST_F(ServiceChaosTest, ConcurrentFailpointCancellationDeadlineSweep) {
  const failpoint::Action kActions[] = {
      failpoint::Action::kError,
      failpoint::Action::kNaN,
      failpoint::Action::kDelay,
  };
  RenderService::Options options;
  options.num_threads = 4;
  options.max_queue = 8;
  options.max_attempts = 2;
  options.breaker.failure_threshold = 4;
  options.breaker.cooldown_seconds = 0.01;
  options.backoff.initial_ms = 0.01;  // retries must not slow the sweep
  options.backoff.max_ms = 0.1;
  RenderService service(&evaluator_, options);

  std::atomic<uint64_t> wrong_rejection{0};
  std::atomic<uint64_t> served_cancelled{0};
  std::atomic<uint64_t> nonfinite{0};

  for (const std::string& site : failpoint::AllSites()) {
    for (failpoint::Action action : kActions) {
      SCOPED_TRACE("site=" + site);
      failpoint::Reset();
      ASSERT_TRUE(failpoint::Arm(site, action, /*delay_ms=*/1).ok());

      CancelToken token;
      std::vector<std::thread> clients;
      for (int c = 0; c < 6; ++c) {
        clients.emplace_back([&, c] {
          ServeRequestOptions request;
          request.eps = 0.05;
          // Mix of budgets and policies across clients.
          request.budget_seconds = (c % 3 == 0) ? 0.02 : -1.0;
          request.degrade = (c % 4 != 3);
          if (c % 2 == 0) request.cancel = &token;
          for (int i = 0; i < 3; ++i) {
            StatusOr<std::future<ServeOutcome>> t =
                service.Submit(grid_, request);
            if (!t.ok()) {
              if (t.status().code() != StatusCode::kResourceExhausted) {
                wrong_rejection.fetch_add(1);
              }
              continue;
            }
            if (c % 2 == 0 && i == 1) token.RequestCancel();
            ServeOutcome outcome = t->get();
            if (outcome.render.cancelled && outcome.ok()) {
              served_cancelled.fetch_add(1);
            }
            for (double v : outcome.render.frame.values) {
              if (!std::isfinite(v)) nonfinite.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }
  }
  service.Stop();

  EXPECT_EQ(wrong_rejection.load(), 0u);
  EXPECT_EQ(served_cancelled.load(), 0u);
  EXPECT_EQ(nonfinite.load(), 0u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed);
}

}  // namespace
}  // namespace kdv
