// Chaos suite for the resilient render path.
//
// Part 1 exercises the ResilientRenderer degradation ladder with ordinary
// inputs (runs in every build). Part 2 sweeps every registered failpoint
// site with every fault kind and asserts the render either degrades to a
// valid outcome or fails with a clean non-OK status — never a crash, hang,
// or non-finite pixel. The sweep needs -DKDV_FAILPOINTS=ON and skips itself
// elsewhere; CI runs it via the failpoints job (`ctest -L fault`).
#include "serve/resilient_renderer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "stats/density_stats.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "viz/frame.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

// A clock that moves 1 ms forward on every read and never sleeps: a render
// under a budget of B ms stops after B clock reads, so a deadline lands
// mid-frame deterministically, whatever the machine's speed.
class TickingClock : public Clock {
 public:
  double NowSeconds() const override {
    return 1e-3 * static_cast<double>(
                      ticks_.fetch_add(1, std::memory_order_relaxed));
  }
  void WaitFor(double /*seconds*/, Waker* /*waker*/) override {}

 private:
  mutable std::atomic<uint64_t> ticks_{0};
};

// Counts submissions and runs nothing: a frame given this pool renders on
// its caller alone.
class CountingExecutor : public Executor {
 public:
  Status TrySubmit(std::function<void()> /*task*/) override {
    ++submitted;
    return UnavailableError("counting executor runs nothing");
  }
  void Stop() override {}
  int num_threads() const override { return 4; }
  size_t queue_depth() const override { return 0; }
  uint64_t tasks_executed() const override { return 0; }

  int submitted = 0;
};

class ResilientRendererTest : public ::testing::Test {
 protected:
  ResilientRendererTest()
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

TEST_F(ResilientRendererTest, UnlimitedBudgetCertifies) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = -1.0;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.tier, QualityTier::kCertified);
  EXPECT_DOUBLE_EQ(outcome.certified_eps, 0.01);
  EXPECT_FALSE(outcome.deadline_expired);
  EXPECT_EQ(outcome.pixels_scrubbed, 0u);
  ExpectFinite(outcome.frame);
}

TEST_F(ResilientRendererTest, ZeroBudgetDegradesToCoarse) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.budget_seconds = 0.0;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_TRUE(outcome.ok());  // a degraded render is still a served render
  EXPECT_TRUE(outcome.deadline_expired);
  EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
  EXPECT_LT(outcome.certified_eps, 0.0);
  ExpectFinite(outcome.frame);
  // The coarse frame is a real density map, not a flat placeholder.
  double max_v = 0.0;
  for (double v : outcome.frame.values) max_v = std::max(max_v, v);
  EXPECT_GT(max_v, 0.0);
}

TEST_F(ResilientRendererTest, ZeroBudgetFailFastReturnsDeadlineExceeded) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.budget_seconds = 0.0;
  options.degrade = false;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(outcome.deadline_expired);
  ExpectFinite(outcome.frame);
}

TEST_F(ResilientRendererTest, CancellationIsNeverReportedAsServed) {
  ResilientRenderer renderer(&evaluator_);
  CancelToken token;
  token.RequestCancel();
  ResilientRenderOptions options;
  options.cancel = &token;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(outcome.cancelled);
  ExpectFinite(outcome.frame);
}

TEST_F(ResilientRendererTest, QualityTierNamesAreStable) {
  EXPECT_STREQ(QualityTierName(QualityTier::kCertified), "certified");
  EXPECT_STREQ(QualityTierName(QualityTier::kProgressive), "progressive");
  EXPECT_STREQ(QualityTierName(QualityTier::kCoarse), "coarse");
  EXPECT_STREQ(QualityTierName(QualityTier::kFlat), "flat");
}

TEST_F(ResilientRendererTest, NonPlanarDataFallsBackToFlat) {
  // GridKde is 2-d only: a 3-d dataset with a zero budget must land on the
  // flat tier rather than crash the coarse stage.
  PointSet points;
  for (int i = 0; i < 64; ++i) {
    Point p(3);
    p[0] = static_cast<double>(i % 8);
    p[1] = static_cast<double>(i / 8);
    p[2] = static_cast<double>(i % 3);
    points.push_back(p);
  }
  Workbench bench(std::move(points), KernelType::kGaussian);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  PixelGrid grid(8, 8, bench.data_bounds());
  ResilientRenderer renderer(&quad);
  ResilientRenderOptions options;
  options.budget_seconds = 0.0;
  RenderOutcome outcome = renderer.Render(grid, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.tier, QualityTier::kFlat);
  for (double v : outcome.frame.values) EXPECT_EQ(v, 0.0);
}

// A deadline that cuts the tiled attempt short ships the coarse tier; the
// attempt's work counters — here its frontier-cache hit — must still reach
// the outcome.
TEST_F(ResilientRendererTest, CutShortTiledAttemptKeepsItsWorkCounters) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = -1.0;
  options.parallel.tile_shared = true;
  RenderOutcome warm = renderer.Render(grid_, options);
  ASSERT_EQ(warm.tier, QualityTier::kCertified);
  EXPECT_EQ(warm.stats.frontier_cache_hits, 0u);
  EXPECT_GT(warm.stats.tile_nodes_visited, 0u);

  options.budget_seconds = 1e-9;
  RenderOutcome cut = renderer.Render(grid_, options);
  EXPECT_TRUE(cut.deadline_expired);
  EXPECT_EQ(cut.tier, QualityTier::kCoarse);
  EXPECT_EQ(cut.stats.frontier_cache_hits, 1u);
  EXPECT_EQ(cut.stats.tile_nodes_visited, 0u);  // served from the cache
}

// A per-pixel frame cut mid-way by the deadline never ships its partial
// frame: the coarse tier stands in, and the outcome keeps the counters of
// its one attempt.
TEST_F(ResilientRendererTest, MidFrameDeadlineShipsCoarse) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 0.05;  // 50 reads of the ticking clock
  RenderOutcome outcome;
  {
    TickingClock clock;
    ScopedClockOverride ticking(&clock);
    outcome = renderer.Render(grid_, options);
  }
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.deadline_expired);
  EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
  EXPECT_LT(outcome.certified_eps, 0.0);
  EXPECT_FALSE(outcome.stats.completed);
  EXPECT_GT(outcome.stats.queries, 0u);
  EXPECT_LT(outcome.stats.queries, grid_.num_pixels());
  ExpectFinite(outcome.frame);

  options.degrade = false;
  {
    TickingClock clock;
    ScopedClockOverride ticking(&clock);
    outcome = renderer.Render(grid_, options);
  }
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.tier, QualityTier::kFlat);
  for (double v : outcome.frame.values) EXPECT_EQ(v, 0.0);
}

// Under a progressive brownout cap the attempt renders on the caller alone,
// leaving the shared tile pool to full-tier requests, and its complete frame
// ships without a certificate.
TEST_F(ResilientRendererTest, BrownoutCapRendersCallerOnly) {
  ResilientRenderer renderer(&evaluator_);
  CountingExecutor pool;
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.max_tier = QualityTier::kProgressive;
  options.parallel.num_threads = 4;
  options.tile_pool = &pool;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_EQ(pool.submitted, 0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.tier, QualityTier::kProgressive);
  EXPECT_LT(outcome.certified_eps, 0.0);
  EXPECT_TRUE(outcome.stats.completed);
  ExpectFinite(outcome.frame);

  // Uncapped, the same request fans out over the pool.
  options.max_tier = QualityTier::kCertified;
  outcome = renderer.Render(grid_, options);
  EXPECT_GT(pool.submitted, 0);
  EXPECT_EQ(outcome.tier, QualityTier::kCertified);
}

// With default options and no deadline the resilient render is the frame
// driver's per-pixel frame, bit for bit, with the same work.
TEST_F(ResilientRendererTest, DefaultRenderIsTheDriverFrame) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  RenderOutcome outcome = renderer.Render(grid_, options);
  BatchStats stats;
  DensityFrame expected =
      RenderEpsFrame(evaluator_, grid_, options.eps, &stats);
  ASSERT_EQ(outcome.tier, QualityTier::kCertified);
  ASSERT_EQ(outcome.frame.values.size(), expected.values.size());
  for (size_t i = 0; i < expected.values.size(); ++i) {
    EXPECT_EQ(outcome.frame.values[i], expected.values[i]) << "pixel " << i;
  }
  EXPECT_EQ(outcome.stats.queries, stats.queries);
  EXPECT_EQ(outcome.stats.iterations, stats.iterations);
}

// The coarse tier against EvaluateExact: on the full extent, zoomed 4x and
// 16x about the densest pixel, and on a viewport panned past the data. The
// binning domain must follow the viewport (grown by the truncation radius),
// not clamp every point outside it onto the viewport's edge cells.
TEST(CoarseTierTest, TracksExactDensityOnEveryViewport) {
  for (const MixtureSpec& spec : {CrimeSpec(0.1), HomeSpec(0.02)}) {
    SCOPED_TRACE(spec.name);
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
    ResilientRenderer renderer(&quad);
    const Rect& extent = bench.data_bounds();
    const int kWidth = 48, kHeight = 36;
    auto viewport = [&extent](double cx, double cy, double zoom) {
      Rect r(2);
      const double half[2] = {0.5 * extent.Length(0) / zoom,
                              0.5 * extent.Length(1) / zoom};
      r.set_lo(0, cx - half[0]);
      r.set_hi(0, cx + half[0]);
      r.set_lo(1, cy - half[1]);
      r.set_hi(1, cy + half[1]);
      return r;
    };
    auto coarse = [&renderer](const PixelGrid& grid) {
      RenderOutcome outcome = renderer.RenderCoarseOnly(grid, {});
      EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
      return std::move(outcome.frame.values);
    };

    PixelGrid full(kWidth, kHeight, extent);
    DensityFrame truth = RenderExactFrame(exact, full, nullptr);
    const double mean = ComputeMeanStd(truth.values).mean;
    EXPECT_LE(AverageRelativeError(coarse(full), truth.values), 0.01);

    const size_t densest =
        std::max_element(truth.values.begin(), truth.values.end()) -
        truth.values.begin();
    const Point hot = full.PixelCenter(static_cast<int>(densest % kWidth),
                                       static_cast<int>(densest / kWidth));
    for (double zoom : {4.0, 16.0}) {
      SCOPED_TRACE("zoom " + std::to_string(zoom));
      PixelGrid zoomed(kWidth, kHeight, viewport(hot[0], hot[1], zoom));
      DensityFrame zoomed_truth = RenderExactFrame(exact, zoomed, nullptr);
      EXPECT_LE(AverageRelativeError(coarse(zoomed), zoomed_truth.values),
                0.01);
    }

    // Three extents to the right of the data: the exact density underflows.
    PixelGrid off(kWidth, kHeight,
                  viewport(extent.Center()[0] + 3.0 * extent.Length(0),
                           extent.Center()[1], 1.0));
    DensityFrame off_truth = RenderExactFrame(exact, off, nullptr);
    const std::vector<double> off_coarse = coarse(off);
    double abs_err = 0.0;
    for (size_t i = 0; i < off_coarse.size(); ++i) {
      abs_err += std::abs(off_coarse[i] - off_truth.values[i]);
    }
    EXPECT_LE(abs_err / static_cast<double>(off_coarse.size()),
              0.01 * mean);
  }
}

// ---------------------------------------------------------------------------
// Failpoint sweep (needs -DKDV_FAILPOINTS=ON)
// ---------------------------------------------------------------------------

class ChaosSweepTest : public ResilientRendererTest {
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

TEST_F(ChaosSweepTest, EverySiteEveryActionDegradesOrFailsCleanly) {
  const failpoint::Action kActions[] = {
      failpoint::Action::kError,
      failpoint::Action::kNaN,
      failpoint::Action::kDelay,
  };
  for (const std::string& site : failpoint::AllSites()) {
    for (failpoint::Action action : kActions) {
      SCOPED_TRACE("site=" + site + " action=" +
                   std::to_string(static_cast<int>(action)));
      failpoint::Reset();
      ASSERT_TRUE(failpoint::Arm(site, action, /*delay_ms=*/1).ok());

      ResilientRenderer renderer(&evaluator_);
      ResilientRenderOptions options;
      options.eps = 0.05;
      options.budget_seconds = 5.0;  // generous: delays must not hang us
      RenderOutcome outcome = renderer.Render(grid_, options);

      // Contract: a finite, correctly sized frame always comes back, and
      // the outcome is either a served (possibly degraded) render or a
      // clean non-OK status.
      ExpectFinite(outcome.frame);
      if (!outcome.ok()) {
        EXPECT_FALSE(outcome.status.message().empty());
      }
      if (outcome.tier == QualityTier::kCertified) {
        EXPECT_TRUE(outcome.ok());
        EXPECT_DOUBLE_EQ(outcome.certified_eps, 0.05);
      } else {
        EXPECT_LT(outcome.certified_eps, 0.0);
      }
    }
  }
}

TEST_F(ChaosSweepTest, InjectedEntryFaultStillShipsACoarseFrame) {
  ASSERT_TRUE(
      failpoint::Arm("serve.render", failpoint::Action::kError).ok());
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_FALSE(outcome.ok());  // the fault is reported...
  EXPECT_EQ(outcome.tier, QualityTier::kCoarse);  // ...but a frame ships
  ExpectFinite(outcome.frame);
}

TEST_F(ChaosSweepTest, DoubleFaultLandsOnFlatTier) {
  ASSERT_TRUE(
      failpoint::Arm("serve.render", failpoint::Action::kError).ok());
  ASSERT_TRUE(
      failpoint::Arm("serve.coarse", failpoint::Action::kError).ok());
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.tier, QualityTier::kFlat);
  for (double v : outcome.frame.values) EXPECT_EQ(v, 0.0);
}

TEST_F(ChaosSweepTest, NumericFaultInRefinementIsClampedAndCounted) {
  ASSERT_TRUE(
      failpoint::Arm("refine.step", failpoint::Action::kNaN).ok());
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.05;
  RenderOutcome outcome = renderer.Render(grid_, options);
  ExpectFinite(outcome.frame);
  EXPECT_GT(outcome.numeric_faults, 0u);
  // Clamped pixels lose their certificate, so the frame must not claim one.
  EXPECT_NE(outcome.tier, QualityTier::kCertified);
}

TEST_F(ChaosSweepTest, DelayInTheScheduleTripsTheDeadline) {
  // 5ms of injected latency per pixel against a 50ms budget: the deadline
  // must fire and the ladder must still deliver a frame.
  ASSERT_TRUE(failpoint::Arm("runner.eps", failpoint::Action::kDelay,
                             /*delay_ms=*/5)
                  .ok());
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.budget_seconds = 0.05;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_TRUE(outcome.deadline_expired);
  EXPECT_TRUE(outcome.ok());  // degraded, not failed
  EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
  ExpectFinite(outcome.frame);
}

}  // namespace
}  // namespace kdv
