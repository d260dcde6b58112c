// Chaos suite for the resilient render path.
//
// Part 1 exercises the ResilientRenderer degradation ladder with ordinary
// inputs (runs in every build). Part 2 sweeps every registered failpoint
// site with every fault kind and asserts the render either degrades to a
// valid outcome or fails with a clean non-OK status — never a crash, hang,
// or non-finite pixel. The sweep needs -DKDV_FAILPOINTS=ON and skips itself
// elsewhere; CI runs it via the failpoints job (`ctest -L fault`).
#include "serve/resilient_renderer.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "util/failpoint.h"
#include "viz/frame.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

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

// A deadline that cuts the tiled attempt short falls through to the
// progressive ladder; the attempt's work counters — here its frontier-cache
// hit — must still reach the outcome.
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
  EXPECT_EQ(cut.stats.frontier_cache_hits, 1u);
  EXPECT_EQ(cut.stats.tile_nodes_visited, 0u);  // served from the cache
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
  // 5ms of injected latency per region op against a 50ms budget: the
  // deadline must fire and the ladder must still deliver a frame.
  ASSERT_TRUE(failpoint::Arm("progressive.op", failpoint::Action::kDelay,
                             /*delay_ms=*/5)
                  .ok());
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.budget_seconds = 0.05;
  RenderOutcome outcome = renderer.Render(grid_, options);
  EXPECT_TRUE(outcome.deadline_expired);
  EXPECT_TRUE(outcome.ok());  // degraded, not failed
  ExpectFinite(outcome.frame);
}

}  // namespace
}  // namespace kdv
