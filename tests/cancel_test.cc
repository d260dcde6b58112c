#include "util/cancel.h"

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "data/datasets.h"
#include "progressive/progressive.h"
#include "util/timer.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token;
  CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(QueryControlTest, DefaultNeverStops) {
  QueryControl control;
  EXPECT_FALSE(control.CanStop());
  EXPECT_EQ(control.CheckStop(), StopReason::kNone);
}

TEST(QueryControlTest, CancelWinsOverDeadline) {
  Deadline expired(1e-12);
  CancelToken token;
  token.RequestCancel();
  while (!expired.Expired()) {
  }
  QueryControl control;
  control.deadline = &expired;
  control.cancel = &token;
  EXPECT_EQ(control.CheckStop(), StopReason::kCancel);
}

TEST(QueryControlTest, DeadlineExpiryReported) {
  Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  QueryControl control;
  control.deadline = &expired;
  EXPECT_EQ(control.CheckStop(), StopReason::kDeadline);
}

// ---------------------------------------------------------------------------
// Propagation through the frame renderers
// ---------------------------------------------------------------------------

class ControlPropagationTest : public ::testing::Test {
 protected:
  ControlPropagationTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian),
        grid_(16, 12, bench_.data_bounds()) {}

  // Single-threaded εKDV frame under `control`.
  DensityFrame RenderEps(const KdeEvaluator& evaluator, double eps,
                         const QueryControl& control, BatchStats* stats) {
    return RenderEpsFrameParallel(evaluator, grid_, eps, RenderOptions(),
                                  nullptr, control, stats);
  }

  Workbench bench_;
  PixelGrid grid_;
};

TEST_F(ControlPropagationTest, CancelledFrameStopsAndReportsIt) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  CancelToken token;
  token.RequestCancel();
  QueryControl control;
  control.cancel = &token;

  BatchStats stats;
  DensityFrame frame = RenderEps(quad, 0.01, control, &stats);
  ASSERT_EQ(frame.values.size(), grid_.num_pixels());
  EXPECT_TRUE(stats.cancelled);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.queries, 0u);
  for (double v : frame.values) EXPECT_EQ(v, 0.0);  // unreached stay zero
}

TEST_F(ControlPropagationTest, ExpiredDeadlineStopsEveryFrameKind) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  QueryControl control;
  control.deadline = &expired;

  BatchStats eps_stats;
  RenderEps(quad, 0.01, control, &eps_stats);
  EXPECT_TRUE(eps_stats.deadline_expired);
  EXPECT_FALSE(eps_stats.completed);

  BatchStats tau_stats;
  RenderTauFrameParallel(quad, grid_, 1e-3, RenderOptions(), nullptr, control,
                         &tau_stats);
  EXPECT_TRUE(tau_stats.deadline_expired);
  EXPECT_FALSE(tau_stats.completed);

  BatchStats exact_stats;
  RenderExactFrameParallel(quad, grid_, RenderOptions(), nullptr, control,
                           &exact_stats);
  EXPECT_TRUE(exact_stats.deadline_expired);
  EXPECT_FALSE(exact_stats.completed);
}

TEST_F(ControlPropagationTest, DefaultControlMatchesConvenienceRender) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  BatchStats a, b;
  DensityFrame with_control = RenderEps(quad, 0.01, QueryControl(), &a);
  DensityFrame without = RenderEpsFrame(quad, grid_, 0.01, &b);
  ASSERT_EQ(with_control.values.size(), without.values.size());
  for (size_t i = 0; i < without.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_control.values[i], without.values[i]);
  }
  EXPECT_TRUE(a.completed);
  EXPECT_FALSE(a.deadline_expired);
  EXPECT_FALSE(a.cancelled);
}

TEST_F(ControlPropagationTest, EvaluatorInterruptedMidQuery) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  CancelToken token;
  token.RequestCancel();
  QueryControl control;
  control.cancel = &token;
  control.check_interval = 1;

  // Even a single-query evaluation observes the cancel at iteration
  // granularity and still returns a valid (finite, ordered) envelope.
  EvalResult r = quad.EvaluateEps(grid_.PixelCenter(8, 6), 1e-9, control);
  EXPECT_TRUE(r.interrupted);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.lower, r.upper);
}

TEST_F(ControlPropagationTest, CancelledRenderFramesStayFinite) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  CancelToken token;
  token.RequestCancel();
  QueryControl control;
  control.cancel = &token;

  BatchStats stats;
  DensityFrame frame = RenderEps(quad, 0.01, control, &stats);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(ScrubNonFinite(&frame), 0u);
}

TEST_F(ControlPropagationTest, ProgressiveReportsCancellation) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  CancelToken token;
  token.RequestCancel();
  QueryControl control;
  control.cancel = &token;

  ProgressiveResult r = RenderProgressive(
      quad, grid_, 0.01, control,
      QuadTreeSchedule(grid_.width(), grid_.height()));
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.pixels_evaluated, 0u);
  EXPECT_EQ(ScrubNonFinite(&r.frame), 0u);  // fully painted, finite
}

TEST_F(ControlPropagationTest, MidFlightCancelStopsALongFrame) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  CancelToken token;
  QueryControl control;
  control.cancel = &token;

  // Cancel after the first poll fires: evaluate one query, then flip the
  // flag from "another thread" simulated by a pre-cancelled token copy.
  // (Deterministic single-thread variant: cancel immediately after a first
  // uncontrolled run proves at least one query completes.)
  BatchStats warmup;
  RenderEpsFrame(quad, grid_, 0.05, &warmup);
  ASSERT_EQ(warmup.queries, grid_.num_pixels());

  token.RequestCancel();
  BatchStats stats;
  RenderEps(quad, 0.05, control, &stats);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_LT(stats.queries, grid_.num_pixels());
}

}  // namespace
}  // namespace kdv
