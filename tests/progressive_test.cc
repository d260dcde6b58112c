#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "progressive/progressive.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

TEST(QuadTreeScheduleTest, CoversEveryPixelAsRepresentative) {
  for (auto [w, h] : std::vector<std::pair<int, int>>{
           {8, 8}, {16, 12}, {7, 5}, {1, 1}, {1, 9}, {13, 1}}) {
    std::vector<RegionOp> schedule = QuadTreeSchedule(w, h);
    std::set<std::pair<int, int>> reps;
    for (const RegionOp& op : schedule) {
      ASSERT_GE(op.cx, op.x0);
      ASSERT_LT(op.cx, op.x1);
      ASSERT_GE(op.cy, op.y0);
      ASSERT_LT(op.cy, op.y1);
      ASSERT_GE(op.x0, 0);
      ASSERT_LE(op.x1, w);
      ASSERT_GE(op.y0, 0);
      ASSERT_LE(op.y1, h);
      reps.insert({op.cx, op.cy});
    }
    EXPECT_EQ(reps.size(), static_cast<size_t>(w) * h)
        << "schedule misses pixels for " << w << "x" << h;
  }
}

TEST(QuadTreeScheduleTest, CoarseRegionsComeFirst) {
  std::vector<RegionOp> schedule = QuadTreeSchedule(16, 16);
  // First op covers the whole frame.
  EXPECT_EQ(schedule[0].x0, 0);
  EXPECT_EQ(schedule[0].y0, 0);
  EXPECT_EQ(schedule[0].x1, 16);
  EXPECT_EQ(schedule[0].y1, 16);
  // Region areas are (weakly) decreasing along the schedule.
  auto area = [](const RegionOp& op) {
    return (op.x1 - op.x0) * (op.y1 - op.y0);
  };
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(area(schedule[i]), area(schedule[i - 1]));
  }
}

// ---------------------------------------------------------------------------
// Progressive rendering
// ---------------------------------------------------------------------------

class ProgressiveRenderTest : public ::testing::Test {
 protected:
  ProgressiveRenderTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian),
        grid_(16, 12, bench_.data_bounds()) {}

  Workbench bench_;
  PixelGrid grid_;
};

TEST_F(ProgressiveRenderTest, UnboundedRunEvaluatesEveryPixel) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  ProgressiveResult result = RenderProgressive(quad, grid_, 0.01, 0.0);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.pixels_evaluated, grid_.num_pixels());

  // Completed progressive frame equals the plain εKDV frame.
  DensityFrame direct = RenderEpsFrame(quad, grid_, 0.01, nullptr);
  for (size_t i = 0; i < direct.values.size(); ++i) {
    EXPECT_NEAR(result.frame.values[i], direct.values[i], 1e-12);
  }
}

TEST_F(ProgressiveRenderTest, TinyBudgetProducesPartialResult) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  ProgressiveResult result = RenderProgressive(quad, grid_, 0.01, 1e-9);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.pixels_evaluated, grid_.num_pixels());
  EXPECT_FALSE(result.stats.completed);
}

TEST_F(ProgressiveRenderTest, QualityImprovesWithBudget) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrame(exact, grid_, nullptr);

  // Run the schedule to fixed op-counts by slicing it manually (time budgets
  // flake on loaded machines; op counts are deterministic).
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<double> errors;
  for (size_t ops : {schedule.size() / 16, schedule.size() / 4,
                     schedule.size()}) {
    std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + ops);
    ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
    errors.push_back(
        AverageRelativeError(r.frame.values, truth.values, 1e-12));
  }
  EXPECT_LE(errors[2], errors[0] + 1e-12);
  EXPECT_LE(errors[2], 0.011);  // full schedule: εKDV-quality
}

TEST_F(ProgressiveRenderTest, PartialFrameHasNoUntouchedPixels) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  // Run only the first ops: even so, every pixel must carry some value from
  // a coarse representative (i.e. the first op paints the whole frame).
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + 1);
  ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
  EXPECT_EQ(r.pixels_evaluated, 1u);
  double v = r.frame.values[grid_.PixelIndex(grid_.width() / 2,
                                             grid_.height() / 2)];
  for (double val : r.frame.values) EXPECT_DOUBLE_EQ(val, v);
}

TEST_F(ProgressiveRenderTest, MaxErrorIsMonotoneAcrossCheckpoints) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrame(exact, grid_, nullptr);

  // Checkpoints at quad-tree level boundaries (each level multiplies the op
  // count by ~4): the worst-pixel error against the exact frame must be
  // non-increasing as refinement proceeds.
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<double> errors;
  for (size_t ops = 1; ops < schedule.size(); ops *= 4) {
    std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + ops);
    ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
    errors.push_back(MaxRelativeError(r.frame.values, truth.values, 1e-12));
  }
  ProgressiveResult full = RenderProgressive(quad, grid_, 0.01, 0.0);
  errors.push_back(
      MaxRelativeError(full.frame.values, truth.values, 1e-12));
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-12)
        << "max error regressed between checkpoints " << i - 1 << " and "
        << i;
  }
  EXPECT_LE(errors.back(), 0.011);  // full schedule: εKDV-certified
}

TEST_F(ProgressiveRenderTest, ExpiredBudgetStillPaintsEveryPixelFinite) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  QueryControl control;
  control.deadline = &expired;
  ProgressiveResult r = RenderProgressive(
      quad, grid_, 0.01, control,
      QuadTreeSchedule(grid_.width(), grid_.height()));
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadline_expired);
  EXPECT_EQ(r.pixels_evaluated, 0u);
  ASSERT_EQ(r.frame.values.size(), grid_.num_pixels());
  for (double v : r.frame.values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);  // nothing was evaluated; the frame is flat but valid
  }
}

TEST_F(ProgressiveRenderTest, WorksWithExactAndSamplingEvaluators) {
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  ProgressiveResult r1 = RenderProgressive(exact, grid_, 0.01, 0.0);
  EXPECT_TRUE(r1.completed);

  KdeEvaluator zorder = bench_.MakeZorderEvaluator(0.05);
  ProgressiveResult r2 = RenderProgressive(zorder, grid_, 0.05, 0.0);
  EXPECT_TRUE(r2.completed);
  EXPECT_EQ(r2.pixels_evaluated, grid_.num_pixels());
}

}  // namespace
}  // namespace kdv
