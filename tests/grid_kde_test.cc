#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "approx/grid_kde.h"
#include "data/datasets.h"
#include "stats/density_stats.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

TEST(GridKdeTest, TruncationRadiusPerKernel) {
  PointSet pts = GenerateMixture(MixtureSpec{});
  Rect domain = BoundingBox(pts);
  KdTree tree(std::move(pts));

  KernelParams gaussian{KernelType::kGaussian, 4.0, 1.0};
  GridKde g(tree, gaussian, domain, GridKde::Options{});
  // exp(-gamma d^2) < 1e-4 at d = sqrt(ln(1e4)/4).
  EXPECT_NEAR(g.truncation_radius(), std::sqrt(std::log(1e4) / 4.0), 1e-9);

  KernelParams triangular{KernelType::kTriangular, 4.0, 1.0};
  GridKde t(tree, triangular, domain, GridKde::Options{});
  EXPECT_NEAR(t.truncation_radius(), 1.0 / 4.0, 1e-12);  // support edge / γ
}

TEST(GridKdeTest, AccuracyImprovesWithGridResolution) {
  Workbench bench(GenerateMixture(CrimeSpec(0.003)), KernelType::kGaussian);
  PixelGrid grid(24, 18, bench.data_bounds());
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrame(exact, grid, nullptr);
  const double floor = 1e-3 * ComputeMeanStd(truth.values).mean;

  double prev_err = 1e9;
  for (int g : {16, 64, 256}) {
    GridKde::Options options;
    options.grid_size = g;
    GridKde approx(bench.tree(), bench.params(),
                   bench.data_bounds(), options);
    DensityFrame frame = approx.RenderFrame(grid);
    double err = AverageRelativeError(frame.values, truth.values, floor);
    EXPECT_LT(err, prev_err + 1e-6) << "grid " << g;
    prev_err = err;
  }
  // At 256 cells the approximation is decent on smooth mixtures...
  EXPECT_LT(prev_err, 0.05);
}

TEST(GridKdeTest, NoGuaranteeUnlikeBoundMethods) {
  // ...but a coarse grid violates ε = 0.01 by a wide margin — the camp-1
  // trade-off the paper excludes from εKDV.
  Workbench bench(GenerateMixture(CrimeSpec(0.003)), KernelType::kGaussian);
  PixelGrid grid(24, 18, bench.data_bounds());
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrame(exact, grid, nullptr);
  const double floor = 1e-3 * ComputeMeanStd(truth.values).mean;

  GridKde::Options options;
  options.grid_size = 8;
  GridKde approx(bench.tree(), bench.params(), bench.data_bounds(),
                 options);
  DensityFrame frame = approx.RenderFrame(grid);
  EXPECT_GT(MaxRelativeError(frame.values, truth.values, floor), 0.01);
}

TEST(GridKdeTest, MassIsApproximatelyConserved) {
  // With an untruncated finite-support kernel fully inside the domain, the
  // total binned weight equals n * w per evaluation of a covering integral;
  // check the simpler invariant: density at a far point is ~0 and at the
  // single bin's center equals count * w * K(within-cell offset).
  KdTree tree(PointSet(100, Point{0.5, 0.5}));
  Rect domain(2);
  domain.Expand(Point{0.0, 0.0});
  domain.Expand(Point{1.0, 1.0});
  KernelParams params{KernelType::kGaussian, 10.0, 0.01};
  GridKde::Options options;
  options.grid_size = 64;
  GridKde g(tree, params, domain, options);

  // All 100 points share one cell; its center is within half a cell of
  // (0.5, 0.5).
  double v = g.Evaluate(Point{0.5, 0.5});
  EXPECT_GT(v, 0.9);   // ~100 * 0.01 * K(tiny)
  EXPECT_LE(v, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(g.Evaluate(Point{100.0, 100.0}), 0.0);
}

TEST(GridKdeTest, MuchFasterThanExactOnLargeData) {
  Workbench bench(GenerateMixture(HomeSpec(0.02)), KernelType::kGaussian);
  PixelGrid grid(64, 48, bench.data_bounds());

  Timer build_timer;
  GridKde approx(bench.tree(), bench.params(), bench.data_bounds(),
                 GridKde::Options{});
  DensityFrame frame = approx.RenderFrame(grid);
  double grid_time = build_timer.ElapsedSeconds();

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  BatchStats stats;
  RenderExactFrame(exact, grid, &stats);
  EXPECT_LT(grid_time, stats.seconds);
  (void)frame;
}

}  // namespace
}  // namespace kdv
