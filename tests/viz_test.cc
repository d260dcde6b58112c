#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "viz/color_map.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

Rect UnitSquare() {
  Rect r(2);
  r.Expand(Point{0.0, 0.0});
  r.Expand(Point{1.0, 1.0});
  return r;
}

// ---------------------------------------------------------------------------
// PixelGrid
// ---------------------------------------------------------------------------

TEST(PixelGridTest, CentersAreInsideDomain) {
  PixelGrid grid(16, 12, UnitSquare());
  EXPECT_EQ(grid.num_pixels(), 16u * 12u);
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      Point c = grid.PixelCenter(x, y);
      EXPECT_GT(c[0], 0.0);
      EXPECT_LT(c[0], 1.0);
      EXPECT_GT(c[1], 0.0);
      EXPECT_LT(c[1], 1.0);
    }
  }
}

TEST(PixelGridTest, TopLeftPixelMapsToTopOfDomain) {
  PixelGrid grid(10, 10, UnitSquare());
  Point top_left = grid.PixelCenter(0, 0);
  Point bottom_left = grid.PixelCenter(0, 9);
  EXPECT_DOUBLE_EQ(top_left[0], 0.05);
  EXPECT_DOUBLE_EQ(top_left[1], 0.95);   // screen y=0 is data-space top
  EXPECT_DOUBLE_EQ(bottom_left[1], 0.05);
}

TEST(PixelGridTest, AllPixelCentersRowMajor) {
  PixelGrid grid(3, 2, UnitSquare());
  PointSet centers = grid.AllPixelCenters();
  ASSERT_EQ(centers.size(), 6u);
  EXPECT_EQ(centers[0], grid.PixelCenter(0, 0));
  EXPECT_EQ(centers[1], grid.PixelCenter(1, 0));
  EXPECT_EQ(centers[3], grid.PixelCenter(0, 1));
  EXPECT_EQ(grid.PixelIndex(1, 1), 4u);
}

// ---------------------------------------------------------------------------
// Frame metrics
// ---------------------------------------------------------------------------

TEST(FrameMetricsTest, AverageRelativeError) {
  std::vector<double> exact = {1.0, 2.0, 4.0};
  std::vector<double> est = {1.1, 1.8, 4.0};
  // Errors: 0.1, 0.1, 0.0 -> mean 0.2/3.
  EXPECT_NEAR(AverageRelativeError(est, exact), 0.2 / 3.0, 1e-12);
}

TEST(FrameMetricsTest, MaxRelativeError) {
  std::vector<double> exact = {1.0, 2.0};
  std::vector<double> est = {1.5, 2.0};
  EXPECT_NEAR(MaxRelativeError(est, exact), 0.5, 1e-12);
}

TEST(FrameMetricsTest, FloorPreventsBlowup) {
  std::vector<double> exact = {0.0};
  std::vector<double> est = {1e-31};
  EXPECT_LT(AverageRelativeError(est, exact, 1e-30), 1.0);
}

TEST(FrameMetricsTest, BinaryMismatchRate) {
  std::vector<uint8_t> a = {0, 1, 1, 0};
  std::vector<uint8_t> b = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(BinaryMismatchRate(a, b), 0.5);
}

TEST(FrameTest, AtAccessorsRowMajor) {
  DensityFrame f(4, 3, 0.0);
  f.at(2, 1) = 7.0;
  EXPECT_DOUBLE_EQ(f.values[1 * 4 + 2], 7.0);
  EXPECT_DOUBLE_EQ(f.at(2, 1), 7.0);
}

// ---------------------------------------------------------------------------
// Color maps and PPM output
// ---------------------------------------------------------------------------

TEST(ColorMapTest, HeatColorEndpointsAndClamping) {
  Rgb cold = HeatColor(0.0);
  Rgb hot = HeatColor(1.0);
  EXPECT_EQ(cold.r, 0);
  EXPECT_GT(cold.b, 100);  // blue end
  EXPECT_EQ(hot.r, 255);   // red end
  EXPECT_EQ(hot.b, 0);
  EXPECT_EQ(HeatColor(-5.0), cold);
  EXPECT_EQ(HeatColor(5.0), hot);
}

TEST(ColorMapTest, HeatColorVariesMonotonicallyInRedChannel) {
  int prev = -1;
  for (double t = 1.0 / 3.0; t <= 1.0; t += 0.01) {
    Rgb c = HeatColor(t);
    EXPECT_GE(c.r, prev);
    prev = c.r;
  }
}

TEST(ImageTest, WritePpmProducesValidHeader) {
  Image img(4, 2);
  img.at(0, 0) = {255, 0, 0};
  std::string path = ::testing::TempDir() + "/kdv_test.ppm";
  ASSERT_TRUE(img.WritePpm(path));

  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  char first[3];
  in.read(first, 3);
  EXPECT_EQ(static_cast<uint8_t>(first[0]), 255);
  EXPECT_EQ(static_cast<uint8_t>(first[1]), 0);
  std::remove(path.c_str());
}

TEST(ColorMapTest, PaletteEndpointsAreDistinctAndClamped) {
  for (Palette p : {Palette::kHeat, Palette::kViridis, Palette::kGrayscale}) {
    Rgb lo = PaletteColor(p, 0.0);
    Rgb hi = PaletteColor(p, 1.0);
    EXPECT_FALSE(lo == hi);
    EXPECT_EQ(PaletteColor(p, -1.0), lo);
    EXPECT_EQ(PaletteColor(p, 2.0), hi);
  }
}

TEST(ColorMapTest, GrayscaleIsMonotone) {
  int prev = -1;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    Rgb c = PaletteColor(Palette::kGrayscale, t);
    EXPECT_EQ(c.r, c.g);
    EXPECT_EQ(c.g, c.b);
    EXPECT_GE(c.r, prev);
    prev = c.r;
  }
}

TEST(ColorMapTest, ViridisMatchesKnownControlPoints) {
  Rgb start = PaletteColor(Palette::kViridis, 0.0);
  Rgb end = PaletteColor(Palette::kViridis, 1.0);
  // Dark violet start, yellow end.
  EXPECT_GT(start.b, start.g);
  EXPECT_GT(end.r, 200);
  EXPECT_GT(end.g, 200);
  EXPECT_LT(end.b, 80);
}

TEST(ImageTest, WritePgmProducesValidGrayscale) {
  Image img(2, 1);
  img.at(0, 0) = {255, 255, 255};
  img.at(1, 0) = {0, 0, 0};
  std::string path = ::testing::TempDir() + "/kdv_test.pgm";
  ASSERT_TRUE(img.WritePgm(path));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 2);
  EXPECT_EQ(h, 1);
  in.get();
  char px[2];
  in.read(px, 2);
  EXPECT_EQ(static_cast<uint8_t>(px[0]), 255);
  EXPECT_EQ(static_cast<uint8_t>(px[1]), 0);
  std::remove(path.c_str());
}

TEST(RenderImageTest, PaletteOverloadProducesDifferentPixels) {
  DensityFrame f(2, 1);
  f.at(0, 0) = 0.0;
  f.at(1, 0) = 1.0;
  Image heat = RenderHeatMap(f, Palette::kHeat);
  Image gray = RenderHeatMap(f, Palette::kGrayscale);
  EXPECT_FALSE(heat.at(1, 0) == gray.at(1, 0));
}

TEST(RenderImageTest, HeatMapNormalizesRange) {
  DensityFrame f(2, 1);
  f.at(0, 0) = 0.0;
  f.at(1, 0) = 10.0;
  Image img = RenderHeatMap(f);
  EXPECT_EQ(img.at(0, 0), HeatColor(0.0));
  EXPECT_EQ(img.at(1, 0), HeatColor(1.0));
}

TEST(RenderImageTest, ConstantFrameRendersUniformly) {
  DensityFrame f(3, 3, 5.0);
  Image img = RenderHeatMap(f);
  EXPECT_EQ(img.at(0, 0), img.at(2, 2));
}

TEST(RenderImageTest, ThresholdMapTwoColors) {
  DensityFrame f(2, 1);
  f.at(0, 0) = 1.0;
  f.at(1, 0) = 3.0;
  Image img = RenderThresholdMap(f, 2.0);
  EXPECT_FALSE(img.at(0, 0) == img.at(1, 0));
  // Above-threshold pixel must be the "hot" (reddish) color.
  EXPECT_GT(img.at(1, 0).r, img.at(1, 0).b);
}

// ---------------------------------------------------------------------------
// Whole-frame rendering consistency
// ---------------------------------------------------------------------------

TEST(RenderFrameTest, EpsFrameMatchesExactFrameWithinEps) {
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  PixelGrid grid(24, 18, bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

  DensityFrame exact_frame = RenderExactFrame(exact, grid, nullptr);
  BatchStats stats;
  DensityFrame quad_frame = RenderEpsFrame(quad, grid, 0.01, &stats);

  EXPECT_EQ(stats.queries, grid.num_pixels());
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_LE(MaxRelativeError(quad_frame.values, exact_frame.values, 1e-12),
            0.01 + 1e-6);
}

TEST(RenderFrameTest, TauFrameMatchesExactThresholding) {
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  PixelGrid grid(20, 15, bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

  DensityFrame exact_frame = RenderExactFrame(exact, grid, nullptr);
  // A tau in the interior of the value range.
  double tau = 0.0;
  for (double v : exact_frame.values) tau = std::max(tau, v);
  tau *= 0.3;

  BinaryFrame tau_frame = RenderTauFrame(quad, grid, tau, nullptr);
  for (size_t i = 0; i < tau_frame.values.size(); ++i) {
    if (std::abs(exact_frame.values[i] - tau) < 1e-12) continue;
    EXPECT_EQ(tau_frame.values[i] != 0, exact_frame.values[i] >= tau)
        << "pixel " << i;
  }
}

}  // namespace
}  // namespace kdv
