// Block-level τKDV: the tile-shared τ path decides whole chunks of pixels
// from QUAD region bounds and refines only the undecided ones per pixel.
// Its mask must equal a per-pixel oracle (a plain EvaluateTau loop over the
// pixel centers) exactly. Swept over thresholds around μ, the distance
// kernels, and tiny or lopsided grids where chunks are clipped.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "data/datasets.h"
#include "stats/density_stats.h"
#include "viz/parallel_render.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

BinaryFrame OracleTauFrame(const KdeEvaluator& evaluator,
                           const PixelGrid& grid, double tau) {
  BinaryFrame frame(grid.width(), grid.height());
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      TauResult r = evaluator.EvaluateTau(grid.PixelCenter(x, y), tau);
      frame.values[grid.PixelIndex(x, y)] = r.above_threshold ? 1 : 0;
    }
  }
  return frame;
}

class TileSharedTauTest : public ::testing::Test {
 protected:
  TileSharedTauTest()
      : bench_(GenerateMixture(CrimeSpec(0.003)), KernelType::kGaussian) {}

  static BinaryFrame RenderShared(const KdeEvaluator& evaluator,
                                  const PixelGrid& grid, double tau,
                                  BatchStats* stats, int tile_rows = 16) {
    RenderOptions options;
    options.tile_shared = true;
    options.tile_rows = tile_rows;
    return RenderTauFrameParallel(evaluator, grid, tau, options, nullptr,
                                  QueryControl(), stats);
  }

  // Returns the number of chunks the region pass decided wholesale.
  static uint64_t ExpectOracleMask(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double tau,
                                   const std::string& label,
                                   int tile_rows = 16) {
    BatchStats stats;
    BinaryFrame shared = RenderShared(evaluator, grid, tau, &stats, tile_rows);
    BinaryFrame oracle = OracleTauFrame(evaluator, grid, tau);
    EXPECT_EQ(shared.values, oracle.values) << label;
    EXPECT_TRUE(stats.completed) << label;
    EXPECT_EQ(stats.queries, grid.num_pixels()) << label;
    return stats.tiles_decided;
  }

  Workbench bench_;
};

TEST_F(TileSharedTauTest, MaskMatchesOracleAcrossThresholds) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  PixelGrid grid(48, 36, bench_.data_bounds());
  MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/4);
  uint64_t decided = 0;
  for (int tile_rows : {16, 4}) {
    for (double k : {-0.3, -0.1, 0.0, 0.1, 0.3}) {
      const double tau = std::max(stats.mean + k * stats.stddev, 1e-12);
      decided += ExpectOracleMask(
          quad, grid, tau,
          "k=" + std::to_string(k) + " rows=" + std::to_string(tile_rows),
          tile_rows);
    }
  }
  EXPECT_GT(decided, 0u);  // region-decided chunks are part of the sweep
}

TEST_F(TileSharedTauTest, MaskMatchesOracleForDistanceKernels) {
  for (KernelType kernel : {KernelType::kTriangular, KernelType::kCosine,
                            KernelType::kExponential}) {
    Workbench bench(GenerateMixture(CrimeSpec(0.003)), kernel);
    PixelGrid grid(32, 24, bench.data_bounds());
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/4);
    ExpectOracleMask(quad, grid, std::max(stats.mean, 1e-12),
                     KernelTypeName(kernel));
  }
}

// Chunks of 1, 2 and 3 rows add one-pixel chunks (no quadrant cut), odd
// pixel counts whose middle center sits on the quadrant cut line, and
// clipped edge chunks.
TEST_F(TileSharedTauTest, MaskMatchesOracleOnTinyAndLopsidedGrids) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  for (auto [w, h] : {std::pair<int, int>{1, 1}, {7, 3}, {1, 16}, {33, 2}}) {
    PixelGrid grid(w, h, bench_.data_bounds());
    MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/1);
    for (int tile_rows : {16, 1, 2, 3}) {
      ExpectOracleMask(quad, grid, std::max(stats.mean, 1e-12),
                       std::to_string(w) + "x" + std::to_string(h) +
                           " rows=" + std::to_string(tile_rows),
                       tile_rows);
    }
  }
}

// τ above any possible density: the region pass decides every chunk "below"
// and no pixel is refined.
TEST_F(TileSharedTauTest, ExtremeThresholdDecidesEveryChunk) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  PixelGrid grid(48, 36, bench_.data_bounds());
  const double tau = 1e9 * bench_.params().weight *
                     static_cast<double>(bench_.num_points());
  BatchStats stats;
  BinaryFrame mask = RenderShared(quad, grid, tau, &stats);
  for (uint8_t v : mask.values) EXPECT_EQ(v, 0);
  // Default chunks are tile_rows (16) square, clipped at the frame edge.
  const RenderOptions defaults;
  const uint64_t bands = (grid.height() + defaults.tile_rows - 1) /
                         defaults.tile_rows;
  const uint64_t cols = (grid.width() + defaults.tile_rows - 1) /
                        defaults.tile_rows;
  EXPECT_EQ(stats.tiles_decided, bands * cols);
  EXPECT_EQ(stats.pixels_decided, grid.num_pixels());
  EXPECT_EQ(stats.queries, grid.num_pixels());
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.nodes_visited, 0u);
}

}  // namespace
}  // namespace kdv
