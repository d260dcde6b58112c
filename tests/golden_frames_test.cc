// Golden bit-identity suite: fixed-seed frames and evaluations whose pixel
// bytes and work counters are pinned to constants.
//
// The kd-tree node layout, the bound functions and the refinement loop may
// be rewritten for speed, but never so that a single output bit or a single
// unit of work moves: a frame's CRC32 and its BatchStats counters are part of
// the contract (the parallel renderer, the frontier cache and the benchmark's
// work gates all rely on them). The constants were recorded from the
// reference implementation; any numeric drift — a reordered sum, a fused
// multiply-add, a different exp argument — fails here with the new values
// printed, never silently.
//
// Coverage: every bound family the renderer dispatches to, per-pixel
// (NodeBounds::Evaluate only) and tile-shared (EvaluateRegion plus seeded
// Evaluate), and one 5-d sample so the O(d^2) aggregate path is pinned at a
// dimension where the outer-product matrix is not trivially small. The ε
// tile-shared tuples also pin cut reuse along chunk rows (each pixel after
// a row's first starts from its left neighbour's final cut;
// core/refinement_stream.h): their iterations count the steps left after
// it, and their node evaluations include the re-evaluated cuts.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "data/datasets.h"
#include "util/crc32.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

constexpr int kWidth = 96;
constexpr int kHeight = 72;

// The deterministic part of a frame's outcome.
struct Golden {
  uint32_t crc = 0;
  uint64_t queries = 0;
  uint64_t iterations = 0;
  uint64_t points_scanned = 0;
  uint64_t nodes_visited = 0;
  uint64_t tile_nodes_visited = 0;
  uint64_t tile_accepted = 0;
  uint64_t tile_pruned = 0;
  uint64_t tiles_decided = 0;
  uint64_t pixels_decided = 0;
  uint64_t numeric_faults = 0;
};

Golden FromStats(uint32_t crc, const BatchStats& s) {
  Golden g;
  g.crc = crc;
  g.queries = s.queries;
  g.iterations = s.iterations;
  g.points_scanned = s.points_scanned;
  g.nodes_visited = s.nodes_visited;
  g.tile_nodes_visited = s.tile_nodes_visited;
  g.tile_accepted = s.tile_accepted;
  g.tile_pruned = s.tile_pruned;
  g.tiles_decided = s.tiles_decided;
  g.pixels_decided = s.pixels_decided;
  g.numeric_faults = s.numeric_faults;
  return g;
}

std::string Describe(const Golden& g) {
  return "{" + std::to_string(g.crc) + "u, " + std::to_string(g.queries) +
         ", " + std::to_string(g.iterations) + ", " +
         std::to_string(g.points_scanned) + ", " +
         std::to_string(g.nodes_visited) + ", " +
         std::to_string(g.tile_nodes_visited) + ", " +
         std::to_string(g.tile_accepted) + ", " +
         std::to_string(g.tile_pruned) + ", " +
         std::to_string(g.tiles_decided) + ", " +
         std::to_string(g.pixels_decided) + ", " +
         std::to_string(g.numeric_faults) + "}";
}

::testing::AssertionResult MatchesGolden(const Golden& actual,
                                         const Golden& expected) {
  const bool same =
      actual.crc == expected.crc && actual.queries == expected.queries &&
      actual.iterations == expected.iterations &&
      actual.points_scanned == expected.points_scanned &&
      actual.nodes_visited == expected.nodes_visited &&
      actual.tile_nodes_visited == expected.tile_nodes_visited &&
      actual.tile_accepted == expected.tile_accepted &&
      actual.tile_pruned == expected.tile_pruned &&
      actual.tiles_decided == expected.tiles_decided &&
      actual.pixels_decided == expected.pixels_decided &&
      actual.numeric_faults == expected.numeric_faults;
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << Describe(actual) << ", want " << Describe(expected);
}

std::unique_ptr<Workbench> CrimeBench(KernelType kernel) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(GenerateMixture(CrimeSpec(0.01)), kernel);
  EXPECT_TRUE(bench.ok()) << bench.status().ToString();
  return *std::move(bench);
}

PixelGrid GridOver(const Workbench& bench) {
  return PixelGrid(kWidth, kHeight, bench.data_bounds());
}

Golden EpsFrame(KernelType kernel, Method method, bool tile_shared) {
  std::unique_ptr<Workbench> bench = CrimeBench(kernel);
  KdeEvaluator evaluator = bench->MakeEvaluator(method);
  RenderOptions options;
  options.tile_shared = tile_shared;
  BatchStats stats;
  DensityFrame frame =
      RenderEpsFrameParallel(evaluator, GridOver(*bench), 0.01, options,
                             nullptr, QueryControl(), &stats);
  EXPECT_TRUE(stats.completed);
  return FromStats(
      Crc32(frame.values.data(), frame.values.size() * sizeof(double)),
      stats);
}

// τ is the mean exact density over the frame, so pixels sit on both sides:
// the tile pass prunes subtrees, defers frontiers, re-bounds undecided
// chunks over their quadrants and (cosine, exponential) decides whole
// chunks.
Golden TauFrame(KernelType kernel) {
  std::unique_ptr<Workbench> bench = CrimeBench(kernel);
  const PixelGrid grid = GridOver(*bench);
  DensityFrame exact =
      RenderExactFrame(bench->MakeEvaluator(Method::kExact), grid, nullptr);
  double tau = 0.0;
  for (double v : exact.values) tau += v;
  tau /= static_cast<double>(exact.values.size());

  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  RenderOptions options;
  options.tile_shared = true;
  BatchStats stats;
  BinaryFrame frame = RenderTauFrameParallel(evaluator, grid, tau, options,
                                             nullptr, QueryControl(), &stats);
  EXPECT_TRUE(stats.completed);
  return FromStats(Crc32(frame.values.data(), frame.values.size()), stats);
}

TEST(GoldenFramesTest, QuadGaussianEpsPerPixel) {
  EXPECT_TRUE(MatchesGolden(
      EpsFrame(KernelType::kGaussian, Method::kQuad, false),
      {792406471u, 6912, 268113, 1458916, 405252, 0, 0, 0, 0, 0, 0}));
}

TEST(GoldenFramesTest, QuadGaussianEpsTileShared) {
  EXPECT_TRUE(MatchesGolden(
      EpsFrame(KernelType::kGaussian, Method::kQuad, true),
      {2896975132u, 6912, 86149, 1424409, 295788, 3870, 446, 0, 0, 0, 0}));
}

TEST(GoldenFramesTest, QuadTriangularTauTileShared) {
  EXPECT_TRUE(MatchesGolden(
      TauFrame(KernelType::kTriangular),
      {4148264961u, 6912, 49773, 204677, 40123, 3008, 0, 274, 0, 0, 0}));
}

TEST(GoldenFramesTest, QuadCosineTauTileShared) {
  EXPECT_TRUE(MatchesGolden(
      TauFrame(KernelType::kCosine),
      {2151565245u, 6912, 62270, 295316, 48338, 3946, 0, 306, 1, 128, 0}));
}

TEST(GoldenFramesTest, QuadExponentialTauTileShared) {
  EXPECT_TRUE(MatchesGolden(
      TauFrame(KernelType::kExponential),
      {3487791771u, 6912, 112477, 321215, 99541, 10928, 0, 0, 3, 512, 0}));
}

TEST(GoldenFramesTest, QuadEpanechnikovEpsTileShared) {
  EXPECT_TRUE(MatchesGolden(
      EpsFrame(KernelType::kEpanechnikov, Method::kQuad, true),
      {3513773470u, 6912, 29403, 487537, 101995, 1348, 0, 274, 0, 0, 0}));
}

TEST(GoldenFramesTest, KarlGaussianEpsTileShared) {
  EXPECT_TRUE(MatchesGolden(
      EpsFrame(KernelType::kGaussian, Method::kKarl, true),
      {519688979u, 6912, 111931, 1965664, 297918, 3870, 460, 0, 0, 0, 0}));
}

TEST(GoldenFramesTest, AkdeGaussianEpsPerPixel) {
  EXPECT_TRUE(MatchesGolden(
      EpsFrame(KernelType::kGaussian, Method::kAkde, false),
      {2039313310u, 6912, 395697, 3118915, 503296, 0, 0, 0, 0, 0, 0}));
}

// 5-d QUAD Gaussian εKDV at 48 query points drawn from a second mixture:
// the S2 path reads all 15 outer-product entries of every node.
TEST(GoldenFramesTest, QuadGaussianEps5d) {
  MixtureSpec spec;
  spec.n = 3000;
  spec.dim = 5;
  spec.num_clusters = 6;
  spec.seed = 7;
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(GenerateMixture(spec), KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  KdeEvaluator evaluator = (*bench)->MakeEvaluator(Method::kQuad);

  MixtureSpec query_spec = spec;
  query_spec.n = 48;
  query_spec.seed = 8;
  const PointSet queries = GenerateMixture(query_spec);

  std::vector<double> values;
  BatchStats stats;
  for (const Point& q : queries) {
    EvalResult r = evaluator.EvaluateEps(q, 0.01);
    values.push_back(r.lower);
    values.push_back(r.upper);
    values.push_back(r.estimate);
    AccumulateQueryStats(&stats, r);
  }
  EXPECT_TRUE(MatchesGolden(
      FromStats(Crc32(values.data(), values.size() * sizeof(double)), stats),
      {653313227u, 48, 4655, 35234, 6360, 0, 0, 0, 0, 0, 0}));
}

}  // namespace
}  // namespace kdv
