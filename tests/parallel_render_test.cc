// Determinism and robustness suite for the frame renderer and the
// SoA/scratch machinery beneath it.
//
// The load-bearing property is bit-identical output: a rendered frame must
// equal an independent per-pixel oracle (a plain loop of EvaluateEps /
// EvaluateTau / EvaluateExact over the pixel centers) byte for byte, with
// equal work counters, for every operation, thread count and tile size —
// that is what lets the tiled driver ship certified frames. Beneath it, two
// refactors carry the same contract at smaller scope: the SoA leaf kernel
// must match the AoS scalar loop bitwise, and a Reset() scratch stream must
// be indistinguishable from a freshly constructed one.
//
// Everything here runs clean under ThreadSanitizer; CI's tsan job pulls the
// suite in via `ctest -L concurrency`.
#include "viz/parallel_render.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "core/refinement_stream.h"
#include "data/datasets.h"
#include "index/kdtree.h"
#include "stats/density_stats.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

PointSet TestDataset(size_t n = 1500, uint64_t seed = 21) {
  MixtureSpec spec;
  spec.n = n;
  spec.num_clusters = 4;
  spec.seed = seed;
  return GenerateMixture(spec);
}

std::unique_ptr<Workbench> MakeBench(
    KernelType kernel = KernelType::kGaussian) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(TestDataset(), kernel);
  EXPECT_TRUE(bench.ok()) << bench.status().ToString();
  return *std::move(bench);
}

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Bitwise frame comparison: memcmp, not operator==, so -0.0 vs 0.0 or NaN
// payload differences cannot hide.
::testing::AssertionResult FramesBitIdentical(
    const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (Bits(a[i]) != Bits(b[i])) {
        return ::testing::AssertionFailure()
               << "first divergence at pixel " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Per-pixel oracle: the paper's εKDV/τKDV loop, independent of the renderer
// ---------------------------------------------------------------------------

DensityFrame OracleEpsFrame(const KdeEvaluator& evaluator,
                            const PixelGrid& grid, double eps,
                            BatchStats* stats) {
  DensityFrame frame(grid.width(), grid.height());
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      EvalResult r = evaluator.EvaluateEps(grid.PixelCenter(x, y), eps);
      frame.values[grid.PixelIndex(x, y)] = r.estimate;
      AccumulateQueryStats(stats, r);
    }
  }
  return frame;
}

BinaryFrame OracleTauFrame(const KdeEvaluator& evaluator,
                           const PixelGrid& grid, double tau,
                           BatchStats* stats) {
  BinaryFrame frame(grid.width(), grid.height());
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      TauResult r = evaluator.EvaluateTau(grid.PixelCenter(x, y), tau);
      frame.values[grid.PixelIndex(x, y)] = r.above_threshold ? 1 : 0;
      AccumulateQueryStats(stats, r);
    }
  }
  return frame;
}

DensityFrame OracleExactFrame(const KdeEvaluator& evaluator,
                              const PixelGrid& grid, BatchStats* stats) {
  DensityFrame frame(grid.width(), grid.height());
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      frame.values[grid.PixelIndex(x, y)] =
          evaluator.EvaluateExact(grid.PixelCenter(x, y));
      ++stats->queries;
      stats->points_scanned += evaluator.tree().num_points();
    }
  }
  return frame;
}

// The εKDV/τKDV work counters a per-pixel frame must reproduce exactly.
void ExpectSameWork(const BatchStats& oracle, const BatchStats& frame) {
  EXPECT_EQ(frame.queries, oracle.queries);
  EXPECT_EQ(frame.iterations, oracle.iterations);
  EXPECT_EQ(frame.points_scanned, oracle.points_scanned);
  EXPECT_EQ(frame.nodes_visited, oracle.nodes_visited);
  EXPECT_EQ(frame.numeric_faults, oracle.numeric_faults);
  EXPECT_EQ(frame.tile_nodes_visited, 0u);
  EXPECT_EQ(frame.tiles_decided, 0u);
}

// The convenience renders (default options, no pool) are the same driver,
// so they too must match the oracle bitwise, counters included.
TEST(OracleTest, ConvenienceRendersMatchPerPixelOracle) {
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular,
        KernelType::kExponential}) {
    auto bench = MakeBench(kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(37, 23, bench->data_bounds());

    BatchStats oracle_stats, stats;
    DensityFrame oracle =
        OracleEpsFrame(evaluator, grid, 0.05, &oracle_stats);
    DensityFrame frame = RenderEpsFrame(evaluator, grid, 0.05, &stats);
    EXPECT_TRUE(FramesBitIdentical(oracle.values, frame.values))
        << KernelTypeName(kernel);
    EXPECT_TRUE(stats.completed);
    ExpectSameWork(oracle_stats, stats);

    BatchStats oracle_tau_stats, tau_stats;
    BinaryFrame oracle_tau =
        OracleTauFrame(evaluator, grid, 0.3, &oracle_tau_stats);
    BinaryFrame tau = RenderTauFrame(evaluator, grid, 0.3, &tau_stats);
    EXPECT_EQ(oracle_tau.values, tau.values) << KernelTypeName(kernel);
    ExpectSameWork(oracle_tau_stats, tau_stats);
  }

  auto bench = MakeBench();
  KdeEvaluator exact = bench->MakeEvaluator(Method::kExact);
  PixelGrid grid(13, 9, bench->data_bounds());
  BatchStats oracle_stats, stats;
  DensityFrame oracle = OracleExactFrame(exact, grid, &oracle_stats);
  DensityFrame frame = RenderExactFrame(exact, grid, &stats);
  EXPECT_TRUE(FramesBitIdentical(oracle.values, frame.values));
  EXPECT_EQ(stats.queries, oracle_stats.queries);
  EXPECT_EQ(stats.points_scanned, oracle_stats.points_scanned);
}

// ---------------------------------------------------------------------------
// Tiled frame == per-pixel oracle, bitwise, at any thread count
// ---------------------------------------------------------------------------

struct ParallelCase {
  int num_threads;
  int tile_rows;
};

std::string CaseName(const ::testing::TestParamInfo<ParallelCase>& info) {
  return "t" + std::to_string(info.param.num_threads) + "_rows" +
         std::to_string(info.param.tile_rows);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<ParallelCase> {
};

TEST_P(ParallelEquivalenceTest, EpsFrameBitIdenticalToOracle) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  BatchStats oracle_stats;
  DensityFrame oracle = OracleEpsFrame(evaluator, grid, 0.05, &oracle_stats);

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  DensityFrame parallel = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);

  EXPECT_TRUE(FramesBitIdentical(oracle.values, parallel.values));
  EXPECT_TRUE(stats.completed);
  // Per-worker accounting, merged in any order, must equal the oracle
  // counters.
  ExpectSameWork(oracle_stats, stats);
}

TEST_P(ParallelEquivalenceTest, TauFrameBitIdenticalToOracle) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());
  const double tau = 0.3;

  BatchStats oracle_stats;
  BinaryFrame oracle = OracleTauFrame(evaluator, grid, tau, &oracle_stats);

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  BinaryFrame parallel = RenderTauFrameParallel(
      evaluator, grid, tau, options, &pool, QueryControl(), &stats);

  EXPECT_EQ(oracle.values, parallel.values);
  EXPECT_TRUE(stats.completed);
  ExpectSameWork(oracle_stats, stats);
}

TEST_P(ParallelEquivalenceTest, ExactFrameBitIdenticalToOracle) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kExact);
  PixelGrid grid(24, 18, bench->data_bounds());

  BatchStats oracle_stats;
  DensityFrame oracle = OracleExactFrame(evaluator, grid, &oracle_stats);

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  DensityFrame parallel = RenderExactFrameParallel(
      evaluator, grid, options, &pool, QueryControl(), &stats);

  EXPECT_TRUE(FramesBitIdentical(oracle.values, parallel.values));
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.queries, oracle_stats.queries);
  EXPECT_EQ(stats.points_scanned, oracle_stats.points_scanned);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadAndTileSweep, ParallelEquivalenceTest,
    ::testing::Values(ParallelCase{1, 16},   // serial-in-caller path
                      ParallelCase{2, 16},   // fewer helpers than tiles
                      ParallelCase{4, 5},    // uneven tile split
                      ParallelCase{8, 1},    // one row per tile
                      ParallelCase{8, 64},   // one tile bigger than the frame
                      ParallelCase{0, 16}),  // hardware autodetect
    CaseName);

// A pool with no free capacity sheds every helper; the caller renders the
// whole frame itself and the result is still bit-identical.
TEST(ParallelRenderTest, SaturatedPoolDegradesToCallerOnly) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(32, 24, bench->data_bounds());

  BatchStats oracle_stats;
  DensityFrame oracle = OracleEpsFrame(evaluator, grid, 0.05, &oracle_stats);

  // One parked worker plus a full one-slot queue: every TrySubmit from the
  // renderer is rejected with kResourceExhausted.
  ThreadPool pool({/*num_threads=*/1, /*max_queue=*/1});
  std::atomic<bool> release{false};
  auto park = [&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  };
  ASSERT_TRUE(pool.TrySubmit(park).ok());
  while (pool.queue_depth() > 0) {
    std::this_thread::yield();  // wait for the worker to pick up the parker
  }
  ASSERT_TRUE(pool.TrySubmit(park).ok());  // fills the single queue slot

  RenderOptions options;
  options.num_threads = 8;
  options.tile_rows = 4;
  BatchStats stats;
  DensityFrame parallel = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);
  release.store(true);
  pool.Stop();

  EXPECT_TRUE(FramesBitIdentical(oracle.values, parallel.values));
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.queries, oracle_stats.queries);
}

// ---------------------------------------------------------------------------
// Cancellation / deadline mid-frame
// ---------------------------------------------------------------------------

// Per-pixel and tile-shared frames alike: in the latter the stop is seen
// before the first region pass.
TEST(ParallelRenderTest, CancelledFrameIsMarkedIncomplete) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  CancelToken cancel;
  cancel.RequestCancel();
  QueryControl control;
  control.cancel = &cancel;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  for (bool tile_shared : {false, true}) {
    RenderOptions options;
    options.num_threads = 4;
    options.tile_rows = 4;
    options.tile_shared = tile_shared;
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, 0.05,
                                                options, &pool, control,
                                                &stats);

    EXPECT_FALSE(stats.completed) << tile_shared;
    EXPECT_TRUE(stats.cancelled) << tile_shared;
    EXPECT_FALSE(stats.deadline_expired) << tile_shared;
    EXPECT_EQ(stats.queries, 0u) << tile_shared;
    EXPECT_EQ(stats.tile_nodes_visited, 0u) << tile_shared;
    // The partial frame is still well-formed: right size, only finite
    // pixels.
    ASSERT_EQ(frame.values.size(), grid.num_pixels());
    for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ParallelRenderTest, DeadlineMidFrameIsMarkedExpired) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(64, 48, bench->data_bounds());

  // A nanosecond budget expires before the first per-pixel poll, whatever
  // the scheduler does; the frame must come back partial and flagged.
  Deadline deadline(1e-9);
  QueryControl control;
  control.deadline = &deadline;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  for (bool tile_shared : {false, true}) {
    RenderOptions options;
    options.num_threads = 4;
    options.tile_rows = 4;
    options.tile_shared = tile_shared;
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, 0.05,
                                                options, &pool, control,
                                                &stats);

    EXPECT_FALSE(stats.completed) << tile_shared;
    EXPECT_TRUE(stats.deadline_expired) << tile_shared;
    ASSERT_EQ(frame.values.size(), grid.num_pixels());
    for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
  }
}

// A helper the pool only starts after the frame returned must claim
// nothing and touch nothing of the frame: here the evaluator, index, grid
// and frame are all destroyed before it runs (ASan flags any access).
TEST(ParallelRenderTest, HelperStartingAfterFrameClaimsNothing) {
  ThreadPool pool({/*num_threads=*/1, /*max_queue=*/4});
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.TrySubmit([&release] {
                    while (!release.load()) std::this_thread::yield();
                  })
                  .ok());
  while (pool.queue_depth() > 0) {
    std::this_thread::yield();  // wait for the worker to pick up the parker
  }
  {
    auto bench = MakeBench();
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(16, 8, bench->data_bounds());
    RenderOptions options;
    options.num_threads = 2;
    options.tile_shared = true;
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(
        evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.queries, grid.num_pixels());
    EXPECT_EQ(pool.queue_depth(), 1u);  // the helper is still waiting
  }
  const uint64_t executed = pool.tasks_executed();
  release.store(true);
  pool.Stop();  // runs the queued helper
  EXPECT_EQ(pool.tasks_executed(), executed + 2);
}

// Cancellation racing a running frame: either the frame completed before the
// cancel landed, or it is marked cancelled — never a third state, and never
// a TSAN report.
TEST(ParallelRenderTest, ConcurrentCancellationLeavesConsistentStats) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(96, 72, bench->data_bounds());

  CancelToken cancel;
  QueryControl control;
  control.cancel = &cancel;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = 4;
  options.tile_rows = 2;

  BatchStats stats;
  DensityFrame frame;
  std::thread renderer([&] {
    frame = RenderEpsFrameParallel(evaluator, grid, 0.01, options, &pool,
                                   control, &stats);
  });
  cancel.RequestCancel();
  renderer.join();

  if (!stats.completed) {
    EXPECT_TRUE(stats.cancelled);
  }
  ASSERT_EQ(frame.values.size(), grid.num_pixels());
  for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// Shared-traversal tile refinement
// ---------------------------------------------------------------------------

// --tile-shared=off is the bit-identity contract: the tiled driver with the
// shared pass disabled must reproduce the per-pixel oracle byte for byte,
// for every kernel and across thread x tile configurations.
TEST(TileSharedTest, OffPathBitIdenticalToOracleForEveryKernel) {
  const KernelType kernels[] = {KernelType::kGaussian,
                                KernelType::kEpanechnikov,
                                KernelType::kExponential};
  for (KernelType kernel : kernels) {
    auto bench = MakeBench(kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(40, 30, bench->data_bounds());

    DensityFrame oracle = OracleEpsFrame(evaluator, grid, 0.05, nullptr);
    BinaryFrame oracle_tau = OracleTauFrame(evaluator, grid, 0.3, nullptr);

    ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
    for (const ParallelCase& c :
         {ParallelCase{1, 16}, ParallelCase{4, 5}, ParallelCase{8, 1}}) {
      RenderOptions options;
      options.num_threads = c.num_threads;
      options.tile_rows = c.tile_rows;
      options.tile_shared = false;
      BatchStats stats;
      DensityFrame parallel = RenderEpsFrameParallel(
          evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);
      EXPECT_TRUE(FramesBitIdentical(oracle.values, parallel.values))
          << KernelTypeName(kernel) << " t" << c.num_threads;
      EXPECT_EQ(stats.tile_nodes_visited, 0u);
      BinaryFrame parallel_tau = RenderTauFrameParallel(
          evaluator, grid, 0.3, options, &pool, QueryControl(), &stats);
      EXPECT_EQ(oracle_tau.values, parallel_tau.values);
    }
  }
}

// Tile-shared frames return different (but still certified) estimates: every
// pixel must satisfy the ε certificate against the exact oracle, and the τ
// mask must match the exact classification. Swept over kernels, thread
// counts and chunk shapes.
TEST(TileSharedTest, OnPathSatisfiesCertificatesEverywhere) {
  const KernelType kernels[] = {KernelType::kGaussian,
                                KernelType::kEpanechnikov,
                                KernelType::kExponential};
  const double eps = 0.05;
  const double tau = 0.3;
  for (KernelType kernel : kernels) {
    auto bench = MakeBench(kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(40, 30, bench->data_bounds());

    std::vector<double> exact(grid.num_pixels());
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        exact[static_cast<size_t>(y) * grid.width() + x] =
            evaluator.EvaluateExact(grid.PixelCenter(x, y));
      }
    }

    ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
    for (const ParallelCase& c :
         {ParallelCase{1, 16}, ParallelCase{4, 8}, ParallelCase{8, 3}}) {
      RenderOptions options;
      options.num_threads = c.num_threads;
      options.tile_rows = c.tile_rows;
      options.tile_shared = true;
      BatchStats stats;
      DensityFrame frame = RenderEpsFrameParallel(
          evaluator, grid, eps, options, &pool, QueryControl(), &stats);
      ASSERT_EQ(frame.values.size(), exact.size());
      for (size_t i = 0; i < exact.size(); ++i) {
        const double slack = 1e-9 * (1.0 + exact[i]);
        ASSERT_LE(std::abs(frame.values[i] - exact[i]),
                  eps * exact[i] + slack)
            << KernelTypeName(kernel) << " t" << c.num_threads << " pixel "
            << i;
      }
      EXPECT_GT(stats.tile_nodes_visited, 0u);

      BinaryFrame mask = RenderTauFrameParallel(
          evaluator, grid, tau, options, &pool, QueryControl(), &stats);
      for (size_t i = 0; i < exact.size(); ++i) {
        const double slack = 1e-9 * (1.0 + exact[i]);
        if (exact[i] > tau + slack) {
          ASSERT_EQ(mask.values[i], 1) << "pixel " << i;
        } else if (exact[i] < tau - slack) {
          ASSERT_EQ(mask.values[i], 0) << "pixel " << i;
        }
      }
    }
  }
}

// A cache hit must substitute the stored frontiers verbatim: same frame
// bits, zero additional region-pass work.
TEST(TileSharedTest, FrontierCacheHitReproducesFrameBitwise) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  FrontierCache cache;
  RenderOptions options;
  options.num_threads = 1;
  options.tile_shared = true;
  options.frontier_cache = &cache;
  options.cache_epoch = 7;

  BatchStats cold_stats;
  DensityFrame cold = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &cold_stats);
  EXPECT_EQ(cold_stats.frontier_cache_hits, 0u);
  EXPECT_GT(cold_stats.tile_nodes_visited, 0u);

  BatchStats warm_stats;
  DensityFrame warm = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &warm_stats);
  EXPECT_GT(warm_stats.frontier_cache_hits, 0u);
  EXPECT_EQ(warm_stats.tile_nodes_visited, 0u);
  EXPECT_TRUE(FramesBitIdentical(cold.values, warm.values));

  // A different epoch is a different key: the stale frontiers must not be
  // served to a hot-swapped index generation.
  options.cache_epoch = 8;
  BatchStats swap_stats;
  DensityFrame swapped = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &swap_stats);
  EXPECT_EQ(swap_stats.frontier_cache_hits, 0u);
  EXPECT_GT(swap_stats.tile_nodes_visited, 0u);
  EXPECT_TRUE(FramesBitIdentical(cold.values, swapped.values));
}

// Every integer work counter of a frame.
void ExpectSameCounters(const BatchStats& want, const BatchStats& got,
                        const std::string& where) {
  EXPECT_EQ(got.queries, want.queries) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.points_scanned, want.points_scanned) << where;
  EXPECT_EQ(got.nodes_visited, want.nodes_visited) << where;
  EXPECT_EQ(got.numeric_faults, want.numeric_faults) << where;
  EXPECT_EQ(got.tile_nodes_visited, want.tile_nodes_visited) << where;
  EXPECT_EQ(got.tile_accepted, want.tile_accepted) << where;
  EXPECT_EQ(got.tile_pruned, want.tile_pruned) << where;
  EXPECT_EQ(got.tiles_decided, want.tiles_decided) << where;
  EXPECT_EQ(got.pixels_decided, want.pixels_decided) << where;
  EXPECT_EQ(got.frontier_cache_hits, want.frontier_cache_hits) << where;
}

// One tile-shared frame: εKDV (ε = 0.05) or τKDV (τ = 0.3, the mask
// widened to doubles), with its stats.
struct SharedFrame {
  std::vector<double> values;
  BatchStats stats;
};

SharedFrame RenderSharedFrame(const KdeEvaluator& evaluator,
                              const PixelGrid& grid, bool eps_mode,
                              const RenderOptions& options, Executor* pool) {
  SharedFrame out;
  if (eps_mode) {
    out.values = RenderEpsFrameParallel(evaluator, grid, 0.05, options, pool,
                                        QueryControl(), &out.stats)
                     .values;
  } else {
    const BinaryFrame mask = RenderTauFrameParallel(
        evaluator, grid, 0.3, options, pool, QueryControl(), &out.stats);
    out.values.assign(mask.values.begin(), mask.values.end());
  }
  return out;
}

// Tile-shared frames do not depend on the thread count: however chunks and
// their rows are handed out, each chunk's region pass runs once and every
// pixel's seeded refinement is the same. Pixels must equal the one-thread
// frame bitwise and every work counter must match, with the frontier cache
// cold (region passes run) and warm (frontiers loaded).
TEST(TileSharedTest, FramesInvariantToThreadCount) {
  ThreadPool pool({/*num_threads=*/7, /*max_queue=*/64});
  for (KernelType kernel : {KernelType::kGaussian, KernelType::kTriangular}) {
    auto bench = MakeBench(kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(40, 30, bench->data_bounds());
    for (bool eps_mode : {true, false}) {
      for (int tile_rows : {16, 5, 1}) {
        SharedFrame want[2];  // one thread; [0] cold, [1] warm
        for (int threads : {1, 2, 3, 8}) {
          FrontierCache cache;
          RenderOptions options;
          options.num_threads = threads;
          options.tile_rows = tile_rows;
          options.tile_shared = true;
          options.frontier_cache = &cache;
          for (int warm = 0; warm < 2; ++warm) {
            const std::string where =
                std::string(KernelTypeName(kernel)) +
                (eps_mode ? " eps" : " tau") + " rows" +
                std::to_string(tile_rows) + " t" + std::to_string(threads) +
                (warm ? " warm" : " cold");
            SharedFrame got =
                RenderSharedFrame(evaluator, grid, eps_mode, options, &pool);
            ASSERT_TRUE(got.stats.completed) << where;
            EXPECT_EQ(got.stats.frontier_cache_hits,
                      static_cast<uint64_t>(warm))
                << where;
            if (threads == 1) {
              want[warm] = std::move(got);
              continue;
            }
            EXPECT_TRUE(FramesBitIdentical(want[warm].values, got.values))
                << where;
            ExpectSameCounters(want[warm].stats, got.stats, where);
          }
        }
        EXPECT_GT(want[0].stats.tile_nodes_visited, 0u);
        EXPECT_TRUE(FramesBitIdentical(want[0].values, want[1].values));
      }
    }
  }
}

// A frame of one chunk: one worker owns it and runs its region pass; the
// other three can only take its rows once the owner has published it. The
// pass must run exactly once, and the frame must match the one-thread
// frame bitwise.
TEST(TileSharedTest, OneChunkFrameRowsAreShared) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(16, 16, bench->data_bounds());
  ThreadPool pool({/*num_threads=*/3, /*max_queue=*/16});
  for (bool eps_mode : {true, false}) {
    RenderOptions options;
    options.tile_shared = true;
    const SharedFrame want =
        RenderSharedFrame(evaluator, grid, eps_mode, options, nullptr);
    ASSERT_GT(want.stats.tile_nodes_visited, 0u);
    ASSERT_EQ(want.stats.tiles_decided, 0u);  // the rows carry real work
    options.num_threads = 4;
    const SharedFrame got =
        RenderSharedFrame(evaluator, grid, eps_mode, options, &pool);
    const std::string where = eps_mode ? "eps" : "tau";
    ASSERT_TRUE(got.stats.completed) << where;
    EXPECT_TRUE(FramesBitIdentical(want.values, got.values)) << where;
    EXPECT_EQ(got.stats.tile_nodes_visited, want.stats.tile_nodes_visited)
        << where;
    ExpectSameCounters(want.stats, got.stats, where);
  }
}

// The shared traversal must cut work, not just move it: on the crime
// analogue (scale 0.005, 128x128 over the data extent) a tile-shared frame
// evaluates strictly fewer per-pixel node bounds than the per-pixel frame,
// for εKDV (ε = 0.05) and for τKDV (τ = the mean density), with the same τ
// mask. One thread suffices: FramesInvariantToThreadCount pins the counters
// across thread counts.
TEST(TileSharedTest, SharedTraversalEvaluatesFewerPixelBounds) {
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      GenerateMixture(CrimeSpec(0.005)), KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  KdeEvaluator evaluator = (*bench)->MakeEvaluator(Method::kQuad);
  PixelGrid grid(128, 128, (*bench)->data_bounds());
  const double eps = 0.05;
  const double tau = EstimateDensityStats(evaluator, grid, /*stride=*/8).mean;

  BatchStats eps_stats[2];  // [0] per-pixel, [1] tile-shared
  BatchStats tau_stats[2];
  BinaryFrame masks[2];
  for (int shared = 0; shared < 2; ++shared) {
    RenderOptions options;
    options.tile_shared = shared == 1;
    RenderEpsFrameParallel(evaluator, grid, eps, options, nullptr,
                           QueryControl(), &eps_stats[shared]);
    masks[shared] = RenderTauFrameParallel(evaluator, grid, tau, options,
                                           nullptr, QueryControl(),
                                           &tau_stats[shared]);
    ASSERT_TRUE(eps_stats[shared].completed && tau_stats[shared].completed);
  }
  EXPECT_LT(eps_stats[1].nodes_visited, eps_stats[0].nodes_visited);
  EXPECT_LT(tau_stats[1].nodes_visited, tau_stats[0].nodes_visited);
  EXPECT_EQ(masks[1].values, masks[0].values);
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

// Every dispatch level must produce bit-identical sums and frames: the
// level is a throughput knob, never a results knob. Restores the active
// level on scope exit so test order cannot leak a pinned level.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(ActiveSimdLevel()) {}
  ~SimdLevelGuard() { SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

TEST(SimdDispatchTest, AllLevelsBitIdentical) {
  SimdLevelGuard guard;
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  SetSimdLevel(SimdLevel::kScalar);
  ASSERT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  DensityFrame baseline = RenderEpsFrame(evaluator, grid, 0.05, nullptr);

  const KdTree& tree = evaluator.tree();
  const KdTree::Node& root = tree.node(tree.root());
  Rng rng(11);
  std::vector<Point> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(Point{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)});
  }
  std::vector<double> scalar_sums;
  for (const Point& q : queries) {
    scalar_sums.push_back(
        LeafSumSoA(tree, evaluator.params(), root.begin, root.end, q));
  }

  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    SetSimdLevel(level);
    if (ActiveSimdLevel() != level) continue;  // not supported by this host
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(Bits(scalar_sums[i]),
                Bits(LeafSumSoA(tree, evaluator.params(), root.begin,
                                root.end, queries[i])))
          << "level " << SimdLevelName(level) << " query " << i;
    }
    DensityFrame frame = RenderEpsFrame(evaluator, grid, 0.05, nullptr);
    EXPECT_TRUE(FramesBitIdentical(baseline.values, frame.values))
        << "level " << SimdLevelName(level);
  }
}

TEST(SimdDispatchTest, SetLevelClampsToHardwareMax) {
  SimdLevelGuard guard;
  SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(MaxSupportedSimdLevel()));
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

// ---------------------------------------------------------------------------
// SoA leaf kernel vs the reference point-by-point loop
// ---------------------------------------------------------------------------

// The reference leaf sum: point by point in index order, SquaredDistance and
// then the kernel profile, times the weight.
double ReferenceLeafSum(const KdTree& tree, const KernelParams& params,
                        uint32_t begin, uint32_t end, const Point& q) {
  double sum = 0.0;
  for (uint32_t i = begin; i < end; ++i) {
    sum += params.EvalSquaredDistance(SquaredDistance(q, tree.point(i)));
  }
  return params.weight * sum;
}

TEST(LeafKernelTest, SoAMatchesReferenceLoopBitwiseOnEveryLeaf) {
  const KernelType kernels[] = {
      KernelType::kGaussian, KernelType::kEpanechnikov,
      KernelType::kExponential, KernelType::kQuartic, KernelType::kUniform,
  };
  Rng rng(77);
  for (int dim : {2, 3, 5}) {
    PointSet pts;
    for (int i = 0; i < 700; ++i) {
      Point p(dim);
      for (int d = 0; d < dim; ++d) p[d] = rng.Uniform(-1.0, 1.0);
      pts.push_back(p);
    }
    KdTree tree(std::move(pts), {/*leaf_size=*/37});  // chunk-unaligned leaves
    for (KernelType kernel : kernels) {
      KernelParams params;
      params.type = kernel;
      params.gamma = 2.5;
      params.weight = 1.0 / 700.0;
      for (int qi = 0; qi < 8; ++qi) {
        Point q(dim);
        for (int d = 0; d < dim; ++d) q[d] = rng.Uniform(-1.5, 1.5);
        for (size_t n = 0; n < tree.num_nodes(); ++n) {
          const KdTree::Node& node = tree.node(static_cast<int32_t>(n));
          if (!node.IsLeaf()) continue;
          const double ref =
              ReferenceLeafSum(tree, params, node.begin, node.end, q);
          const double soa = LeafSumSoA(tree, params, node.begin, node.end, q);
          ASSERT_EQ(Bits(ref), Bits(soa))
              << "dim=" << dim << " kernel=" << KernelTypeName(kernel)
              << " node=" << n << ": " << ref << " vs " << soa;
        }
        // Whole-tree scan (the EXACT method path) spans many chunks.
        const KdTree::Node& root = tree.node(tree.root());
        ASSERT_EQ(
            Bits(ReferenceLeafSum(tree, params, root.begin, root.end, q)),
            Bits(LeafSumSoA(tree, params, root.begin, root.end, q)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch stream reuse
// ---------------------------------------------------------------------------

TEST(ScratchReuseTest, ResetStreamMatchesFreshEvaluationBitwise) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  Rng rng(13);

  RefinementStream scratch = evaluator.MakeScratch();
  QueryControl control;
  for (int i = 0; i < 200; ++i) {
    Point q{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};

    EvalResult fresh = evaluator.EvaluateEps(q, 0.05);
    EvalResult reused = evaluator.EvaluateEps(q, 0.05, control, &scratch);
    ASSERT_EQ(Bits(fresh.estimate), Bits(reused.estimate)) << "query " << i;
    ASSERT_EQ(Bits(fresh.lower), Bits(reused.lower));
    ASSERT_EQ(Bits(fresh.upper), Bits(reused.upper));
    ASSERT_EQ(fresh.iterations, reused.iterations);
    ASSERT_EQ(fresh.points_scanned, reused.points_scanned);
    ASSERT_EQ(fresh.converged, reused.converged);

    TauResult tau_fresh = evaluator.EvaluateTau(q, 0.3);
    TauResult tau_reused = evaluator.EvaluateTau(q, 0.3, control, &scratch);
    ASSERT_EQ(tau_fresh.above_threshold, tau_reused.above_threshold);
    ASSERT_EQ(Bits(tau_fresh.lower), Bits(tau_reused.lower));
    ASSERT_EQ(Bits(tau_fresh.upper), Bits(tau_reused.upper));
    ASSERT_EQ(tau_fresh.iterations, tau_reused.iterations);
  }
}

}  // namespace
}  // namespace kdv
