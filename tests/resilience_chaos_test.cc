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
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

// Counts the pixels of `frame` farther from the exact density `truth` than
// the relative `eps` the frame claims, plus float-order slack (`floor` for
// densities that underflow), and reports the worst relative error seen.
int PixelsOutsideEps(const std::vector<double>& frame,
                     const std::vector<double>& truth, double eps,
                     double floor, double* worst) {
  int violations = 0;
  *worst = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double err = std::abs(frame[i] - truth[i]);
    if (truth[i] > floor) *worst = std::max(*worst, err / truth[i]);
    if (err > eps * truth[i] + 1e-9 * truth[i] + floor) ++violations;
  }
  return violations;
}

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
  // The stand-in certifies the relaxed ε_c = 3ε.
  EXPECT_DOUBLE_EQ(outcome.certified_eps,
                   ResilientRenderer::kCoarseEpsMultiple * options.eps);
  EXPECT_EQ(outcome.stats.queries, 0u);  // no certified attempt ran
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

// The stand-in is the frame driver, which renders any dimension: a 3-d
// dataset with a zero budget ships a coarse frame certified at ε_c.
TEST_F(ResilientRendererTest, NonPlanarDataGetsACertifiedCoarseTier) {
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
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  PixelGrid grid(8, 8, bench.data_bounds());
  ResilientRenderer renderer(&quad);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 0.0;
  RenderOutcome outcome = renderer.Render(grid, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
  const double eps_c = ResilientRenderer::kCoarseEpsMultiple * options.eps;
  EXPECT_DOUBLE_EQ(outcome.certified_eps, eps_c);
  const DensityFrame truth = RenderExactFrame(exact, grid, nullptr);
  double worst = 0.0;
  EXPECT_EQ(PixelsOutsideEps(outcome.frame.values, truth.values, eps_c,
                             1e-12 * ComputeMeanStd(truth.values).mean,
                             &worst),
            0)
      << "worst relative error " << worst;
  EXPECT_GT(ComputeMeanStd(outcome.frame.values).mean, 0.0);
}

// A deadline that cuts a tiled attempt on a fresh viewport short ships the
// coarse tier; the attempt's work counters — its region pass and the pixels
// it refined — must still reach the outcome.
TEST_F(ResilientRendererTest, CutShortTiledAttemptKeepsItsWorkCounters) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 0.05;  // 50 reads of the ticking clock
  options.parallel.tile_shared = true;
  RenderOutcome cut;
  {
    TickingClock clock;
    ScopedClockOverride ticking(&clock);
    cut = renderer.Render(grid_, options);
  }
  EXPECT_TRUE(cut.deadline_expired);
  EXPECT_EQ(cut.tier, QualityTier::kCoarse);
  EXPECT_EQ(cut.cache, RenderOutcome::Cache::kMiss);
  EXPECT_FALSE(cut.stats.completed);
  EXPECT_EQ(cut.stats.frontier_cache_hits, 0u);
  EXPECT_GT(cut.stats.tile_nodes_visited, 0u);
  EXPECT_GT(cut.stats.queries, 0u);
  EXPECT_LT(cut.stats.queries, grid_.num_pixels());
}

// The frame cache: a repeated viewport ships a copy of the first frame —
// bitwise equal to a fresh render by another renderer, at the same tier,
// with zero refinement work — per-pixel and tile-shared alike.
TEST_F(ResilientRendererTest, RepeatedViewportShipsTheCachedFrameBitwise) {
  for (bool tile_shared : {false, true}) {
    SCOPED_TRACE(tile_shared ? "tile-shared" : "per-pixel");
    ResilientRenderer renderer(&evaluator_);
    ResilientRenderOptions options;
    options.eps = 0.01;
    options.parallel.tile_shared = tile_shared;
    RenderOutcome first = renderer.Render(grid_, options);
    ASSERT_EQ(first.tier, QualityTier::kCertified);
    EXPECT_EQ(first.cache, RenderOutcome::Cache::kMiss);
    EXPECT_GT(first.stats.iterations, 0u);

    RenderOutcome repeat = renderer.Render(grid_, options);
    EXPECT_TRUE(repeat.from_cache());
    EXPECT_TRUE(repeat.ok());
    EXPECT_EQ(repeat.tier, QualityTier::kCertified);
    EXPECT_EQ(repeat.certified_eps, 0.01);
    EXPECT_EQ(repeat.stats.frontier_cache_hits, 1u);
    EXPECT_EQ(repeat.stats.iterations, 0u);
    EXPECT_EQ(repeat.stats.queries, 0u);
    EXPECT_EQ(repeat.stats.tile_nodes_visited, 0u);

    ResilientRenderer fresh_renderer(&evaluator_);
    RenderOutcome fresh = fresh_renderer.Render(grid_, options);
    EXPECT_FALSE(fresh.from_cache());
    ASSERT_EQ(repeat.frame.values.size(), fresh.frame.values.size());
    for (size_t i = 0; i < fresh.frame.values.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(repeat.frame.values[i]),
                std::bit_cast<uint64_t>(fresh.frame.values[i]))
          << "pixel " << i;
    }
  }
}

// Per-pixel and tile-shared frames of one viewport differ in their bits,
// and so do chunkings: none of them may answer for another. A frame
// certified at ε' answers a looser request, at ε', and never a tighter one.
TEST_F(ResilientRendererTest, FrameCacheKeysSeparateModesChunksAndEps) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.parallel.tile_shared = true;
  ASSERT_FALSE(renderer.Render(grid_, options).from_cache());
  options.parallel.tile_shared = false;
  EXPECT_FALSE(renderer.Render(grid_, options).from_cache());
  options.parallel.tile_shared = true;
  options.parallel.tile_rows = 4;
  EXPECT_FALSE(renderer.Render(grid_, options).from_cache());
  options.eps = 0.02;  // looser: the 0.01 frame answers, at 0.01
  RenderOutcome looser = renderer.Render(grid_, options);
  EXPECT_TRUE(looser.from_cache());
  EXPECT_EQ(looser.tier, QualityTier::kCertified);
  EXPECT_EQ(looser.certified_eps, 0.01);
  options.eps = 0.005;  // tighter: renders
  EXPECT_FALSE(renderer.Render(grid_, options).from_cache());
  options.parallel.num_threads = 4;  // thread counts share an entry
  EXPECT_TRUE(renderer.Render(grid_, options).from_cache());
  PixelGrid other(grid_.width(), grid_.height() + 1, grid_.domain());
  EXPECT_FALSE(renderer.Render(other, options).from_cache());

  // Every entry, once filled, answers its own mode.
  options.eps = 0.01;
  options.parallel.tile_rows = 16;
  options.parallel.num_threads = 1;
  for (bool tile_shared : {false, true}) {
    options.parallel.tile_shared = tile_shared;
    RenderOutcome hit = renderer.Render(grid_, options);
    EXPECT_TRUE(hit.from_cache());
    ResilientRenderer fresh_renderer(&evaluator_);
    EXPECT_EQ(hit.frame.values,
              fresh_renderer.Render(grid_, options).frame.values);
  }
}

// A brownout cap decides the tier of a hit as it does of a render: a frame
// cached by a certified render ships progressive under the cap, and one a
// capped render cached ships certified without it.
TEST_F(ResilientRendererTest, CachedFrameShipsAtTheTierOfItsRequest) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  ASSERT_EQ(renderer.Render(grid_, options).tier, QualityTier::kCertified);
  options.max_tier = QualityTier::kProgressive;
  RenderOutcome capped = renderer.Render(grid_, options);
  EXPECT_TRUE(capped.from_cache());
  EXPECT_EQ(capped.tier, QualityTier::kProgressive);
  EXPECT_LT(capped.certified_eps, 0.0);

  options.eps = 0.005;  // tighter than the cached frame: renders
  RenderOutcome capped_render = renderer.Render(grid_, options);
  EXPECT_FALSE(capped_render.from_cache());
  EXPECT_EQ(capped_render.tier, QualityTier::kProgressive);
  options.max_tier = QualityTier::kCertified;
  RenderOutcome certified = renderer.Render(grid_, options);
  EXPECT_TRUE(certified.from_cache());
  EXPECT_EQ(certified.tier, QualityTier::kCertified);
  EXPECT_EQ(certified.certified_eps, 0.005);
}

// A frame the deadline cut short never enters the cache. The stand-in that
// replaced it is cached under its own ε_c: the next cut attempt's stand-in
// and a zero-budget request, which makes no attempt, ship it from the
// cache (only the latter refined nothing), while a request at ε still
// misses and renders.
TEST_F(ResilientRendererTest, CutShortFramesAreNeverCached) {
  ResilientRenderer renderer(&evaluator_);
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 0.05;  // 50 reads of the ticking clock
  {
    TickingClock clock;
    ScopedClockOverride ticking(&clock);
    RenderOutcome cut = renderer.Render(grid_, options);
    ASSERT_TRUE(cut.deadline_expired);
    EXPECT_EQ(cut.tier, QualityTier::kCoarse);
    EXPECT_EQ(cut.cache, RenderOutcome::Cache::kMiss);
    // Cut again: the stand-in ships the first one's frame from the cache,
    // but the attempt before it ran, so the outcome is no zero-work hit.
    RenderOutcome recut = renderer.Render(grid_, options);
    ASSERT_TRUE(recut.deadline_expired);
    EXPECT_TRUE(recut.from_cache());
    EXPECT_EQ(recut.tier, QualityTier::kCoarse);
    EXPECT_FALSE(recut.refined_nothing());
    EXPECT_EQ(recut.stats.frontier_cache_hits, 0u);
    EXPECT_GT(recut.stats.queries, 0u);
  }
  options.budget_seconds = 0.0;  // zero budget: no attempt, the stand-in
  RenderOutcome stand_in = renderer.Render(grid_, options);
  EXPECT_TRUE(stand_in.from_cache());
  EXPECT_TRUE(stand_in.refined_nothing());
  EXPECT_EQ(stand_in.stats.frontier_cache_hits, 1u);
  EXPECT_EQ(stand_in.tier, QualityTier::kCoarse);
  EXPECT_DOUBLE_EQ(stand_in.certified_eps, 0.03);
  options.budget_seconds = -1.0;
  RenderOutcome after = renderer.Render(grid_, options);
  EXPECT_EQ(after.cache, RenderOutcome::Cache::kMiss);
  EXPECT_EQ(after.tier, QualityTier::kCertified);
  EXPECT_TRUE(renderer.Render(grid_, options).from_cache());
}

// A clock that raises `token` on its `at`-th read: cancels a render in the
// middle of its frame, deterministically.
class CancellingClock : public Clock {
 public:
  CancellingClock(const CancelToken* token, uint64_t at)
      : token_(token), at_(at) {}
  double NowSeconds() const override {
    if (reads_.fetch_add(1, std::memory_order_relaxed) + 1 == at_) {
      token_->RequestCancel();
    }
    return 0.0;
  }
  void WaitFor(double /*seconds*/, Waker* /*waker*/) override {}

 private:
  const CancelToken* token_;
  uint64_t at_;
  mutable std::atomic<uint64_t> reads_{0};
};

TEST_F(ResilientRendererTest, CancelledFramesAreNeverCached) {
  ResilientRenderer renderer(&evaluator_);
  CancelToken cancel;
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 1000.0;  // the deadline polls read the clock
  options.cancel = &cancel;
  RenderOutcome cancelled;
  {
    CancellingClock clock(&cancel, 40);
    ScopedClockOverride cancelling(&clock);
    cancelled = renderer.Render(grid_, options);
  }
  ASSERT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  EXPECT_GT(cancelled.stats.queries, 0u);

  options.cancel = nullptr;
  RenderOutcome after = renderer.Render(grid_, options);
  EXPECT_EQ(after.cache, RenderOutcome::Cache::kMiss);
  EXPECT_EQ(after.tier, QualityTier::kCertified);
}

// A stand-in cancelled mid-frame is never served: the outcome reports
// kCancelled with a flat frame, and nothing is cached. A zero budget skips
// the attempt, and 2x2 chunks make the tile-shared stand-in read the clock
// twice per chunk, so the token rises inside its frame.
TEST_F(ResilientRendererTest, CancelledStandInIsNeverServed) {
  ResilientRenderer renderer(&evaluator_);
  CancelToken cancel;
  ResilientRenderOptions options;
  options.eps = 0.01;
  options.budget_seconds = 0.0;
  options.cancel = &cancel;
  options.parallel.tile_shared = true;
  options.parallel.tile_rows = 2;
  RenderOutcome cancelled;
  {
    CancellingClock clock(&cancel, 20);
    ScopedClockOverride cancelling(&clock);
    cancelled = renderer.Render(grid_, options);
  }
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.tier, QualityTier::kFlat);
  EXPECT_LT(cancelled.certified_eps, 0.0);
  for (double v : cancelled.frame.values) EXPECT_EQ(v, 0.0);

  options.cancel = nullptr;
  RenderOutcome after = renderer.Render(grid_, options);
  EXPECT_EQ(after.cache, RenderOutcome::Cache::kMiss);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.tier, QualityTier::kCoarse);
}

// A per-pixel frame cut mid-way by the deadline never ships its partial
// frame: the stand-in ships, certified at 3ε, and the outcome keeps the
// counters of its one attempt.
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
  EXPECT_DOUBLE_EQ(outcome.certified_eps, 0.03);
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

  // Uncapped, the same request fans out over the pool (on another renderer:
  // this one would answer it from its frame cache).
  options.max_tier = QualityTier::kCertified;
  ResilientRenderer uncapped(&evaluator_);
  outcome = uncapped.Render(grid_, options);
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

// The coarse stand-in against EvaluateExact on the full extent, zoomed 4x,
// 16x and 64x about the densest pixel, and on a viewport panned past the
// data, per-pixel and tile-shared, at two request ε: 0.01 (ε_c = 0.03,
// which sized kCoarseEpsMultiple) and the serving default 0.05 (ε_c = 0.15,
// what the coarse tier ships, brownout included). Every pixel lies within
// ε_c of the exact density, and the average relative error stays within the
// request's ε.
TEST(CoarseTierTest, TracksExactDensityOnEveryViewport) {
  for (const MixtureSpec& spec : {CrimeSpec(0.1), HomeSpec(0.02)}) {
    SCOPED_TRACE(spec.name);
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
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
    PixelGrid full(kWidth, kHeight, extent);
    DensityFrame truth = RenderExactFrame(exact, full, nullptr);
    const double mean = ComputeMeanStd(truth.values).mean;
    // Renders `grid` through the stand-in at request ε `eps`, in both frame
    // modes, and checks every pixel against `exact_values`; returns the
    // tile-shared frame.
    auto coarse = [&](const PixelGrid& grid, double eps,
                      const std::vector<double>& exact_values) {
      const double eps_c = ResilientRenderer::kCoarseEpsMultiple * eps;
      std::vector<double> shipped;
      for (bool tile_shared : {false, true}) {
        SCOPED_TRACE(tile_shared ? "tile-shared" : "per-pixel");
        ResilientRenderer renderer(&quad);
        ResilientRenderOptions options;
        options.eps = eps;
        options.parallel.tile_shared = tile_shared;
        RenderOutcome outcome = renderer.RenderCoarseOnly(grid, options);
        EXPECT_EQ(outcome.tier, QualityTier::kCoarse);
        EXPECT_DOUBLE_EQ(outcome.certified_eps, eps_c);
        double worst = 0.0;
        EXPECT_EQ(PixelsOutsideEps(outcome.frame.values, exact_values, eps_c,
                                   1e-12 * mean, &worst),
                  0)
            << "worst relative error " << worst;
        shipped = std::move(outcome.frame.values);
      }
      return shipped;
    };

    const size_t densest =
        std::max_element(truth.values.begin(), truth.values.end()) -
        truth.values.begin();
    const Point hot = full.PixelCenter(static_cast<int>(densest % kWidth),
                                       static_cast<int>(densest / kWidth));
    // Three extents to the right of the data: the exact density underflows.
    PixelGrid off(kWidth, kHeight,
                  viewport(extent.Center()[0] + 3.0 * extent.Length(0),
                           extent.Center()[1], 1.0));
    DensityFrame off_truth = RenderExactFrame(exact, off, nullptr);
    for (double zoom : {1.0, 4.0, 16.0, 64.0}) {
      SCOPED_TRACE("zoom " + std::to_string(zoom));
      PixelGrid zoomed(kWidth, kHeight,
                       zoom == 1.0 ? extent : viewport(hot[0], hot[1], zoom));
      DensityFrame zoomed_truth =
          zoom == 1.0 ? truth : RenderExactFrame(exact, zoomed, nullptr);
      for (double eps : {0.01, 0.05}) {
        SCOPED_TRACE("eps " + std::to_string(eps));
        EXPECT_LE(AverageRelativeError(coarse(zoomed, eps, zoomed_truth.values),
                                       zoomed_truth.values),
                  eps);
      }
    }
    for (double eps : {0.01, 0.05}) {
      SCOPED_TRACE("off-data, eps " + std::to_string(eps));
      const std::vector<double> off_coarse =
          coarse(off, eps, off_truth.values);
      double abs_err = 0.0;
      for (size_t i = 0; i < off_coarse.size(); ++i) {
        abs_err += std::abs(off_coarse[i] - off_truth.values[i]);
      }
      EXPECT_LE(abs_err / static_cast<double>(off_coarse.size()),
                0.01 * mean);
    }
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
      } else if (outcome.tier == QualityTier::kCoarse) {
        EXPECT_DOUBLE_EQ(outcome.certified_eps, 0.15);  // the stand-in's 3ε
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

// Frames with clamped pixels (refine.step=nan) or an injected fault
// (viz.render, runner.eps) are never cached: once the fault clears, the
// same request renders again, certified.
TEST_F(ChaosSweepTest, FaultedOrClampedFramesAreNeverCached) {
  for (const char* site : {"refine.step", "viz.render", "runner.eps"}) {
    SCOPED_TRACE(site);
    failpoint::Reset();
    ASSERT_TRUE(failpoint::Arm(site, std::string(site) == "refine.step"
                                         ? failpoint::Action::kNaN
                                         : failpoint::Action::kError)
                    .ok());
    ResilientRenderer renderer(&evaluator_);
    ResilientRenderOptions options;
    options.eps = 0.05;
    for (bool tile_shared : {false, true}) {
      options.parallel.tile_shared = tile_shared;
      RenderOutcome faulted = renderer.Render(grid_, options);
      EXPECT_EQ(faulted.cache, RenderOutcome::Cache::kMiss);
      EXPECT_NE(faulted.tier, QualityTier::kCertified);
    }
    failpoint::Reset();
    for (bool tile_shared : {false, true}) {
      options.parallel.tile_shared = tile_shared;
      RenderOutcome after = renderer.Render(grid_, options);
      EXPECT_EQ(after.cache, RenderOutcome::Cache::kMiss);
      EXPECT_EQ(after.tier, QualityTier::kCertified);
    }
  }
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
