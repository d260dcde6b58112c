// Tests for the work accounting (core/kdv_runner.h) and the step-wise
// RefinementStream (core/refinement_stream.h).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/kdv_runner.h"
#include "core/refinement_stream.h"
#include "data/datasets.h"
#include "util/random.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian) {
    Rng rng(21);
    for (int i = 0; i < 50; ++i) {
      queries_.push_back(Point{rng.NextDouble(), rng.NextDouble()});
    }
  }

  Workbench bench_;
  PointSet queries_;
};

TEST_F(RunnerTest, AccumulateQueryStatsSumsPerQueryWork) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  BatchStats stats;
  uint64_t iterations = 0;
  uint64_t points = 0;
  uint64_t nodes = 0;
  for (const Point& q : queries_) {
    EvalResult r = quad.EvaluateEps(q, 0.01);
    AccumulateQueryStats(&stats, r);
    iterations += r.iterations;
    points += r.points_scanned;
    nodes += r.node_evals;
  }
  TauResult t = quad.EvaluateTau(queries_[0], 0.5);
  AccumulateQueryStats(&stats, t);
  AccumulateQueryStats(nullptr, t);  // no-op, must not crash
  EXPECT_EQ(stats.queries, queries_.size() + 1);
  EXPECT_EQ(stats.iterations, iterations + t.iterations);
  EXPECT_EQ(stats.points_scanned, points + t.points_scanned);
  EXPECT_EQ(stats.nodes_visited, nodes + t.node_evals);
  EXPECT_EQ(stats.numeric_faults, 0u);
}

TEST_F(RunnerTest, AddWorkCountersMergesCountersOnly) {
  BatchStats from;
  from.seconds = 5.0;
  from.queries = 1;
  from.iterations = 2;
  from.points_scanned = 3;
  from.nodes_visited = 4;
  from.numeric_faults = 5;
  from.tile_nodes_visited = 6;
  from.tile_accepted = 7;
  from.tile_pruned = 8;
  from.tiles_decided = 9;
  from.pixels_decided = 10;
  from.frontier_cache_hits = 11;
  from.tile_seconds = 0.5;
  from.completed = false;
  from.deadline_expired = true;
  from.cancelled = true;
  from.status = InternalError("attempt failed");

  BatchStats into;
  into.queries = 100;
  into.seconds = 1.0;
  AddWorkCounters(from, &into);
  EXPECT_EQ(into.queries, 101u);
  EXPECT_EQ(into.iterations, 2u);
  EXPECT_EQ(into.points_scanned, 3u);
  EXPECT_EQ(into.nodes_visited, 4u);
  EXPECT_EQ(into.numeric_faults, 5u);
  EXPECT_EQ(into.tile_nodes_visited, 6u);
  EXPECT_EQ(into.tile_accepted, 7u);
  EXPECT_EQ(into.tile_pruned, 8u);
  EXPECT_EQ(into.tiles_decided, 9u);
  EXPECT_EQ(into.pixels_decided, 10u);
  EXPECT_EQ(into.frontier_cache_hits, 11u);
  EXPECT_DOUBLE_EQ(into.tile_seconds, 0.5);
  // Wall time, flags and status belong to the caller.
  EXPECT_DOUBLE_EQ(into.seconds, 1.0);
  EXPECT_TRUE(into.completed);
  EXPECT_FALSE(into.deadline_expired);
  EXPECT_FALSE(into.cancelled);
  EXPECT_TRUE(into.status.ok());
}

// ---------------------------------------------------------------------------
// RefinementStream
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, StreamTightensMonotonicallyToExact) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Point q = bench_.data_bounds().Center();
  double exact = quad.EvaluateExact(q);

  RefinementStream stream(&bench_.tree(), bench_.params(),
                          quad.bounds(), q);
  double prev_lb = stream.lower();
  double prev_ub = stream.upper();
  EXPECT_LE(prev_lb, exact + 1e-12);
  EXPECT_GE(prev_ub, exact - 1e-12);

  while (stream.Step()) {
    EXPECT_GE(stream.lower(), prev_lb - 1e-12);
    EXPECT_LE(stream.upper(), prev_ub + 1e-12);
    EXPECT_LE(stream.lower(), exact * (1 + 1e-9) + 1e-12);
    EXPECT_GE(stream.upper(), exact * (1 - 1e-9) - 1e-12);
    prev_lb = stream.lower();
    prev_ub = stream.upper();
  }
  EXPECT_TRUE(stream.exhausted());
  EXPECT_NEAR(stream.lower(), exact, 1e-6 * std::max(1.0, exact));
  EXPECT_NEAR(stream.gap(), 0.0, 1e-9);
  EXPECT_EQ(stream.points_scanned(), bench_.num_points());
}

TEST_F(RunnerTest, ExactStreamStartsExhausted) {
  Point q = bench_.data_bounds().Center();
  RefinementStream stream(&bench_.tree(), bench_.params(), nullptr, q);
  EXPECT_TRUE(stream.exhausted());
  EXPECT_FALSE(stream.Step());
  EXPECT_DOUBLE_EQ(stream.gap(), 0.0);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  EXPECT_NEAR(stream.lower(), exact.EvaluateExact(q), 1e-12);
}

TEST_F(RunnerTest, StepCountMatchesIterations) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Point q = bench_.data_bounds().Center();
  RefinementStream stream(&bench_.tree(), bench_.params(), quad.bounds(), q);
  uint64_t steps = 0;
  while (stream.Step()) ++steps;
  EXPECT_EQ(steps, stream.iterations());
}

}  // namespace
}  // namespace kdv
