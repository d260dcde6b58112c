// Soundness suite for region bounds and the shared-traversal tile refiner.
//
// The certified-error story of tile-shared rendering rests on two claims:
//   1. Region soundness — EvaluateRegion(stats, rect) brackets the node's
//      exact contribution F_n(q) for EVERY query point q inside rect, for
//      every bound profile. (This is a property about one node; no
//      interval-containment relation to the per-pixel bounds is required or
//      asserted — a region bound may cross a per-pixel bound either way.)
//   2. Frontier contract — a valid TileFrontier's baseline plus its
//      frontier-node region intervals is a certified envelope of F_P(q) for
//      every q in the tile, decided tiles meet their ε/τ certificate
//      outright, and the εKDV acceptance budget keeps even an exhausted
//      seeded stream within ub <= (1+eps)·lb. A τ tile's quadrant frontiers
//      hold the same contract over the quadrant each pixel is sent to.
// Both are checked against brute-force exact sums on randomly placed query
// rects and query samples, across every approximate method's bound class.
// The CutReuseTest cases pin when a seeded εKDV stream may start from its
// previous query's cut (core/refinement_stream.h): only for the right
// neighbour in a chunk row, under the same frontier, after a healthy query.
#include "core/tile_refiner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/node_bounds.h"
#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "data/datasets.h"
#include "geom/rect.h"
#include "index/kdtree.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

PointSet TestDataset(size_t n = 1200, uint64_t seed = 97) {
  MixtureSpec spec;
  spec.n = n;
  spec.num_clusters = 3;
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

// Exact contribution of one subtree to F_P(q): the node's points are
// contiguous in the tree's point order. Point by point in index order,
// SquaredDistance and then the kernel profile, independent of the leaf
// kernel.
double ExactNodeSum(const KdTree& tree, const KernelParams& params,
                    const KdTree::Node& node, const Point& q) {
  double sum = 0.0;
  for (uint32_t i = node.begin; i < node.end; ++i) {
    sum += params.EvalSquaredDistance(SquaredDistance(q, tree.point(i)));
  }
  return params.weight * sum;
}

// A random query rect somewhere around the data domain, including rects
// that straddle or sit outside it. Degenerate (point) rects are included
// via the min extent of 0.
Rect RandomQueryRect(Rng* rng, const Rect& domain) {
  const double span0 = domain.hi(0) - domain.lo(0);
  const double span1 = domain.hi(1) - domain.lo(1);
  Rect rect(2);
  const double cx = rng->Uniform(domain.lo(0) - 0.2 * span0,
                                 domain.hi(0) + 0.2 * span0);
  const double cy = rng->Uniform(domain.lo(1) - 0.2 * span1,
                                 domain.hi(1) + 0.2 * span1);
  const double ex = rng->Uniform(0.0, 0.15 * span0);
  const double ey = rng->Uniform(0.0, 0.15 * span1);
  Point lo{cx - ex, cy - ey};
  Point hi{cx + ex, cy + ey};
  rect.Expand(lo);
  rect.Expand(hi);
  return rect;
}

Point RandomPointIn(Rng* rng, const Rect& rect) {
  return Point{rng->Uniform(rect.lo(0), rect.hi(0)),
               rng->Uniform(rect.lo(1), rect.hi(1))};
}

// Collapses the rect to its center line in the dimensions flagged by
// `flat` (bit 0: x, bit 1: y): the one-pixel rows, columns and chunks of
// real frames.
Rect Flatten(Rect rect, int flat) {
  for (int d = 0; d < 2; ++d) {
    if ((flat >> d & 1) == 0) continue;
    const double mid = 0.5 * (rect.lo(d) + rect.hi(d));
    rect.set_lo(d, mid);
    rect.set_hi(d, mid);
  }
  return rect;
}

// The frontier contract at one query q of the frontier's rect: every node's
// region interval brackets its exact subtree sum, and the baseline plus the
// exact frontier sums brackets F(q). Returns the exact frontier sum.
double ExpectEnvelope(const KdeEvaluator& evaluator, const TileFrontier& tf,
                      const Point& q, double exact) {
  const KdTree& tree = evaluator.tree();
  const double slack = 1e-9 * (1.0 + std::abs(exact));
  double frontier_sum = 0.0;
  for (const TileFrontier::Node& fn : tf.nodes) {
    const double node_exact =
        ExactNodeSum(tree, evaluator.params(), tree.node(fn.node), q);
    EXPECT_GE(node_exact, fn.lower - slack) << "node " << fn.node;
    EXPECT_LE(node_exact, fn.upper + slack) << "node " << fn.node;
    frontier_sum += node_exact;
  }
  EXPECT_GE(exact, tf.base_lower + frontier_sum - slack);
  EXPECT_LE(exact, tf.base_upper + frontier_sum + slack);
  return frontier_sum;
}

// A τ decision (tile or quadrant) agrees with the exact density, up to FP
// drift at F == τ.
void ExpectTauDecision(bool decided_above, double exact, double tau) {
  const double slack = 1e-9 * (1.0 + std::abs(exact));
  if (exact > tau + slack) {
    EXPECT_TRUE(decided_above);
  }
  if (exact < tau - slack) {
    EXPECT_FALSE(decided_above);
  }
}

const Method kApproxMethods[] = {Method::kQuad, Method::kKarl, Method::kAkde,
                                 Method::kTkdc};

// Claim 1: region bounds bracket the exact subtree sum for every sampled
// query point in the rect, for every node of the tree and every bound class.
TEST(RegionBoundsTest, RegionIntervalBracketsExactSumForSampledQueries) {
  auto bench = MakeBench();
  Rng rng(4242);
  for (Method method : kApproxMethods) {
    KdeEvaluator evaluator = bench->MakeEvaluator(method);
    const NodeBounds* bounds = evaluator.bounds();
    ASSERT_NE(bounds, nullptr);
    const KdTree& tree = evaluator.tree();
    for (int trial = 0; trial < 12; ++trial) {
      Rect rect = RandomQueryRect(&rng, bench->data_bounds());
      for (size_t n = 0; n < tree.num_nodes(); ++n) {
        const KdTree::Node& node = tree.node(static_cast<int32_t>(n));
        BoundPair region = bounds->EvaluateRegion(node.stats, rect);
        ASSERT_TRUE(std::isfinite(region.lower));
        ASSERT_TRUE(std::isfinite(region.upper));
        for (int s = 0; s < 4; ++s) {
          Point q = RandomPointIn(&rng, rect);
          const double exact =
              ExactNodeSum(tree, evaluator.params(), node, q);
          const double slack = 1e-9 * (1.0 + std::abs(exact));
          ASSERT_GE(exact, region.lower - slack)
              << "method " << static_cast<int>(method) << " node " << n;
          ASSERT_LE(exact, region.upper + slack)
              << "method " << static_cast<int>(method) << " node " << n;
        }
      }
    }
  }
}

// Claim 2a: the frontier envelope holds pointwise over the tile, both as a
// whole and node by node, and so does the quadrant frontier each τ pixel is
// seeded from. The first 20 trials per method are full rects; the 12 after
// them have zero extent in x, in y and in both (each twice per query kind),
// drawn from their own generator. Those put τ at the density of a point of
// the rect, so the tile pass seldom decides them and their quadrants (cut in
// one dimension only) are checked too.
TEST(TileRefinerTest, FrontierEnvelopeHoldsForSampledQueries) {
  auto bench = MakeBench();
  Rng rng(777);
  Rng flat_rng(778);
  uint64_t quadrant_queries = 0;
  uint64_t flat_quadrant_queries = 0;
  for (Method method : kApproxMethods) {
    KdeEvaluator evaluator = bench->MakeEvaluator(method);
    TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                        evaluator.bounds());
    for (int trial = 0; trial < 20 + 12; ++trial) {
      const bool flat_trial = trial >= 20;
      Rng* trial_rng = flat_trial ? &flat_rng : &rng;
      Rect rect = RandomQueryRect(trial_rng, bench->data_bounds());
      if (flat_trial) rect = Flatten(rect, 1 + ((trial - 20) / 2) % 3);
      const bool eps_mode = (trial % 2) == 0;
      const double eps = 0.05;
      const double tau =
          flat_trial ? evaluator.EvaluateExact(RandomPointIn(trial_rng, rect))
                     : 0.3;
      TileFrontier tf = eps_mode ? refiner.BuildEps(rect, eps)
                                 : refiner.BuildTau(rect, tau);
      if (!tf.valid) continue;
      if (eps_mode || tf.decided) {
        EXPECT_TRUE(tf.quadrants.empty());
      }
      for (int s = 0; s < 8; ++s) {
        Point q = RandomPointIn(trial_rng, rect);
        const double exact = evaluator.EvaluateExact(q);
        const double slack = 1e-9 * (1.0 + std::abs(exact));
        if (tf.decided) {
          if (eps_mode) {
            ASSERT_LE(std::abs(tf.decided_value - exact),
                      eps * exact + slack);
          } else {
            ExpectTauDecision(tf.decided_above, exact, tau);
          }
          continue;
        }
        const double frontier_sum = ExpectEnvelope(evaluator, tf, q, exact);
        if (eps_mode) {
          // Acceptance budget: even a stream that exhausts at exactly the
          // seeded baseline gap still satisfies the ε termination test.
          const double lb = tf.base_lower + frontier_sum;
          const double ub = tf.base_upper + frontier_sum;
          ASSERT_LE(ub, (1.0 + eps) * lb + slack);
          continue;
        }
        // τKDV accepts only zero-gap intervals: the baseline is exact, in
        // the tile and in the quadrant q is seeded from.
        ASSERT_NEAR(tf.base_lower, tf.base_upper,
                    1e-9 * (1.0 + std::abs(tf.base_lower)));
        const TileFrontier& quad = tf.SeedFor(q);
        if (&quad == &tf) continue;
        ++quadrant_queries;
        if (flat_trial) ++flat_quadrant_queries;
        ASSERT_TRUE(quad.valid);
        EXPECT_TRUE(quad.quadrants.empty());
        ExpectEnvelope(evaluator, quad, q, exact);
        ASSERT_NEAR(quad.base_lower, quad.base_upper,
                    1e-9 * (1.0 + std::abs(quad.base_lower)));
        if (quad.decided) ExpectTauDecision(quad.decided_above, exact, tau);
      }
    }
  }
  // The quadrant contract was exercised, on zero-extent rects too.
  EXPECT_GT(quadrant_queries, 0u);
  EXPECT_GT(flat_quadrant_queries, 0u);
}

// Claim 2b, consumed end to end: a stream seeded from a frontier yields an
// estimate meeting the same certificate as a root-seeded one, for every
// pixel of the tile (here: a dense sample). A τ pixel in a decided quadrant
// takes no refinement step. The first 25 trials are full rects; the 12 after
// them have zero extent in x, in y and in both (four each) and put τ at the
// density of a point of the rect.
TEST(TileRefinerTest, SeededEvaluationMeetsCertificates) {
  auto bench = MakeBench();
  Rng rng(31);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  QueryControl control;
  RefinementStream scratch = evaluator.MakeScratch();
  const double eps = 0.05;
  int flat_quadrant_queries = 0;
  for (int trial = 0; trial < 25 + 12; ++trial) {
    const bool flat_trial = trial >= 25;
    Rect rect = RandomQueryRect(&rng, bench->data_bounds());
    if (flat_trial) rect = Flatten(rect, 1 + (trial - 25) % 3);
    const double tau =
        flat_trial ? evaluator.EvaluateExact(RandomPointIn(&rng, rect)) : 0.3;
    TileFrontier eps_tf = refiner.BuildEps(rect, eps);
    TileFrontier tau_tf = refiner.BuildTau(rect, tau);
    for (int s = 0; s < 6; ++s) {
      Point q = RandomPointIn(&rng, rect);
      const double exact = evaluator.EvaluateExact(q);
      const double slack = 1e-9 * (1.0 + std::abs(exact));
      if (eps_tf.valid && !eps_tf.decided) {
        EvalResult r =
            evaluator.EvaluateEpsSeeded(q, eps, eps_tf, control, &scratch);
        EXPECT_LE(std::abs(r.estimate - exact), eps * exact + slack);
        EXPECT_GE(exact, r.lower - slack);
        EXPECT_LE(exact, r.upper + slack);
      }
      if (tau_tf.valid && !tau_tf.decided) {
        TauResult r =
            evaluator.EvaluateTauSeeded(q, tau, tau_tf, control, &scratch);
        ExpectTauDecision(r.above_threshold, exact, tau);
        EXPECT_GE(exact, r.lower - slack);
        EXPECT_LE(exact, r.upper + slack);
        const TileFrontier& quad = tau_tf.SeedFor(q);
        if (flat_trial && &quad != &tau_tf) ++flat_quadrant_queries;
        if (quad.decided) {
          EXPECT_EQ(r.iterations, 0u);
          EXPECT_EQ(r.above_threshold, quad.decided_above);
        }
      }
    }
  }
  EXPECT_GT(flat_quadrant_queries, 0);
}

// The quadrant rect `i` of a τ tile frontier built over `rect`: the rect cut
// at tf.cut on the sides quadrant i names (tile_frontier.h).
Rect QuadrantRect(const Rect& rect, const TileFrontier& tf, int i) {
  Rect sub = rect;
  for (int d = 0; d < 2; ++d) {
    if (!std::isfinite(tf.cut[d])) continue;
    if ((i >> d & 1) == 1) {
      sub.set_lo(d, tf.cut[d]);
    } else {
      sub.set_hi(d, tf.cut[d]);
    }
  }
  return sub;
}

// Tiles the region pass leaves undecided while a quadrant pass decides one
// of their quadrants: every pixel of that quadrant gets the per-pixel
// oracle's answer from the tile frontier with zero refinement steps and
// zero bound evaluations.
TEST(TileRefinerTest, DecidedQuadrantAnswersWithZeroSteps) {
  auto bench = MakeBench();
  Rng rng(2718);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  QueryControl control;
  RefinementStream scratch = evaluator.MakeScratch();
  const double tau = 0.3;
  int decided_quadrants = 0;
  int checked = 0;
  for (int trial = 0; trial < 200 && decided_quadrants < 4; ++trial) {
    const Rect rect = RandomQueryRect(&rng, bench->data_bounds());
    const TileFrontier tf = refiner.BuildTau(rect, tau);
    if (!tf.valid || tf.decided || tf.quadrants.empty()) continue;
    for (int i = 0; i < 4; ++i) {
      const TileFrontier& quad = tf.quadrants[i];
      if (!quad.valid || !quad.decided) continue;
      ++decided_quadrants;
      const Rect sub = QuadrantRect(rect, tf, i);
      for (int s = 0; s < 8; ++s) {
        const Point q = RandomPointIn(&rng, sub);
        if (&tf.SeedFor(q) != &quad) continue;  // on a cut line
        ++checked;
        const TauResult r =
            evaluator.EvaluateTauSeeded(q, tau, tf, control, &scratch);
        EXPECT_EQ(r.iterations, 0u);
        EXPECT_EQ(r.node_evals, 0u);
        EXPECT_EQ(r.above_threshold,
                  evaluator.EvaluateTau(q, tau).above_threshold);
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// Region bounds that fault (NaN) over any rect narrower in x than the tile:
// a tile's own pass is healthy, every one of its quadrant passes faults.
class QuadrantFaultBounds final : public NodeBounds {
 public:
  QuadrantFaultBounds(const NodeBounds* inner, double tile_width)
      : NodeBounds(inner->params(), inner->options()),
        inner_(inner),
        tile_width_(tile_width) {}

  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override {
    return inner_->Evaluate(stats, q);
  }
  BoundPair EvaluateRegion(const NodeStats& stats,
                           const Rect& query_rect) const override {
    if (query_rect.Length(0) < tile_width_) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      return {nan, nan};
    }
    return inner_->EvaluateRegion(stats, query_rect);
  }
  const char* name() const override { return "quadrant-fault"; }

 private:
  const NodeBounds* inner_;
  double tile_width_;
};

// A numeric fault in a quadrant pass drops the quadrants: the tile frontier
// (identical to a healthy pass's) serves every pixel, nothing is decided on
// the strength of a faulted quadrant, and masks stay exact.
TEST(TileRefinerTest, QuadrantFaultFallsBackToTileFrontier) {
  auto bench = MakeBench();
  Rng rng(99);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner healthy(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  QueryControl control;
  RefinementStream scratch = evaluator.MakeScratch();
  const double tau = 0.3;
  int undecided = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Rect rect = RandomQueryRect(&rng, bench->data_bounds());
    const TileFrontier good = healthy.BuildTau(rect, tau);
    if (!good.valid || good.quadrants.empty()) continue;
    QuadrantFaultBounds faulty(evaluator.bounds(), rect.Length(0));
    TileRefiner refiner(&evaluator.tree(), evaluator.params(), &faulty);
    const TileFrontier tf = refiner.BuildTau(rect, tau);
    ASSERT_TRUE(tf.valid);
    EXPECT_FALSE(tf.decided);
    EXPECT_TRUE(tf.quadrants.empty());
    ASSERT_EQ(tf.nodes.size(), good.nodes.size());
    for (size_t i = 0; i < tf.nodes.size(); ++i) {
      EXPECT_EQ(tf.nodes[i].node, good.nodes[i].node);
    }
    EXPECT_EQ(tf.base_lower, good.base_lower);
    EXPECT_EQ(tf.base_upper, good.base_upper);
    ++undecided;
    KdeEvaluator faulty_evaluator(&evaluator.tree(), evaluator.params(),
                                  &faulty);
    for (int s = 0; s < 4; ++s) {
      const Point q = RandomPointIn(&rng, rect);
      const TauResult r =
          faulty_evaluator.EvaluateTauSeeded(q, tau, tf, control, &scratch);
      EXPECT_EQ(r.above_threshold,
                evaluator.EvaluateTau(q, tau).above_threshold);
    }
  }
  EXPECT_GT(undecided, 0);
}

// An invalid frontier must never be produced silently decided, and the
// refiner must stay within its visit and frontier caps. The tree must be
// large enough for the visit cap to bind: TestDataset()'s default tree has
// fewer than kTileMaxNodesVisited nodes.
TEST(TileRefinerTest, RespectsVisitBudget) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(TestDataset(20000), KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  KdeEvaluator evaluator = (*bench)->MakeEvaluator(Method::kQuad);
  ASSERT_GT(evaluator.tree().num_nodes(), 4 * kTileMaxNodesVisited);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  Rng rng(5);
  uint64_t most_visits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Rect rect = RandomQueryRect(&rng, (*bench)->data_bounds());
    TileFrontier tf = refiner.BuildEps(rect, 0.05);
    // One expansion may overshoot the cap.
    EXPECT_LE(tf.nodes_visited, kTileMaxNodesVisited + 2u);
    EXPECT_LE(tf.nodes.size(), kTileMaxFrontier + 2u);
    most_visits = std::max(most_visits, tf.nodes_visited);
    if (tf.valid && !tf.decided) {
      EXPECT_FALSE(tf.nodes.empty());
    }
    // τ: the quadrant passes add at most four region evaluations per node
    // of the tile frontier.
    TileFrontier tau_tf = refiner.BuildTau(rect, 0.3);
    EXPECT_LE(tau_tf.nodes_visited,
              kTileMaxNodesVisited + 2u + 4u * tau_tf.nodes.size());
    EXPECT_LE(tau_tf.nodes.size(), kTileMaxFrontier + 2u);
  }
  EXPECT_GE(most_visits, kTileMaxNodesVisited);  // the cap did bind
}

// ---------------------------------------------------------------------------
// Cut reuse along chunk rows
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Two evaluations are the same bit for bit, work included.
void ExpectSameResult(const EvalResult& want, const EvalResult& got,
                      const std::string& where) {
  EXPECT_EQ(Bits(got.estimate), Bits(want.estimate)) << where;
  EXPECT_EQ(Bits(got.lower), Bits(want.lower)) << where;
  EXPECT_EQ(Bits(got.upper), Bits(want.upper)) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.points_scanned, want.points_scanned) << where;
  EXPECT_EQ(got.node_evals, want.node_evals) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(got.numeric_fault, want.numeric_fault) << where;
}

// Pixel columns [col_begin, col_end) x rows [row_begin, row_end) of a grid,
// as the frame driver cuts chunks; Rect() is the hull of their pixel
// centres, the region of the chunk's pass.
struct GridChunk {
  const PixelGrid* grid;
  int col_begin, col_end, row_begin, row_end;
  Rect rect() const {
    Rect r(2);
    r.Expand(grid->PixelCenter(col_begin, row_end - 1));
    r.Expand(grid->PixelCenter(col_end - 1, row_begin));
    return r;
  }
};

// The εKDV evaluation of pixel (px, py) by a stream nothing has used.
EvalResult FreshSeeded(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       int px, int py, double eps, const TileFrontier& tf) {
  RefinementStream fresh = evaluator.MakeScratch();
  return evaluator.EvaluateEpsSeeded(grid.PixelCenter(px, py), eps, tf,
                                     QueryControl(), &fresh);
}

// Every chunk row's first pixel primes from the frontier exactly as a
// fresh stream does, whatever the stream evaluated before (here the last
// pixel of the row above, or of the chunk before). The pixels after it
// start from their left neighbour's cut: together they take fewer steps
// than fresh streams would, and each keeps its certificate.
TEST(CutReuseTest, RowsStartFreshAndLaterPixelsReuseTheCut) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  const PixelGrid grid(32, 32, bench->data_bounds());
  RefinementStream scratch = evaluator.MakeScratch();
  const double eps = 0.01;
  int rows = 0;
  uint64_t reused_steps = 0;
  uint64_t fresh_steps = 0;
  for (int row_begin : {0, 16}) {
    for (int col_begin : {0, 16}) {
      const GridChunk chunk{&grid, col_begin, col_begin + 16, row_begin,
                            row_begin + 16};
      const TileFrontier tf = refiner.BuildEps(chunk.rect(), eps);
      if (!tf.valid || tf.decided) continue;
      EXPECT_NE(tf.id, 0u);
      for (int py = chunk.row_begin; py < chunk.row_end; ++py) {
        for (int px = chunk.col_begin; px < chunk.col_end; ++px) {
          const Point q = grid.PixelCenter(px, py);
          const EvalResult r = evaluator.EvaluateEpsSeeded(
              q, eps, tf, QueryControl(), &scratch);
          const EvalResult fresh =
              FreshSeeded(evaluator, grid, px, py, eps, tf);
          if (px == chunk.col_begin) {
            ++rows;
            ExpectSameResult(fresh, r, "row " + std::to_string(py) +
                                           " col " + std::to_string(px));
          } else {
            reused_steps += r.iterations;
            fresh_steps += fresh.iterations;
          }
          const double exact = evaluator.EvaluateExact(q);
          EXPECT_LE(std::abs(r.estimate - exact),
                    eps * exact + 1e-9 * (1.0 + exact));
        }
      }
    }
  }
  EXPECT_GT(rows, 0);
  EXPECT_LT(reused_steps, fresh_steps);
}

// A cut never crosses frontiers: the next chunk of the same pixel row, and
// the same chunk's frontier rebuilt in place (the next frame's pass, at the
// same address), both seed fresh. The same frontier left alone reuses.
TEST(CutReuseTest, CutsNeverCrossFrontiers) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  const PixelGrid grid(32, 16, bench->data_bounds());
  const GridChunk left{&grid, 0, 16, 0, 16};
  const GridChunk right{&grid, 16, 32, 0, 16};
  const double eps = 0.01;
  RefinementStream scratch = evaluator.MakeScratch();
  const QueryControl control;
  TileFrontier tf = refiner.BuildEps(left.rect(), eps);
  const TileFrontier next = refiner.BuildEps(right.rect(), eps);
  ASSERT_TRUE(tf.valid && !tf.decided && next.valid && !next.decided);
  ASSERT_NE(tf.id, next.id);
  int differs = 0;
  for (int py = 0; py < 16; ++py) {
    // The left chunk's last pixel of the row, then the right chunk's first,
    // one pixel further right.
    evaluator.EvaluateEpsSeeded(grid.PixelCenter(15, py), eps, tf, control,
                                &scratch);
    ExpectSameResult(
        FreshSeeded(evaluator, grid, 16, py, eps, next),
        evaluator.EvaluateEpsSeeded(grid.PixelCenter(16, py), eps, next,
                                    control, &scratch),
        "next chunk, row " + std::to_string(py));

    // Pixel 0 on the frontier, which is then rebuilt in place, then pixel 1.
    evaluator.EvaluateEpsSeeded(grid.PixelCenter(0, py), eps, tf, control,
                                &scratch);
    const TileFrontier* address = &tf;
    tf = refiner.BuildEps(left.rect(), eps);
    ASSERT_EQ(&tf, address);
    ExpectSameResult(
        FreshSeeded(evaluator, grid, 1, py, eps, tf),
        evaluator.EvaluateEpsSeeded(grid.PixelCenter(1, py), eps, tf, control,
                                    &scratch),
        "rebuilt frontier, row " + std::to_string(py));

    // Left alone, the frontier passes pixel 1's cut on to pixel 2.
    const EvalResult reused = evaluator.EvaluateEpsSeeded(
        grid.PixelCenter(2, py), eps, tf, control, &scratch);
    const EvalResult fresh = FreshSeeded(evaluator, grid, 2, py, eps, tf);
    if (reused.iterations != fresh.iterations ||
        reused.node_evals != fresh.node_evals) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0);
}

// τ frontiers carry no identity, so τ seeded resets never reuse a cut:
// every pixel of a chunk row, evaluated in row order on one stream, equals
// a fresh stream's answer bit for bit.
TEST(CutReuseTest, TauSeededResetsNeverReuse) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  const PixelGrid grid(32, 32, bench->data_bounds());
  RefinementStream scratch = evaluator.MakeScratch();
  const QueryControl control;
  const double tau = 0.3;
  uint64_t steps = 0;
  for (int row_begin : {0, 16}) {
    for (int col_begin : {0, 16}) {
      const GridChunk chunk{&grid, col_begin, col_begin + 16, row_begin,
                            row_begin + 16};
      const TileFrontier tf = refiner.BuildTau(chunk.rect(), tau);
      EXPECT_EQ(tf.id, 0u);
      if (!tf.valid || tf.decided) continue;
      for (int py = chunk.row_begin; py < chunk.row_end; ++py) {
        for (int px = chunk.col_begin; px < chunk.col_end; ++px) {
          const Point q = grid.PixelCenter(px, py);
          const TauResult r =
              evaluator.EvaluateTauSeeded(q, tau, tf, control, &scratch);
          RefinementStream fresh_stream = evaluator.MakeScratch();
          const TauResult fresh =
              evaluator.EvaluateTauSeeded(q, tau, tf, control, &fresh_stream);
          ASSERT_EQ(r.above_threshold, fresh.above_threshold);
          ASSERT_EQ(Bits(r.lower), Bits(fresh.lower));
          ASSERT_EQ(Bits(r.upper), Bits(fresh.upper));
          ASSERT_EQ(r.iterations, fresh.iterations);
          ASSERT_EQ(r.node_evals, fresh.node_evals);
          ASSERT_EQ(r.points_scanned, fresh.points_scanned);
          steps += r.iterations;
        }
      }
    }
  }
  EXPECT_GT(steps, 0u);  // the rows carried real refinement
}

// Failpoints build: a NaN bound poisons a pixel, in its own refinement
// steps (a row's first pixel) or while its inherited cut is re-evaluated
// (a later one). The pixel after it seeds fresh and is certified.
TEST(CutReuseTest, PixelAfterPoisonedOneSeedsFresh) {
  if (!failpoint::enabled()) {
    GTEST_SKIP() << "failpoints not compiled in (build with "
                    "-DKDV_FAILPOINTS=ON)";
  }
  failpoint::Reset();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  const PixelGrid grid(16, 16, bench->data_bounds());
  const GridChunk chunk{&grid, 0, 16, 0, 16};
  const double eps = 0.01;
  const TileFrontier tf = refiner.BuildEps(chunk.rect(), eps);
  ASSERT_TRUE(tf.valid && !tf.decided);
  RefinementStream scratch = evaluator.MakeScratch();
  const QueryControl control;
  auto eval = [&](int px, int py) {
    return evaluator.EvaluateEpsSeeded(grid.PixelCenter(px, py), eps, tf,
                                       control, &scratch);
  };
  for (int poisoned_col : {0, 1}) {
    const int py = 4 + poisoned_col;
    if (poisoned_col == 1) {
      ASSERT_FALSE(eval(0, py).numeric_fault);
    }
    ASSERT_TRUE(failpoint::Arm("refine.step", failpoint::Action::kNaN,
                               /*delay_ms=*/0, /*max_hits=*/1)
                    .ok());
    EXPECT_TRUE(eval(poisoned_col, py).numeric_fault) << poisoned_col;
    EXPECT_EQ(failpoint::hits("refine.step"), 1u);
    failpoint::Reset();

    const int px = poisoned_col + 1;
    const EvalResult after = eval(px, py);
    ExpectSameResult(FreshSeeded(evaluator, grid, px, py, eps, tf), after,
                     "after poisoned column " + std::to_string(poisoned_col));
    EXPECT_FALSE(after.numeric_fault);
    const double exact = evaluator.EvaluateExact(grid.PixelCenter(px, py));
    EXPECT_LE(std::abs(after.estimate - exact),
              eps * exact + 1e-9 * (1.0 + exact));
  }
}

}  // namespace
}  // namespace kdv
