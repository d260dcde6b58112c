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
//      seeded stream within ub <= (1+eps)·lb.
// Both are checked against brute-force exact sums on randomly placed query
// rects and query samples, across every approximate method's bound class.
#include "core/tile_refiner.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/node_bounds.h"
#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "data/datasets.h"
#include "geom/rect.h"
#include "index/kdtree.h"
#include "util/random.h"
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
// contiguous in the tree's point order.
double ExactNodeSum(const KdTree& tree, const KernelParams& params,
                    const KdTree::Node& node, const Point& q) {
  return LeafSumAoS(tree, params, node.begin, node.end, q);
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
// whole and node by node.
TEST(TileRefinerTest, FrontierEnvelopeHoldsForSampledQueries) {
  auto bench = MakeBench();
  Rng rng(777);
  for (Method method : kApproxMethods) {
    KdeEvaluator evaluator = bench->MakeEvaluator(method);
    const KdTree& tree = evaluator.tree();
    TileRefiner refiner(&tree, evaluator.params(), evaluator.bounds());
    for (int trial = 0; trial < 20; ++trial) {
      Rect rect = RandomQueryRect(&rng, bench->data_bounds());
      const bool eps_mode = (trial % 2) == 0;
      const double eps = 0.05;
      const double tau = 0.3;
      TileFrontier tf = eps_mode ? refiner.BuildEps(rect, eps)
                                 : refiner.BuildTau(rect, tau);
      if (!tf.valid) continue;
      for (int s = 0; s < 8; ++s) {
        Point q = RandomPointIn(&rng, rect);
        const double exact = evaluator.EvaluateExact(q);
        const double slack = 1e-9 * (1.0 + std::abs(exact));
        if (tf.decided) {
          if (eps_mode) {
            ASSERT_LE(std::abs(tf.decided_value - exact),
                      eps * exact + slack);
          } else {
            if (exact > tau + slack) {
              ASSERT_TRUE(tf.decided_above);
            }
            if (exact < tau - slack) {
              ASSERT_FALSE(tf.decided_above);
            }
          }
          continue;
        }
        double frontier_sum = 0.0;
        for (const TileFrontier::Node& fn : tf.nodes) {
          const double node_exact = ExactNodeSum(
              tree, evaluator.params(), tree.node(fn.node), q);
          ASSERT_GE(node_exact, fn.lower - slack);
          ASSERT_LE(node_exact, fn.upper + slack);
          frontier_sum += node_exact;
        }
        ASSERT_GE(exact, tf.base_lower + frontier_sum - slack);
        ASSERT_LE(exact, tf.base_upper + frontier_sum + slack);
        if (eps_mode) {
          // Acceptance budget: even a stream that exhausts at exactly the
          // seeded baseline gap still satisfies the ε termination test.
          const double lb = tf.base_lower + frontier_sum;
          const double ub = tf.base_upper + frontier_sum;
          ASSERT_LE(ub, (1.0 + eps) * lb + slack);
        } else {
          // τKDV accepts only zero-gap intervals: the baseline is exact.
          ASSERT_NEAR(tf.base_lower, tf.base_upper,
                      1e-9 * (1.0 + std::abs(tf.base_lower)));
        }
      }
    }
  }
}

// Claim 2b, consumed end to end: a stream seeded from a frontier yields an
// estimate meeting the same certificate as a root-seeded one, for every
// pixel of the tile (here: a dense sample).
TEST(TileRefinerTest, SeededEvaluationMeetsCertificates) {
  auto bench = MakeBench();
  Rng rng(31);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  QueryControl control;
  RefinementStream scratch = evaluator.MakeScratch();
  const double eps = 0.05;
  const double tau = 0.3;
  for (int trial = 0; trial < 25; ++trial) {
    Rect rect = RandomQueryRect(&rng, bench->data_bounds());
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
        if (exact > tau + slack) {
          EXPECT_TRUE(r.above_threshold);
        }
        if (exact < tau - slack) {
          EXPECT_FALSE(r.above_threshold);
        }
      }
    }
  }
}

// An invalid frontier must never be produced silently decided, and the
// refiner must stay within its configured visit budget.
TEST(TileRefinerTest, RespectsVisitBudget) {
  auto bench = MakeBench();
  Rng rng(5);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  TileRefinerOptions options;
  options.max_nodes_visited = 64;
  options.max_frontier = 16;
  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds(), options);
  for (int trial = 0; trial < 10; ++trial) {
    Rect rect = RandomQueryRect(&rng, bench->data_bounds());
    TileFrontier tf = refiner.BuildEps(rect, 0.05);
    EXPECT_LE(tf.nodes_visited, 64u + 2u);  // one expansion may overshoot
    EXPECT_LE(tf.nodes.size(), 16u + 2u);
    if (tf.valid && !tf.decided) {
      EXPECT_FALSE(tf.nodes.empty());
    }
  }
}

}  // namespace
}  // namespace kdv
