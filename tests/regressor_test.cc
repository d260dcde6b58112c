#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/kdtree.h"
#include "index/node_stats.h"
#include "regress/kernel_regressor.h"
#include "util/random.h"

namespace kdv {
namespace {

// The y-weighted aggregates of `pts`, in a block of their own.
std::vector<double> WeightedBlock(const PointSet& pts,
                                  const std::vector<double>& y) {
  const int dim = pts[0].dim();
  const size_t n = pts.size();
  std::vector<double> columns(static_cast<size_t>(dim) * n);
  for (size_t i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) columns[d * n + i] = pts[i][d];
  }
  std::vector<double> block(NodeStats::BlockSize(dim));
  NodeStats::Accumulate(columns.data(), n, dim, n, block.data(), y.data());
  return block;
}

// ---------------------------------------------------------------------------
// Weighted NodeStats blocks
// ---------------------------------------------------------------------------

TEST(WeightedStatsTest, MatchesBruteForceWeightedSums) {
  Rng rng(1);
  PointSet pts;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    pts.push_back(Point{rng.Uniform(-2, 2), rng.Uniform(-2, 2)});
    y.push_back(rng.Uniform(0.0, 5.0));
  }
  const std::vector<double> block = WeightedBlock(pts, y);
  NodeStats s(block.data(), 2);
  double y_sum = 0.0;
  for (double v : y) y_sum += v;
  EXPECT_NEAR(s.n(), y_sum, 1e-10);

  for (int trial = 0; trial < 30; ++trial) {
    Point q{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    double brute_s1 = 0.0, brute_s2 = 0.0;
    for (size_t i = 0; i < pts.size(); ++i) {
      double d2 = SquaredDistance(q, pts[i]);
      brute_s1 += y[i] * d2;
      brute_s2 += y[i] * d2 * d2;
    }
    EXPECT_NEAR(s.SumSquaredDistances(q), brute_s1,
                1e-9 * std::max(1.0, brute_s1));
    EXPECT_NEAR(s.SumQuarticDistances(q), brute_s2,
                1e-9 * std::max(1.0, brute_s2));
  }
}

// Unit weights must reproduce every tree record bit for bit: the weighted
// and unweighted accumulations are one body.
TEST(WeightedStatsTest, UnitWeightsReduceToNodeStats) {
  Rng rng(2);
  for (int dim : {2, 5}) {
    PointSet pts;
    for (int i = 0; i < 50; ++i) {
      Point p(dim);
      for (int a = 0; a < dim; ++a) p[a] = rng.NextDouble();
      pts.push_back(p);
    }
    KdTree::Options options;
    options.leaf_size = 4;
    KdTree tree(std::move(pts), options);
    WeightedAugmentation aug(tree, std::vector<double>(50, 1.0));
    ASSERT_GT(tree.num_nodes(), 1u);
    for (size_t id = 0; id < tree.num_nodes(); ++id) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " node " << id);
      const NodeStats s = tree.node(static_cast<int32_t>(id)).stats;
      const NodeStats ws = aug.node(static_cast<int32_t>(id));
      EXPECT_EQ(ws.n(), s.n());
      EXPECT_EQ(ws.sum_sq_norm(), s.sum_sq_norm());
      EXPECT_EQ(ws.sum_quartic_norm(), s.sum_quartic_norm());
      for (int a = 0; a < dim; ++a) {
        EXPECT_EQ(ws.mbr().lo(a), s.mbr().lo(a));
        EXPECT_EQ(ws.mbr().hi(a), s.mbr().hi(a));
        EXPECT_EQ(ws.sum()[a], s.sum()[a]);
        EXPECT_EQ(ws.sum_sq_norm_p()[a], s.sum_sq_norm_p()[a]);
        for (int b = 0; b < dim; ++b) {
          EXPECT_EQ(ws.outer_product_sum(a, b), s.outer_product_sum(a, b));
        }
      }
    }
  }
}

TEST(WeightedAugmentationTest, AppliesTreePermutation) {
  Rng rng(3);
  PointSet pts;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(Point{rng.NextDouble(), rng.NextDouble()});
    y.push_back(static_cast<double>(i));  // target = original index
  }
  KdTree tree{PointSet(pts)};
  WeightedAugmentation aug(tree, y);
  // y in tree order must track the permuted points.
  for (size_t i = 0; i < tree.num_points(); ++i) {
    uint32_t orig = tree.original_index(i);
    EXPECT_EQ(tree.point(i), pts[orig]);
    EXPECT_DOUBLE_EQ(aug.y_tree_order()[i], y[orig]);
  }
  // Root weighted sum = Σ y.
  double total = 0.0;
  for (double v : y) total += v;
  EXPECT_NEAR(aug.node(tree.root()).n(), total, 1e-9);
}

// ---------------------------------------------------------------------------
// NodeBounds over weighted blocks: correctness for every method/kernel
// combination the regressor bounds (MakeNodeBounds returns null for the
// rest, and the regressor scans those exactly).
// ---------------------------------------------------------------------------

TEST(WeightedBoundsTest, BracketWeightedAggregate) {
  Rng rng(4);
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular, KernelType::kCosine,
        KernelType::kExponential, KernelType::kEpanechnikov,
        KernelType::kQuartic, KernelType::kUniform}) {
    for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
      for (int trial = 0; trial < 150; ++trial) {
        PointSet pts;
        std::vector<double> y;
        int n = 2 + static_cast<int>(rng.UniformInt(30));
        double cx = rng.Uniform(-1, 1), cy = rng.Uniform(-1, 1);
        double spread = rng.Uniform(0.01, 0.6);
        for (int i = 0; i < n; ++i) {
          pts.push_back(Point{cx + rng.Uniform(-spread, spread),
                              cy + rng.Uniform(-spread, spread)});
          y.push_back(rng.Uniform(0.0, 3.0));
        }
        const std::vector<double> block = WeightedBlock(pts, y);

        KernelParams params;
        params.type = kernel;
        params.gamma = rng.Uniform(0.3, 6.0);
        params.weight = 1.0;

        Point q{rng.Uniform(-2.5, 2.5), rng.Uniform(-2.5, 2.5)};
        auto bounds = MakeNodeBounds(method, params);
        if (bounds == nullptr) continue;  // KARL off the Gaussian
        BoundPair b = bounds->Evaluate(NodeStats(block.data(), 2), q);
        double exact = 0.0;
        for (size_t i = 0; i < pts.size(); ++i) {
          exact +=
              y[i] * params.EvalSquaredDistance(SquaredDistance(q, pts[i]));
        }
        double tol = 1e-9 * std::max(1.0, exact);
        EXPECT_LE(b.lower, exact + tol)
            << KernelTypeName(kernel) << "/" << MethodName(method);
        EXPECT_GE(b.upper, exact - tol)
            << KernelTypeName(kernel) << "/" << MethodName(method);
        EXPECT_GE(b.lower, -tol);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// KernelRegressor end to end
// ---------------------------------------------------------------------------

struct RegressionData {
  PointSet xs;
  std::vector<double> ys;
};

// Smooth non-negative target y = 2 + sin(3x) * cos(2y') over clustered xs.
RegressionData MakeData(int n, uint64_t seed) {
  Rng rng(seed);
  RegressionData data;
  for (int i = 0; i < n; ++i) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    data.xs.push_back(p);
    data.ys.push_back(2.0 + std::sin(3.0 * p[0]) * std::cos(2.0 * p[1]));
  }
  return data;
}

TEST(KernelRegressorTest, MatchesExactWithinEps) {
  RegressionData data = MakeData(3000, 5);
  for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
    KernelRegressor::Options options;
    options.method = method;
    KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                        options);
    Rng rng(6);
    for (int i = 0; i < 25; ++i) {
      Point q{rng.NextDouble(), rng.NextDouble()};
      bool defined = true;
      double exact = reg.EstimateExact(q, &defined);
      ASSERT_TRUE(defined);
      KernelRegressor::Result r = reg.Estimate(q, 0.01);
      EXPECT_TRUE(r.converged) << MethodName(method);
      EXPECT_TRUE(r.defined);
      EXPECT_LE(r.lower, exact * (1 + 1e-9) + 1e-12) << MethodName(method);
      EXPECT_GE(r.upper, exact * (1 - 1e-9) - 1e-12) << MethodName(method);
      EXPECT_NEAR(r.estimate, exact, 0.011 * exact) << MethodName(method);
    }
  }
}

TEST(KernelRegressorTest, ExactMethodIsBruteForce) {
  RegressionData data = MakeData(500, 7);
  KernelRegressor::Options options;
  options.method = Method::kExact;
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      options);
  Point q{0.4, 0.6};
  KernelRegressor::Result r = reg.Estimate(q, 0.01);
  EXPECT_NEAR(r.estimate, reg.EstimateExact(q), 1e-12);
  EXPECT_EQ(r.points_scanned, 500u);
}

TEST(KernelRegressorTest, QuadPrunesMoreThanAkde) {
  RegressionData data = MakeData(20000, 8);
  KernelRegressor::Options quad_options;
  quad_options.method = Method::kQuad;
  KernelRegressor quad(PointSet(data.xs), std::vector<double>(data.ys),
                       quad_options);
  KernelRegressor::Options akde_options;
  akde_options.method = Method::kAkde;
  KernelRegressor akde(PointSet(data.xs), std::vector<double>(data.ys),
                       akde_options);

  Rng rng(9);
  uint64_t quad_pts = 0, akde_pts = 0;
  for (int i = 0; i < 20; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    quad_pts += quad.Estimate(q, 0.01).points_scanned;
    akde_pts += akde.Estimate(q, 0.01).points_scanned;
  }
  EXPECT_LT(quad_pts, akde_pts);
}

TEST(KernelRegressorTest, RecoversSmoothFunction) {
  // With dense samples and a smooth target, NW regression approximates the
  // target function at interior points.
  RegressionData data = MakeData(20000, 10);
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      KernelRegressor::Options{});
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    Point q{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    double truth = 2.0 + std::sin(3.0 * q[0]) * std::cos(2.0 * q[1]);
    EXPECT_NEAR(reg.Estimate(q, 0.01).estimate, truth, 0.2);
  }
}

TEST(KernelRegressorTest, UndefinedOutsideFiniteSupport) {
  RegressionData data = MakeData(300, 12);
  KernelRegressor::Options options;
  options.kernel = KernelType::kTriangular;
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      options);
  KernelRegressor::Result r = reg.Estimate(Point{50.0, 50.0}, 0.01);
  EXPECT_FALSE(r.defined);
  EXPECT_DOUBLE_EQ(r.estimate, 0.0);
}

TEST(KernelRegressorTest, NonGaussianKernelsAgreeWithExact) {
  RegressionData data = MakeData(2000, 13);
  for (KernelType kernel :
       {KernelType::kTriangular, KernelType::kCosine,
        KernelType::kExponential, KernelType::kEpanechnikov,
        KernelType::kQuartic, KernelType::kUniform}) {
    KernelRegressor::Options options;
    options.kernel = kernel;
    KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                        options);
    Rng rng(14);
    for (int i = 0; i < 15; ++i) {
      Point q{rng.NextDouble(), rng.NextDouble()};
      bool defined = true;
      double exact = reg.EstimateExact(q, &defined);
      if (!defined) continue;
      KernelRegressor::Result r = reg.Estimate(q, 0.01);
      EXPECT_NEAR(r.estimate, exact, 0.011 * std::max(exact, 1e-12))
          << KernelTypeName(kernel);
    }
  }
}

// Every node of an all-zero target field has Y = 0 and must add exactly 0
// to N: the bound formulas divide by n, and 0/0 would poison the interval.
TEST(KernelRegressorTest, AllZeroTargetsEstimateExactZero) {
  RegressionData data = MakeData(500, 16);
  // The bounds whose tangent point is a mean over the node.
  const std::pair<KernelType, Method> kCases[] = {
      {KernelType::kGaussian, Method::kKarl},
      {KernelType::kGaussian, Method::kQuad},
      {KernelType::kExponential, Method::kQuad}};
  for (const auto& [kernel, method] : kCases) {
    SCOPED_TRACE(::testing::Message() << KernelTypeName(kernel) << "/"
                                      << MethodName(method));
    KernelRegressor::Options options;
    options.kernel = kernel;
    options.method = method;
    KernelRegressor reg(PointSet(data.xs),
                        std::vector<double>(data.ys.size(), 0.0), options);
    Rng rng(17);
    for (int i = 0; i < 5; ++i) {
      Point q{rng.NextDouble(), rng.NextDouble()};
      KernelRegressor::Result r = reg.Estimate(q, 0.01);
      EXPECT_TRUE(r.defined);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(r.lower, 0.0);
      EXPECT_EQ(r.upper, 0.0);
      EXPECT_EQ(r.estimate, 0.0);
    }
  }
}

TEST(KernelRegressorTest, ConstantTargetsGiveConstantEstimate) {
  Rng rng(15);
  PointSet xs;
  std::vector<double> ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(Point{rng.NextDouble(), rng.NextDouble()});
    ys.push_back(3.5);
  }
  KernelRegressor reg(std::move(xs), std::move(ys),
                      KernelRegressor::Options{});
  for (int i = 0; i < 10; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    EXPECT_NEAR(reg.Estimate(q, 0.01).estimate, 3.5, 3.5 * 0.011);
  }
}

}  // namespace
}  // namespace kdv
