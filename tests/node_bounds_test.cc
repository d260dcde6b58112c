// Aggregate-level property tests: for random point clouds and queries, every
// bound implementation must bracket the true node aggregate, and the paper's
// tightness ordering must hold (QUAD inside KARL inside aKDE for Gaussian;
// QUAD inside aKDE for the distance kernels).
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "bounds/node_bounds.h"
#include "index/kdtree.h"
#include "index/node_stats.h"
#include "kernel/kernel.h"
#include "util/random.h"

namespace kdv {
namespace {

// A one-leaf tree keeps `pts` in input order, so its root record holds the
// aggregates of exactly these points.
std::unique_ptr<KdTree> OneLeafTree(const PointSet& pts) {
  KdTree::Options options;
  options.leaf_size = pts.size();
  return std::make_unique<KdTree>(pts, options);
}

struct Cloud {
  PointSet points;
  std::unique_ptr<KdTree> tree;  // owns the record `stats` views
  NodeStats stats;
};

Cloud RandomCloud(Rng* rng, int n, double spread) {
  Cloud cloud;
  double cx = rng->Uniform(-1.0, 1.0);
  double cy = rng->Uniform(-1.0, 1.0);
  for (int i = 0; i < n; ++i) {
    cloud.points.push_back(Point{cx + rng->Uniform(-spread, spread),
                                 cy + rng->Uniform(-spread, spread)});
  }
  cloud.tree = OneLeafTree(cloud.points);
  cloud.stats = cloud.tree->node(cloud.tree->root()).stats;
  return cloud;
}

double ExactAggregate(const KernelParams& params, const PointSet& pts,
                      const Point& q) {
  double sum = 0.0;
  for (const Point& p : pts) {
    sum += params.EvalSquaredDistance(SquaredDistance(q, p));
  }
  return params.weight * sum;
}

// Tolerance proportional to the aggregate magnitude.
double Tol(double value) { return 1e-9 * std::max(1.0, std::abs(value)); }

// Parameterized over (kernel, method) pairs the framework supports.
struct Combo {
  KernelType kernel;
  Method method;
};

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(KernelTypeName(info.param.kernel)) + "_" +
         MethodName(info.param.method);
}

class BoundCorrectnessTest : public ::testing::TestWithParam<Combo> {};

TEST_P(BoundCorrectnessTest, BoundsBracketExactAggregate) {
  const Combo combo = GetParam();
  Rng rng(static_cast<uint64_t>(combo.kernel) * 37 +
          static_cast<uint64_t>(combo.method) + 5);

  for (int trial = 0; trial < 300; ++trial) {
    Cloud cloud = RandomCloud(&rng, 2 + static_cast<int>(rng.UniformInt(40)),
                              rng.Uniform(0.01, 0.8));
    KernelParams params;
    params.type = combo.kernel;
    params.gamma = rng.Uniform(0.2, 8.0);
    params.weight = rng.Uniform(0.1, 2.0);

    std::unique_ptr<NodeBounds> bounds = MakeNodeBounds(combo.method, params);
    ASSERT_NE(bounds, nullptr);

    Point q{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    BoundPair b = bounds->Evaluate(cloud.stats, q);
    double exact = ExactAggregate(params, cloud.points, q);

    EXPECT_LE(b.lower, exact + Tol(exact))
        << bounds->name() << "/" << KernelTypeName(combo.kernel)
        << " trial " << trial;
    EXPECT_GE(b.upper, exact - Tol(exact))
        << bounds->name() << "/" << KernelTypeName(combo.kernel)
        << " trial " << trial;
    EXPECT_GE(b.lower, -Tol(exact));
    EXPECT_LE(b.lower, b.upper + Tol(exact));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedCombos, BoundCorrectnessTest,
    ::testing::Values(
        Combo{KernelType::kGaussian, Method::kAkde},
        Combo{KernelType::kGaussian, Method::kKarl},
        Combo{KernelType::kGaussian, Method::kQuad},
        Combo{KernelType::kTriangular, Method::kAkde},
        Combo{KernelType::kTriangular, Method::kQuad},
        Combo{KernelType::kCosine, Method::kAkde},
        Combo{KernelType::kCosine, Method::kQuad},
        Combo{KernelType::kExponential, Method::kAkde},
        Combo{KernelType::kExponential, Method::kQuad},
        Combo{KernelType::kEpanechnikov, Method::kAkde},
        Combo{KernelType::kEpanechnikov, Method::kQuad},
        Combo{KernelType::kQuartic, Method::kAkde},
        Combo{KernelType::kQuartic, Method::kQuad},
        Combo{KernelType::kUniform, Method::kAkde},
        Combo{KernelType::kUniform, Method::kQuad}),
    ComboName);

// ---------------------------------------------------------------------------
// Tightness ordering (the paper's central claim). Clamping is disabled so
// the raw analytic bounds are compared.
// ---------------------------------------------------------------------------

TEST(BoundTightnessTest, GaussianQuadInsideKarlInsideTrivial) {
  Rng rng(42);
  BoundsOptions raw;
  raw.clamp_with_trivial = false;

  for (int trial = 0; trial < 300; ++trial) {
    Cloud cloud = RandomCloud(&rng, 2 + static_cast<int>(rng.UniformInt(40)),
                              rng.Uniform(0.01, 0.8));
    KernelParams params;
    params.type = KernelType::kGaussian;
    params.gamma = rng.Uniform(0.2, 8.0);
    params.weight = 1.0;

    MinMaxDistBounds akde(params, raw);
    KarlLinearBounds karl(params, raw);
    QuadGaussianBounds quad(params, raw);

    Point q{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    BoundPair ba = akde.Evaluate(cloud.stats, q);
    BoundPair bk = karl.Evaluate(cloud.stats, q);
    BoundPair bq = quad.Evaluate(cloud.stats, q);

    const double tol = Tol(ba.upper);
    // Upper: F <= QUAD <= KARL (Theorem 1). (KARL vs trivial can go either
    // way pointwise on aggregates, so only the paper-proved chain is
    // asserted.)
    EXPECT_LE(bq.upper, bk.upper + tol) << "trial " << trial;
    // Lower: trivial-free chain QUAD >= KARL (§4.3).
    EXPECT_GE(bq.lower, bk.lower - tol) << "trial " << trial;
    // Gap ordering: QUAD's interval is no wider than KARL's.
    EXPECT_LE(bq.upper - bq.lower, bk.upper - bk.lower + tol);
  }
}

TEST(BoundTightnessTest, DistanceKernelsQuadNoWorseThanTrivialUpper) {
  Rng rng(43);
  BoundsOptions raw;
  raw.clamp_with_trivial = false;

  for (KernelType kernel : {KernelType::kTriangular, KernelType::kCosine,
                            KernelType::kExponential}) {
    for (int trial = 0; trial < 200; ++trial) {
      Cloud cloud = RandomCloud(&rng, 2 + static_cast<int>(rng.UniformInt(40)),
                                rng.Uniform(0.01, 0.8));
      KernelParams params;
      params.type = kernel;
      params.gamma = rng.Uniform(0.2, 4.0);
      params.weight = 1.0;

      MinMaxDistBounds akde(params, raw);
      QuadDistanceKernelBounds quad(params, raw);

      Point q{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
      BoundPair ba = akde.Evaluate(cloud.stats, q);
      BoundPair bq = quad.Evaluate(cloud.stats, q);

      const double tol = Tol(ba.upper);
      EXPECT_LE(bq.upper, ba.upper + tol)
          << KernelTypeName(kernel) << " trial " << trial;
      // Lemma 6 (triangular) and the analogous remarks: QUAD lower bound is
      // at least the trivial one, after the >= 0 floor both apply.
      EXPECT_GE(std::max(bq.lower, 0.0), std::max(ba.lower, 0.0) - tol)
          << KernelTypeName(kernel) << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate geometry
// ---------------------------------------------------------------------------

TEST(BoundEdgeCaseTest, SinglePointNodeBoundsAreTight) {
  for (KernelType kernel : {KernelType::kGaussian, KernelType::kTriangular,
                            KernelType::kCosine, KernelType::kExponential}) {
    KernelParams params;
    params.type = kernel;
    params.gamma = 1.5;
    params.weight = 0.5;
    PointSet pts{Point{0.25, -0.5}};
    auto tree = OneLeafTree(pts);
    NodeStats stats = tree->node(tree->root()).stats;
    std::unique_ptr<NodeBounds> bounds = MakeNodeBounds(Method::kQuad, params);
    Point q{1.0, 1.0};
    BoundPair b = bounds->Evaluate(stats, q);
    double exact = ExactAggregate(params, pts, q);
    // A single point has a zero-extent MBR: x_min == x_max, bounds exact.
    EXPECT_NEAR(b.lower, exact, 1e-10) << KernelTypeName(kernel);
    EXPECT_NEAR(b.upper, exact, 1e-10) << KernelTypeName(kernel);
  }
}

TEST(BoundEdgeCaseTest, QueryInsideNodeMbr) {
  Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    Cloud cloud = RandomCloud(&rng, 30, 0.5);
    KernelParams params;
    params.type = KernelType::kGaussian;
    params.gamma = 2.0;
    params.weight = 1.0;
    QuadGaussianBounds quad(params, BoundsOptions{});
    // Query at the centroid: x_min = 0.
    Point q = cloud.stats.mbr().Center();
    BoundPair b = quad.Evaluate(cloud.stats, q);
    double exact = ExactAggregate(params, cloud.points, q);
    EXPECT_LE(b.lower, exact + Tol(exact));
    EXPECT_GE(b.upper, exact - Tol(exact));
  }
}

TEST(BoundEdgeCaseTest, FarAwayQueryFiniteSupportGivesExactZero) {
  PointSet pts{Point{0.0, 0.0}, Point{0.1, 0.1}};
  auto tree = OneLeafTree(pts);
  NodeStats stats = tree->node(tree->root()).stats;
  for (KernelType kernel : {KernelType::kTriangular, KernelType::kCosine,
                            KernelType::kUniform, KernelType::kEpanechnikov,
                            KernelType::kQuartic}) {
    KernelParams params;
    params.type = kernel;
    params.gamma = 1.0;
    params.weight = 1.0;
    std::unique_ptr<NodeBounds> bounds = MakeNodeBounds(Method::kQuad, params);
    BoundPair b = bounds->Evaluate(stats, Point{100.0, 100.0});
    EXPECT_DOUBLE_EQ(b.lower, 0.0) << KernelTypeName(kernel);
    EXPECT_DOUBLE_EQ(b.upper, 0.0) << KernelTypeName(kernel);
  }
}

// ---------------------------------------------------------------------------
// Factory behavior (paper Table 6)
// ---------------------------------------------------------------------------

TEST(BoundFactoryTest, KarlRejectsNonGaussian) {
  KernelParams params;
  params.type = KernelType::kTriangular;
  EXPECT_EQ(MakeNodeBounds(Method::kKarl, params), nullptr);
}

TEST(BoundFactoryTest, ExactAndZorderHaveNoBoundFunction) {
  KernelParams params;
  EXPECT_EQ(MakeNodeBounds(Method::kExact, params), nullptr);
  EXPECT_EQ(MakeNodeBounds(Method::kZorder, params), nullptr);
}

TEST(BoundFactoryTest, TkdcSharesMinMaxBounds) {
  KernelParams params;
  params.type = KernelType::kGaussian;
  auto b = MakeNodeBounds(Method::kTkdc, params);
  ASSERT_NE(b, nullptr);
  EXPECT_STREQ(b->name(), "aKDE");
}

TEST(BoundFactoryTest, QuadCoversAllKernels) {
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular, KernelType::kCosine,
        KernelType::kExponential, KernelType::kEpanechnikov,
        KernelType::kQuartic, KernelType::kUniform}) {
    KernelParams params;
    params.type = kernel;
    EXPECT_NE(MakeNodeBounds(Method::kQuad, params), nullptr)
        << KernelTypeName(kernel);
  }
}

TEST(BoundFactoryTest, MethodNamesAreStable) {
  EXPECT_STREQ(MethodName(Method::kExact), "EXACT");
  EXPECT_STREQ(MethodName(Method::kAkde), "aKDE");
  EXPECT_STREQ(MethodName(Method::kTkdc), "tKDC");
  EXPECT_STREQ(MethodName(Method::kKarl), "KARL");
  EXPECT_STREQ(MethodName(Method::kQuad), "QUAD");
  EXPECT_STREQ(MethodName(Method::kZorder), "Z-order");
}

}  // namespace
}  // namespace kdv
