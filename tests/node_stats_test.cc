#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "geom/point.h"
#include "index/kdtree.h"
#include "index/node_stats.h"
#include "util/random.h"

namespace kdv {
namespace {

PointSet RandomPoints(int n, int dim, uint64_t seed, double lo = -2.0,
                      double hi = 2.0) {
  Rng rng(seed);
  PointSet pts;
  for (int i = 0; i < n; ++i) {
    Point p(dim);
    for (int j = 0; j < dim; ++j) p[j] = rng.Uniform(lo, hi);
    pts.push_back(p);
  }
  return pts;
}

// A one-leaf tree keeps `pts` in input order, so its root record holds the
// aggregates of exactly these points, accumulated in this order.
std::unique_ptr<KdTree> OneLeafTree(const PointSet& pts) {
  KdTree::Options options;
  options.leaf_size = pts.size();
  return std::make_unique<KdTree>(pts, options);
}

double BruteSumSq(const PointSet& pts, const Point& q) {
  double s = 0.0;
  for (const Point& p : pts) s += SquaredDistance(q, p);
  return s;
}

double BruteSumQuartic(const PointSet& pts, const Point& q) {
  double s = 0.0;
  for (const Point& p : pts) {
    double d = SquaredDistance(q, p);
    s += d * d;
  }
  return s;
}

TEST(NodeStatsTest, BasicAggregates) {
  PointSet pts{Point{1.0, 0.0}, Point{0.0, 2.0}, Point{3.0, 4.0}};
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.dim(), 2);
  EXPECT_DOUBLE_EQ(s.sum()[0], 4.0);
  EXPECT_DOUBLE_EQ(s.sum()[1], 6.0);
  EXPECT_DOUBLE_EQ(s.sum_sq_norm(), 1.0 + 4.0 + 25.0);
  EXPECT_DOUBLE_EQ(s.sum_quartic_norm(), 1.0 + 16.0 + 625.0);
  // v_P = sum ||p||^2 p.
  EXPECT_DOUBLE_EQ(s.sum_sq_norm_p()[0], 1.0 * 1.0 + 4.0 * 0.0 + 25.0 * 3.0);
  EXPECT_DOUBLE_EQ(s.sum_sq_norm_p()[1], 1.0 * 0.0 + 4.0 * 2.0 + 25.0 * 4.0);
  // C = sum p p^T.
  EXPECT_DOUBLE_EQ(s.outer_product_sum(0, 0), 1.0 + 0.0 + 9.0);    // xx
  EXPECT_DOUBLE_EQ(s.outer_product_sum(0, 1), 0.0 + 0.0 + 12.0);   // xy
  EXPECT_DOUBLE_EQ(s.outer_product_sum(1, 1), 0.0 + 4.0 + 16.0);   // yy
  EXPECT_TRUE(s.mbr().Contains(Point{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(s.mbr().hi(0), 3.0);
}

// Lemma 1 identity: S1 via aggregates equals brute force.
TEST(NodeStatsTest, SumSquaredDistancesMatchesBruteForce2D) {
  PointSet pts = RandomPoints(100, 2, 1);
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    Point q{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_NEAR(s.SumSquaredDistances(q), BruteSumSq(pts, q), 1e-8);
  }
}

// Lemma 3 identity: S2 via aggregates equals brute force.
TEST(NodeStatsTest, SumQuarticDistancesMatchesBruteForce2D) {
  PointSet pts = RandomPoints(100, 2, 3);
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Point q{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_NEAR(s.SumQuarticDistances(q), BruteSumQuartic(pts, q), 1e-6);
  }
}

// Parameterized sweep over dimensionality: the identities hold for every d
// used by the dimensionality experiment (paper §7.7).
class NodeStatsDimTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeStatsDimTest, AggregateIdentitiesHold) {
  const int d = GetParam();
  PointSet pts = RandomPoints(60, d, 10 + d);
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  Rng rng(100 + d);
  for (int i = 0; i < 20; ++i) {
    Point q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.Uniform(-3, 3);
    double brute_s1 = BruteSumSq(pts, q);
    double brute_s2 = BruteSumQuartic(pts, q);
    EXPECT_NEAR(s.SumSquaredDistances(q), brute_s1,
                1e-9 * std::max(1.0, brute_s1));
    EXPECT_NEAR(s.SumQuarticDistances(q), brute_s2,
                1e-9 * std::max(1.0, brute_s2));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, NodeStatsDimTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10, 16));

TEST(NodeStatsTest, SinglePoint) {
  PointSet pts{Point{1.0, -1.0}};
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  Point q{4.0, 3.0};
  double d2 = SquaredDistance(q, pts[0]);
  EXPECT_NEAR(s.SumSquaredDistances(q), d2, 1e-10);
  EXPECT_NEAR(s.SumQuarticDistances(q), d2 * d2, 1e-8);
}

TEST(NodeStatsTest, QueryAtCentroidNonNegative) {
  // Cancellation stress: all points identical, query identical.
  PointSet pts(50, Point{0.3, 0.7});
  auto tree = OneLeafTree(pts);
  NodeStats s = tree->node(tree->root()).stats;
  EXPECT_GE(s.SumSquaredDistances(Point{0.3, 0.7}), 0.0);
  EXPECT_GE(s.SumQuarticDistances(Point{0.3, 0.7}), 0.0);
  EXPECT_NEAR(s.SumSquaredDistances(Point{0.3, 0.7}), 0.0, 1e-12);
}

}  // namespace
}  // namespace kdv
