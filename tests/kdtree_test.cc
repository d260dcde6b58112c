#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/kdtree.h"
#include "util/random.h"

namespace kdv {
namespace {

PointSet RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  return pts;
}

TEST(KdTreeTest, RootCoversAllPoints) {
  PointSet pts = RandomPoints(500, 1);
  KdTree tree(pts);
  const KdTree::Node& root = tree.node(tree.root());
  EXPECT_EQ(root.count(), 500u);
  EXPECT_EQ(root.stats.count(), 500u);
  for (const Point& p : pts) EXPECT_TRUE(root.stats.mbr().Contains(p));
}

TEST(KdTreeTest, TreeIsAPermutationOfInput) {
  PointSet pts = RandomPoints(300, 2);
  KdTree tree(pts);
  auto key = [](const Point& p) { return std::make_pair(p[0], p[1]); };
  std::vector<std::pair<double, double>> a, b;
  for (const Point& p : pts) a.push_back(key(p));
  for (const Point& p : tree.points()) b.push_back(key(p));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(KdTreeTest, LeavesRespectLeafSize) {
  PointSet pts = RandomPoints(1000, 3);
  KdTree::Options options;
  options.leaf_size = 16;
  KdTree tree(std::move(pts), options);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (n.IsLeaf()) {
      EXPECT_LE(n.count(), 16u);
      EXPECT_GE(n.count(), 1u);
    }
  }
}

TEST(KdTreeTest, ChildrenPartitionParent) {
  PointSet pts = RandomPoints(1000, 4);
  KdTree tree(std::move(pts));
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (n.IsLeaf()) continue;
    const KdTree::Node& l = tree.node(n.left);
    const KdTree::Node& r = tree.node(n.right);
    EXPECT_EQ(l.begin, n.begin);
    EXPECT_EQ(l.end, r.begin);
    EXPECT_EQ(r.end, n.end);
    EXPECT_EQ(l.count() + r.count(), n.count());
    EXPECT_EQ(l.stats.count() + r.stats.count(), n.stats.count());
  }
}

TEST(KdTreeTest, NodeStatsConsistentWithOwnedSlice) {
  PointSet pts = RandomPoints(400, 5);
  KdTree tree(std::move(pts));
  Rng rng(6);
  Point q{rng.NextDouble(), rng.NextDouble()};
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    double brute = 0.0;
    for (uint32_t j = n.begin; j < n.end; ++j) {
      brute += SquaredDistance(q, tree.points()[j]);
    }
    EXPECT_NEAR(n.stats.SumSquaredDistances(q), brute,
                1e-9 * std::max(1.0, brute));
  }
}

TEST(KdTreeTest, DepthIsLogarithmic) {
  PointSet pts = RandomPoints(4096, 7);
  KdTree::Options options;
  options.leaf_size = 1;
  KdTree tree(std::move(pts), options);
  // Median splits: depth == ceil(log2(4096)) + 1 = 13 for leaf_size 1.
  EXPECT_LE(tree.Depth(), 14);
  EXPECT_GE(tree.Depth(), 12);
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  PointSet pts(100, Point{0.5, 0.5});
  KdTree::Options options;
  options.leaf_size = 4;
  KdTree tree(std::move(pts), options);
  const KdTree::Node& root = tree.node(tree.root());
  EXPECT_EQ(root.count(), 100u);
  // Every leaf non-empty, all splits valid.
  std::function<size_t(int32_t)> count_leaf_points =
      [&](int32_t id) -> size_t {
    const KdTree::Node& n = tree.node(id);
    if (n.IsLeaf()) {
      EXPECT_GE(n.count(), 1u);
      return n.count();
    }
    return count_leaf_points(n.left) + count_leaf_points(n.right);
  };
  EXPECT_EQ(count_leaf_points(tree.root()), 100u);
}

TEST(KdTreeTest, SinglePointTree) {
  PointSet pts{Point{1.0, 2.0}};
  KdTree tree(std::move(pts));
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).IsLeaf());
  EXPECT_EQ(tree.Depth(), 1);
}

TEST(KdTreeTest, ChildMbrsShrink) {
  PointSet pts = GenerateMixture(CrimeSpec(0.01));
  KdTree tree(std::move(pts));
  const KdTree::Node& root = tree.node(tree.root());
  ASSERT_FALSE(root.IsLeaf());
  const RectView root_mbr = root.stats.mbr();
  const RectView l = tree.node(root.left).stats.mbr();
  const RectView r = tree.node(root.right).stats.mbr();
  for (int d = 0; d < 2; ++d) {
    EXPECT_GE(l.lo(d), root_mbr.lo(d));
    EXPECT_LE(l.hi(d), root_mbr.hi(d));
    EXPECT_GE(r.lo(d), root_mbr.lo(d));
    EXPECT_LE(r.hi(d), root_mbr.hi(d));
  }
  // The split dimension should actually divide the extent.
  int split = root_mbr.WidestDimension();
  EXPECT_LE(l.Length(split), root_mbr.Length(split));
  EXPECT_LE(r.Length(split), root_mbr.Length(split));
}

// Node records: every aggregate equals (bitwise, EXPECT_EQ) a brute-force
// accumulation over the node's point slice in tree order — including the
// lower half of C, which the record does not store but reads back from the
// upper triangle.
class NodeRecordTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeRecordTest, AggregatesEqualBruteForceOverSlice) {
  const int d = GetParam();
  Rng rng(40 + d);
  PointSet pts;
  for (int i = 0; i < 700; ++i) {
    Point p(d);
    for (int k = 0; k < d; ++k) p[k] = rng.Uniform(-3.0, 5.0);
    pts.push_back(p);
  }
  KdTree::Options options;
  options.leaf_size = 16;
  KdTree tree(std::move(pts), options);
  ASSERT_GT(tree.num_nodes(), 1u);

  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const KdTree::Node node = tree.node(static_cast<int32_t>(id));
    const NodeStats& s = node.stats;
    ASSERT_EQ(s.dim(), d);
    Rect mbr(d);
    std::vector<double> a(d, 0.0), v(d, 0.0), c(d * d, 0.0);
    double b = 0.0, h = 0.0;
    for (uint32_t i = node.begin; i < node.end; ++i) {
      const Point& p = tree.points()[i];
      mbr.Expand(p);
      const double sq = p.SquaredNorm();
      b += sq;
      h += sq * sq;
      for (int x = 0; x < d; ++x) {
        a[x] += p[x];
        v[x] += sq * p[x];
        for (int y = 0; y < d; ++y) c[x * d + y] += p[x] * p[y];
      }
    }
    EXPECT_EQ(s.count(), node.count());
    EXPECT_EQ(s.n(), static_cast<double>(node.count()));
    EXPECT_EQ(s.sum_sq_norm(), b);
    EXPECT_EQ(s.sum_quartic_norm(), h);
    for (int x = 0; x < d; ++x) {
      EXPECT_EQ(s.mbr().lo(x), mbr.lo(x));
      EXPECT_EQ(s.mbr().hi(x), mbr.hi(x));
      EXPECT_EQ(s.sum()[x], a[x]);
      EXPECT_EQ(s.sum_sq_norm_p()[x], v[x]);
      for (int y = 0; y < d; ++y) {
        EXPECT_EQ(s.outer_product_sum(x, y), c[x * d + y])
            << "node " << id << " C[" << x << "][" << y << "]";
      }
    }
  }
}

// One 64-byte-aligned array of fixed-stride records: each record starts on
// a cache line, the stride is whole lines, and a 2-d node takes two.
TEST_P(NodeRecordTest, RecordsAreAlignedWithWholeLineStride) {
  const int d = GetParam();
  Rng rng(50 + d);
  PointSet pts;
  for (int i = 0; i < 300; ++i) {
    Point p(d);
    for (int k = 0; k < d; ++k) p[k] = rng.NextDouble();
    pts.push_back(p);
  }
  KdTree tree(std::move(pts));
  EXPECT_EQ(tree.record_bytes() % KdTree::kRecordAlign, 0u);
  EXPECT_GE(tree.record_bytes(),
            sizeof(KdTree::Topology) + NodeStats::BlockSize(d) * 8);
  if (d == 2) {
    EXPECT_EQ(tree.record_bytes(), 128u);
  }
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const double* rec = tree.record(static_cast<int32_t>(id));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(rec) % KdTree::kRecordAlign, 0u);
    if (id > 0) {
      EXPECT_EQ(reinterpret_cast<const char*>(rec) -
                    reinterpret_cast<const char*>(
                        tree.record(static_cast<int32_t>(id - 1))),
                static_cast<ptrdiff_t>(tree.record_bytes()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, NodeRecordTest,
                         ::testing::Values(1, 2, 3, 5, 16));

}  // namespace
}  // namespace kdv
