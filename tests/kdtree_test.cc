#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/kdtree.h"
#include "index/serialization.h"
#include "util/crc32.h"
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
  for (size_t i = 0; i < tree.num_points(); ++i) {
    b.push_back(key(tree.point(i)));
  }
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
      brute += SquaredDistance(q, tree.point(j));
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
      const Point p = tree.point(i);
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

// Golden index suite: fixed-seed trees whose tree-order coordinates, build
// permutation and node records (padding included) are pinned to CRC32s. The
// constants were recorded from the reference implementation (an index-array
// split over Points); the kd-tree build may be rewritten for speed or
// memory, but never so that one split, one position or one aggregate bit
// moves (the golden frames, the index files on disk and the benchmark's work
// counts all follow from these bytes). A mismatch prints the new
// {columns, permutation, records} tuple.
struct IndexGolden {
  uint32_t columns = 0;
  uint32_t permutation = 0;
  uint32_t records = 0;
};

std::string Describe(const IndexGolden& g) {
  return "{" + std::to_string(g.columns) + "u, " +
         std::to_string(g.permutation) + "u, " + std::to_string(g.records) +
         "u}";
}

IndexGolden Fingerprint(const KdTree& tree) {
  IndexGolden g;
  for (int d = 0; d < tree.dim(); ++d) {
    g.columns = Crc32Update(g.columns, tree.coords(d),
                            tree.num_points() * sizeof(double));
  }
  g.permutation = Crc32(tree.original_indices().data(),
                        tree.num_points() * sizeof(uint32_t));
  g.records = Crc32(tree.record(tree.root()),
                    tree.num_nodes() * tree.record_bytes());
  return g;
}

struct GoldenIndexCase {
  const char* name;
  PointSet (*make_points)();
  size_t leaf_size;
  IndexGolden golden;
};

PointSet MixtureOfDim(int dim, size_t n, uint64_t seed) {
  MixtureSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.seed = seed;
  return GenerateMixture(spec);
}

// Coordinates on a 5 x 3 lattice, each site repeated ~130 times: most
// nth_element calls compare equal keys.
PointSet HeavyDuplicates() {
  Rng rng(91);
  PointSet pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back(Point{0.25 * static_cast<double>(rng.NextUint64() % 5),
                        static_cast<double>(rng.NextUint64() % 3)});
  }
  return pts;
}

const GoldenIndexCase kGoldenIndexCases[] = {
    {"crime_0_01", [] { return GenerateMixture(CrimeSpec(0.01)); }, 32,
     {3872226911u, 696987874u, 195999798u}},
    {"mixture_3d", [] { return MixtureOfDim(3, 5000, 17); }, 32,
     {3876175577u, 2847824451u, 891010609u}},
    {"mixture_10d", [] { return MixtureOfDim(10, 3000, 23); }, 32,
     {672028752u, 476860756u, 2275272917u}},
    {"leaf_size_1", [] { return RandomPoints(3000, 29); }, 1,
     {2590159473u, 3649109007u, 29950498u}},
    {"heavy_duplicates", HeavyDuplicates, 4,
     {4242242366u, 1681945121u, 3365833580u}},
};

void PrintTo(const GoldenIndexCase& c, std::ostream* os) { *os << c.name; }

class GoldenIndexTest : public ::testing::TestWithParam<GoldenIndexCase> {};

TEST_P(GoldenIndexTest, BuildMatchesRecordedBytes) {
  const GoldenIndexCase& c = GetParam();
  KdTree::Options options;
  options.leaf_size = c.leaf_size;
  KdTree tree(c.make_points(), options);
  const IndexGolden got = Fingerprint(tree);
  EXPECT_EQ(got.columns, c.golden.columns) << c.name << ": " << Describe(got);
  EXPECT_EQ(got.permutation, c.golden.permutation)
      << c.name << ": " << Describe(got);
  EXPECT_EQ(got.records, c.golden.records) << c.name << ": " << Describe(got);
}

TEST_P(GoldenIndexTest, ReloadedRecordsEqualBuiltRecordsBitwise) {
  const GoldenIndexCase& c = GetParam();
  KdTree::Options options;
  options.leaf_size = c.leaf_size;
  KdTree tree(c.make_points(), options);
  for (uint32_t version : {1u, 2u}) {
    const std::string path = ::testing::TempDir() + "/golden_index_" +
                             c.name + "_v" + std::to_string(version) + ".kdv";
    ASSERT_TRUE(SaveKdTree(tree, path, version).ok());
    StatusOr<std::unique_ptr<KdTree>> loaded = LoadKdTree(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const KdTree& back = **loaded;
    ASSERT_EQ(back.num_nodes(), tree.num_nodes());
    ASSERT_EQ(back.record_bytes(), tree.record_bytes());
    EXPECT_EQ(std::memcmp(back.record(back.root()), tree.record(tree.root()),
                          tree.num_nodes() * tree.record_bytes()),
              0)
        << c.name << " v" << version;
    const IndexGolden a = Fingerprint(tree);
    const IndexGolden b = Fingerprint(back);
    EXPECT_EQ(b.columns, a.columns) << c.name << " v" << version;
    EXPECT_EQ(b.permutation, a.permutation) << c.name << " v" << version;
    EXPECT_EQ(b.records, a.records) << c.name << " v" << version;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Trees, GoldenIndexTest, ::testing::ValuesIn(kGoldenIndexCases),
    [](const ::testing::TestParamInfo<GoldenIndexCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace kdv
