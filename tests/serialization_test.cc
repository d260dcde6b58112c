#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/serialization.h"
#include "core/evaluator.h"
#include "bounds/node_bounds.h"
#include "util/random.h"

namespace kdv {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Every aggregate of a node record, compared bitwise: a reloaded tree must
// recompute exactly what the saved one held (the on-disk format carries no
// aggregates, only the points and topology they are rebuilt from).
void ExpectStatsBitEqual(const NodeStats& a, const NodeStats& b, size_t id) {
  const int d = a.dim();
  ASSERT_EQ(b.dim(), d);
  EXPECT_EQ(Bits(a.n()), Bits(b.n())) << "node " << id;
  EXPECT_EQ(Bits(a.sum_sq_norm()), Bits(b.sum_sq_norm())) << "node " << id;
  EXPECT_EQ(Bits(a.sum_quartic_norm()), Bits(b.sum_quartic_norm()))
      << "node " << id;
  for (int x = 0; x < d; ++x) {
    EXPECT_EQ(Bits(a.mbr().lo(x)), Bits(b.mbr().lo(x))) << "node " << id;
    EXPECT_EQ(Bits(a.mbr().hi(x)), Bits(b.mbr().hi(x))) << "node " << id;
    EXPECT_EQ(Bits(a.sum()[x]), Bits(b.sum()[x])) << "node " << id;
    EXPECT_EQ(Bits(a.sum_sq_norm_p()[x]), Bits(b.sum_sq_norm_p()[x]))
        << "node " << id;
    for (int y = 0; y < d; ++y) {
      EXPECT_EQ(Bits(a.outer_product_sum(x, y)),
                Bits(b.outer_product_sum(x, y)))
          << "node " << id << " C[" << x << "][" << y << "]";
    }
  }
}

void ExpectTreesEqual(const KdTree& a, const KdTree& b) {
  ASSERT_EQ(b.num_points(), a.num_points());
  ASSERT_EQ(b.num_nodes(), a.num_nodes());
  EXPECT_EQ(b.dim(), a.dim());
  EXPECT_EQ(b.Depth(), a.Depth());
  for (int d = 0; d < a.dim(); ++d) {
    EXPECT_EQ(std::memcmp(b.coords(d), a.coords(d),
                          a.num_points() * sizeof(double)),
              0)
        << "column " << d;
  }
  EXPECT_EQ(b.original_indices(), a.original_indices());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    const KdTree::Node& na = a.node(static_cast<int32_t>(i));
    const KdTree::Node& nb = b.node(static_cast<int32_t>(i));
    EXPECT_EQ(na.begin, nb.begin);
    EXPECT_EQ(na.end, nb.end);
    EXPECT_EQ(na.left, nb.left);
    EXPECT_EQ(na.right, nb.right);
    ExpectStatsBitEqual(na.stats, nb.stats, i);
  }
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  PointSet pts = GenerateMixture(CrimeSpec(0.002));
  KdTree tree{PointSet(pts)};

  std::string path = TempPath("kdv_tree.bin");
  ASSERT_TRUE(SaveKdTree(tree, path).ok());
  StatusOr<std::unique_ptr<KdTree>> loaded = LoadKdTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesEqual(tree, **loaded);
  std::remove(path.c_str());
}

TEST(SerializationTest, V1RoundTripStillReadable) {
  PointSet pts = GenerateMixture(CrimeSpec(0.002));
  KdTree tree{PointSet(pts)};

  std::string path = TempPath("kdv_tree_v1.bin");
  ASSERT_TRUE(SaveKdTree(tree, path, /*version=*/1).ok());
  StatusOr<std::unique_ptr<KdTree>> loaded = LoadKdTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesEqual(tree, **loaded);

  // The v1 file really is the legacy layout: smaller than v2 by exactly the
  // payload-length + four CRC fields.
  std::string path_v2 = TempPath("kdv_tree_v2.bin");
  ASSERT_TRUE(SaveKdTree(tree, path_v2, /*version=*/2).ok());
  std::ifstream v1(path, std::ios::binary | std::ios::ate);
  std::ifstream v2(path_v2, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<long>(v1.tellg()) + 24, static_cast<long>(v2.tellg()));
  std::remove(path.c_str());
  std::remove(path_v2.c_str());
}

// Both file versions, at d = 2 and at d = 5 (where C has 15 distinct
// entries): every node aggregate survives the round trip bit for bit.
class AggregateRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(AggregateRoundTripTest, EveryAggregateOfEveryNodeIsBitIdentical) {
  const auto [dim, version] = GetParam();
  MixtureSpec spec;
  spec.n = 1200;
  spec.dim = dim;
  spec.seed = 17;
  KdTree tree{GenerateMixture(spec)};

  std::string path = TempPath(("kdv_tree_agg_d" + std::to_string(dim) +
                               "_v" + std::to_string(version) + ".bin")
                                  .c_str());
  ASSERT_TRUE(SaveKdTree(tree, path, version).ok());
  StatusOr<std::unique_ptr<KdTree>> loaded = LoadKdTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesEqual(tree, **loaded);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(DimsAndVersions, AggregateRoundTripTest,
                         ::testing::Combine(::testing::Values(2, 5),
                                            ::testing::Values(1u, 2u)));

TEST(SerializationTest, RejectsUnsupportedSaveVersion) {
  PointSet pts = GenerateMixture(MixtureSpec{});
  KdTree tree{std::move(pts)};
  Status status = SaveKdTree(tree, TempPath("kdv_tree_v9.bin"), 9);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, LoadedTreeAnswersQueriesIdentically) {
  PointSet pts = GenerateMixture(HomeSpec(0.002));
  KernelParams params = MakeScottParams(KernelType::kGaussian, pts);
  KdTree tree{PointSet(pts)};

  std::string path = TempPath("kdv_tree2.bin");
  ASSERT_TRUE(SaveKdTree(tree, path).ok());
  StatusOr<std::unique_ptr<KdTree>> loaded = LoadKdTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto bounds_a = MakeNodeBounds(Method::kQuad, params);
  auto bounds_b = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator original(&tree, params, bounds_a.get());
  KdeEvaluator reloaded(loaded->get(), params, bounds_b.get());

  Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    EvalResult ra = original.EvaluateEps(q, 0.01);
    EvalResult rb = reloaded.EvaluateEps(q, 0.01);
    EXPECT_EQ(ra.estimate, rb.estimate);
    EXPECT_EQ(ra.iterations, rb.iterations);
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsMissingFile) {
  StatusOr<std::unique_ptr<KdTree>> result = LoadKdTree("/nonexistent/t.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, RejectsBadMagicAndTruncation) {
  std::string path = TempPath("kdv_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE this is not a tree";
  }
  StatusOr<std::unique_ptr<KdTree>> bad_magic = LoadKdTree(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad_magic.status().message().find("magic"), std::string::npos);

  // Valid header then truncation.
  PointSet pts = GenerateMixture(MixtureSpec{});
  KdTree tree{std::move(pts)};
  ASSERT_TRUE(SaveKdTree(tree, path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary);
    out.write(content.data(), content.size() / 2);
  }
  StatusOr<std::unique_ptr<KdTree>> truncated = LoadKdTree(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsFutureFormatVersion) {
  PointSet pts = GenerateMixture(MixtureSpec{});
  KdTree tree{std::move(pts)};
  std::string path = TempPath("kdv_future.bin");
  ASSERT_TRUE(SaveKdTree(tree, path).ok());
  {
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(4);  // version field follows the 4-byte magic
    uint32_t version = 99;
    io.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  StatusOr<std::unique_ptr<KdTree>> result = LoadKdTree(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  std::remove(path.c_str());
}

// The tree's columns, as FromSerialized takes them.
std::vector<double> Columns(const KdTree& tree) {
  std::vector<double> columns;
  for (int d = 0; d < tree.dim(); ++d) {
    columns.insert(columns.end(), tree.coords(d),
                   tree.coords(d) + tree.num_points());
  }
  return columns;
}

TEST(SerializationTest, FromSerializedRejectsCorruptStructure) {
  PointSet pts = GenerateMixture(MixtureSpec{});
  KdTree tree{PointSet(pts)};

  // Clone the parts.
  std::vector<KdTree::Topology> nodes;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    nodes.push_back(tree.node(static_cast<int32_t>(i)));
  }

  // (a) Broken permutation.
  {
    std::vector<uint32_t> idx = tree.original_indices();
    idx[0] = idx[1];
    auto result =
        KdTree::FromSerialized(tree.dim(), Columns(tree), idx, nodes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(result.status().message().find("permutation"),
              std::string::npos);
  }
  // (b) Child range that does not partition the parent.
  if (!nodes[0].IsLeaf()) {
    std::vector<KdTree::Topology> bad = nodes;
    bad[bad[0].left].end -= 1;
    auto result = KdTree::FromSerialized(tree.dim(), Columns(tree),
                                         tree.original_indices(), bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
  // (c) Cycle (node pointing at the root).
  if (!nodes[0].IsLeaf()) {
    std::vector<KdTree::Topology> bad = nodes;
    bad[bad[0].left].left = 0;
    bad[bad[0].left].right = 0;
    auto result = KdTree::FromSerialized(tree.dim(), Columns(tree),
                                         tree.original_indices(), bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
  // (d) Root not covering all points.
  {
    std::vector<KdTree::Topology> bad = nodes;
    bad[0].end -= 1;
    auto result = KdTree::FromSerialized(tree.dim(), Columns(tree),
                                         tree.original_indices(), bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
  // (e) Columns that do not hold dim coordinates per point.
  {
    std::vector<double> short_columns = Columns(tree);
    short_columns.pop_back();
    auto result = KdTree::FromSerialized(tree.dim(), short_columns,
                                         tree.original_indices(), nodes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
  // Sanity: unmodified parts load fine.
  EXPECT_TRUE(KdTree::FromSerialized(tree.dim(), Columns(tree),
                                     tree.original_indices(), nodes)
                  .ok());
}

}  // namespace
}  // namespace kdv
