// Fault-injection harness for the persisted-index format and the ingestion
// validator. The contract under test: no matter how a saved index file is
// truncated or bit-flipped, LoadKdTree returns a descriptive Status error —
// never a crash, never a silently-wrong tree — and degenerate point sets are
// either rejected with a Status or ingested with the degeneracy reported.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/validate.h"
#include "index/serialization.h"
#include "util/random.h"

namespace kdv {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds a small tree and returns its serialized v2 image plus the section
// layout (offsets mirror the format doc in index/serialization.h).
struct SavedIndex {
  std::string bytes;
  size_t num_points = 0;
  size_t num_nodes = 0;
  int dim = 0;

  // Section boundaries, in file order.
  size_t header_fields_begin = 8;   // after magic + version
  size_t header_crc_begin = 36;     // after dim/num_points/num_nodes/payload
  size_t points_begin = 40;
  size_t points_crc_begin = 0;
  size_t indices_begin = 0;
  size_t indices_crc_begin = 0;
  size_t nodes_begin = 0;
  size_t nodes_crc_begin = 0;
};

SavedIndex BuildSavedIndex() {
  MixtureSpec spec;
  spec.n = 400;
  PointSet pts = GenerateMixture(spec);
  KdTree tree{std::move(pts)};

  std::string path = TempPath("kdv_fault_base.kdv");
  Status saved = SaveKdTree(tree, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();

  SavedIndex idx;
  idx.bytes = ReadFile(path);
  std::remove(path.c_str());
  idx.num_points = tree.num_points();
  idx.num_nodes = tree.num_nodes();
  idx.dim = tree.dim();
  idx.points_crc_begin =
      idx.points_begin + idx.num_points * idx.dim * sizeof(double);
  idx.indices_begin = idx.points_crc_begin + 4;
  idx.indices_crc_begin = idx.indices_begin + idx.num_points * 4;
  idx.nodes_begin = idx.indices_crc_begin + 4;
  idx.nodes_crc_begin = idx.nodes_begin + idx.num_nodes * 16;
  EXPECT_EQ(idx.nodes_crc_begin + 4, idx.bytes.size());
  return idx;
}

// Loads a mutated image and requires a clean, descriptive error.
void ExpectLoadFails(const std::string& bytes, const std::string& label) {
  std::string path = TempPath("kdv_fault_mutation.kdv");
  WriteFile(path, bytes);
  StatusOr<std::unique_ptr<KdTree>> result = LoadKdTree(path);
  ASSERT_FALSE(result.ok()) << "mutation not detected: " << label;
  EXPECT_FALSE(result.status().message().empty()) << label;
  EXPECT_NE(result.status().code(), StatusCode::kOk) << label;
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, TruncationAtEverySectionBoundaryIsDetected) {
  SavedIndex idx = BuildSavedIndex();
  std::vector<size_t> boundaries = {
      0,
      2,  // inside magic
      4,  // after magic
      6,  // inside version
      idx.header_fields_begin,
      idx.header_crc_begin,
      idx.points_begin,
      idx.points_begin + 1,
      idx.points_begin + (idx.points_crc_begin - idx.points_begin) / 2,
      idx.points_crc_begin,
      idx.points_crc_begin + 2,
      idx.indices_begin,
      idx.indices_begin + (idx.indices_crc_begin - idx.indices_begin) / 2,
      idx.indices_crc_begin,
      idx.nodes_begin,
      idx.nodes_begin + (idx.nodes_crc_begin - idx.nodes_begin) / 2,
      idx.nodes_crc_begin,
      idx.bytes.size() - 1,
  };
  for (size_t len : boundaries) {
    ASSERT_LT(len, idx.bytes.size());
    ExpectLoadFails(idx.bytes.substr(0, len),
                    "truncation to " + std::to_string(len) + " bytes");
  }
}

TEST(FaultInjectionTest, TrailingGarbageIsDetected) {
  SavedIndex idx = BuildSavedIndex();
  ExpectLoadFails(idx.bytes + std::string(16, '\0'), "16 trailing bytes");
  ExpectLoadFails(idx.bytes + "x", "1 trailing byte");
}

TEST(FaultInjectionTest, EveryByteFlipIsDetected) {
  SavedIndex idx = BuildSavedIndex();
  // All 40 header bytes, plus a stride through each payload section and
  // every byte of each section checksum: well over the 64-mutation floor.
  std::vector<size_t> offsets;
  for (size_t i = 0; i < idx.points_begin; ++i) offsets.push_back(i);
  for (size_t i = idx.points_begin; i < idx.points_crc_begin;
       i += (idx.points_crc_begin - idx.points_begin) / 16 + 1) {
    offsets.push_back(i);
  }
  for (size_t i = idx.points_crc_begin; i < idx.indices_begin; ++i) {
    offsets.push_back(i);
  }
  for (size_t i = idx.indices_begin; i < idx.indices_crc_begin;
       i += (idx.indices_crc_begin - idx.indices_begin) / 16 + 1) {
    offsets.push_back(i);
  }
  for (size_t i = idx.indices_crc_begin; i < idx.nodes_begin; ++i) {
    offsets.push_back(i);
  }
  for (size_t i = idx.nodes_begin; i < idx.nodes_crc_begin;
       i += (idx.nodes_crc_begin - idx.nodes_begin) / 16 + 1) {
    offsets.push_back(i);
  }
  for (size_t i = idx.nodes_crc_begin; i < idx.bytes.size(); ++i) {
    offsets.push_back(i);
  }
  ASSERT_GE(offsets.size(), 64u);

  for (size_t offset : offsets) {
    std::string mutated = idx.bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0xFF);
    ExpectLoadFails(mutated, "byte flip at " + std::to_string(offset));
  }
}

TEST(FaultInjectionTest, HeaderCountMutationsNeverOverAllocate) {
  SavedIndex idx = BuildSavedIndex();
  // Write absurd num_points / num_nodes values directly (offsets 12 and 20).
  // Even ignoring the header CRC these must be rejected before allocation;
  // with it they are caught immediately — either way, a clean error.
  for (size_t offset : {size_t{12}, size_t{20}}) {
    std::string mutated = idx.bytes;
    for (int b = 0; b < 8; ++b) mutated[offset + b] = '\xFF';
    ExpectLoadFails(mutated,
                    "absurd count at offset " + std::to_string(offset));
  }
}

TEST(FaultInjectionTest, V1TruncationIsDetected) {
  MixtureSpec spec;
  spec.n = 300;
  KdTree tree{GenerateMixture(spec)};
  std::string path = TempPath("kdv_fault_v1.kdv");
  ASSERT_TRUE(SaveKdTree(tree, path, /*version=*/1).ok());
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());

  const size_t header_end = 28;  // magic + version + dim + counts
  std::vector<size_t> lengths = {0,  3,  7,  12, header_end - 1, header_end,
                                 header_end + 9, bytes.size() / 2,
                                 bytes.size() - 1};
  for (size_t len : lengths) {
    ExpectLoadFails(bytes.substr(0, len),
                    "v1 truncation to " + std::to_string(len) + " bytes");
  }
  // Sanity: the untruncated v1 image still loads.
  WriteFile(path, bytes);
  EXPECT_TRUE(LoadKdTree(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Degenerate ingestion
// ---------------------------------------------------------------------------

TEST(IngestValidationTest, EmptySetIsRejected) {
  PointSet empty;
  IngestReport report;
  Status status = ValidatePointSet(&empty, &report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IngestValidationTest, NonFiniteRejectedByDefault) {
  PointSet pts{Point{0.0, 0.0}, Point{std::nan(""), 1.0}, Point{2.0, 2.0}};
  IngestReport report;
  Status status = ValidatePointSet(&pts, &report);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST(IngestValidationTest, DropPolicyFiltersAndReports) {
  const double inf = std::numeric_limits<double>::infinity();
  PointSet pts{Point{0.0, 0.0}, Point{std::nan(""), 1.0}, Point{2.0, 2.0},
               Point{1.0, inf}, Point{3.0, 4.0}};
  ValidateOptions options;
  options.policy = ValidateOptions::BadPointPolicy::kDrop;
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, options, &report).ok());
  EXPECT_EQ(pts.size(), 3u);
  EXPECT_EQ(report.input_points, 5u);
  EXPECT_EQ(report.kept_points, 3u);
  EXPECT_EQ(report.dropped_nonfinite, 2u);
  for (const Point& p : pts) {
    EXPECT_TRUE(std::isfinite(p[0]) && std::isfinite(p[1]));
  }
}

TEST(IngestValidationTest, AllBadUnderDropIsStillAnError) {
  PointSet pts{Point{std::nan(""), 0.0}, Point{0.0, std::nan("")}};
  ValidateOptions options;
  options.policy = ValidateOptions::BadPointPolicy::kDrop;
  EXPECT_FALSE(ValidatePointSet(&pts, options, nullptr).ok());
}

TEST(IngestValidationTest, DimensionMismatchHandledPerPolicy) {
  PointSet pts{Point{0.0, 0.0}, Point{1.0, 2.0, 3.0}};
  IngestReport report;
  EXPECT_FALSE(ValidatePointSet(&pts, &report).ok());

  PointSet pts2{Point{0.0, 0.0}, Point{1.0, 2.0, 3.0}, Point{4.0, 5.0}};
  ValidateOptions options;
  options.policy = ValidateOptions::BadPointPolicy::kDrop;
  ASSERT_TRUE(ValidatePointSet(&pts2, options, &report).ok());
  EXPECT_EQ(pts2.size(), 2u);
  EXPECT_EQ(report.dropped_dim_mismatch, 1u);
}

TEST(IngestValidationTest, SinglePointIsDegenerateButUsable) {
  PointSet pts{Point{1.0, 2.0}};
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_TRUE(report.degenerate);
  EXPECT_TRUE(report.all_identical);
}

TEST(IngestValidationTest, AllIdenticalPointsFlagged) {
  PointSet pts(50, Point{3.0, 4.0});
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_TRUE(report.all_identical);
  EXPECT_TRUE(report.degenerate);
  EXPECT_EQ(report.duplicate_points, 49u);
}

TEST(IngestValidationTest, ZeroVarianceDimensionFlagged) {
  PointSet pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Point{static_cast<double>(i), 7.5});
  }
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_FALSE(report.all_identical);
  EXPECT_TRUE(report.degenerate);
  ASSERT_EQ(report.zero_variance_dims.size(), 1u);
  EXPECT_EQ(report.zero_variance_dims[0], 1);
}

TEST(IngestValidationTest, DuplicateFloodRejectedWhenConfigured) {
  PointSet pts(100, Point{1.0, 1.0});
  pts.push_back(Point{2.0, 2.0});
  ValidateOptions options;
  options.max_duplicate_fraction = 0.5;
  Status status = ValidatePointSet(&pts, options, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

// The census sorts on the first coordinate and compares whole points only
// within runs of equal first coordinate: points that share it and differ
// later must not count, equal ones must, in any dimension.
TEST(IngestValidationTest, DuplicateCensusLooksPastTheFirstCoordinate) {
  PointSet pts{Point{1.0, 1.0}, Point{1.0, 2.0}, Point{1.0, 3.0},
               Point{1.0, 2.0}, Point{1.0, 1.0}, Point{2.0, 1.0}};
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_EQ(report.duplicate_points, 2u);

  PointSet distinct;
  for (int i = 0; i < 20; ++i) {
    distinct.push_back(Point{4.0, static_cast<double>(i % 5), i / 5.0});
  }
  ASSERT_TRUE(ValidatePointSet(&distinct, &report).ok());
  EXPECT_EQ(report.duplicate_points, 0u);

  PointSet three_d{Point{5.0, 0.0, 1.0}, Point{5.0, 0.0, 2.0},
                   Point{5.0, 1.0, 1.0}, Point{5.0, 0.0, 1.0}};
  ASSERT_TRUE(ValidatePointSet(&three_d, &report).ok());
  EXPECT_EQ(report.duplicate_points, 1u);
}

// +0.0 and -0.0 compare equal, as Point::operator== has them, in the first
// coordinate and after it.
TEST(IngestValidationTest, DuplicateCensusCountsSignedZerosAsEqual) {
  PointSet pts{Point{0.0, 1.0}, Point{-0.0, 1.0}, Point{0.0, -0.0},
               Point{-0.0, 0.0}, Point{-0.0, 2.0}};
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_EQ(report.duplicate_points, 2u);
}

// Against the whole-point sort it replaced, on data with many repeats and
// many shared first coordinates.
TEST(IngestValidationTest, DuplicateCensusMatchesAWholePointSort) {
  Rng rng(17);
  PointSet pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back(Point{static_cast<double>(rng.UniformInt(30)),
                        static_cast<double>(rng.UniformInt(12)) - 6.0,
                        rng.UniformInt(4) == 0 ? -0.0 : 0.0});
  }
  PointSet sorted = pts;
  std::sort(sorted.begin(), sorted.end(), [](const Point& a, const Point& b) {
    for (int j = 0; j < a.dim(); ++j) {
      if (a[j] != b[j]) return a[j] < b[j];
    }
    return false;
  });
  size_t want = 0;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) ++want;
  }
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_GT(want, 0u);
  EXPECT_EQ(report.duplicate_points, want);
}

TEST(IngestValidationTest, CleanDataPassesUntouched) {
  PointSet pts = GenerateMixture(CrimeSpec(0.001));
  const size_t n = pts.size();
  IngestReport report;
  ASSERT_TRUE(ValidatePointSet(&pts, &report).ok());
  EXPECT_EQ(pts.size(), n);
  EXPECT_FALSE(report.degenerate);
  EXPECT_EQ(report.dropped_nonfinite, 0u);
  EXPECT_FALSE(report.Summary().empty());
}

}  // namespace
}  // namespace kdv
