#include <cmath>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/kdtree.h"
#include "core/evaluator.h"
#include "sampling/zorder.h"

namespace kdv {
namespace {

TEST(ZorderSampleSizeTest, ScalesInverseQuadraticallyWithEps) {
  size_t n = 100000000;
  size_t m1 = ZorderSampleSize(0.02, 0.2, n);
  size_t m2 = ZorderSampleSize(0.04, 0.2, n);
  EXPECT_NEAR(static_cast<double>(m1) / static_cast<double>(m2), 4.0, 0.1);
}

TEST(ZorderSampleSizeTest, RelativeToAbsoluteConversionInflatesSample) {
  size_t n = 100000000;
  EXPECT_GT(ZorderSampleSize(0.01, 0.2, n, 3.0),
            8 * ZorderSampleSize(0.01, 0.2, n, 1.0));
}

TEST(ZorderSampleSizeTest, CappedAtDatasetSize) {
  EXPECT_EQ(ZorderSampleSize(0.0001, 0.2, 500), 500u);
}

TEST(ZorderSampleSizeTest, AtLeastOne) {
  EXPECT_GE(ZorderSampleSize(10.0, 0.9, 100), 1u);
}

TEST(ZorderSampleTest, ExactSizeAndMembership) {
  PointSet pts = GenerateMixture(CrimeSpec(0.005));
  PointSet sample = ZorderSample(KdTree(PointSet(pts)), 200);
  ASSERT_EQ(sample.size(), 200u);
  for (size_t i = 0; i < 10; ++i) {
    bool found = false;
    for (const Point& p : pts) {
      if (p == sample[i]) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ZorderSampleTest, FullSampleIsIdentity) {
  KdTree tree(GenerateMixture(MixtureSpec{}));
  PointSet sample = ZorderSample(tree, tree.num_points());
  ASSERT_EQ(sample.size(), tree.num_points());
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_EQ(sample[i], tree.point(i));
  }
}

TEST(ZorderSampleTest, Deterministic) {
  KdTree tree(GenerateMixture(MixtureSpec{}));
  PointSet a = ZorderSample(tree, 100);
  PointSet b = ZorderSample(tree, 100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ZorderSampleTest, PreservesSpatialCoverage) {
  // Two distant blobs: a systematic Z-order sample must hit both.
  MixtureSpec spec;
  spec.n = 10000;
  spec.num_clusters = 2;
  spec.cluster_stddev_min = spec.cluster_stddev_max = 0.02;
  spec.noise_fraction = 0.0;
  spec.seed = 123;
  PointSet pts = GenerateMixture(spec);
  PointSet sample = ZorderSample(KdTree(PointSet(pts)), 50);

  Rect box = BoundingBox(pts);
  int left = 0, right = 0;
  double mid = 0.5 * (box.lo(0) + box.hi(0));
  for (const Point& p : sample) {
    (p[0] < mid ? left : right)++;
  }
  int left_full = 0;
  for (const Point& p : pts) {
    if (p[0] < mid) ++left_full;
  }
  // Both sides populated iff the full data populates both sides.
  if (left_full > 500 && left_full < 9500) {
    EXPECT_GT(left, 0);
    EXPECT_GT(right, 0);
  }
}

TEST(ZorderWeightTest, ScalesByInverseSamplingRate) {
  KernelParams params;
  params.weight = 0.5;
  KernelParams scaled = ScaleWeightForSample(params, 1000, 100);
  EXPECT_DOUBLE_EQ(scaled.weight, 5.0);
  EXPECT_DOUBLE_EQ(scaled.gamma, params.gamma);
}

// Statistical quality: the weighted sample aggregate approximates the full
// aggregate at hotspot queries.
TEST(ZorderQualityTest, SampleEstimatesFullDensity) {
  PointSet pts = GenerateMixture(HomeSpec(0.01));
  KernelParams params = MakeScottParams(KernelType::kGaussian, pts);

  KdTree full_tree{PointSet(pts)};
  PointSet sample = ZorderSample(full_tree, 2000);
  KernelParams sample_params =
      ScaleWeightForSample(params, pts.size(), sample.size());

  KdTree sample_tree(std::move(sample));
  KdeEvaluator full(&full_tree, params, nullptr);
  KdeEvaluator reduced(&sample_tree, sample_params, nullptr);

  // Compare at the densest cluster centers (where relative error is
  // meaningful).
  Rect box = BoundingBox(pts);
  Point center = box.Center();
  double f_full = full.EvaluateExact(center);
  double f_reduced = reduced.EvaluateExact(center);
  ASSERT_GT(f_full, 0.0);
  EXPECT_NEAR(f_reduced / f_full, 1.0, 0.25);
}

}  // namespace
}  // namespace kdv
