#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

// Renders a small εKDV frame and requires every density to be finite; the
// degenerate-input contract is "flat frame, never NaN".
void ExpectFiniteFrame(Workbench& bench) {
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  PixelGrid grid(16, 12, bench.data_bounds());
  DensityFrame frame = RenderEpsFrame(quad, grid, 0.05, nullptr);
  for (double v : frame.values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST(WorkbenchTest, IndexesDatasetAndDerivesScottParams) {
  PointSet pts = GenerateMixture(CrimeSpec(0.002));
  size_t n = pts.size();
  KernelParams reference = MakeScottParams(KernelType::kGaussian, pts);

  Workbench bench(std::move(pts), KernelType::kGaussian);
  EXPECT_EQ(bench.num_points(), n);
  EXPECT_DOUBLE_EQ(bench.params().gamma, reference.gamma);
  EXPECT_DOUBLE_EQ(bench.params().weight, reference.weight);
  EXPECT_EQ(bench.kernel(), KernelType::kGaussian);
}

TEST(WorkbenchTest, GammaOverride) {
  Workbench::Options options;
  options.gamma_override = 3.5;
  Workbench bench(GenerateMixture(MixtureSpec{}), KernelType::kGaussian,
                  options);
  EXPECT_DOUBLE_EQ(bench.params().gamma, 3.5);
}

TEST(WorkbenchTest, SupportMatrixMatchesTable6) {
  Workbench gaussian(GenerateMixture(MixtureSpec{}), KernelType::kGaussian);
  EXPECT_TRUE(gaussian.Supports(Method::kExact));
  EXPECT_TRUE(gaussian.Supports(Method::kAkde));
  EXPECT_TRUE(gaussian.Supports(Method::kTkdc));
  EXPECT_TRUE(gaussian.Supports(Method::kKarl));
  EXPECT_TRUE(gaussian.Supports(Method::kQuad));
  EXPECT_TRUE(gaussian.Supports(Method::kZorder));

  Workbench triangular(GenerateMixture(MixtureSpec{}),
                       KernelType::kTriangular);
  EXPECT_FALSE(triangular.Supports(Method::kKarl));  // paper §5.1
  EXPECT_TRUE(triangular.Supports(Method::kQuad));
  EXPECT_TRUE(triangular.Supports(Method::kAkde));
}

TEST(WorkbenchTest, EvaluatorsShareTheSameTree) {
  Workbench bench(GenerateMixture(MixtureSpec{}), KernelType::kGaussian);
  KdeEvaluator a = bench.MakeEvaluator(Method::kQuad);
  KdeEvaluator b = bench.MakeEvaluator(Method::kAkde);
  EXPECT_EQ(&a.tree(), &b.tree());
  EXPECT_EQ(&a.tree(), &bench.tree());
}

TEST(WorkbenchTest, MethodsAgreeOnDensityValues) {
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  KdeEvaluator karl = bench.MakeEvaluator(Method::kKarl);

  Point q = bench.data_bounds().Center();
  double truth = exact.EvaluateExact(q);
  EXPECT_NEAR(quad.EvaluateEps(q, 0.01).estimate, truth, 0.011 * truth);
  EXPECT_NEAR(karl.EvaluateEps(q, 0.01).estimate, truth, 0.011 * truth);
}

TEST(WorkbenchTest, ZorderEvaluatorUsesReducedWeightedSample) {
  Workbench bench(GenerateMixture(HomeSpec(0.005)), KernelType::kGaussian);
  // At ε = 0.2 the coreset bound asks for ~900 points, well below n.
  KdeEvaluator zorder = bench.MakeZorderEvaluator(0.2);
  // Sample is smaller than the full dataset...
  EXPECT_LT(zorder.tree().num_points(), bench.num_points());
  // ...and reweighted to compensate.
  EXPECT_GT(zorder.params().weight, bench.params().weight);

  // Aggregate scale is preserved at the data centroid.
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  Point q = bench.data_bounds().Center();
  double full = exact.EvaluateExact(q);
  double reduced = zorder.EvaluateExact(q);
  ASSERT_GT(full, 0.0);
  EXPECT_NEAR(reduced / full, 1.0, 0.3);
}

// ---------------------------------------------------------------------------
// Degenerate inputs: each must yield a Status (empty) or a finite flat
// frame (single point, all-identical, zero-variance dimension) — never an
// abort or NaN densities.
// ---------------------------------------------------------------------------

TEST(WorkbenchDegenerateTest, EmptyDatasetReturnsStatus) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(PointSet{}, KernelType::kGaussian);
  ASSERT_FALSE(bench.ok());
  EXPECT_EQ(bench.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkbenchDegenerateTest, NonFinitePointRejectedByDefault) {
  PointSet pts{Point{0.0, 0.0}, Point{std::nan(""), 1.0}};
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(std::move(pts), KernelType::kGaussian);
  ASSERT_FALSE(bench.ok());
  EXPECT_EQ(bench.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkbenchDegenerateTest, DropPolicyRecoversFromNaNRows) {
  PointSet pts = GenerateMixture(MixtureSpec{});
  pts[3] = Point{std::nan(""), 0.5};
  const size_t n = pts.size();
  Workbench::Options options;
  options.validate.policy = ValidateOptions::BadPointPolicy::kDrop;
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(std::move(pts), KernelType::kGaussian, options);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_EQ((*bench)->num_points(), n - 1);
  EXPECT_EQ((*bench)->ingest_report().dropped_nonfinite, 1u);
  ExpectFiniteFrame(**bench);
}

TEST(WorkbenchDegenerateTest, SinglePointRendersFiniteFrame) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(PointSet{Point{0.5, 0.5}}, KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_TRUE((*bench)->ingest_report().degenerate);
  ExpectFiniteFrame(**bench);
}

TEST(WorkbenchDegenerateTest, AllIdenticalPointsRenderFiniteFrame) {
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      PointSet(64, Point{2.0, -1.0}), KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_TRUE((*bench)->ingest_report().all_identical);
  ExpectFiniteFrame(**bench);
  // Scott's rule must have fallen back to a positive bandwidth.
  EXPECT_GT((*bench)->params().gamma, 0.0);
  EXPECT_TRUE(std::isfinite((*bench)->params().gamma));
}

TEST(WorkbenchDegenerateTest, ZeroVarianceDimensionRendersFiniteFrame) {
  PointSet pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back(Point{static_cast<double>(i) / 100.0, 0.25});
  }
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(std::move(pts), KernelType::kGaussian);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  ASSERT_EQ((*bench)->ingest_report().zero_variance_dims.size(), 1u);
  EXPECT_EQ((*bench)->ingest_report().zero_variance_dims[0], 1);
  ExpectFiniteFrame(**bench);
}

// ---------------------------------------------------------------------------
// Query-parameter validation (the Workbench/kdvtool boundary)
// ---------------------------------------------------------------------------

TEST(ValidateParamsTest, AcceptsOrdinaryValues) {
  EXPECT_TRUE(ValidateEps(0.01).ok());
  EXPECT_TRUE(ValidateTau(1e-6).ok());
  EXPECT_TRUE(ValidateGamma(2.5).ok());
}

TEST(ValidateParamsTest, RejectsNonPositiveAndNonFinite) {
  const double kBad[] = {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double v : kBad) {
    EXPECT_EQ(ValidateEps(v).code(), StatusCode::kInvalidArgument) << v;
    EXPECT_EQ(ValidateTau(v).code(), StatusCode::kInvalidArgument) << v;
    EXPECT_EQ(ValidateGamma(v).code(), StatusCode::kInvalidArgument) << v;
  }
}

TEST(ValidateParamsTest, ErrorMessageNamesTheParameter) {
  Status status = ValidateEps(-0.5);
  EXPECT_NE(status.message().find("eps"), std::string::npos);
}

TEST(WorkbenchCreateTest, RejectsNaNGammaOverride) {
  Workbench::Options options;
  options.gamma_override = std::nan("");
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      GenerateMixture(MixtureSpec{}), KernelType::kGaussian, options);
  EXPECT_FALSE(bench.ok());
  EXPECT_EQ(bench.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkbenchCreateTest, RejectsZeroGammaOverride) {
  Workbench::Options options;
  options.gamma_override = 0.0;
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      GenerateMixture(MixtureSpec{}), KernelType::kGaussian, options);
  EXPECT_FALSE(bench.ok());
  EXPECT_EQ(bench.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkbenchCreateTest, NegativeGammaOverrideMeansScottsRule) {
  Workbench::Options options;
  options.gamma_override = -1.0;
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      GenerateMixture(MixtureSpec{}), KernelType::kGaussian, options);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_GT((*bench)->params().gamma, 0.0);
}

TEST(WorkbenchCreateTest, ExtremeGammaOverrideRendersFiniteFrame) {
  // A legal-but-absurd bandwidth (γ = 1e300) must survive the whole render
  // path on the clamped-exponent kernels without a single NaN/Inf pixel.
  Workbench::Options options;
  options.gamma_override = 1e300;
  StatusOr<std::unique_ptr<Workbench>> bench = Workbench::Create(
      GenerateMixture(MixtureSpec{}), KernelType::kGaussian, options);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  ExpectFiniteFrame(**bench);
}

TEST(WorkbenchTest, ZorderCacheReturnsSameTreeForSameEps) {
  Workbench bench(GenerateMixture(MixtureSpec{}), KernelType::kGaussian);
  KdeEvaluator a = bench.MakeZorderEvaluator(0.05);
  KdeEvaluator b = bench.MakeZorderEvaluator(0.05);
  EXPECT_EQ(&a.tree(), &b.tree());
  KdeEvaluator c = bench.MakeZorderEvaluator(0.2);
  EXPECT_NE(&a.tree(), &c.tree());
}

}  // namespace
}  // namespace kdv
