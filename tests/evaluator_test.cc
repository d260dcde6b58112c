// End-to-end guarantees of the refinement engine: εKDV relative-error
// guarantee, τKDV classification correctness, and the Fig-18 trace
// machinery, for every method × kernel combination.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/node_bounds.h"
#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "data/datasets.h"
#include "index/kdtree.h"
#include "index/node_stats.h"
#include "kernel/kernel.h"
#include "util/random.h"

namespace kdv {
namespace {

PointSet TestDataset(size_t n = 2000, uint64_t seed = 9) {
  MixtureSpec spec;
  spec.n = n;
  spec.num_clusters = 5;
  spec.seed = seed;
  return GenerateMixture(spec);
}

PointSet TestQueries(int count, uint64_t seed = 10) {
  Rng rng(seed);
  PointSet qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back(Point{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)});
  }
  return qs;
}

double BruteForce(const PointSet& pts, const KernelParams& params,
                  const Point& q) {
  double sum = 0.0;
  for (const Point& p : pts) {
    sum += params.EvalSquaredDistance(SquaredDistance(q, p));
  }
  return params.weight * sum;
}

struct Combo {
  KernelType kernel;
  Method method;
};

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(KernelTypeName(info.param.kernel)) + "_" +
         MethodName(info.param.method);
}

class EvaluatorComboTest : public ::testing::TestWithParam<Combo> {};

TEST_P(EvaluatorComboTest, EpsGuaranteeHolds) {
  const Combo combo = GetParam();
  PointSet data = TestDataset();
  KernelParams params = MakeScottParams(combo.kernel, data);
  PointSet raw = data;
  KdTree tree(std::move(data));
  std::unique_ptr<NodeBounds> bounds = MakeNodeBounds(combo.method, params);
  ASSERT_NE(bounds, nullptr);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  const double eps = 0.02;
  for (const Point& q : TestQueries(40)) {
    EvalResult r = evaluator.EvaluateEps(q, eps);
    double exact = BruteForce(raw, params, q);
    EXPECT_TRUE(r.converged);
    // Certified interval brackets the truth.
    EXPECT_LE(r.lower, exact * (1.0 + 1e-9) + 1e-12);
    EXPECT_GE(r.upper, exact * (1.0 - 1e-9) - 1e-12);
    // Relative error guarantee.
    if (exact > 1e-12) {
      EXPECT_LE(std::abs(r.estimate - exact) / exact, eps + 1e-9);
    } else {
      EXPECT_LE(r.estimate, 1e-9);
    }
  }
}

TEST_P(EvaluatorComboTest, TauClassificationIsExactlyRight) {
  const Combo combo = GetParam();
  PointSet data = TestDataset(1500, 11);
  KernelParams params = MakeScottParams(combo.kernel, data);
  PointSet raw = data;
  KdTree tree(std::move(data));
  std::unique_ptr<NodeBounds> bounds = MakeNodeBounds(combo.method, params);
  ASSERT_NE(bounds, nullptr);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  // Pick taus spanning the density range.
  PointSet queries = TestQueries(30, 12);
  for (double tau_scale : {0.25, 1.0, 2.0}) {
    for (const Point& q : queries) {
      double exact = BruteForce(raw, params, q);
      double tau = tau_scale * 0.5;  // densities are ~O(1) with weight 1/n
      TauResult r = evaluator.EvaluateTau(q, tau);
      // Skip knife-edge cases where FP noise could flip the comparison.
      if (std::abs(exact - tau) < 1e-9 * std::max(1.0, tau)) continue;
      EXPECT_EQ(r.above_threshold, exact >= tau)
          << "tau=" << tau << " exact=" << exact;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, EvaluatorComboTest,
    ::testing::Values(Combo{KernelType::kGaussian, Method::kAkde},
                      Combo{KernelType::kGaussian, Method::kKarl},
                      Combo{KernelType::kGaussian, Method::kQuad},
                      Combo{KernelType::kTriangular, Method::kAkde},
                      Combo{KernelType::kTriangular, Method::kQuad},
                      Combo{KernelType::kCosine, Method::kQuad},
                      Combo{KernelType::kExponential, Method::kQuad},
                      Combo{KernelType::kEpanechnikov, Method::kQuad},
                      Combo{KernelType::kQuartic, Method::kQuad},
                      Combo{KernelType::kUniform, Method::kQuad}),
    ComboName);

// ---------------------------------------------------------------------------
// Method-specific behavior
// ---------------------------------------------------------------------------

TEST(EvaluatorTest, ExactMethodMatchesBruteForce) {
  PointSet data = TestDataset(800, 13);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  PointSet raw = data;
  KdTree tree(std::move(data));
  KdeEvaluator exact(&tree, params, nullptr);

  for (const Point& q : TestQueries(20, 14)) {
    double brute = BruteForce(raw, params, q);
    EXPECT_NEAR(exact.EvaluateExact(q), brute,
                1e-9 * std::max(1.0, brute));
    EvalResult r = exact.EvaluateEps(q, 0.01);
    EXPECT_NEAR(r.estimate, brute, 1e-9 * std::max(1.0, brute));
    EXPECT_EQ(r.points_scanned, tree.num_points());
  }
}

TEST(EvaluatorTest, TighterEpsNeedsMoreIterations) {
  PointSet data = TestDataset(4000, 15);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  KdTree tree(std::move(data));
  auto bounds = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  Point q{0.5, 0.5};
  uint64_t iters_loose = evaluator.EvaluateEps(q, 0.10).iterations;
  uint64_t iters_tight = evaluator.EvaluateEps(q, 0.001).iterations;
  EXPECT_LE(iters_loose, iters_tight);
}

TEST(EvaluatorTest, QuadConvergesInFewerIterationsThanAkde) {
  PointSet data = TestDataset(8000, 16);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  KdTree tree(std::move(data));
  auto akde_bounds = MakeNodeBounds(Method::kAkde, params);
  auto quad_bounds = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator akde(&tree, params, akde_bounds.get());
  KdeEvaluator quad(&tree, params, quad_bounds.get());

  uint64_t akde_total = 0;
  uint64_t quad_total = 0;
  for (const Point& q : TestQueries(25, 17)) {
    akde_total += akde.EvaluateEps(q, 0.01).iterations;
    quad_total += quad.EvaluateEps(q, 0.01).iterations;
  }
  // The paper's headline: QUAD's tighter bounds prune much earlier.
  EXPECT_LT(quad_total, akde_total);
}

TEST(EvaluatorTest, TraceIsMonotoneAndEndsConverged) {
  PointSet data = TestDataset(4000, 18);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  KdTree tree(std::move(data));
  auto bounds = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  std::vector<BoundStep> trace;
  EvalResult r = evaluator.EvaluateEpsTraced(Point{0.5, 0.5}, 0.01, &trace);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace.front().iteration, 0u);
  EXPECT_EQ(trace.back().iteration, r.iterations);
  // Bounds tighten (weakly) monotonically as refinement proceeds.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].lower, trace[i - 1].lower - 1e-9);
    EXPECT_LE(trace[i].upper, trace[i - 1].upper + 1e-9);
  }
  EXPECT_NEAR(trace.back().lower, r.lower, 1e-12);
  EXPECT_NEAR(trace.back().upper, r.upper, 1e-12);
}

TEST(EvaluatorTest, ZeroEpsFullyRefinesToExact) {
  PointSet data = TestDataset(1000, 19);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  PointSet raw = data;
  KdTree tree(std::move(data));
  auto bounds = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  Point q{0.3, 0.6};
  EvalResult r = evaluator.EvaluateEps(q, 0.0);
  double exact = BruteForce(raw, params, q);
  EXPECT_NEAR(r.estimate, exact, 1e-6 * std::max(1.0, exact));
}

// Failure injection: a bound function that arbitrarily (but validly)
// loosens another's bounds. The engine must keep its guarantees under ANY
// correct bound function, however poor.
class LoosenedBounds final : public NodeBounds {
 public:
  LoosenedBounds(const KernelParams& params, const NodeBounds* inner,
                 uint64_t seed)
      : NodeBounds(params, BoundsOptions{}), inner_(inner), rng_(seed) {}

  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override {
    BoundPair b = inner_->Evaluate(stats, q);
    // Randomly widen: shrink the lower bound, inflate the upper bound.
    b.lower *= rng_.NextDouble();
    b.upper *= 1.0 + 2.0 * rng_.NextDouble();
    return b;
  }
  const char* name() const override { return "loosened"; }

 private:
  const NodeBounds* inner_;
  mutable Rng rng_;
};

TEST(EvaluatorTest, EngineCorrectUnderAdversariallyLooseBounds) {
  PointSet data = TestDataset(2000, 21);
  KernelParams params = MakeScottParams(KernelType::kGaussian, data);
  PointSet raw = data;
  KdTree tree(std::move(data));
  auto inner = MakeNodeBounds(Method::kQuad, params);
  LoosenedBounds loose(params, inner.get(), 12345);
  KdeEvaluator evaluator(&tree, params, &loose);

  const double eps = 0.02;
  for (const Point& q : TestQueries(20, 22)) {
    EvalResult r = evaluator.EvaluateEps(q, eps);
    double exact = BruteForce(raw, params, q);
    EXPECT_TRUE(r.converged);
    if (exact > 1e-12) {
      EXPECT_LE(std::abs(r.estimate - exact) / exact, eps + 1e-9);
    }
    TauResult t = evaluator.EvaluateTau(q, 0.5);
    if (std::abs(exact - 0.5) > 1e-9) {
      EXPECT_EQ(t.above_threshold, exact >= 0.5);
    }
  }
}

TEST(EvaluatorTest, FarQueryWithFiniteSupportTerminatesImmediately) {
  PointSet data = TestDataset(4000, 20);
  KernelParams params = MakeScottParams(KernelType::kTriangular, data);
  KdTree tree(std::move(data));
  auto bounds = MakeNodeBounds(Method::kQuad, params);
  KdeEvaluator evaluator(&tree, params, bounds.get());

  // Far outside the data: the root bound is exactly [0, 0].
  EvalResult r = evaluator.EvaluateEps(Point{100.0, 100.0}, 0.01);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(r.estimate, 0.0);
  EXPECT_TRUE(r.converged);
}

// ---------------------------------------------------------------------------
// Heap order under exact ties
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// The §3.2 best-first loop over std::priority_queue, in the order the
// refinement stream promises: larger gap first, then smaller node id. It
// keeps the stream's running totals and monotone envelope step for step.
class ReferenceRefinement {
 public:
  ReferenceRefinement(const KdTree& tree, const KernelParams& params,
                      const NodeBounds& bounds, const Point& q)
      : tree_(tree), params_(params), bounds_(bounds), q_(q) {
    const BoundPair root = bounds_.Evaluate(tree_.node(tree_.root()).stats, q_);
    lb_ = best_lb_ = root.lower;
    ub_ = best_ub_ = root.upper;
    heap_.push({root.upper - root.lower, tree_.root(), root.lower,
                root.upper});
  }

  bool Step() {
    if (heap_.empty()) return false;
    ++iterations_;
    const Entry top = heap_.top();
    heap_.pop();
    if (!heap_.empty() && heap_.top().gap == top.gap) ++tied_pops_;
    lb_ -= top.lower;
    ub_ -= top.upper;
    const KdTree::Node node = tree_.node(top.node);
    if (node.IsLeaf()) {
      const double exact = LeafSum(tree_, params_, node.begin, node.end, q_);
      lb_ += exact;
      ub_ += exact;
    } else {
      for (int32_t child : {node.left, node.right}) {
        const BoundPair b = bounds_.Evaluate(tree_.node(child).stats, q_);
        lb_ += b.lower;
        ub_ += b.upper;
        heap_.push({b.upper - b.lower, child, b.lower, b.upper});
      }
    }
    if (heap_.empty()) {
      best_lb_ = lb_;
      best_ub_ = ub_;
    } else {
      best_lb_ = std::max(best_lb_, lb_);
      best_ub_ = std::min(best_ub_, ub_);
    }
    if (best_ub_ < best_lb_) best_ub_ = best_lb_;
    return true;
  }

  double lower() const { return best_lb_; }
  double upper() const { return best_ub_; }
  uint64_t iterations() const { return iterations_; }
  // Pops whose gap equalled the next entry's: the order decided by node id.
  uint64_t tied_pops() const { return tied_pops_; }

 private:
  struct Entry {
    double gap;
    int32_t node;
    double lower;
    double upper;
  };
  // std::priority_queue pops its greatest element: "a < b" means b pops
  // first.
  struct PopsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.gap < b.gap || (a.gap == b.gap && a.node > b.node);
    }
  };

  const KdTree& tree_;
  const KernelParams& params_;
  const NodeBounds& bounds_;
  Point q_;
  std::priority_queue<Entry, std::vector<Entry>, PopsLater> heap_;
  double lb_ = 0.0, ub_ = 0.0, best_lb_ = 0.0, best_ub_ = 0.0;
  uint64_t iterations_ = 0;
  uint64_t tied_pops_ = 0;
};

// Duplicates-heavy data: 64 distinct points, each repeated 16 times, under
// 4-point leaves. Median splits keep a point's copies together, so every
// node of 16 copies has two children of 8 identical points, and each of
// those two leaves of 4: siblings whose statistics, bounds and gaps tie
// exactly. The stream must pop them in the promised order, reproducing the
// reference loop bitwise.
TEST(EvaluatorTest, HeapOrderUnderTiesMatchesPriorityQueueReference) {
  PointSet distinct = TestDataset(64, 31);
  PointSet data;
  for (const Point& p : distinct) {
    for (int copy = 0; copy < 16; ++copy) data.push_back(p);
  }
  uint64_t tied_pops = 0;
  for (KernelType kernel : {KernelType::kGaussian, KernelType::kTriangular}) {
    KernelParams params = MakeScottParams(kernel, data);
    KdTree tree(data, {/*leaf_size=*/4});
    auto bounds = MakeNodeBounds(Method::kQuad, params);
    KdeEvaluator evaluator(&tree, params, bounds.get());

    PointSet queries = TestQueries(4, 32);
    queries.push_back(distinct[0]);
    queries.push_back(distinct[17]);
    for (const Point& q : queries) {
      const double eps = 1e-3;
      std::vector<BoundStep> trace;
      evaluator.EvaluateEpsTraced(q, eps, &trace);
      ReferenceRefinement ref(tree, params, *bounds, q);
      std::vector<BoundStep> want = {{0, ref.lower(), ref.upper()}};
      while (ref.upper() > (1.0 + eps) * ref.lower() && ref.Step()) {
        want.push_back({ref.iterations(), ref.lower(), ref.upper()});
      }
      tied_pops += ref.tied_pops();
      ASSERT_EQ(trace.size(), want.size()) << KernelTypeName(kernel);
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(trace[i].iteration, want[i].iteration);
        ASSERT_EQ(Bits(trace[i].lower), Bits(want[i].lower)) << "step " << i;
        ASSERT_EQ(Bits(trace[i].upper), Bits(want[i].upper)) << "step " << i;
      }

      // τ at the exact density makes the classification refine to the end.
      const double exact = evaluator.EvaluateExact(q);
      for (double tau : {0.5 * exact, exact, 2.0 * exact}) {
        const TauResult got = evaluator.EvaluateTau(q, tau);
        ReferenceRefinement tref(tree, params, *bounds, q);
        while (tref.lower() < tau && tref.upper() > tau && tref.Step()) {
        }
        tied_pops += tref.tied_pops();
        EXPECT_EQ(got.above_threshold, tref.lower() >= tau);
        EXPECT_EQ(Bits(got.lower), Bits(tref.lower()));
        EXPECT_EQ(Bits(got.upper), Bits(tref.upper()));
        EXPECT_EQ(got.iterations, tref.iterations());
      }
    }
  }
  // The data must actually have exercised the tie-break.
  EXPECT_GT(tied_pops, 0u);
}

}  // namespace
}  // namespace kdv
