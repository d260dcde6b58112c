#include "regress/weighted_bounds.h"

#include <algorithm>
#include <cmath>

#include "bounds/profile.h"
#include "util/check.h"

namespace kdv {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDegenerateInterval = 1e-12;

BoundPair Finalize(BoundPair analytic, const KernelParams& params,
                   double weight_sum, const ProfileEnds& k,
                   const BoundsOptions& options) {
  if (options.clamp_with_trivial) {
    BoundPair trivial = TrivialBounds(params, weight_sum, k);
    analytic.lower = std::max(analytic.lower, trivial.lower);
    analytic.upper = std::min(analytic.upper, trivial.upper);
  }
  analytic.lower = std::max(analytic.lower, 0.0);
  if (analytic.upper < analytic.lower) analytic.upper = analytic.lower;
  return analytic;
}

BoundPair GaussianKarl(const KernelParams& params, const XInterval& xi,
                       const ProfileEnds& k, const WeightedNodeStats& wstats,
                       const Point& q) {
  const double y = wstats.weight_sum();
  const double s1 = wstats.WeightedSumSquaredDistances(q);
  const double sum_x = params.gamma * s1;  // Σ y_i x_i
  const double w = params.weight;

  BoundPair b;
  LinearCoeffs upper = ExpChordUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.m * sum_x + upper.k * y);
  double t = GaussianTangentPoint(params.gamma, s1, y, xi.x_min, xi.x_max);
  LinearCoeffs lower = ExpTangentLower(t, ClampedExpNeg(t));
  b.lower = w * (lower.m * sum_x + lower.k * y);
  return b;
}

BoundPair GaussianQuad(const KernelParams& params, const XInterval& xi,
                       const ProfileEnds& k, const WeightedNodeStats& wstats,
                       const Point& q) {
  const double y = wstats.weight_sum();
  const double s1 = wstats.WeightedSumSquaredDistances(q);
  const double s2 = wstats.WeightedSumQuarticDistances(q);
  const double sum_x = params.gamma * s1;
  const double sum_x_sq = params.gamma * params.gamma * s2;
  const double w = params.weight;

  BoundPair b;
  QuadraticCoeffs upper = ExpQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.a * sum_x_sq + upper.b * sum_x + upper.c * y);

  double t = GaussianTangentPoint(params.gamma, s1, y, xi.x_min, xi.x_max);
  const double e_t = ClampedExpNeg(t);
  if (xi.x_max - t < kDegenerateInterval) {
    LinearCoeffs lower = ExpTangentLower(t, e_t);
    b.lower = w * (lower.m * sum_x + lower.k * y);
  } else {
    QuadraticCoeffs lower = ExpQuadLower(t, xi.x_max, e_t, k.k_max);
    b.lower = w * (lower.a * sum_x_sq + lower.b * sum_x + lower.c * y);
  }
  return b;
}

BoundPair DistanceQuad(const KernelParams& params, const XInterval& xi,
                       const ProfileEnds& k, const WeightedNodeStats& wstats,
                       const Point& q) {
  const double y = wstats.weight_sum();
  // Σ y_i x_i^2 = gamma^2 * weighted S1.
  const double sum_x_sq =
      params.gamma * params.gamma * wstats.WeightedSumSquaredDistances(q);
  const double w = params.weight;
  BoundPair b;

  switch (params.type) {
    case KernelType::kTriangular: {
      if (xi.x_min >= 1.0) return BoundPair{0.0, 0.0};
      QuadraticCoeffs upper =
          TriangularQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
      b.upper = w * (upper.a * sum_x_sq + upper.c * y);
      // Weighted Theorem 2 closed form: N >= w (Y - sqrt(Y * Σ y x^2)).
      b.lower = w * (y - std::sqrt(y * sum_x_sq));
      return b;
    }
    case KernelType::kCosine: {
      const double half_pi = kPi / 2.0;
      if (xi.x_min >= half_pi) return BoundPair{0.0, 0.0};
      if (xi.x_max <= half_pi) {
        QuadraticCoeffs upper =
            CosineQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
        b.upper = w * (upper.a * sum_x_sq + upper.c * y);
      } else {
        b.upper = w * y * k.k_min;
      }
      const double x_eff = std::min(xi.x_max, half_pi);
      QuadraticCoeffs lower = CosineQuadLower(
          x_eff, x_eff == xi.x_max ? k.k_max : std::cos(x_eff));
      b.lower = w * (lower.a * sum_x_sq + lower.c * y);
      return b;
    }
    case KernelType::kExponential: {
      QuadraticCoeffs upper =
          ExponentialQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
      b.upper = w * (upper.a * sum_x_sq + upper.c * y);
      double t = ExponentialTangentPoint(
          params.gamma, sum_x_sq / (params.gamma * params.gamma), y,
          xi.x_min, xi.x_max);
      if (t <= kDegenerateInterval) return TrivialBounds(params, y, k);
      QuadraticCoeffs lower = ExponentialQuadLower(t, ClampedExpNeg(t));
      b.lower = w * (lower.a * sum_x_sq + lower.c * y);
      return b;
    }
    default:
      return TrivialBounds(params, y, k);
  }
}

}  // namespace

BoundPair EvaluateWeightedBounds(Method method, const KernelParams& params,
                                 RectView mbr,
                                 const WeightedNodeStats& wstats,
                                 const Point& q,
                                 const BoundsOptions& options) {
  XInterval xi = ProfileInterval(params, mbr, q);
  const double y = wstats.weight_sum();
  if (y <= 0.0) return BoundPair{0.0, 0.0};
  const ProfileEnds k = EvalProfileEnds(params, xi);

  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return Finalize(TrivialBounds(params, y, k), params, y, k, options);
  }

  BoundPair analytic;
  switch (method) {
    case Method::kKarl:
      if (params.type != KernelType::kGaussian) {
        analytic = TrivialBounds(params, y, k);
      } else {
        analytic = GaussianKarl(params, xi, k, wstats, q);
      }
      break;
    case Method::kQuad:
      if (params.type == KernelType::kGaussian) {
        analytic = GaussianQuad(params, xi, k, wstats, q);
      } else {
        analytic = DistanceQuad(params, xi, k, wstats, q);
      }
      break;
    default:
      analytic = TrivialBounds(params, y, k);
      break;
  }
  return Finalize(analytic, params, y, k, options);
}

}  // namespace kdv
