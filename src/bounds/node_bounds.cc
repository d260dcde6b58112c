#include "bounds/node_bounds.h"

#include <algorithm>
#include <cmath>

#include "bounds/profile.h"
#include "util/check.h"

namespace kdv {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Interval width below which the node is effectively at one distance and the
// trivial bounds are already (near-)exact.
constexpr double kDegenerateInterval = 1e-12;

// Extremizes a linear term coeff * s over s in [lo, hi] by coefficient sign.
// Region bounds treat each aggregate moment independently over its range,
// which is conservative (hence sound) even though the moments are correlated.
double MaxTerm(double coeff, double lo, double hi) {
  return coeff >= 0.0 ? coeff * hi : coeff * lo;
}
double MinTerm(double coeff, double lo, double hi) {
  return coeff >= 0.0 ? coeff * lo : coeff * hi;
}

// Range of S2(q) = sum_i dist(q, p_i)^4 over a query rect, derived from the
// S1 range and the extremal squared distances d ∈ [dmin2, dmax2]:
//   S2 >= S1^2/n      (Cauchy-Schwarz)
//   S2 >= dmin2 * S1  (r_i^2 >= dmin2 * r_i termwise)
//   S2 <= dmax2 * S1  (r_i^2 <= dmax2 * r_i termwise)
void SumQuarticRange(double n, double s1_min, double s1_max, double dmin2,
                     double dmax2, double* s2_min, double* s2_max) {
  *s2_min = std::max(s1_min * s1_min / n, dmin2 * s1_min);
  *s2_max = dmax2 * s1_max;
  if (*s2_max < *s2_min) *s2_max = *s2_min;
}

// Lemma 10 lower bound with x_max clamped to the support edge pi/2. For
// x > pi/2 the quadratic is <= 0 <= K, so it remains a valid lower bound
// when the node straddles the edge. Inside the support k_max = K(x_max) is
// the cos(x_max) the bound needs; past the edge it needs cos(pi/2), not 0.
QuadraticCoeffs CosineLowerClamped(double x_max, double k_max) {
  const double x_eff = std::min(x_max, kPi / 2.0);
  return CosineQuadLower(x_eff, x_eff == x_max ? k_max : std::cos(x_eff));
}

// exp(-x) at both ends of the interval: the profile values of the Gaussian
// and exponential kernels, shared by their coefficients and the clamp.
ProfileEnds ExpEnds(const XInterval& xi) {
  return {ClampedExpNeg(xi.x_min), ClampedExpNeg(xi.x_max)};
}

}  // namespace

// Base implementation: min/max-distance bounds at the rect-to-rect extremal
// distances — the region analogue of TrivialBounds, valid for every
// monotone-decreasing profile (covers MinMaxDistBounds exactly).
BoundPair NodeBounds::EvaluateRegion(const NodeStats& stats,
                                     const Rect& query_rect) const {
  XInterval xi = RegionProfileInterval(params_, stats.mbr(), query_rect);
  return TrivialBounds(params_, stats.n(), EvalProfileEnds(params_, xi));
}

// ---------------------------------------------------------------------------
// MinMaxDistBounds
// ---------------------------------------------------------------------------

BoundPair MinMaxDistBounds::Evaluate(const NodeStats& stats,
                                     const Point& q) const {
  XInterval xi = ProfileInterval(params_, stats.mbr(), q);
  return TrivialBounds(params_, stats.n(), EvalProfileEnds(params_, xi));
}

// ---------------------------------------------------------------------------
// KarlLinearBounds
// ---------------------------------------------------------------------------

KarlLinearBounds::KarlLinearBounds(const KernelParams& params,
                                   const BoundsOptions& options)
    : NodeBounds(params, options) {
  KDV_CHECK_MSG(params.type == KernelType::kGaussian,
                "KARL linear bounds require the Gaussian kernel (Lemma 1 "
                "needs x = gamma*dist^2)");
}

BoundPair KarlLinearBounds::Evaluate(const NodeStats& stats,
                                     const Point& q) const {
  const double n = stats.n();
  XInterval xi = ProfileInterval(params_, stats.mbr(), q);
  const ProfileEnds k = ExpEnds(xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  const double s1 = stats.SumSquaredDistances(q);
  const double sum_x = params_.gamma * s1;  // sum_i x_i
  const double w = params_.weight;

  BoundPair b;
  LinearCoeffs upper = ExpChordUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.m * sum_x + upper.k * n);

  double t = GaussianTangentPoint(params_.gamma, s1, n, xi.x_min, xi.x_max);
  LinearCoeffs lower = ExpTangentLower(t, ClampedExpNeg(t));
  b.lower = w * (lower.m * sum_x + lower.k * n);

  return Finalize(b, n, k);
}

BoundPair KarlLinearBounds::EvaluateRegion(const NodeStats& stats,
                                           const Rect& query_rect) const {
  const double n = stats.n();
  XInterval xi = RegionProfileInterval(params_, stats.mbr(), query_rect);
  const ProfileEnds k = ExpEnds(xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  double s1_min = 0.0, s1_max = 0.0;
  stats.SumSquaredDistancesRange(query_rect, &s1_min, &s1_max);
  const double sx_min = params_.gamma * s1_min;
  const double sx_max = params_.gamma * s1_max;
  const double w = params_.weight;

  BoundPair b;
  LinearCoeffs upper = ExpChordUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (MaxTerm(upper.m, sx_min, sx_max) + upper.k * n);

  // Tangent at the mid-range mean argument; any tangent point yields a valid
  // global lower bound on exp(-x) by convexity.
  double t = GaussianTangentPoint(params_.gamma, 0.5 * (s1_min + s1_max), n,
                                  xi.x_min, xi.x_max);
  LinearCoeffs lower = ExpTangentLower(t, ClampedExpNeg(t));
  b.lower = w * (MinTerm(lower.m, sx_min, sx_max) + lower.k * n);

  return Finalize(b, n, k);
}

// ---------------------------------------------------------------------------
// QuadGaussianBounds
// ---------------------------------------------------------------------------

QuadGaussianBounds::QuadGaussianBounds(const KernelParams& params,
                                       const BoundsOptions& options)
    : NodeBounds(params, options) {
  KDV_CHECK_MSG(params.type == KernelType::kGaussian,
                "QuadGaussianBounds requires the Gaussian kernel");
}

// Three exps per evaluation, one per distinct argument (x_min, x_max, t),
// each shared by every coefficient and the clamp that needs it.
BoundPair QuadGaussianBounds::Evaluate(const NodeStats& stats,
                                       const Point& q) const {
  const double n = stats.n();
  XInterval xi = ProfileInterval(params_, stats.mbr(), q);
  const ProfileEnds k = ExpEnds(xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  double s1 = 0.0, s2 = 0.0;
  stats.SumDistanceMoments(q, &s1, &s2);
  const double sum_x = params_.gamma * s1;                    // sum x_i
  const double sum_x_sq = params_.gamma * params_.gamma * s2;  // sum x_i^2
  const double w = params_.weight;

  BoundPair b;
  QuadraticCoeffs upper = ExpQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.a * sum_x_sq + upper.b * sum_x + upper.c * n);

  double t = GaussianTangentPoint(params_.gamma, s1, n, xi.x_min, xi.x_max);
  const double e_t = ClampedExpNeg(t);
  if (xi.x_max - t < kDegenerateInterval) {
    // Tangent point collapses onto x_max; the quadratic form degenerates.
    // Fall back to the linear tangent bound, which is still valid.
    LinearCoeffs lower = ExpTangentLower(t, e_t);
    b.lower = w * (lower.m * sum_x + lower.k * n);
  } else {
    QuadraticCoeffs lower = ExpQuadLower(t, xi.x_max, e_t, k.k_max);
    b.lower = w * (lower.a * sum_x_sq + lower.b * sum_x + lower.c * n);
  }

  return Finalize(b, n, k);
}

BoundPair QuadGaussianBounds::EvaluateRegion(const NodeStats& stats,
                                             const Rect& query_rect) const {
  const double n = stats.n();
  const RectView mbr = stats.mbr();
  const double dmin2 = mbr.MinSquaredDistance(query_rect);
  const double dmax2 = mbr.MaxSquaredDistance(query_rect);
  const XInterval xi{params_.XFromSquaredDistance(dmin2),
                     params_.XFromSquaredDistance(dmax2)};
  const ProfileEnds k = ExpEnds(xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  double s1_min = 0.0, s1_max = 0.0;
  stats.SumSquaredDistancesRange(query_rect, &s1_min, &s1_max);
  double s2_min = 0.0, s2_max = 0.0;
  SumQuarticRange(n, s1_min, s1_max, dmin2, dmax2, &s2_min, &s2_max);

  const double g = params_.gamma;
  const double sx_min = g * s1_min, sx_max = g * s1_max;
  const double sxsq_min = g * g * s2_min, sxsq_max = g * g * s2_max;
  const double w = params_.weight;

  BoundPair b;
  QuadraticCoeffs upper = ExpQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (MaxTerm(upper.a, sxsq_min, sxsq_max) +
                 MaxTerm(upper.b, sx_min, sx_max) + upper.c * n);

  double t = GaussianTangentPoint(g, 0.5 * (s1_min + s1_max), n, xi.x_min,
                                  xi.x_max);
  const double e_t = ClampedExpNeg(t);
  if (xi.x_max - t < kDegenerateInterval) {
    LinearCoeffs lower = ExpTangentLower(t, e_t);
    b.lower = w * (MinTerm(lower.m, sx_min, sx_max) + lower.k * n);
  } else {
    QuadraticCoeffs lower = ExpQuadLower(t, xi.x_max, e_t, k.k_max);
    b.lower = w * (MinTerm(lower.a, sxsq_min, sxsq_max) +
                   MinTerm(lower.b, sx_min, sx_max) + lower.c * n);
  }

  return Finalize(b, n, k);
}

// ---------------------------------------------------------------------------
// QuadDistanceKernelBounds
// ---------------------------------------------------------------------------

QuadDistanceKernelBounds::QuadDistanceKernelBounds(
    const KernelParams& params, const BoundsOptions& options)
    : NodeBounds(params, options) {
  KDV_CHECK_MSG(params.type == KernelType::kTriangular ||
                    params.type == KernelType::kCosine ||
                    params.type == KernelType::kExponential,
                "QuadDistanceKernelBounds supports triangular, cosine and "
                "exponential kernels");
}

BoundPair QuadDistanceKernelBounds::Evaluate(const NodeStats& stats,
                                             const Point& q) const {
  const double n = stats.n();
  XInterval xi = ProfileInterval(params_, stats.mbr(), q);
  // sum_i x_i^2 = gamma^2 * S1 — the only aggregate these bounds need
  // (Lemma 4: O(d) time).
  const double sum_x_sq =
      params_.gamma * params_.gamma * stats.SumSquaredDistances(q);

  switch (params_.type) {
    case KernelType::kTriangular:
      return EvaluateTriangular(n, xi, sum_x_sq);
    case KernelType::kCosine:
      return EvaluateCosine(n, xi, sum_x_sq);
    case KernelType::kExponential:
      return EvaluateExponential(n, xi, sum_x_sq);
    default:
      KDV_CHECK_MSG(false, "unreachable kernel type");
  }
}

BoundPair QuadDistanceKernelBounds::EvaluateRegion(
    const NodeStats& stats, const Rect& query_rect) const {
  const double n = stats.n();
  const double w = params_.weight;
  XInterval xi = RegionProfileInterval(params_, stats.mbr(), query_rect);

  double s1_min = 0.0, s1_max = 0.0;
  stats.SumSquaredDistancesRange(query_rect, &s1_min, &s1_max);
  const double g2 = params_.gamma * params_.gamma;
  const double sxsq_min = g2 * s1_min;
  const double sxsq_max = g2 * s1_max;

  BoundPair b;
  ProfileEnds k;
  switch (params_.type) {
    case KernelType::kTriangular: {
      if (xi.x_min >= 1.0) return BoundPair{0.0, 0.0};
      k = EvalProfileEnds(params_, xi);
      if (xi.x_max - xi.x_min < kDegenerateInterval) {
        return TrivialBounds(params_, n, k);
      }
      QuadraticCoeffs upper =
          TriangularQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
      b.upper = w * (MaxTerm(upper.a, sxsq_min, sxsq_max) + upper.c * n);
      // Theorem 2 closed form, minimized over the S1 range (the bound is
      // decreasing in sum x_i^2).
      b.lower = w * (n - std::sqrt(n * sxsq_max));
      break;
    }
    case KernelType::kCosine: {
      const double half_pi = kPi / 2.0;
      if (xi.x_min >= half_pi) return BoundPair{0.0, 0.0};
      k = EvalProfileEnds(params_, xi);
      if (xi.x_max - xi.x_min < kDegenerateInterval) {
        return TrivialBounds(params_, n, k);
      }
      if (xi.x_max <= half_pi) {
        QuadraticCoeffs upper =
            CosineQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
        b.upper = w * (MaxTerm(upper.a, sxsq_min, sxsq_max) + upper.c * n);
      } else {
        b.upper = n * w * k.k_min;
      }
      QuadraticCoeffs lower = CosineLowerClamped(xi.x_max, k.k_max);
      b.lower = w * (MinTerm(lower.a, sxsq_min, sxsq_max) + lower.c * n);
      break;
    }
    case KernelType::kExponential: {
      k = ExpEnds(xi);
      if (xi.x_max - xi.x_min < kDegenerateInterval) {
        return TrivialBounds(params_, n, k);
      }
      QuadraticCoeffs upper =
          ExponentialQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
      b.upper = w * (MaxTerm(upper.a, sxsq_min, sxsq_max) + upper.c * n);
      double t = ExponentialTangentPoint(params_.gamma,
                                         0.5 * (s1_min + s1_max), n,
                                         xi.x_min, xi.x_max);
      if (t <= kDegenerateInterval) {
        return Finalize(TrivialBounds(params_, n, k), n, k);
      }
      QuadraticCoeffs lower = ExponentialQuadLower(t, ClampedExpNeg(t));
      b.lower = w * (MinTerm(lower.a, sxsq_min, sxsq_max) + lower.c * n);
      break;
    }
    default:
      KDV_CHECK_MSG(false, "unreachable kernel type");
  }
  return Finalize(b, n, k);
}

BoundPair QuadDistanceKernelBounds::EvaluateTriangular(
    double n, const XInterval& xi, double sum_x_sq) const {
  const double w = params_.weight;

  // Entire node beyond the kernel support: contribution is exactly 0.
  if (xi.x_min >= 1.0) return BoundPair{0.0, 0.0};
  const ProfileEnds k = EvalProfileEnds(params_, xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  BoundPair b;
  QuadraticCoeffs upper =
      TriangularQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.a * sum_x_sq + upper.c * n);

  // Theorem 2 / Lemma 6 closed form of the optimal lower bound:
  //   F >= w * (n - sqrt(n * sum_i x_i^2)).
  // Valid for all x (see §5.2.2: for x > 1 the bound is negative while the
  // kernel is 0, so it stays below).
  b.lower = w * (n - std::sqrt(n * sum_x_sq));

  return Finalize(b, n, k);
}

BoundPair QuadDistanceKernelBounds::EvaluateCosine(double n,
                                                   const XInterval& xi,
                                                   double sum_x_sq) const {
  const double w = params_.weight;
  const double half_pi = kPi / 2.0;

  if (xi.x_min >= half_pi) return BoundPair{0.0, 0.0};
  const ProfileEnds k = EvalProfileEnds(params_, xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  BoundPair b;
  if (xi.x_max <= half_pi) {
    // Lemma 9: interpolating quadratic upper bound, valid on [0, pi/2].
    QuadraticCoeffs upper =
        CosineQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
    b.upper = w * (upper.a * sum_x_sq + upper.c * n);
  } else {
    // Node straddles the support edge: the interpolation argument breaks
    // (cos is concave, the zero-clamped profile is not), keep the trivial
    // upper bound n*w*cos(x_min). Correctness first; only boundary nodes
    // lose tightness.
    b.upper = n * w * k.k_min;
  }

  QuadraticCoeffs lower = CosineLowerClamped(xi.x_max, k.k_max);
  b.lower = w * (lower.a * sum_x_sq + lower.c * n);

  return Finalize(b, n, k);
}

BoundPair QuadDistanceKernelBounds::EvaluateExponential(
    double n, const XInterval& xi, double sum_x_sq) const {
  const double w = params_.weight;

  const ProfileEnds k = ExpEnds(xi);
  if (xi.x_max - xi.x_min < kDegenerateInterval) {
    return TrivialBounds(params_, n, k);
  }

  BoundPair b;
  QuadraticCoeffs upper =
      ExponentialQuadUpper(xi.x_min, xi.x_max, k.k_min, k.k_max);
  b.upper = w * (upper.a * sum_x_sq + upper.c * n);

  double t = ExponentialTangentPoint(params_.gamma, sum_x_sq /
                                         (params_.gamma * params_.gamma),
                                     n, xi.x_min, xi.x_max);
  if (t <= kDegenerateInterval) {
    // All points effectively at the query: trivial bounds are exact.
    return Finalize(TrivialBounds(params_, n, k), n, k);
  }
  QuadraticCoeffs lower = ExponentialQuadLower(t, ClampedExpNeg(t));
  b.lower = w * (lower.a * sum_x_sq + lower.c * n);

  return Finalize(b, n, k);
}

// ---------------------------------------------------------------------------
// PolynomialExactBounds
// ---------------------------------------------------------------------------

PolynomialExactBounds::PolynomialExactBounds(const KernelParams& params,
                                             const BoundsOptions& options)
    : NodeBounds(params, options) {
  KDV_CHECK_MSG(params.type == KernelType::kEpanechnikov ||
                    params.type == KernelType::kQuartic ||
                    params.type == KernelType::kUniform,
                "PolynomialExactBounds supports epanechnikov, quartic and "
                "uniform kernels");
}

BoundPair PolynomialExactBounds::Evaluate(const NodeStats& stats,
                                          const Point& q) const {
  const double n = stats.n();
  const double w = params_.weight;
  XInterval xi = ProfileInterval(params_, stats.mbr(), q);

  if (xi.x_min >= 1.0) return BoundPair{0.0, 0.0};

  const double g2 = params_.gamma * params_.gamma;
  const double sum_x_sq = g2 * stats.SumSquaredDistances(q);

  BoundPair b;
  switch (params_.type) {
    case KernelType::kEpanechnikov: {
      // K = 1 - x^2 inside support: the node aggregate is w*(n - sum x_i^2),
      // exact when the node is fully inside.
      double poly = w * (n - sum_x_sq);
      if (xi.x_max <= 1.0) return BoundPair{poly, poly};
      // Straddling: the polynomial under-counts (negative terms where K=0),
      // so it is a valid lower bound.
      b.lower = poly;
      b.upper = n * w * std::max(1.0 - xi.x_min * xi.x_min, 0.0);
      break;
    }
    case KernelType::kQuartic: {
      // K = (1 - x^2)^2 = 1 - 2 x^2 + x^4 inside support; x^4 aggregates via
      // S2 (gamma^4 * sum dist^4).
      double sum_x_4 = g2 * g2 * stats.SumQuarticDistances(q);
      double poly = w * (n - 2.0 * sum_x_sq + sum_x_4);
      if (xi.x_max <= 1.0) return BoundPair{poly, poly};
      // Straddling: (1-x^2)^2 >= 0 = K outside the support, so the
      // polynomial over-counts -> valid upper bound.
      b.upper = poly;
      b.lower = 0.0;
      break;
    }
    case KernelType::kUniform: {
      b.lower = xi.x_max <= 1.0 ? n * w : 0.0;
      b.upper = xi.x_min <= 1.0 ? n * w : 0.0;
      break;
    }
    default:
      KDV_CHECK_MSG(false, "unreachable kernel type");
  }
  return Finalize(b, n, EvalProfileEnds(params_, xi));
}

BoundPair PolynomialExactBounds::EvaluateRegion(const NodeStats& stats,
                                                const Rect& query_rect) const {
  const double n = stats.n();
  const double w = params_.weight;
  const RectView mbr = stats.mbr();
  XInterval xi = RegionProfileInterval(params_, mbr, query_rect);

  if (xi.x_min >= 1.0) return BoundPair{0.0, 0.0};

  double s1_min = 0.0, s1_max = 0.0;
  stats.SumSquaredDistancesRange(query_rect, &s1_min, &s1_max);
  const double g2 = params_.gamma * params_.gamma;
  const double sxsq_min = g2 * s1_min;
  const double sxsq_max = g2 * s1_max;

  BoundPair b;
  switch (params_.type) {
    case KernelType::kEpanechnikov: {
      // Inside the support the node aggregate is exactly w*(n - sum x_i^2),
      // so its range over the tile is the exact region interval.
      b.lower = w * (n - sxsq_max);
      b.upper = w * (n - sxsq_min);
      if (xi.x_max > 1.0) {
        // Straddling: the polynomial under-counts, so only the lower side
        // survives; the upper falls back to the support-clamped profile.
        b.upper = n * w * std::max(1.0 - xi.x_min * xi.x_min, 0.0);
      }
      break;
    }
    case KernelType::kQuartic: {
      double s2_min = 0.0, s2_max = 0.0;
      SumQuarticRange(n, s1_min, s1_max, mbr.MinSquaredDistance(query_rect),
                      mbr.MaxSquaredDistance(query_rect), &s2_min, &s2_max);
      const double sx4_min = g2 * g2 * s2_min;
      const double sx4_max = g2 * g2 * s2_max;
      b.lower = w * (n - 2.0 * sxsq_max + sx4_min);
      b.upper = w * (n - 2.0 * sxsq_min + sx4_max);
      if (xi.x_max > 1.0) {
        // Straddling: (1-x^2)^2 over-counts outside the support, so only the
        // upper side survives.
        b.lower = 0.0;
      }
      break;
    }
    case KernelType::kUniform: {
      b.lower = xi.x_max <= 1.0 ? n * w : 0.0;
      b.upper = xi.x_min <= 1.0 ? n * w : 0.0;
      break;
    }
    default:
      KDV_CHECK_MSG(false, "unreachable kernel type");
  }
  return Finalize(b, n, EvalProfileEnds(params_, xi));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

const char* MethodName(Method method) {
  switch (method) {
    case Method::kExact:
      return "EXACT";
    case Method::kAkde:
      return "aKDE";
    case Method::kTkdc:
      return "tKDC";
    case Method::kKarl:
      return "KARL";
    case Method::kQuad:
      return "QUAD";
    case Method::kZorder:
      return "Z-order";
  }
  return "unknown";
}

std::unique_ptr<NodeBounds> MakeNodeBounds(Method method,
                                           const KernelParams& params,
                                           const BoundsOptions& options) {
  switch (method) {
    case Method::kExact:
    case Method::kZorder:
      return nullptr;
    case Method::kAkde:
    case Method::kTkdc:
      return std::make_unique<MinMaxDistBounds>(params, options);
    case Method::kKarl:
      if (params.type != KernelType::kGaussian) return nullptr;  // Table 6
      return std::make_unique<KarlLinearBounds>(params, options);
    case Method::kQuad:
      switch (params.type) {
        case KernelType::kGaussian:
          return std::make_unique<QuadGaussianBounds>(params, options);
        case KernelType::kTriangular:
        case KernelType::kCosine:
        case KernelType::kExponential:
          return std::make_unique<QuadDistanceKernelBounds>(params, options);
        case KernelType::kEpanechnikov:
        case KernelType::kQuartic:
        case KernelType::kUniform:
          return std::make_unique<PolynomialExactBounds>(params, options);
      }
      return nullptr;
  }
  return nullptr;
}

}  // namespace kdv
