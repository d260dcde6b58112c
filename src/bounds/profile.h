// Profile-level bound coefficients (the paper's §3.3, §4, §5, §9.6 formulas).
//
// A bound on the kernel profile f(x) over an interval [x_min, x_max] is a
// linear function m*x + k (KARL) or quadratic a*x^2 + b*x + c (QUAD) that
// stays on one side of f on the whole interval. These pure functions return
// the coefficients; aggregation over a node happens in node_bounds. They are
// inline because every node bound evaluation calls several of them, and an
// out-of-line call spills every live floating-point register around it.
//
// Every function takes the profile values it needs (e_min = exp(-x_min),
// k_max = K(x_max), ...) from the caller instead of evaluating them: one
// bound evaluation computes each distinct profile value once and shares it
// between the upper and lower coefficients and the trivial clamp
// (bounds/node_bounds.h ProfileEnds). Pass exactly K(x) as
// kernel/kernel.h's KernelProfile computes it (ClampedExpNeg for exp).
//
// Derivation notes on the Gaussian tight upper coefficient: Theorem 1's
// condition is slope(Q_U) <= slope(exp(-x)) at x_max, i.e.
// 2*a_u*x_max + b_u <= -exp(-x_max); substituting the chord-interpolation
// b_u gives
//     a_u* = (exp(-x_min) - (x_max - x_min + 1) * exp(-x_max))
//            / (x_max - x_min)^2,
// which is >= 0 for all 0 <= x_min <= x_max (equality iff x_min == x_max).
#ifndef QUADKDV_BOUNDS_PROFILE_H_
#define QUADKDV_BOUNDS_PROFILE_H_

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace kdv {

// Linear profile bound m*x + k.
struct LinearCoeffs {
  double m = 0.0;
  double k = 0.0;
  double Eval(double x) const { return m * x + k; }
};

// Quadratic profile bound a*x^2 + b*x + c.
struct QuadraticCoeffs {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double Eval(double x) const { return (a * x + b) * x + c; }
};

// ---------------------------------------------------------------------------
// exp(-x) with x = gamma*dist^2 (Gaussian kernel). KARL linear bounds.
// ---------------------------------------------------------------------------

// Chord through (x_min, e_min) and (x_max, e_max); upper-bounds exp(-x)
// on [x_min, x_max] by convexity. Requires x_max > x_min.
inline LinearCoeffs ExpChordUpper(double x_min, double x_max, double e_min,
                                  double e_max) {
  KDV_DCHECK(x_max > x_min);
  LinearCoeffs lin;
  lin.m = (e_max - e_min) / (x_max - x_min);
  lin.k = e_min - lin.m * x_min;
  return lin;
}

// Tangent to exp(-x) at t (e_t = e^-t); lower-bounds exp(-x) everywhere by
// convexity.
inline LinearCoeffs ExpTangentLower(double t, double e_t) {
  KDV_DCHECK(t >= 0.0);
  LinearCoeffs lin;
  lin.m = -e_t;
  lin.k = (1.0 + t) * e_t;
  return lin;
}

// ---------------------------------------------------------------------------
// exp(-x) quadratic bounds (QUAD, §4).
// ---------------------------------------------------------------------------

// Theorem 1: the tightest correct quadratic upper bound of exp(-x) on
// [x_min, x_max] that interpolates both endpoints. Requires x_max > x_min.
inline QuadraticCoeffs ExpQuadUpper(double x_min, double x_max, double e_min,
                                    double e_max) {
  KDV_DCHECK(x_max > x_min);
  const double delta = x_max - x_min;

  QuadraticCoeffs q;
  // Theorem 1 (see header note for the sign derivation).
  q.a = (e_min - (delta + 1.0) * e_max) / (delta * delta);
  // Interpolation of both endpoints pins b and c given a.
  q.b = (e_max - e_min) / delta - q.a * (x_min + x_max);
  q.c = (e_min * x_max - e_max * x_min) / delta + q.a * x_min * x_max;
  return q;
}

// §4.3: quadratic lower bound tangent to exp(-x) at t and passing through
// (x_max, e_max). Requires t < x_max. Tighter than ExpTangentLower.
inline QuadraticCoeffs ExpQuadLower(double t, double x_max, double e_t,
                                    double e_max) {
  KDV_DCHECK(t < x_max);
  KDV_DCHECK(t >= 0.0);
  const double d = x_max - t;

  QuadraticCoeffs q;
  // §4.3: tangent to exp(-x) at t, interpolating (x_max, e^-x_max).
  q.a = (e_max + (x_max - 1.0 - t) * e_t) / (d * d);
  q.b = -e_t - 2.0 * t * q.a;
  q.c = (1.0 + t) * e_t + t * t * q.a;
  return q;
}

// The paper's tangent-point choice (Eq. 3): the mean profile argument
// t* = gamma * S1 / n, clamped into [x_min, x_max].
inline double GaussianTangentPoint(double gamma, double sum_sq_dist,
                                   double count, double x_min, double x_max) {
  KDV_DCHECK(count > 0.0);
  double t = gamma * sum_sq_dist / count;  // Eq. 3: mean of x_i
  return std::clamp(t, x_min, x_max);
}

// ---------------------------------------------------------------------------
// Distance-argument kernels, bounds of form a*x^2 + c (QUAD, §5 and §9.6),
// with x = gamma*dist so that x^2 aggregates via S1 in O(d).
// ---------------------------------------------------------------------------

// Triangular max(1-x, 0): concave-through-endpoints upper bound (§5.2.1),
// with k_min/k_max the profile at the ends. Requires x_max > x_min.
inline QuadraticCoeffs TriangularQuadUpper(double x_min, double x_max,
                                           double k_min, double k_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  q.a = (k_max - k_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * k_min - x_min * x_min * k_max) / denom;
  return q;
}

// Triangular lower bound (Theorem 2): parameterized by the mean squared
// argument m2 = (gamma^2 * S1) / n > 0; the optimal a_l* = -1/(2*sqrt(m2)).
inline QuadraticCoeffs TriangularQuadLower(double mean_sq_x) {
  KDV_DCHECK(mean_sq_x > 0.0);
  QuadraticCoeffs q;
  // Theorem 2: a_l* = -sqrt(n / (4 gamma^2 S1)) = -1 / (2 sqrt(m2)), and
  // Eq. 8: c_l = 1 + 1/(4 a_l).
  q.a = -0.5 / std::sqrt(mean_sq_x);
  q.b = 0.0;
  q.c = 1.0 + 1.0 / (4.0 * q.a);
  return q;
}

// Cosine cos(x) on [0, pi/2]: upper through both endpoints (Lemma 9), with
// c_min = cos(x_min), c_max = cos(x_max); requires
// 0 <= x_min < x_max <= pi/2.
inline QuadraticCoeffs CosineQuadUpper(double x_min, double x_max, double c_min,
                                       double c_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  // §9.6.1, Eqs. 10-11.
  q.a = (c_max - c_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * c_min - x_min * x_min * c_max) / denom;
  return q;
}

// Cosine lower: slope-matching at x_max (Lemma 10), c_max = cos(x_max);
// requires 0 < x_max <= pi/2. Also valid for x > pi/2 where cos is clamped
// to 0, because the bound is <= 0 there.
inline QuadraticCoeffs CosineQuadLower(double x_max, double c_max) {
  KDV_DCHECK(x_max > 0.0);
  const double s_max = std::sin(x_max);
  QuadraticCoeffs q;
  // §9.6.2, Eqs. 12-13: slope match with cos at x_max.
  q.a = -s_max / (2.0 * x_max);
  q.b = 0.0;
  q.c = c_max + x_max * s_max / 2.0;
  return q;
}

// Exponential exp(-x), x = gamma*dist: upper through both endpoints
// (Lemma 11); requires x_max > x_min.
inline QuadraticCoeffs ExponentialQuadUpper(double x_min, double x_max,
                                            double e_min, double e_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  // §9.6.3, Eqs. 14-15.
  q.a = (e_max - e_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * e_min - x_min * x_min * e_max) / denom;
  return q;
}

// Exponential lower: tangent-point form (Lemma 12), e_t = e^-t; requires
// t > 0.
inline QuadraticCoeffs ExponentialQuadLower(double t, double e_t) {
  KDV_DCHECK(t > 0.0);
  QuadraticCoeffs q;
  // §9.6.4, Eqs. 16-17.
  q.a = -e_t / (2.0 * t);
  q.b = 0.0;
  q.c = 0.5 * (t + 2.0) * e_t;
  return q;
}

// Eq. 18 tangent point for the exponential kernel:
// t* = sqrt(gamma^2 * S1 / n), clamped into [x_min, x_max].
inline double ExponentialTangentPoint(double gamma, double sum_sq_dist,
                                      double count, double x_min,
                                      double x_max) {
  KDV_DCHECK(count > 0.0);
  // Eq. 18: root-mean-square of the x_i.
  double t = std::sqrt(gamma * gamma * sum_sq_dist / count);
  return std::clamp(t, x_min, x_max);
}

}  // namespace kdv

#endif  // QUADKDV_BOUNDS_PROFILE_H_
