// Per-node bound-function interface shared by all KDV methods.
//
// Each compared method (aKDE / tKDC / KARL / QUAD) is one implementation of
// NodeBounds; the refinement engine in src/core is method-agnostic. A bound
// object is bound to one kernel configuration (KernelParams) at construction.
#ifndef QUADKDV_BOUNDS_NODE_BOUNDS_H_
#define QUADKDV_BOUNDS_NODE_BOUNDS_H_

#include <algorithm>
#include <cmath>
#include <memory>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/node_stats.h"
#include "kernel/kernel.h"

namespace kdv {

// Aggregated lower/upper bounds on F_R(q) = sum_{p in R} w*K(q,p) for one
// index node R.
struct BoundPair {
  double lower = 0.0;
  double upper = 0.0;
};

// A certified interval is acceptable when both ends are finite and any
// inversion is attributable to floating-point drift (which the refinement
// envelope clamps away). Larger inversions mean the bound math is broken for
// this query and must not be trusted. The one test the evaluator, the
// refinement stream and the tile refiner all apply.
inline bool IntervalAcceptable(double lower, double upper) {
  if (!std::isfinite(lower) || !std::isfinite(upper)) return false;
  const double drift = 1e-9 * (1.0 + std::abs(lower));
  return upper >= lower - drift;
}

// The profile-argument interval [x_min, x_max] induced by a node's MBR: x
// evaluated at the minimum / maximum distance between q and the MBR.
struct XInterval {
  double x_min = 0.0;
  double x_max = 0.0;
};

// Computes the profile-argument interval for a node MBR and pixel q.
inline XInterval ProfileInterval(const KernelParams& params, RectView mbr,
                                 const Point& q) {
  XInterval xi;
  xi.x_min = params.XFromSquaredDistance(mbr.MinSquaredDistance(q));
  xi.x_max = params.XFromSquaredDistance(mbr.MaxSquaredDistance(q));
  return xi;
}

// Region variant: the profile-argument interval valid for *every* query in
// `query_rect`, via the rect-to-rect min/max distances between the query
// region and the node MBR.
inline XInterval RegionProfileInterval(const KernelParams& params,
                                       RectView mbr, RectView query_rect) {
  XInterval xi;
  xi.x_min = params.XFromSquaredDistance(mbr.MinSquaredDistance(query_rect));
  xi.x_max = params.XFromSquaredDistance(mbr.MaxSquaredDistance(query_rect));
  return xi;
}

// Kernel-profile values at the ends of an XInterval: k_min = K(x_min) >=
// k_max = K(x_max). A bound evaluation computes them once and shares them
// between its analytic coefficients and the trivial clamp, so each distinct
// profile argument costs one exp (or cos) per evaluation.
struct ProfileEnds {
  double k_min = 0.0;
  double k_max = 0.0;
};

inline ProfileEnds EvalProfileEnds(const KernelParams& params,
                                   const XInterval& xi) {
  return {KernelProfile(params.type, xi.x_min),
          KernelProfile(params.type, xi.x_max)};
}

// The classic min/max-distance bounds n*w*K(x_max) <= F_R(q) <= n*w*K(x_min)
// (valid for every monotone-decreasing kernel profile). These are both the
// aKDE/tKDC baselines and the safety clamp applied on top of the tighter
// analytic bounds.
inline BoundPair TrivialBounds(const KernelParams& params, double count,
                               const ProfileEnds& k) {
  BoundPair b;
  b.lower = count * params.weight * k.k_max;
  b.upper = count * params.weight * k.k_min;
  return b;
}

// Options shared by all bound implementations.
struct BoundsOptions {
  // Intersect analytic bounds with TrivialBounds. Guards correctness against
  // floating-point drift and support-edge extrapolation; costs two kernel
  // evaluations. Disable only to study the raw analytic bounds.
  bool clamp_with_trivial = true;
};

// Strategy interface: evaluates node-level bounds on F_R(q). `stats` is a
// view of one KdTree node record (tree.node(id).stats).
class NodeBounds {
 public:
  NodeBounds(const KernelParams& params, const BoundsOptions& options)
      : params_(params), options_(options) {}
  virtual ~NodeBounds() = default;

  NodeBounds(const NodeBounds&) = delete;
  NodeBounds& operator=(const NodeBounds&) = delete;

  // Bounds on F_R(q); must satisfy lower <= F_R(q) <= upper.
  virtual BoundPair Evaluate(const NodeStats& stats, const Point& q) const = 0;

  // Region bounds: lower <= F_R(q) <= upper must hold for *every* q in
  // `query_rect` (the tile refiner's shared-traversal contract). The default
  // is the min/max-distance bound at the rect-to-rect extremal distances,
  // valid for every monotone-decreasing kernel profile; subclasses override
  // with tighter bounds evaluated at tile-extremal distance moments.
  // Region bounds are deliberately conservative: they may be wider than the
  // per-pixel Evaluate() interval at any single q, never narrower than F
  // allows.
  virtual BoundPair EvaluateRegion(const NodeStats& stats,
                                   const Rect& query_rect) const;

  // Short method name for reports ("aKDE", "KARL", "QUAD").
  virtual const char* name() const = 0;

  const KernelParams& params() const { return params_; }
  const BoundsOptions& options() const { return options_; }

 protected:
  // Applies the safety clamp (if enabled) and the lower >= 0 floor.
  BoundPair Finalize(BoundPair analytic, double count,
                     const ProfileEnds& k) const {
    if (options_.clamp_with_trivial) {
      BoundPair trivial = TrivialBounds(params_, count, k);
      analytic.lower = std::max(analytic.lower, trivial.lower);
      analytic.upper = std::min(analytic.upper, trivial.upper);
    }
    analytic.lower = std::max(analytic.lower, 0.0);
    if (analytic.upper < analytic.lower) analytic.upper = analytic.lower;
    return analytic;
  }

  KernelParams params_;
  BoundsOptions options_;
};

// ---------------------------------------------------------------------------
// Implementations (one per method camp).
// ---------------------------------------------------------------------------

// aKDE (Gray & Moore) / tKDC bounds: kernel value at the min/max distance to
// the node MBR. O(d) per node, all kernels.
class MinMaxDistBounds final : public NodeBounds {
 public:
  MinMaxDistBounds(const KernelParams& params, const BoundsOptions& options)
      : NodeBounds(params, options) {}
  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override;
  const char* name() const override { return "aKDE"; }
};

// KARL linear bounds on exp(-x) (chord upper, tangent lower) for the
// Gaussian kernel. O(d) per node.
class KarlLinearBounds final : public NodeBounds {
 public:
  KarlLinearBounds(const KernelParams& params, const BoundsOptions& options);
  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override;
  BoundPair EvaluateRegion(const NodeStats& stats,
                           const Rect& query_rect) const override;
  const char* name() const override { return "KARL"; }
};

// QUAD quadratic bounds for the Gaussian kernel (paper §4): Theorem 1 upper,
// §4.3 lower with tangent point t* = gamma*S1/n. O(d^2) per node.
class QuadGaussianBounds final : public NodeBounds {
 public:
  QuadGaussianBounds(const KernelParams& params, const BoundsOptions& options);
  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override;
  BoundPair EvaluateRegion(const NodeStats& stats,
                           const Rect& query_rect) const override;
  const char* name() const override { return "QUAD"; }
};

// QUAD a*x^2 + c bounds for distance-argument kernels: triangular, cosine,
// exponential (paper §5, §9.6). O(d) per node.
class QuadDistanceKernelBounds final : public NodeBounds {
 public:
  QuadDistanceKernelBounds(const KernelParams& params,
                           const BoundsOptions& options);
  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override;
  BoundPair EvaluateRegion(const NodeStats& stats,
                           const Rect& query_rect) const override;
  const char* name() const override { return "QUAD"; }

 private:
  BoundPair EvaluateTriangular(double n, const XInterval& xi,
                               double sum_x_sq) const;
  BoundPair EvaluateCosine(double n, const XInterval& xi,
                           double sum_x_sq) const;
  BoundPair EvaluateExponential(double n, const XInterval& xi,
                                double sum_x_sq) const;
};

// Exact or near-exact node aggregation for polynomial kernels (extension
// beyond the paper): Epanechnikov and quartic profiles are polynomials in
// dist^2, so S1/S2 give the node aggregate exactly whenever the node lies
// inside the kernel support; uniform reduces to pure interval tests.
class PolynomialExactBounds final : public NodeBounds {
 public:
  PolynomialExactBounds(const KernelParams& params,
                        const BoundsOptions& options);
  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override;
  BoundPair EvaluateRegion(const NodeStats& stats,
                           const Rect& query_rect) const override;
  const char* name() const override { return "POLY"; }
};

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

// The method "camps" compared in the paper (Tables 2 and 6).
enum class Method {
  kExact,   // sequential scan, no index
  kAkde,    // min/max-distance bounds (also the tKDC bound function)
  kTkdc,    // alias of kAkde bounds; differs only in τ-mode usage
  kKarl,    // linear bounds (Gaussian only)
  kQuad,    // this paper
  kZorder,  // Z-order sampling baseline (no bounds; handled in sampling/)
};

const char* MethodName(Method method);

// Creates the bound function implementing `method` for `params`. Returns
// nullptr for unsupported combinations (paper Table 6): kExact/kZorder have
// no bound function; KARL supports only the Gaussian kernel.
std::unique_ptr<NodeBounds> MakeNodeBounds(Method method,
                                           const KernelParams& params,
                                           const BoundsOptions& options = {});

}  // namespace kdv

#endif  // QUADKDV_BOUNDS_NODE_BOUNDS_H_
