#include "index/node_stats.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace kdv {

namespace {

// One body for every kind of block. Without weights every weight is the
// constant 1, which the compiler folds away, so tree records keep the
// unweighted arithmetic bit for bit (and its speed). kDim = 2 fixes the
// dimension of the KDV case at compile time, so its loops unroll, which
// halves the time a 2-d tree takes to fill its records; kDim = 0 takes the
// dimension from `dim`.
template <bool kWeighted, int kDim>
void AccumulateBlock(const double* columns, size_t stride, int dim,
                     size_t count, const double* weights, double* block) {
  KDV_CHECK(count > 0);
  const int d = kDim > 0 ? kDim : dim;
  KDV_CHECK(d >= 1 && d <= kMaxDim);
  std::fill(block, block + NodeStats::BlockSize(d), 0.0);
  if constexpr (!kWeighted) block[0] = static_cast<double>(count);
  double* lo = block + 1;
  double* hi = lo + d;
  double* sum = hi + d;
  double& sum_sq_norm = sum[d];
  double* sum_sq_norm_p = sum + d + 1;
  double& sum_quartic_norm = sum_sq_norm_p[d];
  double* outer = sum_sq_norm_p + d + 1;
  std::fill(lo, lo + d, std::numeric_limits<double>::infinity());
  std::fill(hi, hi + d, -std::numeric_limits<double>::infinity());

  double p[kMaxDim];
  for (size_t i = 0; i < count; ++i) {
    // Point i, then Point::SquaredNorm's sum in dimension order.
    double sq = 0.0;
    for (int a = 0; a < d; ++a) {
      p[a] = columns[static_cast<size_t>(a) * stride + i];
      sq += p[a] * p[a];
    }
    const double w = kWeighted ? weights[i] : 1.0;
    if constexpr (kWeighted) {
      KDV_DCHECK(w >= 0.0);
      block[0] += w;
    }
    const double w_sq = w * sq;
    sum_sq_norm += w_sq;
    sum_quartic_norm += w_sq * sq;
    double* c_row = outer;
    for (int a = 0; a < d; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
      const double w_p = w * p[a];
      sum[a] += w_p;
      sum_sq_norm_p[a] += w_sq * p[a];
      for (int b = a; b < d; ++b) c_row[b - a] += w_p * p[b];
      c_row += d - a;
    }
  }
}

template <bool kWeighted>
void AccumulateAnyDim(const double* columns, size_t stride, int dim,
                      size_t count, const double* weights, double* block) {
  if (dim == 2) {
    AccumulateBlock<kWeighted, 2>(columns, stride, dim, count, weights, block);
  } else {
    AccumulateBlock<kWeighted, 0>(columns, stride, dim, count, weights, block);
  }
}

}  // namespace

void NodeStats::Accumulate(const double* columns, size_t stride, int dim,
                           size_t count, double* block,
                           const double* weights) {
  if (weights == nullptr) {
    AccumulateAnyDim<false>(columns, stride, dim, count, nullptr, block);
  } else {
    AccumulateAnyDim<true>(columns, stride, dim, count, weights, block);
  }
}

void NodeStats::SumSquaredDistancesRange(RectView query_rect, double* s1_min,
                                         double* s1_max) const {
  KDV_DCHECK(query_rect.dim() == dim_);
  const double n = this->n();
  const double* sum = this->sum();
  double lo_total = sum_sq_norm();
  double hi_total = lo_total;
  for (int d = 0; d < dim_; ++d) {
    const double a = sum[d];
    const double lo = query_rect.lo(d);
    const double hi = query_rect.hi(d);
    // f(t) = n*t^2 - 2*a*t, convex with vertex at a/n.
    const double vertex = std::clamp(a / n, lo, hi);
    lo_total += n * vertex * vertex - 2.0 * a * vertex;
    const double f_lo = n * lo * lo - 2.0 * a * lo;
    const double f_hi = n * hi * hi - 2.0 * a * hi;
    hi_total += std::max(f_lo, f_hi);
  }
  // Same cancellation guard as SumSquaredDistances: the true quantity is a
  // sum of squares, so negatives are floating-point artifacts.
  *s1_min = std::max(lo_total, 0.0);
  *s1_max = std::max(hi_total, *s1_min);
}

}  // namespace kdv
