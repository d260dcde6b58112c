#include "regress/weighted_stats.h"

#include <algorithm>

#include "util/check.h"

namespace kdv {

WeightedNodeStats WeightedNodeStats::Compute(const Point* points,
                                             const double* y, size_t count) {
  KDV_CHECK(count > 0);
  const int d = points[0].dim();

  WeightedNodeStats s;
  s.dim_ = d;
  s.weighted_sum_ = Point(d);
  s.weighted_sq_norm_p_ = Point(d);
  s.outer_.assign(static_cast<size_t>(d) * d, 0.0);

  for (size_t i = 0; i < count; ++i) {
    const Point& p = points[i];
    const double w = y[i];
    KDV_DCHECK(w >= 0.0);
    double sq = p.SquaredNorm();
    s.weight_sum_ += w;
    s.weighted_sq_norm_ += w * sq;
    s.weighted_quartic_ += w * sq * sq;
    for (int a = 0; a < d; ++a) {
      s.weighted_sum_[a] += w * p[a];
      s.weighted_sq_norm_p_[a] += w * sq * p[a];
      for (int b = 0; b < d; ++b) {
        s.outer_[static_cast<size_t>(a) * d + b] += w * p[a] * p[b];
      }
    }
  }
  return s;
}

double WeightedNodeStats::WeightedSumSquaredDistances(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  double s1 = weight_sum_ * q.SquaredNorm() - 2.0 * Dot(q, weighted_sum_) +
              weighted_sq_norm_;
  return std::max(s1, 0.0);
}

double WeightedNodeStats::WeightedSumQuarticDistances(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  const double q_sq = q.SquaredNorm();
  const double q_dot_a = Dot(q, weighted_sum_);
  const double q_dot_v = Dot(q, weighted_sq_norm_p_);

  double qcq = 0.0;
  const int d = dim_;
  for (int a = 0; a < d; ++a) {
    double row = 0.0;
    const double* c_row = outer_.data() + static_cast<size_t>(a) * d;
    for (int b = 0; b < d; ++b) row += c_row[b] * q[b];
    qcq += q[a] * row;
  }

  double s2 = weight_sum_ * q_sq * q_sq - 4.0 * q_sq * q_dot_a -
              4.0 * q_dot_v + 2.0 * q_sq * weighted_sq_norm_ +
              weighted_quartic_ + 4.0 * qcq;
  return std::max(s2, 0.0);
}

WeightedAugmentation::WeightedAugmentation(
    const KdTree& tree, const std::vector<double>& y_original) {
  KDV_CHECK_MSG(y_original.size() == tree.num_points(),
                "one target per point required");
  y_.resize(y_original.size());
  for (size_t i = 0; i < y_.size(); ++i) {
    double v = y_original[tree.original_index(i)];
    KDV_CHECK_MSG(v >= 0.0, "regression targets must be non-negative");
    y_[i] = v;
  }
  stats_.resize(tree.num_nodes());
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const KdTree::Node node = tree.node(static_cast<int32_t>(id));
    stats_[id] = WeightedNodeStats::Compute(
        tree.points().data() + node.begin, y_.data() + node.begin,
        node.count());
  }
}

}  // namespace kdv
