#include "regress/kernel_regressor.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "util/check.h"

namespace kdv {

namespace {

// Node entry carrying bounds for both aggregations.
struct QueueEntry {
  double priority = 0.0;
  int32_t node = -1;
  BoundPair numer;
  BoundPair denom;
};

struct PriorityLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return a.priority < b.priority;
  }
};

// SquaredDistance(q, tree.point(i)), bit for bit, read from the columns.
double SquaredDistanceTo(const KdTree& tree, const Point& q, size_t i) {
  double s = 0.0;
  for (int d = 0; d < tree.dim(); ++d) {
    const double diff = q[d] - tree.coords(d)[i];
    s += diff * diff;
  }
  return s;
}

}  // namespace

WeightedAugmentation::WeightedAugmentation(
    const KdTree& tree, const std::vector<double>& y_original)
    : dim_(tree.dim()), block_size_(NodeStats::BlockSize(tree.dim())) {
  KDV_CHECK_MSG(y_original.size() == tree.num_points(),
                "one target per point required");
  y_.resize(y_original.size());
  for (size_t i = 0; i < y_.size(); ++i) {
    double v = y_original[tree.original_index(i)];
    KDV_CHECK_MSG(v >= 0.0, "regression targets must be non-negative");
    y_[i] = v;
  }
  blocks_.resize(tree.num_nodes() * block_size_);
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const KdTree::Node node = tree.node(static_cast<int32_t>(id));
    NodeStats::Accumulate(tree.coords(0) + node.begin, tree.num_points(),
                          dim_, node.count(), blocks_.data() + id * block_size_,
                          y_.data() + node.begin);
  }
}

KernelRegressor::KernelRegressor(PointSet xs, std::vector<double> ys,
                                 const Options& options)
    : options_(options) {
  KDV_CHECK_MSG(!xs.empty(), "KernelRegressor requires data");
  KDV_CHECK_MSG(xs.size() == ys.size(), "one target per sample required");

  params_ = MakeScottParams(options_.kernel, xs);
  params_.weight = 1.0;  // N and D are raw sums; the ratio cancels weights
  if (options_.gamma_override >= 0.0) params_.gamma = options_.gamma_override;

  KdTree::Options tree_options;
  tree_options.leaf_size = options_.leaf_size;
  tree_ = std::make_unique<KdTree>(std::move(xs), tree_options);
  weights_ = std::make_unique<WeightedAugmentation>(*tree_, ys);
  bounds_ = MakeNodeBounds(options_.method, params_, options_.bounds);
}

double KernelRegressor::EstimateExact(const Point& q, bool* defined) const {
  const std::vector<double>& y = weights_->y_tree_order();
  double numer = 0.0;
  double denom = 0.0;
  for (size_t i = 0; i < tree_->num_points(); ++i) {
    double k = params_.EvalSquaredDistance(SquaredDistanceTo(*tree_, q, i));
    numer += y[i] * k;
    denom += k;
  }
  if (defined != nullptr) *defined = denom > 0.0;
  return denom > 0.0 ? numer / denom : 0.0;
}

KernelRegressor::Result KernelRegressor::Estimate(const Point& q,
                                                  double eps) const {
  KDV_CHECK(eps >= 0.0);
  Result result;

  if (bounds_ == nullptr) {
    bool defined = true;
    result.estimate = EstimateExact(q, &defined);
    result.lower = result.upper = result.estimate;
    result.defined = defined;
    result.converged = true;
    result.points_scanned = tree_->num_points();
    return result;
  }

  const std::vector<double>& y = weights_->y_tree_order();

  auto node_bounds = [&](int32_t id) {
    QueueEntry e;
    e.node = id;
    const NodeStats denom_stats = tree_->node(id).stats;
    const NodeStats numer_stats = weights_->node(id);
    // A node whose targets are all 0 adds exactly 0 to N. The bound
    // formulas divide by n (the tangent point is a mean over the node), so
    // Y = 0 must not reach them.
    if (numer_stats.n() > 0.0) e.numer = bounds_->Evaluate(numer_stats, q);
    e.denom = bounds_->Evaluate(denom_stats, q);
    // Numerator and denominator gaps are commensurable after scaling the
    // denominator gap by the node's mean target value.
    double mean_y = numer_stats.n() / denom_stats.n();
    e.priority = (e.numer.upper - e.numer.lower) +
                 mean_y * (e.denom.upper - e.denom.lower);
    return e;
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, PriorityLess>
      queue;
  QueueEntry root = node_bounds(tree_->root());
  double lb_n = root.numer.lower, ub_n = root.numer.upper;
  double lb_d = root.denom.lower, ub_d = root.denom.upper;
  queue.push(root);

  auto ratio_bounds = [&]() {
    double lo = ub_d > 0.0 ? lb_n / ub_d : 0.0;
    double hi = lb_d > 0.0 ? ub_n / lb_d
                           : (ub_n > 0.0 ? std::numeric_limits<double>::max()
                                         : 0.0);
    return std::make_pair(lo, std::max(hi, lo));
  };

  while (!queue.empty()) {
    auto [lo, hi] = ratio_bounds();
    if (ub_d <= 0.0) break;              // no kernel mass anywhere
    if (hi <= (1.0 + eps) * lo) break;   // certified
    QueueEntry top = queue.top();
    queue.pop();
    ++result.iterations;

    lb_n -= top.numer.lower;
    ub_n -= top.numer.upper;
    lb_d -= top.denom.lower;
    ub_d -= top.denom.upper;
    const KdTree::Node node = tree_->node(top.node);
    if (node.IsLeaf()) {
      double exact_n = 0.0, exact_d = 0.0;
      for (uint32_t i = node.begin; i < node.end; ++i) {
        double k =
            params_.EvalSquaredDistance(SquaredDistanceTo(*tree_, q, i));
        exact_n += y[i] * k;
        exact_d += k;
      }
      result.points_scanned += node.count();
      lb_n += exact_n;
      ub_n += exact_n;
      lb_d += exact_d;
      ub_d += exact_d;
    } else {
      for (int32_t child : {node.left, node.right}) {
        QueueEntry e = node_bounds(child);
        lb_n += e.numer.lower;
        ub_n += e.numer.upper;
        lb_d += e.denom.lower;
        ub_d += e.denom.upper;
        queue.push(e);
      }
    }
  }

  if (ub_n < lb_n) ub_n = lb_n;
  if (ub_d < lb_d) ub_d = lb_d;
  auto [lo, hi] = ratio_bounds();
  result.defined = ub_d > 0.0;
  result.lower = lo;
  result.upper = hi;
  result.estimate = result.defined ? 0.5 * (lo + hi) : 0.0;
  result.converged =
      !result.defined || hi <= (1.0 + eps) * lo || queue.empty();
  return result;
}

}  // namespace kdv
