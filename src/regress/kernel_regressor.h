// Nadaraya–Watson kernel regression with certified bounds (paper §8 future
// work: "apply QUAD to other kernel-based machine learning models").
//
// The estimator at a query q is the ratio of two kernel aggregations,
//   R(q) = N(q) / D(q),  N(q) = Σ y_i K(q, p_i),  D(q) = Σ K(q, p_i),
// with non-negative targets y_i. N is D with every point weighted by its
// target, so both are bounded by one NodeBounds object: D from the tree's
// node records, N from y-weighted NodeStats blocks of the same nodes
// (index/node_stats.h). One best-first refinement maintains certified
// intervals on N and D simultaneously; the ratio interval [lbN/ubD, ubN/lbD]
// tightens until the requested relative error is certified — QUAD's tighter
// bounds certify earlier.
#ifndef QUADKDV_REGRESS_KERNEL_REGRESSOR_H_
#define QUADKDV_REGRESS_KERNEL_REGRESSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bounds/node_bounds.h"
#include "index/kdtree.h"
#include "index/node_stats.h"
#include "kernel/kernel.h"

namespace kdv {

// Per-tree augmentation: a y-weighted NodeStats block for every node of an
// existing KdTree, built from targets given in the *input* point order (the
// tree's build permutation is applied internally).
class WeightedAugmentation {
 public:
  // y_original.size() must equal tree.num_points(); all values >= 0.
  WeightedAugmentation(const KdTree& tree,
                       const std::vector<double>& y_original);

  // Node `id`'s aggregates weighted by target: n() is Y = Σ y_i over the
  // node's points, the MBR is the node's own.
  NodeStats node(int32_t id) const {
    return NodeStats(blocks_.data() + static_cast<size_t>(id) * block_size_,
                     dim_);
  }

  // Targets in tree order: y_tree_order()[i] belongs to tree.point(i).
  const std::vector<double>& y_tree_order() const { return y_; }

 private:
  int dim_ = 0;
  size_t block_size_ = 0;
  std::vector<double> y_;
  std::vector<double> blocks_;  // one NodeStats block per node, by node id
};

class KernelRegressor {
 public:
  struct Options {
    Method method = Method::kQuad;
    KernelType kernel = KernelType::kGaussian;
    size_t leaf_size = 32;
    double gamma_override = -1.0;  // >= 0 overrides Scott's rule
    BoundsOptions bounds;
  };

  struct Result {
    double estimate = 0.0;       // midpoint of the certified ratio interval
    double lower = 0.0;          // certified ratio bounds
    double upper = 0.0;
    bool converged = false;      // certified to the requested eps
    bool defined = true;         // false if D(q) == 0 (no kernel mass at q)
    uint64_t iterations = 0;
    uint64_t points_scanned = 0;
  };

  // xs: sample locations; ys: non-negative targets, one per location.
  KernelRegressor(PointSet xs, std::vector<double> ys, const Options& options);

  KernelRegressor(const KernelRegressor&) = delete;
  KernelRegressor& operator=(const KernelRegressor&) = delete;

  const KdTree& tree() const { return *tree_; }
  const KernelParams& params() const { return params_; }

  // Certified (1±eps) estimate of R(q).
  Result Estimate(const Point& q, double eps) const;

  // Brute-force Nadaraya–Watson, for validation. Returns 0 and sets
  // *defined = false (if non-null) when D(q) underflows to zero.
  double EstimateExact(const Point& q, bool* defined = nullptr) const;

 private:
  Options options_;
  std::unique_ptr<KdTree> tree_;
  std::unique_ptr<WeightedAugmentation> weights_;
  KernelParams params_;
  // Bounds N and D alike; null when the method has none for this kernel
  // (kExact, kZorder, KARL off the Gaussian), and Estimate scans exactly.
  std::unique_ptr<NodeBounds> bounds_;
};

}  // namespace kdv

#endif  // QUADKDV_REGRESS_KERNEL_REGRESSOR_H_
