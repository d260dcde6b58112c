#include "workbench/workbench.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "data/datasets.h"
#include "sampling/zorder.h"
#include "util/check.h"

namespace kdv {

namespace {

Status ValidatePositiveFinite(const char* name, double value) {
  if (!std::isfinite(value) || value <= 0.0) {
    std::ostringstream oss;
    oss << name << " must be finite and > 0, got " << value;
    return InvalidArgumentError(oss.str());
  }
  return OkStatus();
}

}  // namespace

Status ValidateEps(double eps) { return ValidatePositiveFinite("eps", eps); }

Status ValidateTau(double tau) { return ValidatePositiveFinite("tau", tau); }

Status ValidateGamma(double gamma) {
  return ValidatePositiveFinite("gamma", gamma);
}

StatusOr<std::unique_ptr<Workbench>> Workbench::Create(PointSet points,
                                                       KernelType kernel,
                                                       Options options) {
  // gamma_override < 0 is the "use Scott's rule" sentinel; anything else
  // must be a usable bandwidth scale. Checked before indexing so a NaN
  // override can't silently poison every later bound computation.
  if (!(options.gamma_override < 0.0)) {
    KDV_RETURN_IF_ERROR(ValidateGamma(options.gamma_override));
  }
  IngestReport report;
  KDV_RETURN_IF_ERROR(
      ValidatePointSet(&points, options.validate, &report));
  auto bench =
      std::make_unique<Workbench>(std::move(points), kernel, options);
  bench->ingest_report_ = report;
  return bench;
}

Workbench::Workbench(PointSet points, KernelType kernel, Options options)
    : options_(options) {
  KDV_CHECK_MSG(!points.empty(), "Workbench requires a non-empty dataset");
  params_ = MakeScottParams(kernel, points);
  if (options_.gamma_override >= 0.0) params_.gamma = options_.gamma_override;
  data_bounds_ = BoundingBox(points);
  KdTree::Options tree_options;
  tree_options.leaf_size = options_.leaf_size;
  tree_ = std::make_unique<KdTree>(std::move(points), tree_options);
}

bool Workbench::Supports(Method method) const {
  switch (method) {
    case Method::kExact:
    case Method::kZorder:
      return true;
    case Method::kKarl:
      return params_.type == KernelType::kGaussian;
    default:
      return MakeNodeBounds(method, params_, options_.bounds) != nullptr;
  }
}

KdeEvaluator Workbench::MakeEvaluator(Method method) {
  KDV_CHECK_MSG(method != Method::kZorder,
                "use MakeZorderEvaluator for the Z-order baseline");
  if (method == Method::kExact) {
    return KdeEvaluator(tree_.get(), params_, nullptr);
  }
  auto it = bounds_cache_.find(method);
  if (it == bounds_cache_.end()) {
    std::unique_ptr<NodeBounds> bounds =
        MakeNodeBounds(method, params_, options_.bounds);
    KDV_CHECK_MSG(bounds != nullptr,
                  "method does not support this kernel (paper Table 6)");
    it = bounds_cache_.emplace(method, std::move(bounds)).first;
  }
  return KdeEvaluator(tree_.get(), params_, it->second.get());
}

KdeEvaluator Workbench::MakeZorderEvaluator(double eps, double delta) {
  const size_t n = tree_->num_points();
  const size_t m = ZorderSampleSize(eps, delta, n);
  auto it = zorder_cache_.find(m);
  if (it == zorder_cache_.end()) {
    ZorderContext ctx;
    PointSet sample = ZorderSample(*tree_, m);
    ctx.params = ScaleWeightForSample(params_, n, sample.size());
    KdTree::Options tree_options;
    tree_options.leaf_size = options_.leaf_size;
    ctx.tree = std::make_unique<KdTree>(std::move(sample), tree_options);
    it = zorder_cache_.emplace(m, std::move(ctx)).first;
  }
  // Z-order runs exact KDV on the reduced dataset (no bound function).
  return KdeEvaluator(it->second.tree.get(), it->second.params, nullptr);
}

}  // namespace kdv
