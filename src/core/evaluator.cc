#include "core/evaluator.h"

#include <cmath>
#include <optional>

#include "core/leaf_kernel.h"
#include "core/refinement_stream.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace kdv {

namespace {

// Cooperative stop polling, amortized over check_interval iterations.
class StopPoller {
 public:
  explicit StopPoller(const QueryControl* control)
      : control_(control),
        active_(control != nullptr && control->CanStop()),
        interval_(control != nullptr && control->check_interval > 0
                      ? control->check_interval
                      : 1) {}

  bool ShouldStop() {
    if (!active_) return false;
    if (++since_check_ < interval_) return false;
    since_check_ = 0;
    return control_->CheckStop() != StopReason::kNone;
  }

 private:
  const QueryControl* control_;
  bool active_;
  uint32_t interval_;
  uint32_t since_check_ = 0;
};

}  // namespace

KdeEvaluator::KdeEvaluator(const KdTree* tree, const KernelParams& params,
                           const NodeBounds* bounds)
    : tree_(tree), params_(params), bounds_(bounds) {
  KDV_CHECK(tree_ != nullptr);
  KDV_CHECK(params_.gamma > 0.0);
  KDV_CHECK(params_.weight > 0.0);
}

double KdeEvaluator::EvaluateExact(const Point& q) const {
  const KdTree::Node root = tree_->node(tree_->root());
  return kdv::LeafSum(*tree_, params_, root.begin, root.end, q);
}

EvalResult KdeEvaluator::RefineEps(const Point& q, double eps,
                                   std::vector<BoundStep>* trace,
                                   const QueryControl* control,
                                   RefinementStream* scratch,
                                   const TileFrontier* frontier) const {
  KDV_CHECK(eps >= 0.0);
  std::optional<RefinementStream> local;
  RefinementStream& stream =
      scratch != nullptr ? *scratch : local.emplace(tree_, params_, bounds_);
  if (frontier != nullptr) {
    stream.Reset(q, *frontier);
  } else {
    stream.Reset(q);
  }
  if (trace != nullptr) trace->push_back({0, stream.lower(), stream.upper()});

  EvalResult result;
  StopPoller poller(control);
  KDV_FAILPOINT_STALL("refine.stall", control);
  while (stream.upper() > (1.0 + eps) * stream.lower()) {
    if (poller.ShouldStop()) {
      result.interrupted = true;
      break;
    }
    if (!stream.Step()) break;
    if (trace != nullptr) {
      trace->push_back({stream.iterations(), stream.lower(), stream.upper()});
    }
  }

  double lower = stream.lower();
  double upper = stream.upper();
  KDV_FAILPOINT_CORRUPT("eval.eps", lower, upper);
  result.numeric_fault = stream.poisoned();
  if (!IntervalAcceptable(lower, upper)) {
    // The interval itself is untrustworthy; fall back to the universal
    // envelope [0, n·w·K(0)] so the caller still gets a finite clamp.
    result.numeric_fault = true;
    lower = 0.0;
    upper = static_cast<double>(tree_->num_points()) * params_.weight *
            KernelProfile(params_.type, 0.0);
  }
  result.lower = lower;
  result.upper = upper;
  result.estimate = 0.5 * (result.lower + result.upper);
  result.iterations = stream.iterations();
  result.points_scanned = stream.points_scanned();
  result.node_evals = stream.node_evals();
  result.converged =
      !result.numeric_fault && !result.interrupted &&
      (result.upper <= (1.0 + eps) * result.lower || stream.exhausted());
  return result;
}

TauResult KdeEvaluator::RefineTau(const Point& q, double tau,
                                  const QueryControl* control,
                                  RefinementStream* scratch,
                                  const TileFrontier* frontier) const {
  std::optional<RefinementStream> local;
  RefinementStream& stream =
      scratch != nullptr ? *scratch : local.emplace(tree_, params_, bounds_);
  if (frontier != nullptr) {
    stream.Reset(q, *frontier);
  } else {
    stream.Reset(q);
  }
  StopPoller poller(control);
  KDV_FAILPOINT_STALL("refine.stall", control);
  TauResult result;
  while (stream.lower() < tau && stream.upper() > tau) {
    if (poller.ShouldStop()) {
      result.interrupted = true;
      break;
    }
    if (!stream.Step()) break;
  }

  double lower = stream.lower();
  double upper = stream.upper();
  KDV_FAILPOINT_CORRUPT("eval.tau", lower, upper);
  result.numeric_fault = stream.poisoned();
  if (!IntervalAcceptable(lower, upper)) {
    result.numeric_fault = true;
    lower = 0.0;
    upper = static_cast<double>(tree_->num_points()) * params_.weight *
            KernelProfile(params_.type, 0.0);
  }
  result.lower = lower;
  result.upper = upper;
  result.iterations = stream.iterations();
  result.points_scanned = stream.points_scanned();
  result.node_evals = stream.node_evals();
  // lower >= tau certifies "above"; upper <= tau certifies "below". Once
  // exhausted, lower == upper == F_P(q) and the comparison is exact. An
  // interrupted or clamped query answers conservatively from its lower
  // bound.
  result.above_threshold = result.lower >= tau;
  return result;
}

}  // namespace kdv
