#include "classify/kde_classifier.h"

#include <algorithm>
#include <utility>

#include "core/leaf_kernel.h"
#include "core/refinement_stream.h"
#include "util/check.h"

namespace kdv {

KdeClassifier::KdeClassifier(std::vector<PointSet> classes,
                             const Options& options)
    : options_(options) {
  KDV_CHECK_MSG(!classes.empty(), "KdeClassifier requires >= 1 class");

  // Pooled bandwidth: one gamma for all classes (as in kernel discriminant
  // analysis and tKDC's setup), class-conditional weights 1/|P_c|.
  PointSet pooled;
  for (const PointSet& c : classes) {
    KDV_CHECK_MSG(!c.empty(), "every class needs at least one point");
    pooled.insert(pooled.end(), c.begin(), c.end());
  }
  KernelParams shared = MakeScottParams(options_.kernel, pooled);
  if (options_.gamma_override >= 0.0) shared.gamma = options_.gamma_override;

  KdTree::Options tree_options;
  tree_options.leaf_size = options_.leaf_size;
  for (PointSet& c : classes) {
    KernelParams p = shared;
    p.weight = 1.0 / static_cast<double>(c.size());
    params_.push_back(p);
    bounds_.push_back(MakeNodeBounds(options_.method, p, options_.bounds));
    trees_.push_back(std::make_unique<KdTree>(std::move(c), tree_options));
  }
}

int KdeClassifier::ClassifyExact(const Point& q) const {
  int best = 0;
  double best_value = -1.0;
  for (int c = 0; c < num_classes(); ++c) {
    const KdTree& tree = *trees_[c];
    const double value =
        LeafSum(tree, params_[c], 0, static_cast<uint32_t>(tree.num_points()),
                q);
    if (value > best_value) {
      best_value = value;
      best = c;
    }
  }
  return best;
}

KdeClassifier::Result KdeClassifier::Classify(const Point& q) const {
  const int k = num_classes();
  std::vector<RefinementStream> streams;
  streams.reserve(k);
  for (int c = 0; c < k; ++c) {
    streams.emplace_back(trees_[c].get(), params_[c], bounds_[c].get(), q);
  }

  Result result;
  while (true) {
    // Champion: class with the highest certified lower bound.
    int champion = 0;
    for (int c = 1; c < k; ++c) {
      if (streams[c].lower() > streams[champion].lower()) champion = c;
    }
    // Strongest challenger: highest upper bound among the others.
    int challenger = -1;
    for (int c = 0; c < k; ++c) {
      if (c == champion) continue;
      if (challenger < 0 || streams[c].upper() > streams[challenger].upper()) {
        challenger = c;
      }
    }
    if (challenger < 0 ||
        streams[champion].lower() >= streams[challenger].upper()) {
      result.label = champion;
      result.certified = true;
      break;
    }

    // Refine the contender whose interval is loosest; ties and exhausted
    // streams fall through to the next loosest.
    int target = -1;
    double target_gap = -1.0;
    for (int c : {champion, challenger}) {
      if (!streams[c].exhausted() && streams[c].gap() > target_gap) {
        target = c;
        target_gap = streams[c].gap();
      }
    }
    if (target < 0) {
      // Both fully refined yet overlapping: exact tie (or FP-level overlap).
      // Resolve by exact values; smaller label wins ties.
      result.label = streams[challenger].lower() > streams[champion].lower()
                         ? challenger
                         : std::min(champion, challenger);
      result.certified = false;
      break;
    }
    streams[target].Step();
  }

  for (int c = 0; c < k; ++c) {
    result.iterations += streams[c].iterations();
    result.points_scanned += streams[c].points_scanned();
    result.lower.push_back(streams[c].lower());
    result.upper.push_back(streams[c].upper());
  }
  return result;
}

}  // namespace kdv
