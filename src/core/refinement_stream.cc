#include "core/refinement_stream.h"

#include <algorithm>
#include <cmath>

#include <utility>

#include "core/leaf_kernel.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"

namespace kdv {

namespace {

// Whether q lies right of `prev` in the same pixel row: every coordinate
// but the first equal, the first larger.
bool RightOfInRow(const Point& prev, const Point& q) {
  if (prev.dim() != q.dim() || q.dim() < 1 || !(q[0] > prev[0])) return false;
  for (int d = 1; d < q.dim(); ++d) {
    if (q[d] != prev[d]) return false;
  }
  return true;
}

}  // namespace

RefinementStream::RefinementStream(const KdTree* tree,
                                   const KernelParams& params,
                                   const NodeBounds* bounds)
    : tree_(tree), params_(params), bounds_(bounds) {
  KDV_CHECK(tree_ != nullptr);
}

RefinementStream::RefinementStream(const KdTree* tree,
                                   const KernelParams& params,
                                   const NodeBounds* bounds, const Point& q)
    : RefinementStream(tree, params, bounds) {
  Reset(q);
}

RefinementStream::RefinementStream(RefinementStream&& other) noexcept
    : tree_(other.tree_),
      params_(other.params_),
      bounds_(other.bounds_),
      q_(other.q_),
      heap_(std::move(other.heap_)),
      seed_nodes_(other.seed_nodes_),
      seed_count_(other.seed_count_),
      seed_next_(other.seed_next_),
      cut_frontier_(other.cut_frontier_),
      scanned_leaves_(std::move(other.scanned_leaves_)),
      lb_(other.lb_),
      ub_(other.ub_),
      best_lb_(other.best_lb_),
      best_ub_(other.best_ub_),
      poisoned_(other.poisoned_),
      iterations_(other.iterations_),
      points_scanned_(other.points_scanned_),
      node_evals_(other.node_evals_),
      charged_bytes_(other.charged_bytes_) {
  // The charge follows the heap storage; the moved-from stream owns neither.
  other.charged_bytes_ = 0;
}

RefinementStream& RefinementStream::operator=(
    RefinementStream&& other) noexcept {
  if (this == &other) return *this;
  if (charged_bytes_ > 0) {
    MemBudget::Global().Release(MemSource::kRefinementScratch, charged_bytes_);
  }
  tree_ = other.tree_;
  params_ = other.params_;
  bounds_ = other.bounds_;
  q_ = other.q_;
  heap_ = std::move(other.heap_);
  seed_nodes_ = other.seed_nodes_;
  seed_count_ = other.seed_count_;
  seed_next_ = other.seed_next_;
  cut_frontier_ = other.cut_frontier_;
  scanned_leaves_ = std::move(other.scanned_leaves_);
  lb_ = other.lb_;
  ub_ = other.ub_;
  best_lb_ = other.best_lb_;
  best_ub_ = other.best_ub_;
  poisoned_ = other.poisoned_;
  iterations_ = other.iterations_;
  points_scanned_ = other.points_scanned_;
  node_evals_ = other.node_evals_;
  charged_bytes_ = other.charged_bytes_;
  other.charged_bytes_ = 0;
  return *this;
}

RefinementStream::~RefinementStream() {
  if (charged_bytes_ > 0) {
    MemBudget::Global().Release(MemSource::kRefinementScratch, charged_bytes_);
  }
}

void RefinementStream::SyncCharge() {
  const uint64_t cap = heap_.capacity() * sizeof(QueueEntry) +
                       scanned_leaves_.capacity() * sizeof(int32_t);
  if (cap > charged_bytes_) {
    MemBudget::Global().Charge(MemSource::kRefinementScratch,
                               cap - charged_bytes_);
    charged_bytes_ = cap;
  }
}

void RefinementStream::Reset(const Point& q) {
  q_ = q;
  heap_.clear();  // keeps capacity: no per-query reallocation
  seed_nodes_ = nullptr;
  seed_count_ = seed_next_ = 0;
  cut_frontier_ = 0;
  scanned_leaves_.clear();
  lb_ = ub_ = best_lb_ = best_ub_ = 0.0;
  poisoned_ = false;
  iterations_ = 0;
  points_scanned_ = 0;
  node_evals_ = 0;

  if (bounds_ == nullptr) {
    // EXACT method: no refinement possible; the "bounds" are the answer.
    double exact = LeafSum(tree_->node(tree_->root()));
    points_scanned_ = tree_->num_points();
    if (!std::isfinite(exact)) {
      SetUniversalEnvelope();
      poisoned_ = true;
      return;
    }
    lb_ = ub_ = best_lb_ = best_ub_ = exact;
    return;
  }
  const int32_t root = tree_->root();
  BoundPair root_bounds = bounds_->Evaluate(tree_->node(root).stats, q_);
  ++node_evals_;
  KDV_FAILPOINT_CORRUPT("refine.step", root_bounds.lower, root_bounds.upper);
  if (!IntervalAcceptable(root_bounds.lower, root_bounds.upper)) {
    SetUniversalEnvelope();
    poisoned_ = true;
    return;
  }
  lb_ = best_lb_ = root_bounds.lower;
  ub_ = best_ub_ = root_bounds.upper;
  Push({ub_ - lb_, root, lb_, ub_});
}

void RefinementStream::Reset(const Point& q, const TileFrontier& frontier) {
  KDV_CHECK(bounds_ != nullptr);
  KDV_CHECK(frontier.valid);
  // A τ tile with quadrants seeds each pixel from the quadrant holding it.
  const TileFrontier& seed = frontier.SeedFor(q);
  KDV_CHECK(seed.valid);
  const bool reuse = frontier.id != 0 && frontier.id == cut_frontier_ &&
                     !poisoned_ && RightOfInRow(q_, q);
  q_ = q;
  poisoned_ = false;
  iterations_ = 0;
  points_scanned_ = 0;
  node_evals_ = 0;
  seed_nodes_ = seed.nodes.data();
  seed_count_ = seed.nodes.size();
  cut_frontier_ = frontier.id;
  if (reuse) {
    ReseedFromCut(seed);
    return;
  }
  heap_.clear();
  scanned_leaves_.clear();

  // Seed from the tile pass verbatim: the baseline plus each undecided
  // node's region interval is a certified envelope for every q in the tile,
  // and the region sums are precomputed, so priming costs ZERO per-pixel
  // bound evaluations and ZERO heap traffic. Frontier nodes enter the heap
  // lazily (see Step()): only the nodes whose region slack actually blocks
  // termination ever cost an Evaluate or a heap insert.
  seed_next_ = 0;
  lb_ = seed.base_lower + seed.frontier_lower;
  ub_ = seed.base_upper + seed.frontier_upper;
  if (!IntervalAcceptable(lb_, ub_)) {
    SetUniversalEnvelope();
    poisoned_ = true;
    return;
  }
  best_lb_ = lb_;
  best_ub_ = ub_;
  if (best_ub_ < best_lb_) best_ub_ = best_lb_;
}

void RefinementStream::ReseedFromCut(const TileFrontier& seed) {
  // The frontier nodes the previous query never injected still hold their
  // region intervals, valid for every pixel of the tile.
  lb_ = seed.base_lower;
  ub_ = seed.base_upper;
  for (size_t i = seed_next_; i < seed_count_; ++i) {
    lb_ += seed_nodes_[i].lower;
    ub_ += seed_nodes_[i].upper;
  }
  // The rest of the cut — the heap's nodes and the leaves scanned since —
  // is bounded afresh at q and heapified once.
  for (const int32_t leaf : scanned_leaves_) heap_.push_back({0.0, leaf});
  scanned_leaves_.clear();
  SyncCharge();
  for (QueueEntry& entry : heap_) {
    BoundPair b = bounds_->Evaluate(tree_->node(entry.node).stats, q_);
    KDV_FAILPOINT_CORRUPT("refine.step", b.lower, b.upper);
    entry = {b.upper - b.lower, entry.node, b.lower, b.upper};
    lb_ += b.lower;
    ub_ += b.upper;
  }
  node_evals_ += heap_.size();
  if (!IntervalAcceptable(lb_, ub_)) {
    SetUniversalEnvelope();
    poisoned_ = true;
    return;
  }
  // Floyd's heap construction with the stream's own sift-down, so the
  // layout, and with it the order the next reseed sums in, is this code's.
  for (size_t hole = heap_.size() / 2; hole-- > 0;) {
    SiftDown(hole, heap_[hole]);
  }
  best_lb_ = lb_;
  best_ub_ = ub_;
  if (best_ub_ < best_lb_) best_ub_ = best_lb_;
}

void RefinementStream::Push(const QueueEntry& entry) {
  heap_.push_back(entry);
  size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!PopsBefore(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
  SyncCharge();
}

void RefinementStream::PopTop() {
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) ReplaceTop(last);
}

void RefinementStream::SiftDown(size_t hole, QueueEntry entry) {
  const size_t size = heap_.size();
  for (size_t child = 2 * hole + 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && PopsBefore(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!PopsBefore(heap_[child], entry)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

double RefinementStream::LeafSum(const KdTree::Node& node) const {
  return kdv::LeafSum(*tree_, params_, node.begin, node.end, q_);
}

void RefinementStream::Poison() {
  poisoned_ = true;
  heap_.clear();
  seed_next_ = seed_count_;  // pending injections are abandoned too
}

void RefinementStream::SetUniversalEnvelope() {
  // Every kernel profile peaks at x == 0 with K(0) in (0, 1], so
  // 0 <= F_P(q) <= n·w·K(0) holds no matter what the bound math did.
  lb_ = best_lb_ = 0.0;
  ub_ = best_ub_ = static_cast<double>(tree_->num_points()) * params_.weight *
                   KernelProfile(params_.type, 0.0);
  heap_.clear();
  seed_next_ = seed_count_;
}

bool RefinementStream::Step() {
  if (poisoned_) return false;
  const bool have_seed = seed_next_ < seed_count_;
  if (heap_.empty() && !have_seed) return false;
  ++iterations_;

  // Best-first across both sources: the heap's loosest per-pixel entry vs
  // the loosest un-injected frontier node. A node's per-pixel gap never
  // exceeds its region gap and the frontier is sorted by descending region
  // gap, so when the heap top's gap is >= the next region gap, no
  // un-injected node can be the loosest — the ordering is sound without
  // evaluating anything.
  const bool inject =
      have_seed &&
      (heap_.empty() || seed_nodes_[seed_next_].upper -
                                seed_nodes_[seed_next_].lower >
                            heap_.front().gap);
  if (inject) {
    // Injection swaps the node's tile-wide region interval (already in the
    // running totals since Reset) for this pixel's own bounds — one
    // Evaluate, one heap insert. For pixels away from the tile's worst
    // corner this alone closes most of the region slack.
    const TileFrontier::Node& fn = seed_nodes_[seed_next_++];
    BoundPair pixel_bounds = bounds_->Evaluate(tree_->node(fn.node).stats, q_);
    ++node_evals_;
    KDV_FAILPOINT_CORRUPT("refine.step", pixel_bounds.lower,
                          pixel_bounds.upper);
    lb_ += pixel_bounds.lower - fn.lower;
    ub_ += pixel_bounds.upper - fn.upper;
    Push({pixel_bounds.upper - pixel_bounds.lower, fn.node,
          pixel_bounds.lower, pixel_bounds.upper});
  } else {
    const QueueEntry top = heap_.front();
    lb_ -= top.lower;
    ub_ -= top.upper;
    const KdTree::Node node = tree_->node(top.node);
    if (node.IsLeaf()) {
      PopTop();
      double exact = LeafSum(node);
      points_scanned_ += node.count();
      if (cut_frontier_ != 0) {
        scanned_leaves_.push_back(top.node);
        SyncCharge();
      }
      lb_ += exact;
      ub_ += exact;
    } else {
      QueueEntry children[2];
      const int32_t child_ids[2] = {node.left, node.right};
      for (int i = 0; i < 2; ++i) {
        BoundPair child_bounds =
            bounds_->Evaluate(tree_->node(child_ids[i]).stats, q_);
        ++node_evals_;
        KDV_FAILPOINT_CORRUPT("refine.step", child_bounds.lower,
                              child_bounds.upper);
        lb_ += child_bounds.lower;
        ub_ += child_bounds.upper;
        children[i] = {child_bounds.upper - child_bounds.lower, child_ids[i],
                       child_bounds.lower, child_bounds.upper};
      }
      // The expanded node's slot takes one child (a single sift-down); the
      // other is pushed.
      ReplaceTop(children[0]);
      Push(children[1]);
    }
  }

  if (!IntervalAcceptable(lb_, ub_)) {
    // Numeric fault (NaN/Inf totals or a non-drift inversion): keep the last
    // certified envelope rather than letting the bad values reach callers.
    Poison();
    return true;
  }

  if (exhausted()) {
    // Fully refined: running totals are the exact value (modulo FP drift);
    // they override the envelope.
    best_lb_ = lb_;
    best_ub_ = ub_;
  } else {
    best_lb_ = std::max(best_lb_, lb_);
    best_ub_ = std::min(best_ub_, ub_);
  }
  if (best_ub_ < best_lb_) best_ub_ = best_lb_;
  return true;
}

}  // namespace kdv
