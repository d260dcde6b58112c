#include "index/kdtree.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <numeric>

#include "util/check.h"

namespace kdv {

namespace {

// Bounding box over an index range via indirection (build-time only).
Rect RangeMbr(const PointSet& points, const std::vector<uint32_t>& idx,
              size_t begin, size_t end, int dim) {
  Rect mbr(dim);
  for (size_t i = begin; i < end; ++i) mbr.Expand(points[idx[i]]);
  return mbr;
}

}  // namespace

KdTree::KdTree(PointSet points, Options options) {
  KDV_CHECK_MSG(!points.empty(), "KdTree requires a non-empty point set");
  dim_ = points[0].dim();
  for (const Point& p : points) {
    KDV_CHECK_MSG(p.dim() == dim_, "KdTree points must share dimensionality");
  }
  const size_t leaf_size = std::max<size_t>(options.leaf_size, 1);

  // Phase 1: build the split structure over an index array, so the
  // input-order permutation is available to callers with per-point payloads.
  original_indices_.resize(points.size());
  std::iota(original_indices_.begin(), original_indices_.end(), 0u);
  std::vector<Topology> nodes;
  nodes.reserve(2 * (points.size() / leaf_size + 1));
  BuildRecursive(points, 0, points.size(), leaf_size, &nodes);

  // Phase 2: gather points into tree order and fill the node records.
  points_.reserve(points.size());
  for (uint32_t idx : original_indices_) points_.push_back(points[idx]);
  FillRecords(nodes);
  BuildSoA();
}

void KdTree::FillRecords(const std::vector<Topology>& nodes) {
  static_assert(sizeof(Topology) == 2 * sizeof(double));
  constexpr size_t kGranule = kRecordAlign / sizeof(double);
  stride_ = (kTopologyDoubles + NodeStats::BlockSize(dim_) + kGranule - 1) /
            kGranule * kGranule;
  num_nodes_ = nodes.size();
  const size_t total = num_nodes_ * stride_;
  records_.reset(static_cast<double*>(::operator new[](
      total * sizeof(double), std::align_val_t(kRecordAlign))));
  std::fill(records_.get(), records_.get() + total, 0.0);  // padding too
  for (size_t id = 0; id < num_nodes_; ++id) {
    double* rec = records_.get() + id * stride_;
    const Topology& t = nodes[id];
    std::memcpy(rec, &t, sizeof(t));
    NodeStats::Accumulate(points_.data() + t.begin, t.count(),
                          rec + kTopologyDoubles);
  }
}

void KdTree::BuildSoA() {
  const size_t n = points_.size();
  soa_coords_.resize(static_cast<size_t>(dim_) * n);
  for (int d = 0; d < dim_; ++d) {
    double* out = soa_coords_.data() + static_cast<size_t>(d) * n;
    for (size_t i = 0; i < n; ++i) out[i] = points_[i][d];
  }
}

int32_t KdTree::BuildRecursive(const PointSet& input, size_t begin,
                               size_t end, size_t leaf_size,
                               std::vector<Topology>* nodes) {
  KDV_DCHECK(begin < end);
  const int32_t id = static_cast<int32_t>(nodes->size());
  nodes->emplace_back();
  // Note: *nodes may reallocate during recursion; never hold a Topology&
  // across a recursive call.
  (*nodes)[id].begin = static_cast<uint32_t>(begin);
  (*nodes)[id].end = static_cast<uint32_t>(end);

  if (end - begin > leaf_size) {
    const int split_dim =
        RangeMbr(input, original_indices_, begin, end, dim_)
            .WidestDimension();
    const size_t mid = begin + (end - begin) / 2;
    std::nth_element(original_indices_.begin() + begin,
                     original_indices_.begin() + mid,
                     original_indices_.begin() + end,
                     [&input, split_dim](uint32_t a, uint32_t b) {
                       return input[a][split_dim] < input[b][split_dim];
                     });
    // nth_element guarantees begin < mid < end, so both sides are non-empty
    // even when all coordinates along split_dim are equal.
    int32_t left = BuildRecursive(input, begin, mid, leaf_size, nodes);
    int32_t right = BuildRecursive(input, mid, end, leaf_size, nodes);
    (*nodes)[id].left = left;
    (*nodes)[id].right = right;
  }
  return id;
}

StatusOr<std::unique_ptr<KdTree>> KdTree::FromSerialized(
    PointSet points, std::vector<uint32_t> original_indices,
    std::vector<Topology> nodes) {
  if (points.empty()) return DataLossError("serialized tree has no points");
  if (nodes.empty()) return DataLossError("serialized tree has no nodes");
  if (original_indices.size() != points.size()) {
    return DataLossError("permutation size does not match point count");
  }
  const size_t n = points.size();
  const int dim = points[0].dim();
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return DataLossError("serialized points have mixed dimensionality");
    }
  }
  // The permutation must be a bijection on [0, n).
  std::vector<bool> seen(n, false);
  for (uint32_t idx : original_indices) {
    if (idx >= n || seen[idx]) {
      return DataLossError(
          "original_indices is not a permutation of [0, num_points)");
    }
    seen[idx] = true;
  }

  // Validate the structure with an explicit DFS: every node reached exactly
  // once from the root, children partition their parent, root covers all.
  if (nodes[0].begin != 0 || nodes[0].end != n) {
    return DataLossError("root node does not cover all points");
  }
  std::vector<bool> visited(nodes.size(), false);
  std::vector<int32_t> stack = {0};
  size_t reached = 0;
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    if (id < 0 || static_cast<size_t>(id) >= nodes.size()) {
      return DataLossError("node child id out of range");
    }
    if (visited[id]) {
      return DataLossError("node graph contains a cycle or shared child");
    }
    visited[id] = true;
    ++reached;
    const Topology& node = nodes[id];
    if (node.begin >= node.end || node.end > n) {
      return DataLossError("node point range is empty or out of bounds");
    }
    const bool has_left = node.left >= 0;
    const bool has_right = node.right >= 0;
    if (has_left != has_right) {
      return DataLossError("internal node is missing one child");
    }
    if (has_left) {
      if (static_cast<size_t>(node.left) >= nodes.size() ||
          static_cast<size_t>(node.right) >= nodes.size()) {
        return DataLossError("node child id out of range");
      }
      const Topology& l = nodes[node.left];
      const Topology& r = nodes[node.right];
      if (l.begin != node.begin || l.end != r.begin || r.end != node.end) {
        return DataLossError("child ranges do not partition their parent");
      }
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (reached != nodes.size()) {
    return DataLossError("unreachable nodes in serialized tree");
  }

  std::unique_ptr<KdTree> tree(new KdTree());
  tree->dim_ = dim;
  tree->points_ = std::move(points);
  tree->original_indices_ = std::move(original_indices);
  tree->FillRecords(nodes);
  tree->BuildSoA();
  return tree;
}

int KdTree::Depth() const { return DepthRecursive(root()); }

int KdTree::DepthRecursive(int32_t id) const {
  const Node n = node(id);
  if (n.IsLeaf()) return 1;
  return 1 + std::max(DepthRecursive(n.left), DepthRecursive(n.right));
}

}  // namespace kdv
