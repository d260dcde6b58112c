#include "index/kdtree.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "geom/rect.h"
#include "util/check.h"

namespace kdv {

KdTree::KdTree(PointSet points, Options options) {
  KDV_CHECK_MSG(!points.empty(), "KdTree requires a non-empty point set");
  dim_ = points[0].dim();
  const size_t n = points.size();
  const size_t leaf_size = std::max<size_t>(options.leaf_size, 1);

  // Copy the input into the columns and free it: the build and every reader
  // work on the columns alone.
  coords_.resize(static_cast<size_t>(dim_) * n);
  for (size_t i = 0; i < n; ++i) {
    const Point& p = points[i];
    KDV_CHECK_MSG(p.dim() == dim_, "KdTree points must share dimensionality");
    for (int d = 0; d < dim_; ++d) {
      coords_[static_cast<size_t>(d) * n + i] = p[d];
    }
  }
  PointSet().swap(points);

  // Split in place. original_indices_ moves with the columns, so the
  // input-order permutation is available to callers with per-point payloads.
  original_indices_.resize(n);
  std::iota(original_indices_.begin(), original_indices_.end(), 0u);
  std::vector<Topology> nodes;
  nodes.reserve(2 * (n / leaf_size + 1));
  {
    std::vector<KeyedPosition> keyed(n);
    BuildRecursive(0, n, leaf_size, keyed.data(), &nodes);
  }
  FillRecords(nodes);
}

void KdTree::FillRecords(const std::vector<Topology>& nodes) {
  static_assert(sizeof(Topology) == 2 * sizeof(double));
  constexpr size_t kGranule = kRecordAlign / sizeof(double);
  stride_ = (kTopologyDoubles + NodeStats::BlockSize(dim_) + kGranule - 1) /
            kGranule * kGranule;
  num_nodes_ = nodes.size();
  const size_t total = num_nodes_ * stride_;
  // Aligned inside one plain, zeroed allocation (padding included): an
  // aligned operator new splits a heap chunk, and the small leading fragment
  // it frees can pin the heap below the next large allocation. Building an
  // index repeatedly crept the main heap by 256 KiB per build that way.
  record_storage_ = std::make_unique<double[]>(total + kGranule - 1);
  void* aligned = record_storage_.get();
  size_t space = (total + kGranule - 1) * sizeof(double);
  records_ = static_cast<double*>(
      std::align(kRecordAlign, total * sizeof(double), aligned, space));
  for (size_t id = 0; id < num_nodes_; ++id) {
    double* rec = records_ + id * stride_;
    const Topology& t = nodes[id];
    std::memcpy(rec, &t, sizeof(t));
    NodeStats::Accumulate(coords_.data() + t.begin, num_points(), dim_,
                          t.count(), rec + kTopologyDoubles);
  }
}

int32_t KdTree::BuildRecursive(size_t begin, size_t end, size_t leaf_size,
                               KeyedPosition* keyed,
                               std::vector<Topology>* nodes) {
  KDV_DCHECK(begin < end);
  const int32_t id = static_cast<int32_t>(nodes->size());
  nodes->emplace_back();
  // Note: *nodes may reallocate during recursion; never hold a Topology&
  // across a recursive call.
  (*nodes)[id].begin = static_cast<uint32_t>(begin);
  (*nodes)[id].end = static_cast<uint32_t>(end);

  const size_t count = end - begin;
  if (count > leaf_size) {
    const size_t n = num_points();
    // The slice's MBR, one contiguous scan per column, with Rect::Expand's
    // min/max in point order.
    Rect mbr(dim_);
    for (int d = 0; d < dim_; ++d) {
      const double* c = coords_.data() + static_cast<size_t>(d) * n;
      double lo = mbr.lo(d);
      double hi = mbr.hi(d);
      for (size_t i = begin; i < end; ++i) {
        lo = std::min(lo, c[i]);
        hi = std::max(hi, c[i]);
      }
      mbr.set_lo(d, lo);
      mbr.set_hi(d, hi);
    }
    const int split_dim = mbr.WidestDimension();

    // nth_element compares the keys alone, so it makes the moves an index
    // array compared through the points would make, and the positions then
    // say where each point went.
    double* split = coords_.data() + static_cast<size_t>(split_dim) * n + begin;
    for (size_t k = 0; k < count; ++k) {
      keyed[k] = {split[k], static_cast<uint32_t>(k)};
    }
    const size_t half = count / 2;
    std::nth_element(
        keyed, keyed + half, keyed + count,
        [](const KeyedPosition& a, const KeyedPosition& b) {
          return a.first < b.first;
        });
    // Move every column, then the permutation, to the split order, staging
    // each in the pairs' own slots: the split column first, from the keys.
    for (size_t k = 0; k < count; ++k) split[k] = keyed[k].first;
    for (int d = 0; d < dim_; ++d) {
      if (d == split_dim) continue;
      double* c = coords_.data() + static_cast<size_t>(d) * n + begin;
      for (size_t k = 0; k < count; ++k) keyed[k].first = c[keyed[k].second];
      for (size_t k = 0; k < count; ++k) c[k] = keyed[k].first;
    }
    uint32_t* idx = original_indices_.data() + begin;
    for (size_t k = 0; k < count; ++k) keyed[k].second = idx[keyed[k].second];
    for (size_t k = 0; k < count; ++k) idx[k] = keyed[k].second;

    // nth_element guarantees begin < mid < end, so both sides are non-empty
    // even when all coordinates along split_dim are equal.
    const size_t mid = begin + half;
    int32_t left = BuildRecursive(begin, mid, leaf_size, keyed, nodes);
    int32_t right = BuildRecursive(mid, end, leaf_size, keyed, nodes);
    (*nodes)[id].left = left;
    (*nodes)[id].right = right;
  }
  return id;
}

StatusOr<std::unique_ptr<KdTree>> KdTree::FromSerialized(
    int dim, std::vector<double> columns,
    std::vector<uint32_t> original_indices, std::vector<Topology> nodes) {
  const size_t n = original_indices.size();
  if (n == 0) return DataLossError("serialized tree has no points");
  if (nodes.empty()) return DataLossError("serialized tree has no nodes");
  if (dim < 1 || dim > kMaxDim) {
    return DataLossError("serialized dim " + std::to_string(dim) +
                         " outside [1, " + std::to_string(kMaxDim) + "]");
  }
  if (columns.size() != static_cast<size_t>(dim) * n) {
    return DataLossError("coordinate count does not match point count");
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
  tree->coords_ = std::move(columns);
  tree->original_indices_ = std::move(original_indices);
  tree->FillRecords(nodes);
  return tree;
}

int KdTree::Depth() const { return DepthRecursive(root()); }

int KdTree::DepthRecursive(int32_t id) const {
  const Node n = node(id);
  if (n.IsLeaf()) return 1;
  return 1 + std::max(DepthRecursive(n.left), DepthRecursive(n.right));
}

}  // namespace kdv
