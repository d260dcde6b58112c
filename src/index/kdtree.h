// kd-tree over a point set with per-node aggregate statistics.
//
// This is the shared indexing framework of the paper (§3.2): all compared
// methods (aKDE, tKDC, KARL, QUAD) run the same best-first refinement over
// this tree and differ only in their per-node bound functions. Scikit-learn's
// KernelDensity uses the same structure.
#ifndef QUADKDV_INDEX_KDTREE_H_
#define QUADKDV_INDEX_KDTREE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "index/node_stats.h"
#include "util/check.h"
#include "util/status.h"

namespace kdv {

// Immutable balanced kd-tree. The tree keeps each point once, in one
// coordinate store: dim columns of num_points() doubles (coords(d)), in tree
// order, so each node owns the slice [begin, end) of every column. Median
// splits on the widest MBR dimension give O(log n) depth.
//
// Nodes live in one contiguous, 64-byte-aligned array of fixed-stride
// records, one per node, holding everything a traversal step reads: the
// topology (begin, end, left, right; 16 bytes) followed by the node's
// aggregate block (index/node_stats.h). The stride is that size rounded up
// to a multiple of 64 bytes, so a record never shares a cache line with its
// neighbour: 128 bytes (two lines) for 2-d data. No node owns heap memory.
//
// Memory: 8·dim + 4 bytes per point (the columns and the permutation) plus
// one record per node. Leaves hold leaf_size/2 to leaf_size points, so at
// the default leaf size there is one node per 8 to 16 points: a 2-d point
// costs 28 to 36 bytes in all.
//
// Thread safety: the tree is deeply immutable once the constructor returns
// (the accessors are all const and there is no caching), so it may be read
// concurrently without synchronization.
class KdTree {
 public:
  // The first 16 bytes of every node record.
  struct Topology {
    uint32_t begin = 0;  // first point index (into the columns)
    uint32_t end = 0;    // one past last point index
    int32_t left = -1;   // child node ids; -1 for leaves
    int32_t right = -1;

    bool IsLeaf() const { return left < 0; }
    size_t count() const { return end - begin; }
  };

  // One node as read from its record: the topology by value plus a view of
  // the aggregates. Cheap to copy; the view is valid while the tree lives.
  struct Node : Topology {
    NodeStats stats;
  };

  // Record alignment and stride granule, in bytes.
  static constexpr size_t kRecordAlign = 64;

  struct Options {
    // Maximum number of points per leaf; Scikit-learn's default is 40.
    size_t leaf_size = 32;
  };

  // Builds the tree. `points` must be non-empty with uniform dimensionality.
  // They are copied into the columns and freed before the build starts.
  explicit KdTree(PointSet points) : KdTree(std::move(points), Options()) {}
  KdTree(PointSet points, Options options);

  // Reassembles a tree from serialized parts (see index/serialization.h):
  // the columns in tree order (coordinate d of point i at
  // columns[d * n + i], n = original_indices.size()), the build permutation,
  // and the node topology (aggregates are recomputed). Every structural
  // invariant is re-verified; returns DataLoss with a description of the
  // first violated invariant rather than trusting the input.
  static StatusOr<std::unique_ptr<KdTree>> FromSerialized(
      int dim, std::vector<double> columns,
      std::vector<uint32_t> original_indices, std::vector<Topology> nodes);

  KdTree(const KdTree&) = delete;
  KdTree& operator=(const KdTree&) = delete;
  KdTree(KdTree&&) = default;
  KdTree& operator=(KdTree&&) = default;

  int32_t root() const { return 0; }
  Node node(int32_t id) const {
    const double* rec = record(id);
    Topology t;
    std::memcpy(static_cast<void*>(&t), rec, sizeof(t));
    return Node{t, NodeStats(rec + kTopologyDoubles, dim_)};
  }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_points() const { return original_indices_.size(); }
  int dim() const { return dim_; }

  // The raw record of node `id` (topology, then aggregates), and the record
  // stride in bytes. For layout checks; everything else reads node(id).
  const double* record(int32_t id) const {
    KDV_DCHECK(id >= 0 && static_cast<size_t>(id) < num_nodes_);
    return records_ + static_cast<size_t>(id) * stride_;
  }
  size_t record_bytes() const { return stride_ * sizeof(double); }

  // Column d of the coordinate store: coordinate d of tree-order point i
  // is coords(d)[i], contiguous across i, and node(id) owns
  // [node.begin, node.end) of every column. The leaf kernels
  // (core/leaf_kernel.h) stream these arrays.
  const double* coords(int d) const {
    KDV_DCHECK(d >= 0 && d < dim_);
    return coords_.data() + static_cast<size_t>(d) * num_points();
  }

  // Tree-order point i, assembled from the columns, for callers that need a
  // Point (a query, a live set); scans read coords(d).
  Point point(size_t i) const {
    KDV_DCHECK(i < num_points());
    Point p(dim_);
    for (int d = 0; d < dim_; ++d) p[d] = coords(d)[i];
    return p;
  }

  // Build permutation: point(i) was points[original_index(i)] in the
  // input. Lets callers attach per-point payloads (labels, regression
  // targets, weights) to the reordered layout.
  uint32_t original_index(size_t i) const { return original_indices_[i]; }
  const std::vector<uint32_t>& original_indices() const {
    return original_indices_;
  }

  // Depth of the tree (root = 1). For diagnostics.
  int Depth() const;

 private:
  static constexpr size_t kTopologyDoubles = sizeof(Topology) / sizeof(double);

  KdTree() = default;  // for FromSerialized

  // A split key and the position of its point in the node's slice.
  using KeyedPosition = std::pair<double, uint32_t>;

  // Splits [begin, end) at its median along its widest dimension, and
  // recurses, moving every column and original_indices_ in lockstep.
  // `keyed` is scratch for num_points() entries.
  int32_t BuildRecursive(size_t begin, size_t end, size_t leaf_size,
                         KeyedPosition* keyed, std::vector<Topology>* nodes);
  int DepthRecursive(int32_t id) const;
  // Allocates the record array and fills every record from `nodes` and the
  // columns (which must already be in tree order).
  void FillRecords(const std::vector<Topology>& nodes);

  std::vector<double> coords_;  // dim_ columns of num_points() doubles
  std::vector<uint32_t> original_indices_;
  std::unique_ptr<double[]> record_storage_;
  double* records_ = nullptr;  // record_storage_, advanced to kRecordAlign
  size_t num_nodes_ = 0;
  size_t stride_ = 0;  // doubles per record
  int dim_ = 0;
};

}  // namespace kdv

#endif  // QUADKDV_INDEX_KDTREE_H_
