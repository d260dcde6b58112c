// Per-node aggregate statistics enabling O(d)/O(d^2) bound evaluation.
//
// Lemma 1 (KARL) needs  S1(q) = sum_i dist(q, p_i)^2  in O(d):
//   S1(q) = n*||q||^2 - 2 q.a_P + b_P
// with a_P = sum p_i, b_P = sum ||p_i||^2.
//
// Lemma 3 (QUAD) additionally needs  S2(q) = sum_i dist(q, p_i)^4  in O(d^2):
//   S2(q) = n*||q||^4 - 4*||q||^2 (q.a_P) - 4 q.v_P + 2*||q||^2 b_P + h_P
//           + 4 q^T C q
// with v_P = sum ||p_i||^2 p_i, h_P = sum ||p_i||^4, C = sum p_i p_i^T.
//
// All aggregates are accumulated once at index-build time, into the node's
// record of the KdTree (index/kdtree.h); NodeStats is a view of that record.
//
// A block may also hold y-weighted aggregates (non-negative y_i): n becomes
// Y = sum y_i and every sum gains a y_i factor, e.g. a_P = sum y_i p_i. The
// identities above then give sum y_i dist^2 and sum y_i dist^4, so any
// NodeStats consumer (bounds/node_bounds.h) bounds sum y_i K(q, p_i) from
// the same formulas. Kernel regression (regress/) uses this for its
// numerator.
#ifndef QUADKDV_INDEX_NODE_STATS_H_
#define QUADKDV_INDEX_NODE_STATS_H_

#include <algorithm>
#include <cstddef>

#include "geom/point.h"
#include "geom/rect.h"
#include "util/check.h"

namespace kdv {

// Read-only view of one node's aggregate block: BlockSize(d) contiguous
// doubles, laid out for a d-dimensional node as
//   [0]                      n (the point count)
//   [1, 1+d)    [1+d, 1+2d)  MBR lo, MBR hi
//   [1+2d, 1+3d)             a_P
//   [1+3d]                   b_P
//   [2+3d, 2+4d)             v_P
//   [2+4d]                   h_P
//   [3+4d, 3+4d+d(d+1)/2)    C, upper triangle row by row
// C is symmetric and, unweighted, its two halves are bitwise equal
// (p[a]*p[b] and p[b]*p[a] round identically and are summed in the same
// order), so the triangle holds all of it. Trivially copyable; valid while
// the storage (the KdTree, or a weighted augmentation of it) lives.
class NodeStats {
 public:
  NodeStats() = default;
  NodeStats(const double* block, int dim) : block_(block), dim_(dim) {}

  // Doubles in the aggregate block of a d-dimensional node.
  static constexpr size_t BlockSize(int dim) {
    return 3 + 4 * static_cast<size_t>(dim) +
           static_cast<size_t>(dim) * (dim + 1) / 2;
  }

  // Writes the aggregates of `count` > 0 points into block, which has
  // BlockSize(dim) doubles. The points are read from dim-major columns:
  // coordinate d of point i is columns[d * stride + i] (a KdTree's store,
  // offset to a node's first point, with stride num_points()). With
  // `weights` (weights[i] >= 0 belongs to point i) the aggregates are
  // y-weighted: n is the weight sum. The MBR spans every point either way.
  static void Accumulate(const double* columns, size_t stride, int dim,
                         size_t count, double* block,
                         const double* weights = nullptr);

  // The point count of an unweighted block.
  size_t count() const { return static_cast<size_t>(block_[0]); }
  // The n of the bound formulas, stored as a double: the point count, or
  // the weight sum Y of a weighted block.
  double n() const { return block_[0]; }
  int dim() const { return dim_; }
  RectView mbr() const {
    return RectView(block_ + 1, block_ + 1 + dim_, dim_);
  }
  const double* sum() const { return block_ + 1 + 2 * dim_; }   // a_P
  double sum_sq_norm() const { return block_[1 + 3 * dim_]; }  // b_P
  const double* sum_sq_norm_p() const { return block_ + 2 + 3 * dim_; }  // v_P
  double sum_quartic_norm() const { return block_[2 + 4 * dim_]; }     // h_P

  // C[a][b] = sum_i p_i[a] * p_i[b], for any a, b in [0, dim).
  double outer_product_sum(int a, int b) const {
    return a <= b ? outer()[TriangleIndex(a, b)] : outer()[TriangleIndex(b, a)];
  }

  // S1(q) = sum dist(q, p_i)^2 in O(d).
  double SumSquaredDistances(const Point& q) const {
    KDV_DCHECK(q.dim() == dim_);
    return S1(q.SquaredNorm(), Dot(q, sum()));
  }

  // S2(q) = sum dist(q, p_i)^4 in O(d^2).
  double SumQuarticDistances(const Point& q) const {
    KDV_DCHECK(q.dim() == dim_);
    return S2(q, q.SquaredNorm(), Dot(q, sum()));
  }

  // S1(q) and S2(q) together, computing ||q||^2 and q.a_P once; bitwise
  // equal to the two calls above. Inline, like both: they run once per
  // node bound evaluation.
  void SumDistanceMoments(const Point& q, double* s1, double* s2) const {
    KDV_DCHECK(q.dim() == dim_);
    const double q_sq = q.SquaredNorm();
    const double q_dot_a = Dot(q, sum());
    *s1 = S1(q_sq, q_dot_a);
    *s2 = S2(q, q_sq, q_dot_a);
  }

  // Exact range of S1(q) over all q in `query_rect`, in O(d).
  //
  // S1(q) = sum_d (n*q_d^2 - 2*q_d*a_P[d]) + b_P is separable: per dimension
  // a convex parabola in q_d with vertex at a_P[d]/n, so the minimum over
  // [lo_d, hi_d] is attained at the clamped vertex and the maximum at one of
  // the two endpoints. Used by the region bound profiles (tile refinement).
  void SumSquaredDistancesRange(RectView query_rect, double* s1_min,
                                double* s1_max) const;

 private:
  static double Dot(const Point& q, const double* v) {
    double s = 0.0;
    for (int i = 0; i < q.dim(); ++i) s += q[i] * v[i];
    return s;
  }

  // S1 from ||q||^2 and q.a_P.
  double S1(double q_sq, double q_dot_a) const {
    double s1 = n() * q_sq - 2.0 * q_dot_a + sum_sq_norm();
    // Guard against negative values from floating-point cancellation; the
    // true quantity is a sum of squares.
    return std::max(s1, 0.0);
  }

  // S2 from ||q||^2 and q.a_P.
  double S2(const Point& q, double q_sq, double q_dot_a) const {
    const double q_dot_v = Dot(q, sum_sq_norm_p());

    // q^T C q in O(d^2), row by row over the full symmetric matrix: entries
    // left of the diagonal are read from the triangle's column a.
    double qcq = 0.0;
    const int d = dim_;
    const double* c = outer();
    for (int a = 0; a < d; ++a) {
      double row = 0.0;
      int below = a;  // TriangleIndex(0, a)
      for (int b = 0; b < a; ++b) {
        row += c[below] * q[b];
        below += d - b - 1;
      }
      const double* c_row = c + TriangleIndex(a, a);
      for (int b = a; b < d; ++b) row += c_row[b - a] * q[b];
      qcq += q[a] * row;
    }

    double s2 = n() * q_sq * q_sq - 4.0 * q_sq * q_dot_a - 4.0 * q_dot_v +
                2.0 * q_sq * sum_sq_norm() + sum_quartic_norm() + 4.0 * qcq;
    return std::max(s2, 0.0);
  }

  const double* outer() const { return block_ + 3 + 4 * dim_; }
  // Offset of C[a][b], a <= b, in the row-by-row upper triangle: rows before
  // a hold d + (d-1) + ... + (d-a+1) entries.
  int TriangleIndex(int a, int b) const {
    return a * (2 * dim_ - a + 1) / 2 + (b - a);
  }

  const double* block_ = nullptr;
  int dim_ = 0;
};

}  // namespace kdv

#endif  // QUADKDV_INDEX_NODE_STATS_H_
