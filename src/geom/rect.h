// Axis-aligned minimum bounding rectangle (MBR) in R^d.
//
// Bound functions (paper §3.3, §4, §5) need the minimum and maximum distance
// between a query pixel q and the MBR of an index node's points.
#ifndef QUADKDV_GEOM_RECT_H_
#define QUADKDV_GEOM_RECT_H_

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/point.h"
#include "util/check.h"

namespace kdv {

// Read-only view of an axis-aligned box stored as two arrays of dim()
// doubles (lo, hi) somewhere else: a Rect, or the MBR inside a kd-tree node
// record (index/kdtree.h). Every distance query is defined here once; Rect
// forwards to its view. Trivially copyable, pass by value.
class RectView {
 public:
  RectView() = default;
  RectView(const double* lo, const double* hi, int dim)
      : lo_(lo), hi_(hi), dim_(dim) {}

  int dim() const { return dim_; }

  double lo(int i) const {
    KDV_DCHECK(i >= 0 && i < dim_);
    return lo_[i];
  }
  double hi(int i) const {
    KDV_DCHECK(i >= 0 && i < dim_);
    return hi_[i];
  }

  bool Contains(const Point& p) const {
    KDV_DCHECK(p.dim() == dim_);
    for (int i = 0; i < dim_; ++i) {
      if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
    }
    return true;
  }

  // Extent along dimension i.
  double Length(int i) const { return hi_[i] - lo_[i]; }

  // Index of the dimension with the largest extent (split heuristic).
  int WidestDimension() const {
    int best = 0;
    double best_len = -1.0;
    for (int i = 0; i < dim_; ++i) {
      double len = Length(i);
      if (len > best_len) {
        best_len = len;
        best = i;
      }
    }
    return best;
  }

  Point Center() const {
    Point c(dim_);
    for (int i = 0; i < dim_; ++i) c[i] = 0.5 * (lo_[i] + hi_[i]);
    return c;
  }

  // Squared minimum distance from q to any point of the box (0 if inside).
  double MinSquaredDistance(const Point& q) const {
    KDV_DCHECK(q.dim() == dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      double d = 0.0;
      if (q[i] < lo_[i]) {
        d = lo_[i] - q[i];
      } else if (q[i] > hi_[i]) {
        d = q[i] - hi_[i];
      }
      s += d * d;
    }
    return s;
  }

  // Squared maximum distance from q to any point of the box (attained at the
  // farthest corner).
  double MaxSquaredDistance(const Point& q) const {
    KDV_DCHECK(q.dim() == dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      double d = std::max(std::abs(q[i] - lo_[i]), std::abs(q[i] - hi_[i]));
      s += d * d;
    }
    return s;
  }

  double MinDistance(const Point& q) const {
    return std::sqrt(MinSquaredDistance(q));
  }
  double MaxDistance(const Point& q) const {
    return std::sqrt(MaxSquaredDistance(q));
  }

  // Squared minimum distance between any point of this box and any point of
  // `other` (0 if they intersect).
  double MinSquaredDistance(RectView other) const {
    KDV_DCHECK(other.dim_ == dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      double d = 0.0;
      if (other.hi_[i] < lo_[i]) {
        d = lo_[i] - other.hi_[i];
      } else if (other.lo_[i] > hi_[i]) {
        d = other.lo_[i] - hi_[i];
      }
      s += d * d;
    }
    return s;
  }

  // Squared maximum distance between any point of this box and any point of
  // `other` (attained at a corner pair).
  double MaxSquaredDistance(RectView other) const {
    KDV_DCHECK(other.dim_ == dim_);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      double d = std::max(std::abs(other.hi_[i] - lo_[i]),
                          std::abs(hi_[i] - other.lo_[i]));
      s += d * d;
    }
    return s;
  }

 private:
  const double* lo_ = nullptr;
  const double* hi_ = nullptr;
  int dim_ = 0;
};

// Axis-aligned box [lo, hi] per dimension, owning its coordinates. An empty
// Rect (no points yet) has lo > hi in every dimension. Converts implicitly to
// RectView, which carries all the distance queries.
class Rect {
 public:
  Rect() : dim_(0) {}

  explicit Rect(int dim) : dim_(dim) {
    KDV_DCHECK(dim >= 0 && dim <= kMaxDim);
    for (int i = 0; i < dim_; ++i) {
      lo_[i] = std::numeric_limits<double>::infinity();
      hi_[i] = -std::numeric_limits<double>::infinity();
    }
  }

  static Rect FromPoints(const Point* points, size_t n, int dim) {
    Rect r(dim);
    for (size_t i = 0; i < n; ++i) r.Expand(points[i]);
    return r;
  }

  RectView view() const { return RectView(lo_, hi_, dim_); }
  // Implicit, like std::string to std::string_view: a view is two pointers.
  operator RectView() const { return view(); }

  int dim() const { return dim_; }
  bool empty() const { return dim_ == 0 || lo_[0] > hi_[0]; }

  double lo(int i) const { return view().lo(i); }
  double hi(int i) const { return view().hi(i); }

  void set_lo(int i, double v) { lo_[i] = v; }
  void set_hi(int i, double v) { hi_[i] = v; }

  // Grows the box to contain p.
  void Expand(const Point& p) {
    KDV_DCHECK(p.dim() == dim_);
    for (int i = 0; i < dim_; ++i) {
      lo_[i] = std::min(lo_[i], p[i]);
      hi_[i] = std::max(hi_[i], p[i]);
    }
  }

  void Expand(const Rect& other) {
    KDV_DCHECK(other.dim_ == dim_);
    for (int i = 0; i < dim_; ++i) {
      lo_[i] = std::min(lo_[i], other.lo_[i]);
      hi_[i] = std::max(hi_[i], other.hi_[i]);
    }
  }

  bool Contains(const Point& p) const { return view().Contains(p); }

  double Length(int i) const { return view().Length(i); }
  int WidestDimension() const { return view().WidestDimension(); }
  Point Center() const { return view().Center(); }

  double MinSquaredDistance(const Point& q) const {
    return view().MinSquaredDistance(q);
  }
  double MaxSquaredDistance(const Point& q) const {
    return view().MaxSquaredDistance(q);
  }
  double MinDistance(const Point& q) const { return view().MinDistance(q); }
  double MaxDistance(const Point& q) const { return view().MaxDistance(q); }
  double MinSquaredDistance(RectView other) const {
    return view().MinSquaredDistance(other);
  }
  double MaxSquaredDistance(RectView other) const {
    return view().MaxSquaredDistance(other);
  }

 private:
  int dim_;
  double lo_[kMaxDim];
  double hi_[kMaxDim];
};

}  // namespace kdv

#endif  // QUADKDV_GEOM_RECT_H_
