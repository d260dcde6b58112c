// Fixed-capacity d-dimensional point type.
//
// KDV operates on 2-d data; the generalized KDE experiments (paper §7.7) go
// up to d = 10. A fixed inline capacity needs no per-point heap allocation,
// but every Point is 136 bytes whatever its dimension: it is the query and
// ingest type. The kd-tree keeps its points as dim-major coordinate columns
// instead (index/kdtree.h).
#ifndef QUADKDV_GEOM_POINT_H_
#define QUADKDV_GEOM_POINT_H_

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/check.h"

namespace kdv {

// Maximum supported dimensionality.
inline constexpr int kMaxDim = 16;

// A point in R^d with d <= kMaxDim. The dimensionality is a runtime value;
// coordinates beyond dim() are kept at zero so dot products and distances may
// safely loop to dim() only.
class Point {
 public:
  Point() : dim_(0), coords_{} {}

  explicit Point(int dim) : dim_(dim), coords_{} {
    KDV_DCHECK(dim >= 0 && dim <= kMaxDim);
  }

  Point(std::initializer_list<double> coords) : dim_(0), coords_{} {
    KDV_CHECK(static_cast<int>(coords.size()) <= kMaxDim);
    for (double c : coords) coords_[dim_++] = c;
  }

  static Point FromVector(const std::vector<double>& v) {
    KDV_CHECK(static_cast<int>(v.size()) <= kMaxDim);
    Point p(static_cast<int>(v.size()));
    for (size_t i = 0; i < v.size(); ++i) p.coords_[i] = v[i];
    return p;
  }

  int dim() const { return dim_; }

  double operator[](int i) const {
    KDV_DCHECK(i >= 0 && i < dim_);
    return coords_[i];
  }
  double& operator[](int i) {
    KDV_DCHECK(i >= 0 && i < dim_);
    return coords_[i];
  }

  const double* data() const { return coords_; }

  // Squared Euclidean norm ||p||^2.
  double SquaredNorm() const {
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) s += coords_[i] * coords_[i];
    return s;
  }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.dim_ != b.dim_) return false;
    for (int i = 0; i < a.dim_; ++i) {
      if (a.coords_[i] != b.coords_[i]) return false;
    }
    return true;
  }

 private:
  int dim_;
  double coords_[kMaxDim];
};

// Dot product; both points must share dimensionality.
inline double Dot(const Point& a, const Point& b) {
  KDV_DCHECK(a.dim() == b.dim());
  double s = 0.0;
  for (int i = 0; i < a.dim(); ++i) s += a[i] * b[i];
  return s;
}

// Squared Euclidean distance.
inline double SquaredDistance(const Point& a, const Point& b) {
  KDV_DCHECK(a.dim() == b.dim());
  double s = 0.0;
  for (int i = 0; i < a.dim(); ++i) {
    double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

// Euclidean distance.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

using PointSet = std::vector<Point>;

}  // namespace kdv

#endif  // QUADKDV_GEOM_POINT_H_
