#include "approx/grid_kde.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace kdv {

namespace {

// Distance, in data-space units, beyond which a point's kernel value falls
// below `truncation` (0 < truncation < 1).
double TruncationRadius(const KernelParams& params, double truncation) {
  KDV_CHECK(truncation > 0.0 && truncation < 1.0);
  if (HasFiniteSupport(params.type)) {
    return SupportEdge(params.type) / params.gamma;
  }
  // exp(-x) < t  <=>  x > ln(1/t).
  double x_cut = std::log(1.0 / truncation);
  if (UsesSquaredDistanceArgument(params.type)) {
    return std::sqrt(x_cut / params.gamma);  // x = gamma * d^2
  }
  return x_cut / params.gamma;  // x = gamma * d
}

}  // namespace

GridKde::GridKde(const KdTree& tree, const KernelParams& params,
                 const Rect& domain, const Options& options)
    : params_(params), domain_(domain),
      grid_size_(std::max(options.grid_size, 1)),
      radius_(TruncationRadius(params, options.truncation)) {
  KDV_CHECK(domain_.dim() >= 2 && tree.dim() >= 2);
  // Bin densely first, then compress to occupied cells (see header).
  std::vector<double> dense(static_cast<size_t>(grid_size_) * grid_size_,
                            0.0);
  const double* xs = tree.coords(0);
  const double* ys = tree.coords(1);
  for (size_t i = 0; i < tree.num_points(); ++i) {
    const double p[2] = {xs[i], ys[i]};
    if (!(p[0] >= domain_.lo(0) && p[0] <= domain_.hi(0) &&
          p[1] >= domain_.lo(1) && p[1] <= domain_.hi(1))) {
      continue;
    }
    int cell[2];
    for (int axis = 0; axis < 2; ++axis) {
      double len = domain_.Length(axis);
      double t = len > 0.0 ? (p[axis] - domain_.lo(axis)) / len : 0.5;
      cell[axis] = std::min(static_cast<int>(t * grid_size_), grid_size_ - 1);
    }
    dense[static_cast<size_t>(cell[1]) * grid_size_ + cell[0]] += 1.0;
  }
  row_start_.reserve(static_cast<size_t>(grid_size_) + 1);
  row_start_.push_back(0);
  for (int cy = 0; cy < grid_size_; ++cy) {
    for (int cx = 0; cx < grid_size_; ++cx) {
      double c = dense[static_cast<size_t>(cy) * grid_size_ + cx];
      if (c == 0.0) continue;
      col_.push_back(cx);
      counts_.push_back(c);
    }
    row_start_.push_back(static_cast<int>(col_.size()));
  }
}

Point GridKde::CellCenter(int cx, int cy) const {
  Point p(2);
  p[0] = domain_.lo(0) + (cx + 0.5) * domain_.Length(0) / grid_size_;
  p[1] = domain_.lo(1) + (cy + 0.5) * domain_.Length(1) / grid_size_;
  return p;
}

double GridKde::Evaluate(const Point& q) const {
  // Cell ranges overlapping the truncation disc around q.
  const double cell_w = domain_.Length(0) / grid_size_;
  const double cell_h = domain_.Length(1) / grid_size_;
  auto cell_range = [this](double lo, double q_coord, double cell_len,
                           double radius) {
    int first = 0, last = grid_size_ - 1;
    if (cell_len > 0.0) {
      first = std::max(
          0, static_cast<int>((q_coord - radius - lo) / cell_len) - 1);
      last = std::min(grid_size_ - 1,
                      static_cast<int>((q_coord + radius - lo) / cell_len) +
                          1);
    }
    return std::make_pair(first, last);
  };
  auto [x0, x1] = cell_range(domain_.lo(0), q[0], cell_w, radius_);
  auto [y0, y1] = cell_range(domain_.lo(1), q[1], cell_h, radius_);

  const double radius_sq = radius_ * radius_;
  double sum = 0.0;
  for (int cy = y0; cy <= y1; ++cy) {
    const int row_begin = row_start_[cy];
    const int row_end = row_start_[cy + 1];
    // First occupied cell in this row with cx >= x0.
    const int* first = std::lower_bound(col_.data() + row_begin,
                                        col_.data() + row_end, x0);
    for (int i = static_cast<int>(first - col_.data()); i < row_end; ++i) {
      const int cx = col_[i];
      if (cx > x1) break;
      double d_sq = SquaredDistance(q, CellCenter(cx, cy));
      if (d_sq > radius_sq) continue;
      sum += counts_[i] * params_.EvalSquaredDistance(d_sq);
    }
  }
  return params_.weight * sum;
}

DensityFrame GridKde::RenderFrame(const PixelGrid& grid) const {
  DensityFrame frame(grid.width(), grid.height());
  for (int py = 0; py < grid.height(); ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      frame.at(px, py) = Evaluate(grid.PixelCenter(px, py));
    }
  }
  return frame;
}

}  // namespace kdv
