// Grid-convolution KDE — the "function approximation" camp of the paper's
// Table 2 (fast Gauss transform descendants, Raykar et al. / Yang et al.).
//
// Points are binned onto a G x G grid; a query's density is approximated by
// summing count(cell) * K(q, cell_center) over cells within the kernel's
// truncation radius. Fast and simple, but the result carries NO error
// guarantee (binning + truncation error is unbounded relative to ε at
// low-density pixels) — which is precisely why the paper's εKDV/τKDV
// problem statements exclude this camp. Included as a baseline to
// demonstrate that trade-off (bench_ext_gridkde); nothing on the serve path
// uses it: the serve layer's coarse tier is a certified εKDV frame at a
// relaxed ε (serve/resilient_renderer.h).
#ifndef QUADKDV_APPROX_GRID_KDE_H_
#define QUADKDV_APPROX_GRID_KDE_H_

#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"
#include "viz/frame.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Thread safety: the binned grid is built in the constructor and only read
// afterwards (all query methods are const with no caching), so one GridKde
// may be shared across threads.
class GridKde {
 public:
  struct Options {
    int grid_size = 256;        // cells per axis
    double truncation = 1e-4;   // drop kernel contributions below this value
  };

  // Bins the tree's points over `domain`, reading the first two columns;
  // points outside the domain are skipped, so a caller that queries a
  // viewport bins over the viewport grown by truncation_radius(). 2-d only.
  GridKde(const KdTree& tree, const KernelParams& params, const Rect& domain,
          const Options& options);

  // Approximate density at q (no guarantee): the kernel sum over occupied
  // cells in the truncation window around q.
  double Evaluate(const Point& q) const;

  // Approximate densities for a whole frame.
  DensityFrame RenderFrame(const PixelGrid& grid) const;

  int grid_size() const { return grid_size_; }

  // Truncation radius in data-space units: contributions from farther than
  // this are dropped.
  double truncation_radius() const { return radius_; }

 private:
  Point CellCenter(int cx, int cy) const;

  KernelParams params_;
  Rect domain_;
  int grid_size_;
  double radius_;
  // Occupied cells only, CSR-style: row cy's cells are col_[row_start_[cy]
  // .. row_start_[cy+1]), sorted by cx, with their counts alongside. A wide
  // truncation radius makes Evaluate's window cover most of the grid, and a
  // dense row-major scan would walk tens of thousands of empty cells per
  // pixel; iterating only occupied cells (in the same row-major order, so
  // the kernel sum is bit-identical) makes the cost proportional to the
  // data, not the grid.
  std::vector<int> row_start_;   // grid_size + 1 entries
  std::vector<int> col_;         // cx per occupied cell
  std::vector<double> counts_;   // bin count per occupied cell
};

}  // namespace kdv

#endif  // QUADKDV_APPROX_GRID_KDE_H_
