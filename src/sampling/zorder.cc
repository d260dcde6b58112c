#include "sampling/zorder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "geom/morton.h"
#include "util/check.h"

namespace kdv {

size_t ZorderSampleSize(double eps, double delta, size_t n,
                        double rel_to_abs) {
  KDV_CHECK(eps > 0.0);
  KDV_CHECK(delta > 0.0 && delta < 1.0);
  KDV_CHECK(rel_to_abs > 0.0);
  const double eps_abs = eps / rel_to_abs;
  double m = std::log(1.0 / delta) / (eps_abs * eps_abs);
  if (m < 1.0) m = 1.0;
  return std::min(n, static_cast<size_t>(std::ceil(m)));
}

PointSet ZorderSample(const KdTree& tree, size_t m) {
  KDV_CHECK(tree.dim() >= 2);
  const size_t n = tree.num_points();
  m = std::clamp<size_t>(m, 1, n);
  PointSet sample;
  sample.reserve(m);
  if (m == n) {
    for (size_t i = 0; i < n; ++i) sample.push_back(tree.point(i));
    return sample;
  }

  // The root's MBR is the bounding box of every point.
  const RectView root = tree.node(tree.root()).stats.mbr();
  Rect box(tree.dim());
  for (int d = 0; d < tree.dim(); ++d) {
    box.set_lo(d, root.lo(d));
    box.set_hi(d, root.hi(d));
  }
  std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = {MortonCodeForPoint(tree.point(i), box),
                static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());

  // Systematic sampling along the curve: one representative per stratum of
  // n/m consecutive curve positions.
  const double stride = static_cast<double>(n) / m;
  for (size_t i = 0; i < m; ++i) {
    size_t pos = static_cast<size_t>(i * stride + stride / 2.0);
    pos = std::min(pos, n - 1);
    sample.push_back(tree.point(keyed[pos].second));
  }
  return sample;
}

KernelParams ScaleWeightForSample(const KernelParams& params,
                                  size_t original_n, size_t sample_m) {
  KDV_CHECK(sample_m > 0);
  KernelParams scaled = params;
  scaled.weight = params.weight * static_cast<double>(original_n) /
                  static_cast<double>(sample_m);
  return scaled;
}

}  // namespace kdv
