// Z-order (coreset) sampling baseline for εKDV (Zheng et al., SIGMOD'13).
//
// The dataset is sorted along the Z-order space-filling curve and sampled at
// m equally spaced curve positions; each sample point's weight is scaled by
// n/m. This preserves spatial density structure and yields a probabilistic
// (ε, δ) guarantee; the color map is then produced by *exact* KDV on the
// reduced set, which is precisely why the method stays slow for small ε
// (paper §7.2).
#ifndef QUADKDV_SAMPLING_ZORDER_H_
#define QUADKDV_SAMPLING_ZORDER_H_

#include <cstddef>

#include "geom/point.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"

namespace kdv {

// Sample size for a relative error ε with failure probability δ, following
// the coreset bound m = Θ(ε_abs^-2 · log(1/δ)). The paper's experiments use
// δ = 0.2. The bound's ε_abs is an *absolute* error on the normalized KDE;
// meeting a *relative* ε at moderately dense pixels requires
// ε_abs ≈ ε / rel_to_abs — this conversion is why Z-order stays slow for
// small ε in the paper's Fig. 14/22/27. Capped at n.
size_t ZorderSampleSize(double eps, double delta, size_t n,
                        double rel_to_abs = 3.0);

// Systematic Z-order sample of m of the tree's points (2-d; extra
// dimensions ride along). Deterministic: curve ties break by tree order.
// m is clamped to [1, tree.num_points()].
PointSet ZorderSample(const KdTree& tree, size_t m);

// Rescales the per-point weight so the sampled aggregate estimates the full
// aggregate: w' = w * n / m.
KernelParams ScaleWeightForSample(const KernelParams& params,
                                  size_t original_n, size_t sample_m);

}  // namespace kdv

#endif  // QUADKDV_SAMPLING_ZORDER_H_
