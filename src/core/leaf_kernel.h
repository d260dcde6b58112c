// Batched leaf summation: the innermost hot loop of every KDV query.
//
// A leaf (or, for the EXACT method, the whole point set) contributes
//   w * sum_i K(x(q, p_i))
// to the running bounds. The reference is the point-by-point loop
//   sum += params.EvalSquaredDistance(SquaredDistance(q, p_i))
// in index order, then times w; it folds the squared distance, the profile
// switch and the accumulation into one serial dependency chain the compiler
// cannot vectorize.
//
// LeafSumSoA streams the KdTree's coordinate columns (KdTree::coords) in
// fixed-size chunks: pass 1 computes the squared distances of a chunk
// (independent elements — auto-vectorizable), pass 2 folds the kernel
// profile over them in point order. Because the per-element operation
// sequence is exactly SquaredDistance's and the final accumulation order is
// unchanged, the result is bit-identical to the reference loop (the tests
// keep that loop as their oracle). This translation unit is compiled with
// -O3 -ffp-contract=off (src/core/CMakeLists.txt) so vectorization is on but
// FP contraction cannot silently diverge the two.
//
// SIMD dispatch is a runtime decision, not a build flag: one binary carries
// scalar, SSE2 and AVX2 variants of the 2-d distance pass (the AVX2 one via
// a per-function target attribute) and picks the widest level the CPU
// reports at first use. All variants execute the identical per-element
// operation DAG — sub, mul, add, never FMA — so every level produces
// bit-identical sums; the level is a throughput knob, never a results knob.
// KDV_SIMD={scalar,sse2,avx2} in the environment pins the level (requests
// above hardware support fall back to the detected maximum).
#ifndef QUADKDV_CORE_LEAF_KERNEL_H_
#define QUADKDV_CORE_LEAF_KERNEL_H_

#include <cstdint>

#include "geom/point.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"

namespace kdv {

// Instruction-set level of the leaf distance pass, ordered by width.
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,  // 2-lane __m128d (x86-64 baseline)
  kAvx2 = 2,  // 4-lane __m256d
};

// Widest level this CPU supports (kScalar on non-x86-64 builds).
SimdLevel MaxSupportedSimdLevel();

// The level the leaf kernels currently dispatch to. Initialized on first
// use: the KDV_SIMD environment override if set and supported, else
// MaxSupportedSimdLevel().
SimdLevel ActiveSimdLevel();

// Pins the dispatch level (clamped to MaxSupportedSimdLevel()). Test hook —
// the equality suites sweep levels within one process. Not thread-safe
// against in-flight queries; call between frames.
void SetSimdLevel(SimdLevel level);

// "scalar", "sse2" or "avx2".
const char* SimdLevelName(SimdLevel level);

// w * sum_i K(q, p_i) over tree-order points [begin, end), chunked over
// the columns; bit-identical to the reference loop (see header comment).
double LeafSumSoA(const KdTree& tree, const KernelParams& params,
                  uint32_t begin, uint32_t end, const Point& q);

// The production entry point used by the evaluator and refinement stream.
inline double LeafSum(const KdTree& tree, const KernelParams& params,
                      uint32_t begin, uint32_t end, const Point& q) {
  return LeafSumSoA(tree, params, begin, end, q);
}

}  // namespace kdv

#endif  // QUADKDV_CORE_LEAF_KERNEL_H_
