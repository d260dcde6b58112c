// Batched leaf summation: the innermost hot loop of every KDV query.
//
// A leaf (or, for the EXACT method, the whole point set) contributes
//   w * sum_i K(x(q, p_i))
// to the running bounds. The classic loop walks the AoS Point array, which
// strides kMaxDim+1 doubles per point — for 2-d data ~8x the cache traffic
// the coordinates need — and folds the squared distance, the profile switch
// and the accumulation into one serial dependency chain the compiler cannot
// vectorize.
//
// LeafSumSoA streams the KdTree's structure-of-arrays coordinate mirror
// (KdTree::coords) in fixed-size chunks: pass 1 computes the squared
// distances of a chunk (independent elements — auto-vectorizable), pass 2
// folds the kernel profile over them in point order. Because the per-element
// operation sequence is exactly the AoS sequence and the final accumulation
// order is unchanged, the result is bit-identical to LeafSumAoS — which is
// what lets the parallel frame renderer promise bitwise-equal output while
// swapping the leaf kernel underneath. This translation unit is compiled
// with -O3 -ffp-contract=off (src/core/CMakeLists.txt) so vectorization is
// on but FP contraction cannot silently diverge the two paths.
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

// Reference implementation: the historical scalar AoS loop
//   sum_i params.weight-less profile(SquaredDistance(q, points()[i]))
// over [begin, end), times params.weight. Kept as the bit-exactness oracle
// for tests.
double LeafSumAoS(const KdTree& tree, const KernelParams& params,
                  uint32_t begin, uint32_t end, const Point& q);

// SoA chunked path; bit-identical to LeafSumAoS (see header comment).
double LeafSumSoA(const KdTree& tree, const KernelParams& params,
                  uint32_t begin, uint32_t end, const Point& q);

// The production entry point used by the evaluator and refinement stream.
inline double LeafSum(const KdTree& tree, const KernelParams& params,
                      uint32_t begin, uint32_t end, const Point& q) {
  return LeafSumSoA(tree, params, begin, end, q);
}

}  // namespace kdv

#endif  // QUADKDV_CORE_LEAF_KERNEL_H_
