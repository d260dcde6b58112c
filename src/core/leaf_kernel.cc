#include "core/leaf_kernel.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace kdv {

namespace {

// Chunk of squared distances computed per pass-1 sweep. Fits comfortably in
// L1 next to the coordinate stream; leaves (default 32 points) take one
// chunk, the EXACT root scan loops.
constexpr uint32_t kChunk = 128;

// Pass 1, 2-d specialization, scalar: d2[j] for points [0, count). Element j
// performs exactly the SquaredDistance operation sequence
// (s = 0; s += dx*dx; s += dy*dy) so the value is bit-identical to the
// reference loop's; elements are independent, so the loop auto-vectorizes.
void SquaredDistances2dScalar(const double* xs, const double* ys, double qx,
                              double qy, uint32_t count, double* d2) {
  for (uint32_t j = 0; j < count; ++j) {
    double s = 0.0;
    double dx = qx - xs[j];
    s += dx * dx;
    double dy = qy - ys[j];
    s += dy * dy;
    d2[j] = s;
  }
}

#if defined(__x86_64__)

// 2-lane SSE2 pass (part of the x86-64 baseline, so no target attribute):
// sub/mul/add per lane in the scalar operation order, never FMA — the lane
// results are bitwise the scalar results.
void SquaredDistances2dSse2(const double* xs, const double* ys, double qx,
                            double qy, uint32_t count, double* d2) {
  const __m128d vqx = _mm_set1_pd(qx);
  const __m128d vqy = _mm_set1_pd(qy);
  uint32_t j = 0;
  for (; j + 2 <= count; j += 2) {
    __m128d dx = _mm_sub_pd(vqx, _mm_loadu_pd(xs + j));
    __m128d dy = _mm_sub_pd(vqy, _mm_loadu_pd(ys + j));
    __m128d s = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    _mm_storeu_pd(d2 + j, s);
  }
  SquaredDistances2dScalar(xs + j, ys + j, qx, qy, count - j, d2 + j);
}

// 4-lane AVX2 pass, compiled for this one function regardless of the global
// -m flags; only called when the CPU reports AVX2. Same per-lane DAG as the
// scalar loop (this TU also builds with -ffp-contract=off, so the scalar
// loop cannot be fused into FMAs behind our back).
__attribute__((target("avx2"))) void SquaredDistances2dAvx2(
    const double* xs, const double* ys, double qx, double qy, uint32_t count,
    double* d2) {
  const __m256d vqx = _mm256_set1_pd(qx);
  const __m256d vqy = _mm256_set1_pd(qy);
  uint32_t j = 0;
  for (; j + 4 <= count; j += 4) {
    __m256d dx = _mm256_sub_pd(vqx, _mm256_loadu_pd(xs + j));
    __m256d dy = _mm256_sub_pd(vqy, _mm256_loadu_pd(ys + j));
    __m256d s = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    _mm256_storeu_pd(d2 + j, s);
  }
  SquaredDistances2dScalar(xs + j, ys + j, qx, qy, count - j, d2 + j);
}

#endif  // defined(__x86_64__)

// Active dispatch level; -1 = not yet initialized (first ActiveSimdLevel()
// call resolves the environment override and CPU detection).
std::atomic<int> g_simd_level{-1};

SimdLevel DetectSimdLevel() {
  const SimdLevel max = MaxSupportedSimdLevel();
  const char* env = std::getenv("KDV_SIMD");
  if (env != nullptr && *env != '\0') {
    SimdLevel want = max;
    if (std::strcmp(env, "scalar") == 0) {
      want = SimdLevel::kScalar;
    } else if (std::strcmp(env, "sse2") == 0) {
      want = SimdLevel::kSse2;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = SimdLevel::kAvx2;
    }
    // Unknown names and requests above hardware support keep the detected
    // maximum: a typo'd override must not silently change results (it can't
    // — levels are bit-identical — but it also shouldn't change speed).
    if (static_cast<int>(want) <= static_cast<int>(max)) return want;
  }
  return max;
}

void SquaredDistances2d(const double* xs, const double* ys, double qx,
                        double qy, uint32_t count, double* d2) {
  switch (ActiveSimdLevel()) {
#if defined(__x86_64__)
    case SimdLevel::kAvx2:
      SquaredDistances2dAvx2(xs, ys, qx, qy, count, d2);
      return;
    case SimdLevel::kSse2:
      SquaredDistances2dSse2(xs, ys, qx, qy, count, d2);
      return;
#endif
    default:
      SquaredDistances2dScalar(xs, ys, qx, qy, count, d2);
      return;
  }
}

// Pass 1, general d: same accumulation order as SquaredDistance (dimension
// 0 first). Still element-independent and vectorizable per dimension.
void SquaredDistancesNd(const KdTree& tree, const Point& q, uint32_t begin,
                        uint32_t count, double* d2) {
  const int dim = q.dim();
  const double* c0 = tree.coords(0) + begin;
  const double q0 = q[0];
  for (uint32_t j = 0; j < count; ++j) {
    double diff = q0 - c0[j];
    d2[j] = 0.0 + diff * diff;
  }
  for (int d = 1; d < dim; ++d) {
    const double* cd = tree.coords(d) + begin;
    const double qd = q[d];
    for (uint32_t j = 0; j < count; ++j) {
      double diff = qd - cd[j];
      d2[j] += diff * diff;
    }
  }
}

}  // namespace

SimdLevel MaxSupportedSimdLevel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // part of the x86-64 baseline
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() {
  int level = g_simd_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(DetectSimdLevel());
    g_simd_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

void SetSimdLevel(SimdLevel level) {
  const SimdLevel max = MaxSupportedSimdLevel();
  if (static_cast<int>(level) > static_cast<int>(max)) level = max;
  if (static_cast<int>(level) < 0) level = SimdLevel::kScalar;
  g_simd_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

double LeafSumSoA(const KdTree& tree, const KernelParams& params,
                  uint32_t begin, uint32_t end, const Point& q) {
  double d2[kChunk];
  double sum = 0.0;
  const bool two_d = q.dim() == 2;
  const double* xs = two_d ? tree.coords(0) : nullptr;
  const double* ys = two_d ? tree.coords(1) : nullptr;
  for (uint32_t i = begin; i < end; i += kChunk) {
    const uint32_t count = end - i < kChunk ? end - i : kChunk;
    if (two_d) {
      SquaredDistances2d(xs + i, ys + i, q[0], q[1], count, d2);
    } else {
      SquaredDistancesNd(tree, q, i, count, d2);
    }
    // Pass 2: fold the kernel profile in point order — the same addition
    // sequence as the reference loop, so the total is bit-identical.
    for (uint32_t j = 0; j < count; ++j) {
      sum += params.EvalSquaredDistance(d2[j]);
    }
  }
  return params.weight * sum;
}

}  // namespace kdv
