// Shared helpers for the figure/table reproduction benchmarks.
//
// Every bench binary prints the same rows/series as the corresponding paper
// figure. Dataset sizes are scaled down by default so the full suite runs on
// a laptop in minutes; set KDV_BENCH_SCALE (relative to the paper's full
// cardinalities, default 0.01) and KDV_BENCH_PIXELS (pixels along the x
// axis, default 160, paper: 1280) to approach the paper's setup.
#ifndef QUADKDV_BENCH_BENCH_COMMON_H_
#define QUADKDV_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "quadkdv.h"

namespace kdv_bench {

// Dataset scale relative to the paper's cardinalities (Table 5).
inline double BenchScale() {
  const char* env = std::getenv("KDV_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 0.01;
}

// Horizontal resolution; vertical is 3/4 of it (the paper's 4:3 screens).
inline int BenchPixelsX() {
  const char* env = std::getenv("KDV_BENCH_PIXELS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 16) return v;
  }
  return 160;
}

inline kdv::PixelGrid MakeGrid(const kdv::Rect& domain, int px_x) {
  return kdv::PixelGrid(px_x, px_x * 3 / 4, domain);
}

inline kdv::PixelGrid MakeGrid(const kdv::Rect& domain) {
  return MakeGrid(domain, BenchPixelsX());
}

// Prints the standard bench header.
inline void PrintHeader(const std::string& figure,
                        const std::string& description) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("dataset scale %.4g of paper cardinalities, resolution %dx%d\n",
              BenchScale(), BenchPixelsX(), BenchPixelsX() * 3 / 4);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace kdv_bench

#endif  // QUADKDV_BENCH_BENCH_COMMON_H_
