// Ablation study of QUAD's design choices (DESIGN.md §4):
//   (a) which bound side matters — quadratic lower only, quadratic upper
//       only, or both (hybrids of QUAD and KARL);
//   (b) kd-tree leaf size;
//   (c) the trivial-bound safety clamp;
//   (d) τKDV granularity: per-pixel refinement vs tile-shared chunks that
//       QUAD region bounds decide wholesale or by quadrant.
// Reported as εKDV (τKDV for (d)) frame time on the home analogue,
// ε = 0.01.
#include <cstdio>
#include <memory>

#include "bench_common.h"

namespace {

using kdv::BoundPair;
using kdv::NodeBounds;
using kdv::NodeStats;
using kdv::Point;

// Combines the lower bound of one method with the upper bound of another.
class HybridBounds final : public NodeBounds {
 public:
  HybridBounds(const kdv::KernelParams& params, const NodeBounds* lower_src,
               const NodeBounds* upper_src)
      : NodeBounds(params, kdv::BoundsOptions{}),
        lower_src_(lower_src),
        upper_src_(upper_src) {}

  BoundPair Evaluate(const NodeStats& stats, const Point& q) const override {
    BoundPair b;
    b.lower = lower_src_->Evaluate(stats, q).lower;
    b.upper = upper_src_->Evaluate(stats, q).upper;
    if (b.upper < b.lower) b.upper = b.lower;
    return b;
  }
  const char* name() const override { return "hybrid"; }

 private:
  const NodeBounds* lower_src_;
  const NodeBounds* upper_src_;
};

double TimeFrame(const kdv::KdeEvaluator& evaluator,
                 const kdv::PixelGrid& grid) {
  kdv::BatchStats stats;
  kdv::RenderEpsFrame(evaluator, grid, 0.01, &stats);
  return stats.seconds;
}

}  // namespace

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Ablation", "QUAD design choices (home analogue, "
                                     "εKDV, eps=0.01)");

  PointSet points = GenerateMixture(HomeSpec(kdv_bench::BenchScale()));

  // (a) Bound-side ablation on a fixed tree.
  {
    Workbench bench(PointSet(points), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
    KernelParams params = bench.params();

    auto karl = MakeNodeBounds(Method::kKarl, params);
    auto quad = MakeNodeBounds(Method::kQuad, params);
    HybridBounds lower_only(params, quad.get(), karl.get());
    HybridBounds upper_only(params, karl.get(), quad.get());

    std::printf("\n(a) bound sides (linear = KARL, quadratic = QUAD)\n");
    std::printf("%-34s %10s\n", "configuration", "time(s)");
    std::printf("%-34s %10.3f\n", "linear both (KARL)",
                TimeFrame(KdeEvaluator(&bench.tree(), params, karl.get()),
                          grid));
    std::printf("%-34s %10.3f\n", "quadratic lower + linear upper",
                TimeFrame(KdeEvaluator(&bench.tree(), params, &lower_only),
                          grid));
    std::printf("%-34s %10.3f\n", "linear lower + quadratic upper",
                TimeFrame(KdeEvaluator(&bench.tree(), params, &upper_only),
                          grid));
    std::printf("%-34s %10.3f\n", "quadratic both (QUAD)",
                TimeFrame(KdeEvaluator(&bench.tree(), params, quad.get()),
                          grid));
  }

  // (b) Leaf-size sweep.
  {
    std::printf("\n(b) kd-tree leaf size (QUAD)\n");
    std::printf("%-12s %12s %10s\n", "leaf size", "build(s)", "time(s)");
    for (size_t leaf : {8u, 16u, 32u, 64u, 128u, 256u}) {
      Workbench::Options options;
      options.leaf_size = leaf;
      Timer timer;
      Workbench bench(PointSet(points), KernelType::kGaussian, options);
      double build = timer.ElapsedSeconds();
      PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
      KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
      std::printf("%-12zu %12.3f %10.3f\n", leaf, build,
                  TimeFrame(quad, grid));
    }
  }

  // (d) τKDV granularity: per-pixel vs tile-shared (chunk-level) decisions.
  // A pixel in a quadrant the region pass decides still counts as refined
  // but takes zero steps, hence the per-pixel iteration column.
  {
    Workbench bench(PointSet(points), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    MeanStd density = EstimateDensityStats(quad, grid, /*stride=*/8);

    std::printf("\n(d) τKDV granularity (QUAD, tau=mu)\n");
    std::printf("%-18s %10s %16s %14s %10s %14s\n", "mode", "time(s)",
                "refined pixels", "tiles decided", "iters/px",
                "region evals");
    for (bool tile_shared : {false, true}) {
      RenderOptions options;
      options.tile_shared = tile_shared;
      BatchStats stats;
      RenderTauFrameParallel(quad, grid, density.mean, options, nullptr,
                             QueryControl(), &stats);
      std::printf("%-18s %10.3f %16llu %14llu %10.2f %14llu\n",
                  tile_shared ? "tile-shared" : "per-pixel", stats.seconds,
                  static_cast<unsigned long long>(stats.queries -
                                                  stats.pixels_decided),
                  static_cast<unsigned long long>(stats.tiles_decided),
                  static_cast<double>(stats.iterations) /
                      static_cast<double>(stats.queries),
                  static_cast<unsigned long long>(stats.tile_nodes_visited));
    }
  }

  // (c) Safety clamp on/off.
  {
    std::printf("\n(c) trivial-bound safety clamp (QUAD)\n");
    std::printf("%-12s %10s\n", "clamp", "time(s)");
    for (bool clamp : {true, false}) {
      Workbench::Options options;
      options.bounds.clamp_with_trivial = clamp;
      Workbench bench(PointSet(points), KernelType::kGaussian, options);
      PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
      KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
      std::printf("%-12s %10.3f\n", clamp ? "on" : "off",
                  TimeFrame(quad, grid));
    }
  }
  return 0;
}
