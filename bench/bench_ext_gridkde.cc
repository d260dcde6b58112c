// Extension benchmark: the "function approximation" camp (paper Table 2,
// Raykar et al. / Yang et al.) represented by grid-convolution KDE. Shows
// the trade-off the paper's problem statement is built on: the heuristic is
// fast, but its error is uncontrolled — it violates any small ε at some
// pixels, while QUAD certifies ε everywhere.
#include <cstdio>

#include "bench_common.h"
#include "approx/grid_kde.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Extension",
                         "grid-convolution KDE (camp 1) vs certified εKDV");

  for (const MixtureSpec& spec : {CrimeSpec(kdv_bench::BenchScale()),
                                  HomeSpec(kdv_bench::BenchScale())}) {
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
    DensityFrame truth = RenderExactFrame(exact, grid, nullptr);
    const double floor = 1e-4 * ComputeMeanStd(truth.values).mean;

    std::printf("\n(%s, n=%zu)\n", spec.name.c_str(), bench.num_points());
    std::printf("%-18s %10s %14s %14s %12s\n", "method", "time(s)",
                "avg rel err", "max rel err", "guarantee");

    for (int g : {64, 128, 256, 512}) {
      GridKde::Options options;
      options.grid_size = g;
      Timer timer;
      GridKde approx(bench.tree(), bench.params(), bench.data_bounds(),
                     options);
      DensityFrame frame = approx.RenderFrame(grid);
      double secs = timer.ElapsedSeconds();
      char name[32];
      std::snprintf(name, sizeof(name), "grid %dx%d", g, g);
      std::printf("%-18s %10.3f %14.4g %14.4g %12s\n", name, secs,
                  AverageRelativeError(frame.values, truth.values, floor),
                  MaxRelativeError(frame.values, truth.values, floor),
                  "none");
    }

    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    BatchStats stats;
    DensityFrame frame = RenderEpsFrame(quad, grid, 0.01, &stats);
    std::printf("%-18s %10.3f %14.4g %14.4g %12s\n", "QUAD eps=0.01",
                stats.seconds,
                AverageRelativeError(frame.values, truth.values, floor),
                MaxRelativeError(frame.values, truth.values, floor),
                "eps=0.01");
  }
  return 0;
}
