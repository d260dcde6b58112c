// Umbrella header: the full public API of the QUAD KDV library.
//
// Typical usage:
//
//   #include "quadkdv.h"
//
//   kdv::PointSet pts = kdv::GenerateMixture(kdv::CrimeSpec(0.05));
//   kdv::Workbench bench(std::move(pts), kdv::KernelType::kGaussian);
//   kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
//   kdv::PixelGrid grid(640, 480, bench.data_bounds());
//   kdv::DensityFrame f = kdv::RenderEpsFrame(quad, grid, 0.01, nullptr);
//   kdv::RenderHeatMap(f).WritePpm("hotspots.ppm");
#ifndef QUADKDV_QUADKDV_H_
#define QUADKDV_QUADKDV_H_

#include "approx/grid_kde.h"
#include "bounds/node_bounds.h"
#include "bounds/profile.h"
#include "classify/kde_classifier.h"
#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "core/refinement_stream.h"
#include "core/kdv_runner.h"
#include "data/datasets.h"
#include "data/validate.h"
#include "geom/morton.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "index/journal.h"
#include "index/kdtree.h"
#include "index/manifest.h"
#include "index/node_stats.h"
#include "index/serialization.h"
#include "kernel/kernel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "progressive/progressive.h"
#include "regress/kernel_regressor.h"
#include "sampling/zorder.h"
#include "serve/frame_cache.h"
#include "serve/health.h"
#include "serve/recovery_manager.h"
#include "serve/overload_governor.h"
#include "serve/render_service.h"
#include "serve/resilient_renderer.h"
#include "serve/scrubber.h"
#include "serve/watchdog.h"
#include "sim/fault_schedule.h"
#include "sim/sim_clock.h"
#include "sim/sim_env.h"
#include "sim/sim_executor.h"
#include "stats/density_stats.h"
#include "stats/pca.h"
#include "util/atomic_file.h"
#include "util/backoff.h"
#include "util/build_info.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/json_writer.h"
#include "util/mem_budget.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "viz/color_map.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "viz/viewport_stream.h"
#include "workbench/workbench.h"

#endif  // QUADKDV_QUADKDV_H_
