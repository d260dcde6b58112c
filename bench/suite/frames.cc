// Frame workloads: a stream of seeded pan/zoom viewports rendered back to
// back with the tiled parallel renderer, as an interactive client would.
#include <algorithm>

#include "suite.h"

namespace kdv_suite {

namespace {

uint64_t HashValues(const std::vector<double>& values) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the raw bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Result RunFrameWorkload(const Params& p, const kdv::PointSet& points) {
  Result r;
  const bool eps_mode = p.query == "eps";

  // Set-up: index + evaluator (+ the τ = μ estimate over the whole extent),
  // repeated, each time on the next CPU; only the last one is kept.
  std::vector<double> setup_s, build_s;
  Index index;
  double param = p.eps;
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    index = Index();
    kdv::PointSet copy = points;
    PinThisThread(rep);  // see PinThisThread on set-ups
    const double start = NowS();
    index = BuildIndex(std::move(copy), p.kernel);
    if (!eps_mode) {
      const kdv::PixelGrid extent(p.width, p.height,
                                  index.bench->data_bounds());
      param = kdv::EstimateDensityStats(*index.evaluator, extent).mean;
    }
    setup_s.push_back(NowS() - start);
    build_s.push_back(index.build_s);
  }
  PinThisThread(0);
  const kdv::KdeEvaluator& evaluator = *index.evaluator;

  const ViewportSequence views(p, points, index.bench->data_bounds(),
                               DeriveSeed(p.seed, Stream::kViewports));
  std::vector<kdv::PixelGrid> grids =
      views.Grids(0, p.trace ? p.trace_frames : kFrameViewports);

  if (p.trace) {
    SpanLog log;
    AddFrameLayerMetrics(p, evaluator, grids, eps_mode, param,
                         Median(build_s), p.seconds, &log, &r);
    r.Add("viz.cache_hit_frac", 0.0, "fraction");  // no frontier cache here
    AddServeLayerMetrics(ServeLayer(), &r);  // no serve layer either
    if (!p.trace_out.empty() && !log.Write(p.trace_out)) {
      r.problems.push_back("cannot write " + p.trace_out);
    }
    return r;
  }

  const std::unique_ptr<kdv::ThreadPool> pool = MakePinnedPool(
      p.frame_threads - 1, static_cast<size_t>(2 * p.frame_threads), 1);
  kdv::RenderOptions options;
  options.num_threads = p.frame_threads;
  options.tile_shared = true;

  for (size_t i = 0; i < std::min<size_t>(2, grids.size()); ++i) {
    (void)RenderFrame(evaluator, grids[i], eps_mode, param, options,
                      pool.get());
  }

  // Timed loop: passes over the viewports until --seconds of render time,
  // and at least one whole pass, so a slow host never shrinks the sample. A
  // viewport's frame time is the median of its renders, so every viewport
  // weighs the same however far the last pass got. The first render of each
  // viewport is sampled for the certificate check (run after the loop);
  // repeats must equal it bitwise.
  kdv::Rng check_rng(DeriveSeed(p.seed, Stream::kChecks));
  std::vector<PixelCheck> checks;
  std::vector<uint64_t> hashes(grids.size());
  std::vector<std::vector<double>> walls(grids.size());
  double measured = 0.0;
  for (size_t i = 0; i < grids.size() || measured < p.seconds; ++i) {
    const size_t v = i % grids.size();
    const Frame f =
        RenderFrame(evaluator, grids[v], eps_mode, param, options, pool.get());
    walls[v].push_back(f.wall_s);
    measured += f.wall_s;
    ++r.attempted;
    if (!f.stats.completed || !f.stats.status.ok() ||
        f.stats.numeric_faults > 0) {
      ++r.failed;
    }
    const uint64_t h = HashValues(f.values);
    if (i < grids.size()) {
      hashes[v] = h;
      SampleChecks(evaluator, grids[v], eps_mode, param, f.values, v,
                   &check_rng, &checks);
    } else if (hashes[v] != h) {
      r.problems.push_back("repeat of viewport " + std::to_string(v) +
                           " rendered different pixels");
    }
  }
  for (size_t v : RunChecks(checks, &r.problems)) r.failed += walls[v].size();

  std::vector<double> frame_s;
  double pixels = 0.0;
  for (size_t v = 0; v < grids.size(); ++v) {
    if (walls[v].empty()) continue;
    frame_s.push_back(Median(walls[v]));
    pixels += static_cast<double>(grids[v].num_pixels());
  }
  // Every frame the renderer completes is certified: frame workloads have
  // no lower tier, so certified_frac is ok_frac.
  const double ok_frac = static_cast<double>(r.attempted - r.failed) /
                         static_cast<double>(r.attempted);
  r.Add("setup_s", Median(setup_s), "s", setup_s.size());
  r.Add("lat_ms_p50", Median(frame_s) * 1e3, "ms", frame_s.size());
  r.Add("lat_ms_p95", Percentile(frame_s, 0.95) * 1e3, "ms", frame_s.size());
  r.Add("px_per_s", pixels / Sum(frame_s), "px/s", frame_s.size());
  r.Add("ok_frac", ok_frac, "fraction", r.attempted);
  r.Add("certified_frac", ok_frac, "fraction", r.attempted);
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return r;
}

}  // namespace kdv_suite
