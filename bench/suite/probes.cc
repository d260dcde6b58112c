// Per-layer measurements for the traced runs: cost probes of the bound and
// leaf layers, and a traced serial replay of whole frames.
#include <algorithm>

#include "core/tile_refiner.h"
#include "suite.h"

namespace kdv_suite {

namespace {

// Keeps probe results observable so the timed loops are not optimized away.
volatile double g_sink = 0.0;

constexpr int kProbePixels = 256;
constexpr int kProbeReps = 25;

// The nodes best-first refinement evaluates near `q`: both children at each
// level of the descent towards the child nearest to q, ending in a pair of
// leaves. Uniformly random (mostly far) nodes would be cheaper than the ones
// the refinement actually touches.
void DescendToward(const kdv::KdTree& tree, const kdv::Point& q,
                   std::vector<int32_t>* inner, std::vector<int32_t>* leaves) {
  int32_t id = tree.root();
  while (!tree.node(id).IsLeaf()) {
    const kdv::KdTree::Node& n = tree.node(id);
    for (int32_t child : {n.left, n.right}) {
      (tree.node(child).IsLeaf() ? leaves : inner)->push_back(child);
    }
    const double dl = tree.node(n.left).stats.mbr().MinSquaredDistance(q);
    const double dr = tree.node(n.right).stats.mbr().MinSquaredDistance(q);
    id = dl <= dr ? n.left : n.right;
  }
}

// Median over repetitions of the per-item cost (ns) of `body`, which runs
// one pass over `items` work units.
template <typename Body>
double MedianNs(double items, const Body& body) {
  std::vector<double> per_item;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double start = NowS();
    body();
    per_item.push_back((NowS() - start) * 1e9 / items);
  }
  return Median(per_item);
}

// The chunk of parallel_render.cc holding pixel (x, y): its pixel ranges
// [col_begin, col_end) x [row_begin, row_end) and its query rect, the hull
// of its pixel centres.
struct Chunk {
  int col_begin = 0, col_end = 0, row_begin = 0, row_end = 0;
  kdv::Rect rect{2};
};
Chunk ChunkAt(const kdv::PixelGrid& grid, int x, int y) {
  const int rows = std::clamp(kChunkRows, 1, grid.height());
  const int cols = std::clamp(rows, 1, grid.width());
  Chunk c;
  c.col_begin = x / cols * cols;
  c.row_begin = y / rows * rows;
  c.col_end = std::min(c.col_begin + cols, grid.width());
  c.row_end = std::min(c.row_begin + rows, grid.height());
  c.rect.Expand(grid.PixelCenter(c.col_begin, c.row_end - 1));
  c.rect.Expand(grid.PixelCenter(c.col_end - 1, c.row_begin));
  return c;
}

}  // namespace

LayerProbes ProbeLayers(const kdv::KdeEvaluator& evaluator,
                        const std::vector<kdv::PixelGrid>& grids,
                        uint64_t seed) {
  const kdv::KdTree& tree = evaluator.tree();
  const kdv::NodeBounds& bounds = *evaluator.bounds();
  kdv::Rng rng(seed);

  struct PointPair { int32_t node; kdv::Point q; };
  struct RegionPair { int32_t node; kdv::Rect rect; };
  std::vector<PointPair> point_pairs;
  std::vector<RegionPair> region_pairs;
  std::vector<PointPair> leaf_pairs;
  double leaf_points = 0.0;
  for (int i = 0; i < kProbePixels; ++i) {
    const kdv::PixelGrid& grid = grids[rng.UniformInt(grids.size())];
    const int x = static_cast<int>(rng.UniformInt(grid.width()));
    const int y = static_cast<int>(rng.UniformInt(grid.height()));
    const kdv::Point q = grid.PixelCenter(x, y);
    std::vector<int32_t> inner, leaves;
    DescendToward(tree, q, &inner, &leaves);
    const kdv::Rect rect = ChunkAt(grid, x, y).rect;
    for (int32_t id : inner) {
      point_pairs.push_back({id, q});
      region_pairs.push_back({id, rect});
    }
    for (int32_t id : leaves) {
      point_pairs.push_back({id, q});
      region_pairs.push_back({id, rect});
      leaf_pairs.push_back({id, q});
      leaf_points += static_cast<double>(tree.node(id).count());
    }
  }

  LayerProbes probes;
  probes.point_eval_ns = MedianNs(point_pairs.size(), [&] {
    double s = 0.0;
    for (const PointPair& pp : point_pairs) {
      const kdv::BoundPair b = bounds.Evaluate(tree.node(pp.node).stats, pp.q);
      s += b.lower + b.upper;
    }
    g_sink = g_sink + s;
  });
  probes.region_eval_ns = MedianNs(region_pairs.size(), [&] {
    double s = 0.0;
    for (const RegionPair& rp : region_pairs) {
      const kdv::BoundPair b =
          bounds.EvaluateRegion(tree.node(rp.node).stats, rp.rect);
      s += b.lower + b.upper;
    }
    g_sink = g_sink + s;
  });
  auto leaf_pass = [&] {
    double s = 0.0;
    for (const PointPair& lp : leaf_pairs) {
      const kdv::KdTree::Node& n = tree.node(lp.node);
      s += kdv::LeafSum(tree, evaluator.params(), n.begin, n.end, lp.q);
    }
    g_sink = g_sink + s;
  };
  probes.leaf_ns_per_point = MedianNs(leaf_points, leaf_pass);
  const kdv::SimdLevel active = kdv::ActiveSimdLevel();
  kdv::SetSimdLevel(kdv::SimdLevel::kScalar);
  probes.leaf_ns_per_point_scalar = MedianNs(leaf_points, leaf_pass);
  kdv::SetSimdLevel(active);
  return probes;
}

std::vector<double> ReplayFrame(const kdv::KdeEvaluator& evaluator,
                                const kdv::PixelGrid& grid, bool eps_mode,
                                double param, SpanLog* log, uint64_t request,
                                ReplayTotals* totals) {
  const kdv::TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                                 evaluator.bounds());
  kdv::RefinementStream scratch = evaluator.MakeScratch();
  const kdv::QueryControl control;
  kdv::BatchStats& st = totals->stats;
  std::vector<double> values(grid.num_pixels(), 0.0);

  const int64_t frame_span = log->Begin("frame", -1, request);
  Chunk c;
  for (int y = 0; y < grid.height(); y = c.row_end) {
    for (int x = 0; x < grid.width(); x = c.col_end) {
      c = ChunkAt(grid, x, y);
      const int64_t pass_span = log->Begin("tile_pass", frame_span, request);
      const kdv::TileFrontier tf = eps_mode ? refiner.BuildEps(c.rect, param)
                                            : refiner.BuildTau(c.rect, param);
      log->End(pass_span);
      ++totals->chunks;
      st.tile_nodes_visited += tf.nodes_visited;
      st.tile_accepted += tf.accepted;
      st.tile_pruned += tf.pruned;
      if (tf.valid && tf.decided) {
        ++st.tiles_decided;
        st.queries += static_cast<uint64_t>(c.row_end - c.row_begin) *
                      static_cast<uint64_t>(c.col_end - c.col_begin);
        const double fill = eps_mode ? tf.decided_value
                                     : (tf.decided_above ? 1.0 : 0.0);
        for (int py = c.row_begin; py < c.row_end; ++py) {
          for (int px = c.col_begin; px < c.col_end; ++px) {
            values[grid.PixelIndex(px, py)] = fill;
          }
        }
        continue;
      }
      if (tf.valid) {
        totals->frontier_nodes += tf.nodes.size();
        ++totals->frontier_chunks;
      }

      const int64_t refine_span = log->Begin("refine", frame_span, request);
      for (int py = c.row_begin; py < c.row_end; ++py) {
        for (int px = c.col_begin; px < c.col_end; ++px) {
          const kdv::Point q = grid.PixelCenter(px, py);
          double v;
          if (eps_mode) {
            const kdv::EvalResult r =
                tf.valid ? evaluator.EvaluateEpsSeeded(q, param, tf, control,
                                                       &scratch)
                         : evaluator.EvaluateEps(q, param, control, &scratch);
            kdv::AccumulateQueryStats(&st, r);
            v = r.estimate;
          } else {
            const kdv::TauResult r =
                tf.valid ? evaluator.EvaluateTauSeeded(q, param, tf, control,
                                                       &scratch)
                         : evaluator.EvaluateTau(q, param, control, &scratch);
            kdv::AccumulateQueryStats(&st, r);
            v = r.above_threshold ? 1.0 : 0.0;
          }
          values[grid.PixelIndex(px, py)] = v;
        }
      }
      log->End(refine_span);
    }
  }
  log->End(frame_span);
  return values;
}

void AddFrameLayerMetrics(const Params& p, const kdv::KdeEvaluator& evaluator,
                          const std::vector<kdv::PixelGrid>& grids,
                          bool eps_mode, double param, double index_build_s,
                          double seconds, SpanLog* log, Result* result) {
  const std::unique_ptr<kdv::ThreadPool> pool = MakePinnedPool(
      p.frame_threads - 1, static_cast<size_t>(2 * p.frame_threads), 1);
  kdv::RenderOptions parallel;
  parallel.num_threads = p.frame_threads;
  parallel.tile_shared = true;
  kdv::RenderOptions serial = parallel;
  serial.num_threads = 1;

  kdv::Rng check_rng(DeriveSeed(p.seed, Stream::kChecks));
  // Warm-up: caches, pool threads, first-touch page faults.
  (void)RenderFrame(evaluator, grids[0], eps_mode, param, parallel,
                    pool.get());

  // Per pass: the parallel, serial and traced renders of each frame in
  // turn, so drift affects the three alike.
  std::vector<double> parallel_s, serial_s, traced_s, tile_pass_s, refine_s;
  ReplayTotals totals;  // of the first pass
  std::vector<PixelCheck> checks;
  SpanLog later;  // spans of the later passes, dropped after each
  const double start_all = NowS();
  for (int pass = 0;; ++pass) {
    // Another pass only if it fits in `seconds`, judging by those so far.
    if (pass > 0 && (NowS() - start_all) * (pass + 1) / pass > seconds) break;
    later.Clear();
    SpanLog* pass_log = pass == 0 ? log : &later;
    double par_s = 0.0, ser_s = 0.0, rep_s = 0.0;
    for (size_t i = 0; i < grids.size(); ++i) {
      const kdv::PixelGrid& grid = grids[i];
      const Frame par =
          RenderFrame(evaluator, grid, eps_mode, param, parallel, pool.get());
      const Frame ser =
          RenderFrame(evaluator, grid, eps_mode, param, serial, nullptr);
      par_s += par.wall_s;
      ser_s += ser.wall_s;

      ReplayTotals frame_totals;
      const double start = NowS();
      const std::vector<double> replayed =
          ReplayFrame(evaluator, grid, eps_mode, param, pass_log,
                      pass_log->NewRequest(), &frame_totals);
      rep_s += NowS() - start;

      ++result->attempted;
      if (!par.stats.completed || !par.stats.status.ok() ||
          par.stats.numeric_faults > 0) {
        ++result->failed;
      }
      if (!SameCounts(par.stats, frame_totals.stats) ||
          !SameCounts(par.stats, ser.stats)) {
        result->problems.push_back("traced counts differ from untraced "
                                   "counts on frame " + std::to_string(i));
      }
      if (replayed != par.values || ser.values != par.values) {
        result->problems.push_back("traced/serial pixels differ from the "
                                   "parallel frame on frame " +
                                   std::to_string(i));
      }
      if (pass > 0) continue;
      SampleChecks(evaluator, grid, eps_mode, param, par.values, i,
                   &check_rng, &checks);
      kdv::BatchStats& t = totals.stats;
      const kdv::BatchStats& f = frame_totals.stats;
      t.queries += f.queries;
      t.iterations += f.iterations;
      t.points_scanned += f.points_scanned;
      t.nodes_visited += f.nodes_visited;
      t.tile_nodes_visited += f.tile_nodes_visited;
      t.tiles_decided += f.tiles_decided;
      totals.chunks += frame_totals.chunks;
      totals.frontier_nodes += frame_totals.frontier_nodes;
      totals.frontier_chunks += frame_totals.frontier_chunks;
    }
    parallel_s.push_back(par_s);
    serial_s.push_back(ser_s);
    traced_s.push_back(rep_s);
    tile_pass_s.push_back(pass_log->Total("tile_pass"));
    refine_s.push_back(pass_log->Total("refine"));
  }
  // Pixels repeat bitwise from pass to pass (checked above), so a frame
  // whose first render violates its certificate fails in every pass.
  result->failed +=
      RunChecks(checks, &result->problems).size() * parallel_s.size();

  const LayerProbes probes =
      ProbeLayers(evaluator, grids, DeriveSeed(p.seed, Stream::kProbes));
  const kdv::KdTree& tree = evaluator.tree();
  const kdv::BatchStats& t = totals.stats;
  const double px = static_cast<double>(t.queries);
  const double chunks = static_cast<double>(std::max<uint64_t>(1, totals.chunks));
  const uint64_t passes = parallel_s.size();
  std::vector<double> sched_overhead, trace_overhead;
  for (size_t k = 0; k < passes; ++k) {
    sched_overhead.push_back(1.0 -
                             serial_s[k] / (p.frame_threads * parallel_s[k]));
    trace_overhead.push_back(traced_s[k] / serial_s[k] - 1.0);
  }
  const double refine_med_s = Median(refine_s);

  result->Add("index.build_s", index_build_s, "s");
  result->Add("index.nodes", static_cast<double>(tree.num_nodes()), "count");
  result->Add("index.depth", tree.Depth(), "count");
  result->Add("bounds.point_eval_ns", probes.point_eval_ns, "ns");
  result->Add("bounds.region_eval_ns", probes.region_eval_ns, "ns");
  result->Add("core.leaf_ns_per_point", probes.leaf_ns_per_point, "ns");
  result->Add("core.leaf_ns_per_point_scalar", probes.leaf_ns_per_point_scalar,
              "ns");
  result->Add("core.points_per_px", t.points_scanned / px, "count");
  result->Add("core.tile_pass_us", Median(tile_pass_s) * 1e6 / chunks, "us",
              passes);
  result->Add("core.tile_region_evals", t.tile_nodes_visited / chunks,
              "count");
  result->Add("core.tile_decided_frac", t.tiles_decided / chunks, "fraction");
  result->Add("core.tile_frontier_nodes",
              totals.frontier_chunks > 0
                  ? static_cast<double>(totals.frontier_nodes) /
                        static_cast<double>(totals.frontier_chunks)
                  : 0.0,
              "count");
  result->Add("core.refine_us_per_px", refine_med_s * 1e6 / px, "us", passes);
  result->Add("core.refine_iters_per_px", t.iterations / px, "count");
  result->Add("core.refine_evals_per_px", t.nodes_visited / px, "count");
  const double bound_share =
      refine_med_s > 0.0
          ? t.nodes_visited * probes.point_eval_ns * 1e-9 / refine_med_s
          : 0.0;
  const double leaf_share =
      refine_med_s > 0.0
          ? t.points_scanned * probes.leaf_ns_per_point * 1e-9 / refine_med_s
          : 0.0;
  result->Add("core.refine_bound_share", bound_share, "fraction");
  result->Add("core.refine_leaf_share", leaf_share, "fraction");
  result->Add("core.refine_other_share", 1.0 - bound_share - leaf_share,
              "fraction");
  result->Add("viz.sched_overhead_frac", Median(sched_overhead), "fraction",
              passes);
  result->Add("trace.overhead_frac", Median(trace_overhead), "fraction",
              passes);

  result->counts["frames"] += grids.size();
  result->counts["pixels"] += t.queries;
  result->counts["iterations"] += t.iterations;
  result->counts["points_scanned"] += t.points_scanned;
  result->counts["bound_evals"] += t.nodes_visited;
  result->counts["region_evals"] += t.tile_nodes_visited;
  result->counts["tiles_decided"] += t.tiles_decided;
}

}  // namespace kdv_suite
