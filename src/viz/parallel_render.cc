#include "viz/parallel_render.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/tile_refiner.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Whole-frame observability, recorded once per frame after the tile-order
// merge — never inside the per-pixel loops.
struct FrameObs {
  obs::Counter* frames;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Histogram* frame_seconds;
  obs::Histogram* bound_evals_per_pixel;
  FrameObs() {
    auto& r = obs::MetricsRegistry::Global();
    frames = r.GetCounter("kdv_render_frames_total");
    cache_hits = r.GetCounter("kdv_frontier_cache_hits_total");
    cache_misses = r.GetCounter("kdv_frontier_cache_misses_total");
    frame_seconds = r.GetHistogram("kdv_render_frame_seconds");
    bound_evals_per_pixel = r.GetHistogram("kdv_render_bound_evals_per_pixel");
  }
  static FrameObs& Get() {
    static FrameObs& o = *new FrameObs();
    return o;
  }
};

// Injected whole-frame fault ("viz.render"): record it and hand back the
// untouched (all-zero, finite) frame.
bool EntryFault(BatchStats* stats) {
  Status status = KDV_FAILPOINT_STATUS("viz.render");
  if (status.ok()) return false;
  if (stats != nullptr) {
    stats->completed = false;
    stats->status = status;
  }
  return true;
}

void MarkTileStopped(BatchStats* stats, StopReason reason) {
  stats->completed = false;
  if (reason == StopReason::kDeadline) stats->deadline_expired = true;
  if (reason == StopReason::kCancel) stats->cancelled = true;
}

// Shared state of one in-flight frame. Helper tasks hold it via shared_ptr:
// a helper that only gets scheduled after the frame finished claims no tile,
// dereferences none of the frame-lifetime pointers below, and merely drops
// its reference.
struct FrameJob {
  // Frame-lifetime (owned by the rendering call, valid while any tile is
  // unclaimed or in flight — i.e. until tiles_done == num_tiles).
  const KdeEvaluator* evaluator = nullptr;
  const PixelGrid* grid = nullptr;
  const QueryControl* control = nullptr;
  const char* failpoint_site = nullptr;

  uint32_t tile_rows = 1;
  uint32_t num_tiles = 0;

  // Tile-shared refinement state (refiner == nullptr means off). The refiner
  // lives on the rendering call's stack; like evaluator/grid/control it is
  // only dereferenced by workers holding a valid tile claim.
  const TileRefiner* refiner = nullptr;
  uint32_t tile_cols = 0;
  uint32_t chunks_per_band = 0;
  bool eps_mode = true;
  double param = 0.0;
  // Exactly one of these is set in shared mode: a cache hit serves every
  // chunk read-only; a miss builds into `building` (each chunk written by
  // the one worker that claimed its band).
  std::shared_ptr<const FrameFrontiers> cached;
  std::shared_ptr<FrameFrontiers> building;

  std::atomic<uint32_t> next_tile{0};
  // First stop/fault raises this; other workers abandon their tiles at the
  // next per-pixel poll instead of finishing a frame nobody will keep.
  std::atomic<bool> stop{false};
  std::vector<BatchStats> tile_stats;

  std::mutex mu;
  std::condition_variable done_cv;
  uint32_t tiles_done = 0;  // guarded by mu
};

// Per-pixel stop/fault preamble shared by every pixel loop. Returns false
// when the tile must be abandoned.
bool PixelPreamble(FrameJob& job, BatchStats& ts) {
  if (job.stop.load(std::memory_order_relaxed)) {
    ts.completed = false;
    return false;
  }
  StopReason stop = job.control->CheckStop();
  if (stop != StopReason::kNone) {
    MarkTileStopped(&ts, stop);
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  Status status = KDV_FAILPOINT_STATUS(job.failpoint_site);
  if (!status.ok()) {
    ts.completed = false;
    ts.status = status;
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// Evaluates one band of rows. EvalPixel is
//   Value (const Point& q, RefinementStream& scratch, BatchStats* ts,
//          bool* interrupted)
// — one pixel's evaluation and work accounting.
template <typename Value, typename EvalPixel>
void ProcessTile(FrameJob& job, uint32_t tile, Value* values,
                 RefinementStream& scratch, const EvalPixel& eval) {
  BatchStats& ts = job.tile_stats[tile];
  const PixelGrid& grid = *job.grid;
  const int height = grid.height();
  const int row_begin = static_cast<int>(tile * job.tile_rows);
  const int row_end =
      std::min<int>(row_begin + static_cast<int>(job.tile_rows), height);
  for (int py = row_begin; py < row_end; ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      if (!PixelPreamble(job, ts)) return;
      bool interrupted = false;
      values[grid.PixelIndex(px, py)] =
          eval(grid.PixelCenter(px, py), scratch, &ts, &interrupted);
      if (interrupted) {
        MarkTileStopped(&ts, job.control->CheckStop());
        job.stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

// Shared-traversal band processing: the band is cut into column chunks; each
// chunk runs (or loads) one region pass, then either fills its pixels from a
// whole-chunk decision or refines them seeded from the chunk frontier.
// EvalSeeded is
//   Value (const Point& q, const TileFrontier& tf, RefinementStream& scratch,
//          BatchStats* ts, bool* interrupted)
// and DecidedVal maps a decided frontier to the fill value.
template <typename Value, typename EvalPixel, typename EvalSeeded,
          typename DecidedVal>
void ProcessTileShared(FrameJob& job, uint32_t tile, Value* values,
                       RefinementStream& scratch, const EvalPixel& eval,
                       const EvalSeeded& eval_seeded,
                       const DecidedVal& decided_val) {
  BatchStats& ts = job.tile_stats[tile];
  const PixelGrid& grid = *job.grid;
  const int width = grid.width();
  const int row_begin = static_cast<int>(tile * job.tile_rows);
  const int row_end = std::min<int>(
      row_begin + static_cast<int>(job.tile_rows), grid.height());
  for (uint32_t cx = 0; cx < job.chunks_per_band; ++cx) {
    const int col_begin = static_cast<int>(cx * job.tile_cols);
    const int col_end =
        std::min<int>(col_begin + static_cast<int>(job.tile_cols), width);
    if (!PixelPreamble(job, ts)) return;

    const uint32_t chunk = tile * job.chunks_per_band + cx;
    const TileFrontier* tf = nullptr;
    if (job.cached != nullptr) {
      tf = &(*job.cached)[chunk];
    } else {
      // Hull of the chunk's pixel centers (data y is flipped, so the last
      // row holds the lowest y).
      Rect query_rect(2);
      query_rect.Expand(grid.PixelCenter(col_begin, row_end - 1));
      query_rect.Expand(grid.PixelCenter(col_end - 1, row_begin));
      Timer pass_timer;
      TileFrontier built = job.eps_mode
                               ? job.refiner->BuildEps(query_rect, job.param)
                               : job.refiner->BuildTau(query_rect, job.param);
      ts.tile_seconds += pass_timer.ElapsedSeconds();
      ts.tile_nodes_visited += built.nodes_visited;
      ts.tile_accepted += built.accepted;
      ts.tile_pruned += built.pruned;
      (*job.building)[chunk] = std::move(built);
      tf = &(*job.building)[chunk];
    }

    if (tf->valid && tf->decided) {
      // Region bounds answered the whole chunk: certified fill, zero
      // per-pixel work.
      ++ts.tiles_decided;
      const Value fill = decided_val(*tf);
      for (int py = row_begin; py < row_end; ++py) {
        for (int px = col_begin; px < col_end; ++px) {
          values[grid.PixelIndex(px, py)] = fill;
        }
      }
      const uint64_t area = static_cast<uint64_t>(row_end - row_begin) *
                            static_cast<uint64_t>(col_end - col_begin);
      ts.queries += area;
      ts.pixels_decided += area;
      continue;
    }

    for (int py = row_begin; py < row_end; ++py) {
      for (int px = col_begin; px < col_end; ++px) {
        if (!PixelPreamble(job, ts)) return;
        bool interrupted = false;
        const Point q = grid.PixelCenter(px, py);
        // An invalid frontier (region pass hit a numeric fault) falls back
        // to root-seeded per-pixel refinement for the whole chunk.
        values[grid.PixelIndex(px, py)] =
            tf->valid ? eval_seeded(q, *tf, scratch, &ts, &interrupted)
                      : eval(q, scratch, &ts, &interrupted);
        if (interrupted) {
          MarkTileStopped(&ts, job.control->CheckStop());
          job.stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }
}

// Claims and processes tiles until the counter is exhausted. Runs in the
// caller thread and in every helper task; each drainer reuses one
// RefinementStream across all its tiles (zero-allocation refinement).
// ProcessFn is void (FrameJob&, uint32_t tile, Value*, RefinementStream&).
template <typename Value, typename ProcessFn>
void DrainTiles(const std::shared_ptr<FrameJob>& job, Value* values,
                const ProcessFn& process) {
  uint32_t tile = job->next_tile.fetch_add(1, std::memory_order_relaxed);
  if (tile >= job->num_tiles) return;  // late helper: frame may be gone
  RefinementStream scratch = job->evaluator->MakeScratch();
  do {
    process(*job, tile, values, scratch);
    bool all_done;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      all_done = ++job->tiles_done == job->num_tiles;
    }
    if (all_done) job->done_cv.notify_all();
    tile = job->next_tile.fetch_add(1, std::memory_order_relaxed);
  } while (tile < job->num_tiles);
}

// Tile-index-order merge keeps every counter deterministic across thread
// counts and schedules.
void MergeTileStats(const std::vector<BatchStats>& tiles, BatchStats* stats) {
  if (stats == nullptr) return;
  for (const BatchStats& tile : tiles) {
    AddWorkCounters(tile, stats);
    if (!tile.completed) stats->completed = false;
    if (tile.deadline_expired) stats->deadline_expired = true;
    if (tile.cancelled) stats->cancelled = true;
    if (stats->status.ok() && !tile.status.ok()) stats->status = tile.status;
  }
}

std::shared_ptr<FrameJob> MakeFrameJob(const KdeEvaluator& evaluator,
                                       const PixelGrid& grid,
                                       const RenderOptions& options,
                                       const QueryControl& control,
                                       const char* failpoint_site) {
  auto job = std::make_shared<FrameJob>();
  job->evaluator = &evaluator;
  job->grid = &grid;
  job->control = &control;
  job->failpoint_site = failpoint_site;
  job->tile_rows =
      static_cast<uint32_t>(std::clamp(options.tile_rows, 1, grid.height()));
  job->num_tiles =
      (static_cast<uint32_t>(grid.height()) + job->tile_rows - 1) /
      job->tile_rows;
  job->tile_stats.resize(job->num_tiles);
  return job;
}

template <typename Value, typename ProcessFn>
void RunFrameJob(const std::shared_ptr<FrameJob>& job,
                 const RenderOptions& options, Executor* pool,
                 BatchStats* stats, std::vector<Value>* values,
                 const ProcessFn& process) {
  Timer timer;
  const int threads = ResolveRenderThreads(options.num_threads);
  int helpers = 0;
  if (pool != nullptr && threads > 1 && job->num_tiles > 1) {
    const int want =
        std::min<int>(threads - 1, static_cast<int>(job->num_tiles) - 1);
    Value* data = values->data();
    for (int i = 0; i < want; ++i) {
      // Rejections (pool saturated or stopping) shed the band back onto the
      // caller loop below — the frame still completes, just less parallel.
      if (pool->TrySubmit(
                  [job, data, process] { DrainTiles(job, data, process); })
              .ok()) {
        ++helpers;
      }
    }
  }
  DrainTiles(job, values->data(), process);
  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock,
                      [&job] { return job->tiles_done == job->num_tiles; });
  }
  MergeTileStats(job->tile_stats, stats);
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    FrameObs& o = FrameObs::Get();
    o.frames->Increment();
    o.frame_seconds->Record(stats->seconds);
    if (stats->queries > 0) {
      o.bound_evals_per_pixel->Record(
          static_cast<double>(stats->nodes_visited +
                              stats->tile_nodes_visited) /
          static_cast<double>(stats->queries));
    }
  }
}

// Configures the shared-traversal state on the job (chunk geometry + cache
// lookup). Returns the cache key so the caller can publish after a clean
// frame.
FrontierKey ConfigureSharedJob(const std::shared_ptr<FrameJob>& job,
                               const PixelGrid& grid,
                               const RenderOptions& options,
                               const TileRefiner* refiner, bool eps_mode,
                               double param, BatchStats* stats) {
  job->refiner = refiner;
  job->eps_mode = eps_mode;
  job->param = param;
  job->tile_cols = static_cast<uint32_t>(
      std::clamp(static_cast<int>(job->tile_rows), 1, grid.width()));
  job->chunks_per_band =
      (static_cast<uint32_t>(grid.width()) + job->tile_cols - 1) /
      job->tile_cols;

  FrontierKey key;
  key.epoch = options.cache_epoch;
  key.width = grid.width();
  key.height = grid.height();
  key.lo0 = grid.domain().lo(0);
  key.lo1 = grid.domain().lo(1);
  key.hi0 = grid.domain().hi(0);
  key.hi1 = grid.domain().hi(1);
  key.tile_rows = job->tile_rows;
  key.tile_cols = job->tile_cols;
  key.mode = eps_mode ? 'e' : 't';
  key.param = param;

  const size_t num_chunks =
      static_cast<size_t>(job->num_tiles) * job->chunks_per_band;
  if (options.frontier_cache != nullptr) {
    auto hit = options.frontier_cache->Lookup(key);
    if (hit != nullptr && hit->size() == num_chunks) {
      job->cached = std::move(hit);
      if (stats != nullptr) ++stats->frontier_cache_hits;
      FrameObs::Get().cache_hits->Increment();
    } else {
      FrameObs::Get().cache_misses->Increment();
    }
  }
  if (job->cached == nullptr) {
    job->building = std::make_shared<FrameFrontiers>(num_chunks);
  }
  return key;
}

// Publishes the freshly built frontiers after a clean (unstopped) frame.
void PublishFrontiers(const std::shared_ptr<FrameJob>& job,
                      const RenderOptions& options, const FrontierKey& key) {
  if (options.frontier_cache == nullptr || job->building == nullptr) return;
  if (job->stop.load(std::memory_order_relaxed)) return;
  options.frontier_cache->Insert(key, std::move(job->building));
}

// Tile-shared rendering applies only when a bound function exists and the
// index dimensionality matches the 2-d pixel queries.
bool TileSharedApplies(const KdeEvaluator& evaluator,
                       const RenderOptions& options) {
  return options.tile_shared && evaluator.bounds() != nullptr &&
         evaluator.tree().dim() == 2;
}

}  // namespace

int ResolveRenderThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

DensityFrame RenderEpsFrameParallel(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const RenderOptions& options,
                                    Executor* pool,
                                    const QueryControl& control,
                                    BatchStats* stats) {
  DensityFrame frame(grid.width(), grid.height());
  if (EntryFault(stats)) return frame;
  auto job = MakeFrameJob(evaluator, grid, options, control, "runner.eps");
  auto eval = [&evaluator, eps, &control](const Point& q,
                                          RefinementStream& scratch,
                                          BatchStats* ts, bool* interrupted) {
    EvalResult r = evaluator.EvaluateEps(q, eps, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return r.estimate;
  };
  if (!TileSharedApplies(evaluator, options)) {
    RunFrameJob(job, options, pool, stats, &frame.values,
                [eval](FrameJob& j, uint32_t tile, double* values,
                       RefinementStream& scratch) {
                  ProcessTile(j, tile, values, scratch, eval);
                });
    return frame;
  }

  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  FrontierKey key = ConfigureSharedJob(job, grid, options, &refiner,
                                       /*eps_mode=*/true, eps, stats);
  auto eval_seeded = [&evaluator, eps, &control](
                         const Point& q, const TileFrontier& tf,
                         RefinementStream& scratch, BatchStats* ts,
                         bool* interrupted) {
    EvalResult r = evaluator.EvaluateEpsSeeded(q, eps, tf, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return r.estimate;
  };
  auto decided_val = [](const TileFrontier& tf) { return tf.decided_value; };
  RunFrameJob(job, options, pool, stats, &frame.values,
              [eval, eval_seeded, decided_val](FrameJob& j, uint32_t tile,
                                               double* values,
                                               RefinementStream& scratch) {
                ProcessTileShared(j, tile, values, scratch, eval, eval_seeded,
                                  decided_val);
              });
  PublishFrontiers(job, options, key);
  return frame;
}

BinaryFrame RenderTauFrameParallel(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double tau,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats) {
  BinaryFrame frame(grid.width(), grid.height());
  if (EntryFault(stats)) return frame;
  auto job = MakeFrameJob(evaluator, grid, options, control, "runner.tau");
  auto eval = [&evaluator, tau, &control](const Point& q,
                                          RefinementStream& scratch,
                                          BatchStats* ts, bool* interrupted) {
    TauResult r = evaluator.EvaluateTau(q, tau, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return static_cast<uint8_t>(r.above_threshold ? 1 : 0);
  };
  if (!TileSharedApplies(evaluator, options)) {
    RunFrameJob(job, options, pool, stats, &frame.values,
                [eval](FrameJob& j, uint32_t tile, uint8_t* values,
                       RefinementStream& scratch) {
                  ProcessTile(j, tile, values, scratch, eval);
                });
    return frame;
  }

  TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                      evaluator.bounds());
  FrontierKey key = ConfigureSharedJob(job, grid, options, &refiner,
                                       /*eps_mode=*/false, tau, stats);
  auto eval_seeded = [&evaluator, tau, &control](
                         const Point& q, const TileFrontier& tf,
                         RefinementStream& scratch, BatchStats* ts,
                         bool* interrupted) {
    TauResult r = evaluator.EvaluateTauSeeded(q, tau, tf, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return static_cast<uint8_t>(r.above_threshold ? 1 : 0);
  };
  auto decided_val = [](const TileFrontier& tf) {
    return static_cast<uint8_t>(tf.decided_above ? 1 : 0);
  };
  RunFrameJob(job, options, pool, stats, &frame.values,
              [eval, eval_seeded, decided_val](FrameJob& j, uint32_t tile,
                                               uint8_t* values,
                                               RefinementStream& scratch) {
                ProcessTileShared(j, tile, values, scratch, eval, eval_seeded,
                                  decided_val);
              });
  PublishFrontiers(job, options, key);
  return frame;
}

DensityFrame RenderExactFrameParallel(const KdeEvaluator& evaluator,
                                      const PixelGrid& grid,
                                      const RenderOptions& options,
                                      Executor* pool,
                                      const QueryControl& control,
                                      BatchStats* stats) {
  DensityFrame frame(grid.width(), grid.height());
  if (EntryFault(stats)) return frame;
  auto job = MakeFrameJob(evaluator, grid, options, control, "runner.exact");
  const uint64_t num_points = evaluator.tree().num_points();
  auto eval = [&evaluator, num_points](const Point& q,
                                       RefinementStream& /*scratch*/,
                                       BatchStats* ts, bool* interrupted) {
    // Exact scans are uninterruptible mid-query: one scan is the smallest
    // unit of interruption for this method.
    *interrupted = false;
    ++ts->queries;
    ts->points_scanned += num_points;
    return evaluator.EvaluateExact(q);
  };
  RunFrameJob(job, options, pool, stats, &frame.values,
              [eval](FrameJob& j, uint32_t tile, double* values,
                     RefinementStream& scratch) {
                ProcessTile(j, tile, values, scratch, eval);
              });
  return frame;
}

}  // namespace kdv
