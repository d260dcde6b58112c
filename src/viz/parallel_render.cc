#include "viz/parallel_render.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/tile_refiner.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Whole-frame observability, recorded once per frame after the worker
// merges — never inside the per-pixel loops.
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

void MarkStopped(BatchStats* stats, StopReason reason) {
  stats->completed = false;
  if (reason == StopReason::kDeadline) stats->deadline_expired = true;
  if (reason == StopReason::kCancel) stats->cancelled = true;
}

// Folds one partial run into *into: work counters (integer sums, so the
// merge order cannot change them), stop flags, and the first fault status.
void MergeRun(const BatchStats& from, BatchStats* into) {
  AddWorkCounters(from, into);
  if (!from.completed) into->completed = false;
  if (from.deadline_expired) into->deadline_expired = true;
  if (from.cancelled) into->cancelled = true;
  if (into->status.ok() && !from.status.ok()) into->status = from.status;
}

// One tile_rows x tile_rows block of pixels. The worker that claims it (its
// owner) runs its region pass and publishes it; from then on any worker may
// take its rows.
struct Chunk {
  // Rows handed out so far: each fetch_add below the chunk's row count
  // gives that row to exactly one worker.
  std::atomic<uint32_t> next_row{0};
  // Set with release by the owner once `frontier` is final; rows are only
  // taken after an acquire load sees it.
  std::atomic<bool> published{false};
  // The seed of the chunk's pixels; null means root-seeded per-pixel
  // refinement (no region pass, an invalid frontier, or a stopped frame).
  const TileFrontier* frontier = nullptr;
};

// Shared state of one in-flight frame. Helper tasks hold it via shared_ptr:
// a helper that only gets scheduled after the frame finished claims no
// work, dereferences none of the frame-lifetime pointers below, and merely
// drops its reference.
struct FrameJob {
  // Frame-lifetime (owned by the rendering call), dereferenced only by a
  // worker holding a claim; the call returns only after every claim has
  // been merged.
  const KdeEvaluator* evaluator = nullptr;
  const PixelGrid* grid = nullptr;
  const QueryControl* control = nullptr;
  const char* failpoint_site = nullptr;
  // Region passes (null: per-pixel mode or EXACT, every chunk is published
  // without a frontier).
  const TileRefiner* refiner = nullptr;
  bool eps_mode = true;
  double param = 0.0;
  // At most one of these is set: a cache hit serves every chunk read-only;
  // a miss builds into `building` (each chunk written by its owner).
  std::shared_ptr<const FrameFrontiers> cached;
  std::shared_ptr<FrameFrontiers> building;

  // Frame and chunk geometry, copied so that a late helper's search for
  // work never dereferences `grid`. Chunk c covers chunk row c / chunks_x,
  // chunk column c % chunks_x.
  int width = 0;
  int height = 0;
  uint32_t chunk_rows = 1;
  uint32_t chunk_cols = 1;
  uint32_t chunks_x = 0;
  uint32_t num_chunks = 0;
  uint32_t num_rows = 0;  // chunk rows, summed over all chunks
  std::unique_ptr<Chunk[]> chunks;

  std::atomic<uint32_t> next_chunk{0};
  // First stop/fault raises this; other workers abandon their rows at the
  // next per-pixel poll instead of finishing a frame nobody will keep.
  std::atomic<bool> stop{false};

  std::mutex mu;
  // Signalled on every publish and when the last claim is merged.
  std::condition_variable cv;
  // Chunks published so far; only incremented while holding mu, so a
  // waiter that checks it under mu cannot miss a publish.
  std::atomic<uint32_t> published{0};
  // Claims (chunks plus rows) merged so far; the frame is finished at
  // num_chunks + num_rows.
  uint32_t claims_done = 0;  // guarded by mu
  BatchStats stats;          // guarded by mu: the merged worker counters

  int RowBegin(uint32_t c) const {
    return static_cast<int>(c / chunks_x * chunk_rows);
  }
  uint32_t RowCount(uint32_t c) const {
    return std::min<uint32_t>(chunk_rows,
                              static_cast<uint32_t>(height - RowBegin(c)));
  }
  int ColBegin(uint32_t c) const {
    return static_cast<int>(c % chunks_x * chunk_cols);
  }
  int ColEnd(uint32_t c) const {
    return std::min<int>(ColBegin(c) + static_cast<int>(chunk_cols), width);
  }
};

// Per-pixel stop/fault preamble shared by every pixel loop (and run once
// before each region pass). Returns false when the work must be abandoned.
bool PixelPreamble(FrameJob& job, BatchStats* ws) {
  if (job.stop.load(std::memory_order_relaxed)) {
    ws->completed = false;
    return false;
  }
  StopReason stop = job.control->CheckStop();
  if (stop != StopReason::kNone) {
    MarkStopped(ws, stop);
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  Status status = KDV_FAILPOINT_STATUS(job.failpoint_site);
  if (!status.ok()) {
    ws->completed = false;
    ws->status = status;
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// The owner's part of chunk c: run (or load from the cache) its region pass,
// then publish the chunk so that every worker may take its rows.
void OpenChunk(FrameJob& job, uint32_t c, BatchStats* ws) {
  Chunk& chunk = job.chunks[c];
  if (job.refiner != nullptr && PixelPreamble(job, ws)) {
    const TileFrontier* tf = nullptr;
    if (job.cached != nullptr) {
      tf = &(*job.cached)[c];
    } else {
      // Hull of the chunk's pixel centers (data y is flipped, so the last
      // row holds the lowest y).
      const PixelGrid& grid = *job.grid;
      const int row_begin = job.RowBegin(c);
      const int row_end = row_begin + static_cast<int>(job.RowCount(c));
      Rect query_rect(2);
      query_rect.Expand(grid.PixelCenter(job.ColBegin(c), row_end - 1));
      query_rect.Expand(grid.PixelCenter(job.ColEnd(c) - 1, row_begin));
      Timer pass_timer;
      TileFrontier built = job.eps_mode
                               ? job.refiner->BuildEps(query_rect, job.param)
                               : job.refiner->BuildTau(query_rect, job.param);
      ws->tile_seconds += pass_timer.ElapsedSeconds();
      ws->tile_nodes_visited += built.nodes_visited;
      ws->tile_accepted += built.accepted;
      ws->tile_pruned += built.pruned;
      (*job.building)[c] = std::move(built);
      tf = &(*job.building)[c];
    }
    // An invalid frontier (the region pass hit a numeric fault) falls back
    // to root-seeded per-pixel refinement for the whole chunk.
    if (tf->valid) {
      chunk.frontier = tf;
      if (tf->decided) ++ws->tiles_decided;
    }
  }
  chunk.published.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.published.fetch_add(1, std::memory_order_release);
  }
  job.cv.notify_all();
}

// Returns a published chunk that still has rows to take, or num_chunks when
// every chunk is published and fully taken. Called once no chunk is left to
// claim; while a chunk is still in its owner's region pass and nothing else
// can be taken, waits for the next publish. Chunks below *first are known
// to be fully taken.
uint32_t NextStealable(FrameJob& job, uint32_t* first) {
  for (;;) {
    const uint32_t seen = job.published.load(std::memory_order_acquire);
    bool pending = false;
    for (uint32_t c = *first; c < job.num_chunks; ++c) {
      const Chunk& chunk = job.chunks[c];
      if (!chunk.published.load(std::memory_order_acquire)) {
        pending = true;
        continue;
      }
      if (chunk.next_row.load(std::memory_order_relaxed) < job.RowCount(c)) {
        return c;
      }
      if (c == *first) ++*first;
    }
    if (!pending) return job.num_chunks;
    std::unique_lock<std::mutex> lock(job.mu);
    job.cv.wait(lock, [&job, seen] {
      return job.published.load(std::memory_order_relaxed) != seen;
    });
  }
}

// Renders row r of chunk c. EvalPixel is
//   Value (const Point& q, const TileFrontier* seed, RefinementStream&,
//          BatchStats* ws, bool* interrupted)
// — one pixel's evaluation (root-seeded when seed is null) and its work
// accounting; DecidedValue maps a decided frontier to its fill value.
template <typename Value, typename EvalPixel, typename DecidedValue>
void RenderRow(FrameJob& job, uint32_t c, uint32_t r, Value* values,
               RefinementStream& scratch, BatchStats* ws,
               const EvalPixel& eval, const DecidedValue& decided_value) {
  const PixelGrid& grid = *job.grid;
  const int py = job.RowBegin(c) + static_cast<int>(r);
  const int col_begin = job.ColBegin(c);
  const int col_end = job.ColEnd(c);
  const TileFrontier* tf = job.chunks[c].frontier;
  if (tf != nullptr && tf->decided) {
    // Region bounds answered the whole chunk: certified fill, zero
    // per-pixel work.
    const Value fill = decided_value(*tf);
    for (int px = col_begin; px < col_end; ++px) {
      values[grid.PixelIndex(px, py)] = fill;
    }
    ws->queries += static_cast<uint64_t>(col_end - col_begin);
    ws->pixels_decided += static_cast<uint64_t>(col_end - col_begin);
    return;
  }
  for (int px = col_begin; px < col_end; ++px) {
    if (!PixelPreamble(job, ws)) return;
    bool interrupted = false;
    values[grid.PixelIndex(px, py)] =
        eval(grid.PixelCenter(px, py), tf, scratch, ws, &interrupted);
    if (interrupted) {
      MarkStopped(ws, job.control->CheckStop());
      job.stop.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

// One worker: claims chunks, opening each and taking its rows, until none
// is left; then takes rows of chunks other workers opened. Runs in the
// caller thread and in every helper task. A worker makes its scratch stream
// (zero-allocation refinement across all its rows) only after its first
// claim, and merges its counters once, at the end.
template <typename Value, typename EvalPixel, typename DecidedValue>
void RunWorker(const std::shared_ptr<FrameJob>& job_ptr, Value* values,
               const EvalPixel& eval, const DecidedValue& decided_value) {
  FrameJob& job = *job_ptr;
  BatchStats ws;
  uint32_t claims = 0;
  std::optional<RefinementStream> scratch;
  uint32_t first_stealable = 0;
  for (;;) {
    uint32_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c < job.num_chunks) {
      ++claims;
      OpenChunk(job, c, &ws);
    } else if ((c = NextStealable(job, &first_stealable)) == job.num_chunks) {
      break;
    }
    Chunk& chunk = job.chunks[c];
    const uint32_t rows = job.RowCount(c);
    for (uint32_t r = chunk.next_row.fetch_add(1, std::memory_order_relaxed);
         r < rows;
         r = chunk.next_row.fetch_add(1, std::memory_order_relaxed)) {
      ++claims;
      if (!scratch) scratch.emplace(job.evaluator->MakeScratch());
      RenderRow(job, c, r, values, *scratch, &ws, eval, decided_value);
    }
  }
  if (claims == 0) return;  // late helper: the frame may be gone
  scratch.reset();
  std::lock_guard<std::mutex> lock(job.mu);
  MergeRun(ws, &job.stats);
  job.claims_done += claims;
  if (job.claims_done == job.num_chunks + job.num_rows) job.cv.notify_all();
}

// Tile-shared rendering applies only when a bound function exists and the
// index dimensionality matches the 2-d pixel queries.
bool TileSharedApplies(const KdeEvaluator& evaluator,
                       const RenderOptions& options) {
  return options.tile_shared && evaluator.bounds() != nullptr &&
         evaluator.tree().dim() == 2;
}

// Sets the job's region passes up (refiner, mode, frontier cache lookup).
// Returns the cache key so the caller can publish after a clean frame.
FrontierKey ConfigureSharedJob(FrameJob& job, const PixelGrid& grid,
                               const RenderOptions& options,
                               const TileRefiner* refiner, bool eps_mode,
                               double param, BatchStats* stats) {
  job.refiner = refiner;
  job.eps_mode = eps_mode;
  job.param = param;

  FrontierKey key;
  key.epoch = options.cache_epoch;
  key.width = grid.width();
  key.height = grid.height();
  key.lo0 = grid.domain().lo(0);
  key.lo1 = grid.domain().lo(1);
  key.hi0 = grid.domain().hi(0);
  key.hi1 = grid.domain().hi(1);
  key.tile_rows = job.chunk_rows;
  key.tile_cols = job.chunk_cols;
  key.mode = eps_mode ? 'e' : 't';
  key.param = param;

  if (options.frontier_cache != nullptr) {
    auto hit = options.frontier_cache->Lookup(key);
    if (hit != nullptr && hit->size() == job.num_chunks) {
      job.cached = std::move(hit);
      if (stats != nullptr) ++stats->frontier_cache_hits;
      FrameObs::Get().cache_hits->Increment();
    } else {
      FrameObs::Get().cache_misses->Increment();
    }
  }
  if (job.cached == nullptr) {
    job.building = std::make_shared<FrameFrontiers>(job.num_chunks);
  }
  return key;
}

// The one frame driver. `mode` selects the region pass of tile-shared
// frames: 'e' (εKDV) or 't' (τKDV) with threshold/tolerance `param`, or 0
// for none (EXACT).
template <typename Value, typename EvalPixel, typename DecidedValue>
void RenderChunks(const KdeEvaluator& evaluator, const PixelGrid& grid,
                  const RenderOptions& options, Executor* pool,
                  const QueryControl& control, const char* failpoint_site,
                  char mode, double param, BatchStats* stats, Value* values,
                  const EvalPixel& eval, const DecidedValue& decided_value) {
  Timer timer;
  auto job = std::make_shared<FrameJob>();
  job->evaluator = &evaluator;
  job->grid = &grid;
  job->control = &control;
  job->failpoint_site = failpoint_site;
  job->width = grid.width();
  job->height = grid.height();
  job->chunk_rows =
      static_cast<uint32_t>(std::clamp(options.tile_rows, 1, job->height));
  job->chunk_cols = static_cast<uint32_t>(
      std::clamp(static_cast<int>(job->chunk_rows), 1, job->width));
  job->chunks_x = (static_cast<uint32_t>(job->width) + job->chunk_cols - 1) /
                  job->chunk_cols;
  const uint32_t chunks_y =
      (static_cast<uint32_t>(job->height) + job->chunk_rows - 1) /
      job->chunk_rows;
  job->num_chunks = job->chunks_x * chunks_y;
  job->num_rows = job->chunks_x * static_cast<uint32_t>(job->height);
  job->chunks = std::make_unique<Chunk[]>(job->num_chunks);

  std::optional<TileRefiner> refiner;
  FrontierKey key;
  if (mode != 0 && TileSharedApplies(evaluator, options)) {
    refiner.emplace(&evaluator.tree(), evaluator.params(), evaluator.bounds());
    key = ConfigureSharedJob(*job, grid, options, &*refiner, mode == 'e',
                             param, stats);
  }

  const int threads = ResolveRenderThreads(options.num_threads);
  if (pool != nullptr && threads > 1) {
    const uint32_t want =
        std::min<uint32_t>(static_cast<uint32_t>(threads) - 1,
                           job->num_rows - 1);
    for (uint32_t i = 0; i < want; ++i) {
      // A rejection (pool saturated or stopping) sheds that helper's share
      // back onto the caller's loop below: the frame still completes, just
      // less parallel.
      (void)pool->TrySubmit([job, values, eval, decided_value] {
        RunWorker(job, values, eval, decided_value);
      });
    }
  }
  RunWorker(job, values, eval, decided_value);
  BatchStats merged;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&job] {
      return job->claims_done == job->num_chunks + job->num_rows;
    });
    merged = job->stats;
  }
  if (options.frontier_cache != nullptr && job->building != nullptr &&
      merged.completed) {
    // Only a clean frame publishes its freshly built frontiers.
    options.frontier_cache->Insert(key, std::move(job->building));
  }
  if (stats == nullptr) return;
  MergeRun(merged, stats);
  stats->seconds = timer.ElapsedSeconds();
  FrameObs& o = FrameObs::Get();
  o.frames->Increment();
  o.frame_seconds->Record(stats->seconds);
  if (stats->queries > 0) {
    o.bound_evals_per_pixel->Record(
        static_cast<double>(stats->nodes_visited + stats->tile_nodes_visited) /
        static_cast<double>(stats->queries));
  }
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
  auto eval = [&evaluator, eps, &control](
                  const Point& q, const TileFrontier* seed,
                  RefinementStream& scratch, BatchStats* ws,
                  bool* interrupted) {
    EvalResult r =
        seed != nullptr
            ? evaluator.EvaluateEpsSeeded(q, eps, *seed, control, &scratch)
            : evaluator.EvaluateEps(q, eps, control, &scratch);
    AccumulateQueryStats(ws, r);
    *interrupted = r.interrupted;
    return r.estimate;
  };
  auto decided_value = [](const TileFrontier& tf) { return tf.decided_value; };
  RenderChunks(evaluator, grid, options, pool, control, "runner.eps", 'e',
               eps, stats, frame.values.data(), eval, decided_value);
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
  auto eval = [&evaluator, tau, &control](
                  const Point& q, const TileFrontier* seed,
                  RefinementStream& scratch, BatchStats* ws,
                  bool* interrupted) {
    TauResult r =
        seed != nullptr
            ? evaluator.EvaluateTauSeeded(q, tau, *seed, control, &scratch)
            : evaluator.EvaluateTau(q, tau, control, &scratch);
    AccumulateQueryStats(ws, r);
    *interrupted = r.interrupted;
    return static_cast<uint8_t>(r.above_threshold ? 1 : 0);
  };
  auto decided_value = [](const TileFrontier& tf) {
    return static_cast<uint8_t>(tf.decided_above ? 1 : 0);
  };
  RenderChunks(evaluator, grid, options, pool, control, "runner.tau", 't',
               tau, stats, frame.values.data(), eval, decided_value);
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
  const uint64_t num_points = evaluator.tree().num_points();
  auto eval = [&evaluator, num_points](const Point& q,
                                       const TileFrontier* /*seed*/,
                                       RefinementStream& /*scratch*/,
                                       BatchStats* ws, bool* interrupted) {
    // Exact scans are uninterruptible mid-query: one scan is the smallest
    // unit of interruption for this method.
    *interrupted = false;
    ++ws->queries;
    ws->points_scanned += num_points;
    return evaluator.EvaluateExact(q);
  };
  auto decided_value = [](const TileFrontier&) { return 0.0; };
  RenderChunks(evaluator, grid, options, pool, control, "runner.exact",
               /*mode=*/0, 0.0, stats, frame.values.data(), eval,
               decided_value);
  return frame;
}

}  // namespace kdv
