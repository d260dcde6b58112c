// Whole-frame KDV rendering: the one pixel loop over a grid, serial or
// data-parallel.
//
// The pixel grid is cut into square chunks of `tile_rows` x `tile_rows`
// pixels (clipped at the frame edge). A worker claims the next chunk off an
// atomic counter, runs (or loads from the frontier cache) the chunk's
// region pass in tile-shared mode, publishes the chunk, and then takes its
// rows one at a time off a per-chunk atomic counter. A worker that finds no
// chunk left to claim takes rows of chunks other workers have published, so
// nobody waits on another worker's region pass while other work is left and
// a frame's tail is one chunk row. Per-pixel mode and EXACT run the same
// loop with no region pass. Every worker reuses one RefinementStream for
// all its pixels (zero allocations after warm-up). The caller thread always
// participates, so a frame makes progress even when the helper pool is
// saturated or absent — and a frame rendered through an exhausted pool
// degrades to caller-only rendering rather than failing.
//
// Determinism: pixels are independent queries and every worker runs the
// same per-pixel evaluation (KdeEvaluator::EvaluateEps / EvaluateTau /
// EvaluateExact at grid.PixelCenter), so a completed frame is bit-identical
// for any thread count and tile size. Each worker sums its work counters
// and merges them once; the counters are integer sums, so the aggregate
// BatchStats counters are deterministic too (seconds excepted).
//
// Tile-shared mode (RenderOptions::tile_shared) amortizes the tree traversal
// across the pixels of each chunk with one region-bound pass
// (core/tile_refiner.h) and seeds every pixel's stream from the shared
// frontier. Frames remain deterministic for any thread count (each chunk's
// pass runs once, and both it and the seeded per-pixel refinement are
// deterministic; a cached frontier is bitwise the one a rebuild would
// produce) but are not bitwise equal to the per-pixel path: whole chunks may
// be answered from region bounds alone. The εKDV/τKDV certificates hold
// exactly either way.
//
// Contracts:
//   * QueryControl is polled before every pixel and at iteration granularity
//     inside each refining evaluation; on a stop the partial frame comes
//     back with completed=false and the deadline_expired/cancelled flags
//     set. Work not yet claimed is abandoned.
//   * The per-query failpoint sites ("runner.eps" / "runner.tau" /
//     "runner.exact") fire before every pixel (and every tile-shared chunk);
//     the whole-frame entry site ("viz.render") fires once per frame.
#ifndef QUADKDV_VIZ_PARALLEL_RENDER_H_
#define QUADKDV_VIZ_PARALLEL_RENDER_H_

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "viz/frame.h"
#include "viz/frontier_cache.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Intra-frame parallelism knobs, threaded end-to-end (CLI --threads, the
// render service, the resilient renderer, the benchmark suite).
struct RenderOptions {
  // Worker threads per frame, including the calling thread. 0 means
  // hardware_concurrency; 1 renders serially in the caller. Values above 1
  // only take effect when an Executor is supplied.
  int num_threads = 1;
  // Chunk edge in pixels: the frame is cut into tile_rows x tile_rows
  // chunks (clamped to [1, grid height] rows and [1, grid width] columns),
  // each claimed by one worker, whose rows any worker may then take. In
  // tile-shared mode it is also the region of one region-bound pass: larger
  // chunks share more traversal per pass but bound it more loosely.
  int tile_rows = 16;

  // Shared-traversal tile refinement (core/tile_refiner.h): one
  // region-bound pass runs per chunk, and its pixels are seeded from the
  // resulting frontier (or whole chunks are answered from the region bounds
  // alone). Off keeps frames bit-identical to per-pixel evaluation; on
  // preserves the εKDV/τKDV certificates but may produce (certified)
  // different pixel values. Ignored for the EXACT method and for non-2-d
  // indexes.
  bool tile_shared = false;
  // Optional cross-frame frontier cache; entries are namespaced by
  // cache_epoch (the serving layer passes its epoch id, so a dataset
  // hot-swap can never reuse stale frontiers).
  FrontierCache* frontier_cache = nullptr;
  uint64_t cache_epoch = 0;
};

// Resolves a --threads style request: 0 -> hardware_concurrency (>= 1),
// otherwise the value itself (clamped to >= 1).
int ResolveRenderThreads(int num_threads);

// εKDV over the whole grid, fanned out over `pool`. `pool` may be nullptr
// and `stats` may be nullptr; helpers beyond the caller are submitted with
// TrySubmit, so an exhausted pool sheds work back onto the caller instead of
// blocking. The pool must not be the one executing the calling task when
// that pool has a bounded queue sized below num_threads (the caller
// participates, so no completion deadlock is possible either way).
DensityFrame RenderEpsFrameParallel(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const RenderOptions& options,
                                    Executor* pool,
                                    const QueryControl& control,
                                    BatchStats* stats);

// τKDV over the whole grid.
BinaryFrame RenderTauFrameParallel(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double tau,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats);

// Exact KDV over the whole grid.
DensityFrame RenderExactFrameParallel(const KdeEvaluator& evaluator,
                                      const PixelGrid& grid,
                                      const RenderOptions& options,
                                      Executor* pool,
                                      const QueryControl& control,
                                      BatchStats* stats);

// Single-threaded whole-frame renders with default RenderOptions: no pool,
// no deadline, not cancellable. `stats` may be nullptr.
inline DensityFrame RenderEpsFrame(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double eps,
                                   BatchStats* stats) {
  return RenderEpsFrameParallel(evaluator, grid, eps, RenderOptions(),
                                nullptr, QueryControl(), stats);
}
inline BinaryFrame RenderTauFrame(const KdeEvaluator& evaluator,
                                  const PixelGrid& grid, double tau,
                                  BatchStats* stats) {
  return RenderTauFrameParallel(evaluator, grid, tau, RenderOptions(),
                                nullptr, QueryControl(), stats);
}
inline DensityFrame RenderExactFrame(const KdeEvaluator& evaluator,
                                     const PixelGrid& grid,
                                     BatchStats* stats) {
  return RenderExactFrameParallel(evaluator, grid, RenderOptions(), nullptr,
                                  QueryControl(), stats);
}

}  // namespace kdv

#endif  // QUADKDV_VIZ_PARALLEL_RENDER_H_
