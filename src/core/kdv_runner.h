// Work and timing accounting for a run of KDV queries (a frame, a tile, a
// benchmark's query loop). The frame renderers (viz/parallel_render.h) are
// the one pixel loop over a grid; they and every other query loop record
// per-query work through AccumulateQueryStats and merge partial runs with
// AddWorkCounters, so what is counted cannot drift between callers.
#ifndef QUADKDV_CORE_KDV_RUNNER_H_
#define QUADKDV_CORE_KDV_RUNNER_H_

#include <cstdint>

#include "core/evaluator.h"
#include "util/status.h"

namespace kdv {

// Aggregate work/timing statistics of one run.
struct BatchStats {
  double seconds = 0.0;
  uint64_t queries = 0;           // queries actually evaluated
  uint64_t iterations = 0;        // total refinement steps
  uint64_t points_scanned = 0;    // total exact point evaluations
  uint64_t nodes_visited = 0;     // per-pixel node bound evaluations
  bool completed = true;          // false if the run was cut short
  bool deadline_expired = false;  // cut short by the per-request deadline
  bool cancelled = false;         // cut short by the CancelToken
  uint64_t numeric_faults = 0;    // queries clamped by numerical hardening

  // Shared-traversal (tile-shared) pruning-efficiency counters, populated by
  // the frame renderer when RenderOptions::tile_shared is on.
  uint64_t tile_nodes_visited = 0;   // region bound evaluations (tile passes)
  uint64_t tile_accepted = 0;        // nodes folded into tile baselines
  uint64_t tile_pruned = 0;          // subtrees discarded tile-wide
  uint64_t tiles_decided = 0;        // tiles finished with zero per-pixel work
  uint64_t pixels_decided = 0;       // pixels those tiles filled (in queries)
  // Frames served from the serve layer's frame cache (serve/frame_cache.h),
  // which then did no work; the frame driver itself never caches. The name
  // is older than that cache and kept, as the benchmark suite reads it.
  uint64_t frontier_cache_hits = 0;
  // Time inside tile region passes, summed across tiles (CPU seconds, not
  // wall time; measured through the clock seam, so 0 under the simulator's
  // virtual clock). Feeds the tile_pass trace stage and obs histograms.
  double tile_seconds = 0.0;
  // Non-OK when an internal fault (e.g. an injected failpoint error) aborted
  // the run; the partial outputs written so far remain valid.
  Status status = OkStatus();
};

// Adds one query's work accounting (query count, iterations, points
// scanned, node evaluations, numeric faults) to *stats. No-op when
// stats == nullptr. The single place query loops record per-query work, so
// the two result types can never drift apart in what they count.
void AccumulateQueryStats(BatchStats* stats, const EvalResult& r);
void AccumulateQueryStats(BatchStats* stats, const TauResult& r);

// Adds every work counter of `from` (query, iteration, scan, node and
// tile-pass counts, numeric faults, cache hits, tile_seconds) to *into.
// Completion flags, status and wall-clock `seconds` are left alone: how runs
// combine those is the caller's decision.
void AddWorkCounters(const BatchStats& from, BatchStats* into);

}  // namespace kdv

#endif  // QUADKDV_CORE_KDV_RUNNER_H_
