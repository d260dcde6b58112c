#include "core/kdv_runner.h"

namespace kdv {

void AccumulateQueryStats(BatchStats* stats, const EvalResult& r) {
  if (stats == nullptr) return;
  ++stats->queries;
  stats->iterations += r.iterations;
  stats->points_scanned += r.points_scanned;
  stats->nodes_visited += r.node_evals;
  if (r.numeric_fault) ++stats->numeric_faults;
}

void AccumulateQueryStats(BatchStats* stats, const TauResult& r) {
  if (stats == nullptr) return;
  ++stats->queries;
  stats->iterations += r.iterations;
  stats->points_scanned += r.points_scanned;
  stats->nodes_visited += r.node_evals;
  if (r.numeric_fault) ++stats->numeric_faults;
}

void AddWorkCounters(const BatchStats& from, BatchStats* into) {
  into->queries += from.queries;
  into->iterations += from.iterations;
  into->points_scanned += from.points_scanned;
  into->nodes_visited += from.nodes_visited;
  into->numeric_faults += from.numeric_faults;
  into->tile_nodes_visited += from.tile_nodes_visited;
  into->tile_accepted += from.tile_accepted;
  into->tile_pruned += from.tile_pruned;
  into->tiles_decided += from.tiles_decided;
  into->pixels_decided += from.pixels_decided;
  into->frontier_cache_hits += from.frontier_cache_hits;
  into->tile_seconds += from.tile_seconds;
}

}  // namespace kdv
