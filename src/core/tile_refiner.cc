#include "core/tile_refiner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Per-pass observability. The region pass runs once per tile chunk, not per
// pixel, so three relaxed atomic bumps here are invisible next to the bound
// evaluations the pass performs. Handles resolve once per process.
struct TileObs {
  obs::Counter* passes;
  obs::Counter* nodes;
  obs::Counter* decided;
  obs::Histogram* pass_seconds;
  TileObs() {
    auto& r = obs::MetricsRegistry::Global();
    passes = r.GetCounter("kdv_tile_region_passes_total");
    nodes = r.GetCounter("kdv_tile_region_nodes_total");
    decided = r.GetCounter("kdv_tile_decided_total");
    pass_seconds = r.GetHistogram("kdv_tile_region_pass_seconds");
  }
};

void RecordTilePass(const TileFrontier& out, double seconds) {
  static TileObs& o = *new TileObs();
  o.passes->Increment();
  o.nodes->Increment(out.nodes_visited);
  if (out.valid && out.decided) o.decided->Increment();
  o.pass_seconds->Record(seconds);
}

// Same acceptance test as the refinement stream: finite ends, inversion
// within floating-point drift.
bool IntervalAcceptable(double lower, double upper) {
  if (!std::isfinite(lower) || !std::isfinite(upper)) return false;
  return upper >= lower - 1e-9 * (1.0 + std::abs(lower));
}

struct RegionEntry {
  double gap = 0.0;
  int32_t node = -1;
  double lower = 0.0;
  double upper = 0.0;
};

struct GapLess {
  bool operator()(const RegionEntry& a, const RegionEntry& b) const {
    return a.gap < b.gap;
  }
};

// Phase-2 acceptance order: tightest intervals first, node id as the
// deterministic tie-break.
struct GapThenNode {
  bool operator()(const RegionEntry& a, const RegionEntry& b) const {
    if (a.gap != b.gap) return a.gap < b.gap;
    return a.node < b.node;
  }
};

}  // namespace

TileRefiner::TileRefiner(const KdTree* tree, const KernelParams& params,
                         const NodeBounds* bounds,
                         const TileRefinerOptions& options)
    : tree_(tree), params_(params), bounds_(bounds), options_(options) {
  KDV_CHECK(tree_ != nullptr);
  KDV_CHECK_MSG(bounds_ != nullptr,
                "tile refinement requires a bound function (not EXACT)");
  KDV_CHECK(options_.accept_fraction > 0.0 && options_.accept_fraction <= 1.0);
}

TileFrontier TileRefiner::BuildEps(const Rect& query_rect, double eps) const {
  KDV_CHECK(eps >= 0.0);
  Timer timer;  // CurrentClock: virtual under sim, so metrics replay exactly
  TileFrontier out = Build(query_rect, /*eps_mode=*/true, eps);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

TileFrontier TileRefiner::BuildTau(const Rect& query_rect, double tau) const {
  Timer timer;
  TileFrontier out = Build(query_rect, /*eps_mode=*/false, tau);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

TileFrontier TileRefiner::Build(const Rect& query_rect, bool eps_mode,
                                double param) const {
  TileFrontier out;

  // Max-heap over region gap, plus deferred leaves (kept out of the heap so
  // the loop never re-pops them; their intervals stay in the totals).
  std::vector<RegionEntry> heap;
  std::vector<RegionEntry> deferred;

  const int32_t root = tree_->root();
  BoundPair rb = bounds_->EvaluateRegion(tree_->node(root).stats, query_rect);
  ++out.nodes_visited;
  if (!IntervalAcceptable(rb.lower, rb.upper)) return out;  // valid == false
  double total_lower = rb.lower;
  double total_upper = rb.upper;
  heap.push_back({rb.upper - rb.lower, root, rb.lower, rb.upper});

  auto decided = [&]() {
    if (eps_mode) {
      if (total_upper <= (1.0 + param) * total_lower) {
        out.decided = true;
        out.decided_value = 0.5 * (total_lower + total_upper);
        return true;
      }
      return false;
    }
    if (total_lower >= param) {
      out.decided = true;
      out.decided_above = true;
      return true;
    }
    if (total_upper <= param) {
      out.decided = true;
      out.decided_above = false;
      return true;
    }
    return false;
  };

  while (!heap.empty()) {
    if (decided()) {
      out.valid = true;
      return out;
    }
    if (out.nodes_visited >= options_.max_nodes_visited) break;
    if (heap.size() + deferred.size() >= options_.max_frontier) break;

    std::pop_heap(heap.begin(), heap.end(), GapLess());
    RegionEntry top = heap.back();
    heap.pop_back();
    if (top.gap <= 0.0) {
      // Loosest entry is already tight: everything left is an acceptance
      // candidate for phase 2.
      heap.push_back(top);
      break;
    }
    const KdTree::Node node = tree_->node(top.node);
    if (node.IsLeaf()) {
      deferred.push_back(top);
      continue;
    }
    total_lower -= top.lower;
    total_upper -= top.upper;
    bool fault = false;
    for (int32_t child : {node.left, node.right}) {
      BoundPair cb =
          bounds_->EvaluateRegion(tree_->node(child).stats, query_rect);
      ++out.nodes_visited;
      if (!IntervalAcceptable(cb.lower, cb.upper)) {
        fault = true;
        break;
      }
      if (cb.upper <= 0.0) {
        // The subtree contributes nothing to any pixel of this tile.
        ++out.pruned;
        continue;
      }
      total_lower += cb.lower;
      total_upper += cb.upper;
      heap.push_back({cb.upper - cb.lower, child, cb.lower, cb.upper});
      std::push_heap(heap.begin(), heap.end(), GapLess());
    }
    if (fault || !IntervalAcceptable(total_lower, total_upper)) {
      return out;  // valid == false: pixels fall back to root seeding
    }
  }
  if (decided()) {
    out.valid = true;
    return out;
  }

  // Phase 2: fold tight intervals into the per-tile baseline. Budget for
  // εKDV is α·ε·L* against the *final* lower total (see header proof); τKDV
  // only absorbs exactly-tight (zero gap) intervals so per-pixel streams can
  // still reach the exact remainder.
  deferred.insert(deferred.end(), heap.begin(), heap.end());
  std::sort(deferred.begin(), deferred.end(), GapThenNode());
  const double budget =
      eps_mode ? options_.accept_fraction * param * total_lower : 0.0;
  double accepted_gap = 0.0;
  for (const RegionEntry& e : deferred) {
    if (e.gap <= 0.0 || accepted_gap + e.gap <= budget) {
      out.base_lower += e.lower;
      out.base_upper += e.upper;
      accepted_gap += std::max(e.gap, 0.0);
      ++out.accepted;
    } else {
      out.nodes.push_back({e.node, e.lower, e.upper});
      out.frontier_lower += e.lower;
      out.frontier_upper += e.upper;
    }
  }
  // Descending region gap (ties: node id) — the stream's lazy-injection
  // order; see tile_frontier.h.
  std::sort(out.nodes.begin(), out.nodes.end(),
            [](const TileFrontier::Node& a, const TileFrontier::Node& b) {
              const double ga = a.upper - a.lower;
              const double gb = b.upper - b.lower;
              if (ga != gb) return ga > gb;
              return a.node < b.node;
            });

  if (out.nodes.empty()) {
    // Everything was accepted: the baseline alone answers every pixel.
    out.decided = true;
    if (eps_mode) {
      out.decided_value = 0.5 * (out.base_lower + out.base_upper);
    } else {
      out.decided_above = out.base_lower >= param;
    }
  }
  out.valid = true;
  return out;
}

}  // namespace kdv
