#include "core/tile_refiner.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
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

// Source of TileFrontier::id for εKDV frontiers; 0 is never handed out.
std::atomic<uint64_t> next_frontier_id{1};

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

// Descending region gap (ties: node id) — the stream's lazy-injection
// order; see tile_frontier.h.
void SortByRegionGap(std::vector<TileFrontier::Node>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const TileFrontier::Node& a, const TileFrontier::Node& b) {
              const double ga = a.upper - a.lower;
              const double gb = b.upper - b.lower;
              if (ga != gb) return ga > gb;
              return a.node < b.node;
            });
}

// The τ decision for a region whose interval [lower, upper] holds at every
// pixel: settled once the interval lies on one side of τ. Marks `tf`
// decided (and the side) when settled; returns whether it is.
bool DecideTau(double lower, double upper, double tau, TileFrontier* tf) {
  if (lower >= tau || upper <= tau) {
    tf->decided = true;
    tf->decided_above = lower >= tau;
  }
  return tf->decided;
}

}  // namespace

TileRefiner::TileRefiner(const KdTree* tree, const KernelParams& params,
                         const NodeBounds* bounds)
    : tree_(tree), params_(params), bounds_(bounds) {
  KDV_CHECK(tree_ != nullptr);
  KDV_CHECK_MSG(bounds_ != nullptr,
                "tile refinement requires a bound function (not EXACT)");
}

TileFrontier TileRefiner::BuildEps(const Rect& query_rect, double eps) const {
  KDV_CHECK(eps >= 0.0);
  Timer timer;  // CurrentClock: virtual under sim, so metrics replay exactly
  TileFrontier out = Build(query_rect, /*eps_mode=*/true, eps);
  out.id = next_frontier_id.fetch_add(1, std::memory_order_relaxed);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

TileFrontier TileRefiner::BuildTau(const Rect& query_rect, double tau) const {
  Timer timer;
  TileFrontier out = Build(query_rect, /*eps_mode=*/false, tau);
  if (out.valid && !out.decided) AddQuadrants(query_rect, tau, &out);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

void TileRefiner::AddQuadrants(const Rect& query_rect, double tau,
                               TileFrontier* tile) const {
  KDV_CHECK(query_rect.dim() == 2);  // SeedFor reads q[0] and q[1]
  // A dimension with zero extent (a one-pixel row or column) is not cut.
  bool split[2];
  double cut[2];
  for (int d = 0; d < 2; ++d) {
    split[d] = query_rect.hi(d) > query_rect.lo(d);
    cut[d] = split[d] ? 0.5 * (query_rect.lo(d) + query_rect.hi(d))
                      : std::numeric_limits<double>::infinity();
  }
  if (!split[0] && !split[1]) return;

  std::vector<TileFrontier> quadrants(4);
  int built = 0;
  int decided = 0;
  int above = 0;
  for (int i = 0; i < 4; ++i) {
    const int side[2] = {i & 1, i >> 1};
    if ((side[0] == 1 && !split[0]) || (side[1] == 1 && !split[1])) continue;
    // The quadrant rects share the cut lines (see tile_frontier.h).
    Rect rect = query_rect;
    for (int d = 0; d < 2; ++d) {
      if (!split[d]) continue;
      if (side[d] == 1) {
        rect.set_lo(d, cut[d]);
      } else {
        rect.set_hi(d, cut[d]);
      }
    }
    if (!BoundQuadrant(*tile, rect, tau, &quadrants[i],
                       &tile->nodes_visited)) {
      return;  // numeric fault: the tile frontier serves every pixel
    }
    ++built;
    if (quadrants[i].decided) {
      ++decided;
      if (quadrants[i].decided_above) ++above;
    }
  }
  if (decided == built && (above == 0 || above == built)) {
    // Every quadrant settles τ the same way: so does the tile.
    tile->decided = true;
    tile->decided_above = above > 0;
    return;
  }
  tile->quadrants = std::move(quadrants);
  tile->cut[0] = cut[0];
  tile->cut[1] = cut[1];
}

bool TileRefiner::BoundQuadrant(const TileFrontier& tile, const Rect& rect,
                                double tau, TileFrontier* quad,
                                uint64_t* nodes_visited) const {
  // The tile baseline holds exact (zero-gap) intervals valid over the whole
  // tile, hence over the quadrant.
  quad->base_lower = tile.base_lower;
  quad->base_upper = tile.base_upper;
  quad->nodes.reserve(tile.nodes.size());
  for (const TileFrontier::Node& n : tile.nodes) {
    const BoundPair b =
        bounds_->EvaluateRegion(tree_->node(n.node).stats, rect);
    ++*nodes_visited;
    if (!IntervalAcceptable(b.lower, b.upper)) return false;
    if (b.upper <= 0.0) continue;  // contributes nothing in this quadrant
    if (b.upper - b.lower <= 0.0) {
      // The same zero-gap acceptance as the tile pass.
      quad->base_lower += b.lower;
      quad->base_upper += b.upper;
      continue;
    }
    quad->nodes.push_back({n.node, b.lower, b.upper});
    quad->frontier_lower += b.lower;
    quad->frontier_upper += b.upper;
  }
  const double lower = quad->base_lower + quad->frontier_lower;
  const double upper = quad->base_upper + quad->frontier_upper;
  if (!IntervalAcceptable(lower, upper)) return false;
  SortByRegionGap(&quad->nodes);
  DecideTau(lower, upper, tau, quad);
  quad->valid = true;
  return true;
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
    return DecideTau(total_lower, total_upper, param, &out);
  };

  while (!heap.empty()) {
    if (decided()) {
      out.valid = true;
      return out;
    }
    if (out.nodes_visited >= kTileMaxNodesVisited) break;
    if (heap.size() + deferred.size() >= kTileMaxFrontier) break;

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
      eps_mode ? kTileAcceptFraction * param * total_lower : 0.0;
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
  SortByRegionGap(&out.nodes);

  if (out.nodes.empty()) {
    // Everything was accepted: the baseline alone answers every pixel. A τ
    // baseline sums zero-gap intervals (base_upper <= base_lower), so it
    // always lies on one side of τ.
    if (eps_mode) {
      out.decided = true;
      out.decided_value = 0.5 * (out.base_lower + out.base_upper);
    } else {
      DecideTau(out.base_lower, out.base_upper, param, &out);
    }
  }
  out.valid = true;
  return out;
}

}  // namespace kdv
