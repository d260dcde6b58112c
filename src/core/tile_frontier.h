// Shared refinement frontier of one pixel tile.
//
// A TileFrontier is the output of the TileRefiner's single best-first region
// pass over a tile (core/tile_refiner.h): the kd-tree nodes whose region
// bounds could not decide the whole tile, plus the certified contribution
// interval of every node that *was* decided tile-wide (folded into
// base_lower/base_upper). Each pixel of the tile then seeds its
// RefinementStream from the frontier (Reset(q, frontier)) instead of the
// tree root, so the shared part of the traversal is paid once per tile. An
// εKDV pixel right of another in a chunk row may start from that pixel's
// final cut instead, which descends from the same frontier (see `id`).
//
// Soundness contract consumed by the stream: for every query q in the tile,
//   base_lower + sum_{n in nodes} F_n(q) <= F_P(q)
//                                        <= base_upper + sum_{n in nodes} F_n(q)
// and each frontier node carries its certified region interval
//   n.lower <= F_n(q) <= n.upper   for every q in the tile,
// so a pixel stream can be primed with ZERO per-pixel bound evaluations:
// the region intervals are valid starting intervals (their sums are
// precomputed in frontier_lower/frontier_upper, making priming O(1)), and
// best-first refinement injects frontier nodes lazily — in descending
// region-gap order — replacing each with this pixel's own bounds only when
// its slack actually blocks termination. The frontier nodes are disjoint
// subtrees covering exactly the points not accounted for by the baseline. A
// frontier with valid == false must be ignored (the pixel falls back to
// root-seeded refinement).
//
// Quadrants (τKDV only). An undecided τ tile may also carry four quadrant
// frontiers: the tile's rect cut at its midpoints (cut[0], cut[1]), each
// quadrant holding the same contract over its own sub-rect, with the tile
// frontier's nodes re-bounded there (tile_refiner.h). This is sound because
// a region interval valid over the tile is valid over any sub-rect, so the
// inherited baseline holds in every quadrant. Quadrant i covers x on side
// (i & 1) of cut[0] and y on side (i >> 1) of cut[1]; the quadrant rects
// share the cut lines, so whichever side an on-line pixel center is sent to
// contains it. A dimension with zero extent is not cut (its cut is +inf and
// the side-1 slots stay empty and invalid — SeedFor never selects them). A
// quadrant whose totals settle τ is `decided`; its pixels still seed from it
// and stop with zero refinement steps.
#ifndef QUADKDV_CORE_TILE_FRONTIER_H_
#define QUADKDV_CORE_TILE_FRONTIER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.h"

namespace kdv {

struct TileFrontier {
  // Sum of the certified region bounds of all tile-accepted nodes. The gap
  // base_upper - base_lower is bounded by the acceptance budget (εKDV) or is
  // exactly 0 (τKDV), which is what keeps per-pixel certificates intact even
  // when a seeded stream exhausts without meeting its termination test.
  double base_lower = 0.0;
  double base_upper = 0.0;

  // One undecided subtree root with its certified region interval.
  struct Node {
    int32_t node = -1;
    double lower = 0.0;  // region lower bound on F_node(q), any q in tile
    double upper = 0.0;  // region upper bound
  };

  // Undecided subtree roots, descending region gap (ties: ascending node
  // id). The order is the stream's lazy-injection order: a seeded stream
  // consumes nodes front-to-back, and since a node's per-pixel gap never
  // exceeds its region gap, the next unconsumed entry's region gap is a
  // sound priority for best-first interleaving with the heap. Disjoint from
  // each other and from every accepted/pruned node.
  std::vector<Node> nodes;

  // Precomputed sums over `nodes` of the region interval ends, so seeding a
  // pixel stream is O(1): lb = base_lower + frontier_lower (resp. upper).
  double frontier_lower = 0.0;
  double frontier_upper = 0.0;

  // Whole-tile decisions: when `decided`, every pixel of the tile can be
  // finished with zero per-pixel work.
  bool decided = false;
  double decided_value = 0.0;  // εKDV: certified midpoint estimate
  bool decided_above = false;  // τKDV: region predicate outcome

  // False when the region pass hit a numeric fault (non-finite or genuinely
  // inverted region bounds); consumers must fall back to per-pixel
  // refinement from the root.
  bool valid = false;

  // Identity of the region pass that built this frontier: unique in the
  // process and nonzero for εKDV frontiers (TileRefiner::BuildEps), 0 for
  // τKDV ones and for frontiers built by hand. A seeded stream carries its
  // cut from a pixel to its right neighbour only under one nonzero id
  // (RefinementStream::Reset(q, frontier)), so the next chunk's or the next
  // frame's frontier never inherits a cut, even at the same address.
  uint64_t id = 0;

  // Region-pass work accounting (merged into BatchStats by the renderer).
  // nodes_visited includes the quadrant passes; accepted and pruned count
  // the tile-wide decisions of the tile pass only.
  uint64_t nodes_visited = 0;  // region bound evaluations
  uint64_t accepted = 0;       // nodes folded into the baseline
  uint64_t pruned = 0;         // nodes with zero tile-wide contribution

  // τKDV quadrant frontiers (see above): empty, or four slots indexed by
  // side. Quadrants carry no work counters and no quadrants of their own.
  std::vector<TileFrontier> quadrants;
  double cut[2] = {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()};

  // The frontier that seeds the stream of pixel q (a point of this tile):
  // its quadrant's when the tile has quadrants, else this one.
  const TileFrontier& SeedFor(const Point& q) const {
    if (quadrants.empty()) return *this;
    return quadrants[(q[0] > cut[0] ? 1 : 0) + (q[1] > cut[1] ? 2 : 0)];
  }
};

}  // namespace kdv

#endif  // QUADKDV_CORE_TILE_FRONTIER_H_
