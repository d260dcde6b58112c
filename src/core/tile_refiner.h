// Shared-traversal refinement over a pixel tile (one region pass per tile).
//
// Adjacent pixels make nearly identical prune/accept decisions near the top
// of the kd-tree. The TileRefiner runs the §3.2 best-first loop once per
// tile using *region* bounds (bounds/node_bounds.h EvaluateRegion):
// intervals valid for every query point inside the tile's rect. Each popped
// node is either
//   * pruned   — region upper bound is 0: the subtree contributes nothing to
//                any pixel of the tile and disappears entirely;
//   * accepted — its region interval is folded into a per-tile baseline
//                (εKDV: under a tile-wide gap budget that provably preserves
//                the per-pixel certificate; τKDV: only zero-gap intervals);
//   * expanded — replaced by its children's region bounds;
//   * deferred — left to per-pixel refinement (leaves, or once the visit /
//                frontier caps are hit).
// The deferred nodes form the TileFrontier that seeds every pixel's
// RefinementStream (Reset(q, frontier)); when the region totals alone settle
// the termination test, the whole tile is decided with zero per-pixel work.
//
// εKDV budget argument (why exhausted seeded streams stay certified): let
// L* be the tile's final region lower total before acceptance and G the
// accumulated gap of accepted nodes, with G <= α·ε·L* and α <= 1. For any
// pixel q, the exhausted seeded interval is [B_l + e(q), B_u + e(q)] where
// e(q) = Σ_frontier F_n(q) >= L* - B_l, so
//   ub - lb = B_u - B_l = G <= α·ε·L* <= ε·(B_l + e(q)) = ε·lb,
// i.e. ub <= (1+ε)·lb always holds at exhaustion and the midpoint estimate
// satisfies |R - F| <= ε·F. τKDV accepts only zero-gap intervals, so seeded
// streams can still reach the exact remainder and classify every pixel.
//
// Quadrant passes (τKDV only). BuildTau refines a tile its region pass
// leaves undecided one level further: every frontier node's region bounds
// are re-evaluated over each of the tile's four quadrants (layout and
// soundness: tile_frontier.h). Per quadrant, nodes with a zero region upper
// bound are pruned, zero-gap intervals join the quadrant baseline and the
// rest form the quadrant's frontier; nothing is expanded. When all
// quadrants settle τ the same way the tile is decided outright; a numeric
// fault in any quadrant drops all four, and the tile frontier serves every
// pixel. Work: kTileMaxNodesVisited caps the tile pass; the quadrant passes
// add at most 4 × the tile frontier's size. εKDV gets no quadrants: its
// acceptance budget caps what smaller regions can settle, and ε values would
// change bits (measurements: DESIGN.md §13).
#ifndef QUADKDV_CORE_TILE_REFINER_H_
#define QUADKDV_CORE_TILE_REFINER_H_

#include <cstdint>

#include "bounds/node_bounds.h"
#include "core/tile_frontier.h"
#include "geom/rect.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"

namespace kdv {

// Cap on region bound evaluations per tile. Deliberately small: a region
// bound evaluation costs ~3x a point bound evaluation (rect-to-rect
// distances plus coefficient extremization), and measurements show its
// marginal value collapses quickly — past ~128 evaluations on a 16x16
// tile, each additional region evaluation settles so little slack that
// the per-pixel streams save fewer (cheaper) point evaluations than the
// region pass spends. Whole-tile decisions that happen at all happen
// early, well inside this budget.
inline constexpr uint32_t kTileMaxNodesVisited = 128;
// Cap on undecided nodes carried into the frontier. Frontier size costs
// pixels nothing up front (seeding is O(1) and nodes enter a stream's
// heap lazily, in region-gap order), so this is a memory/cache-footprint
// valve rather than a per-pixel cost knob; with the node budget above it
// rarely binds.
inline constexpr uint32_t kTileMaxFrontier = 192;
// Fraction α of the ε gap budget the tile pass may spend on accepted
// nodes; the remainder is head-room for the per-pixel streams. Must be in
// (0, 1].
inline constexpr double kTileAcceptFraction = 0.5;
static_assert(kTileAcceptFraction > 0.0 && kTileAcceptFraction <= 1.0);

// Stateless over queries; one instance may be shared by concurrent workers
// (same contract as KdeEvaluator). Non-owning pointers.
class TileRefiner {
 public:
  TileRefiner(const KdTree* tree, const KernelParams& params,
              const NodeBounds* bounds);

  // One region pass for an εKDV tile whose pixel centers all lie inside
  // `query_rect`. eps >= 0.
  TileFrontier BuildEps(const Rect& query_rect, double eps) const;

  // One region pass for a τKDV tile, plus the quadrant passes when the tile
  // is left undecided (see above).
  TileFrontier BuildTau(const Rect& query_rect, double tau) const;

 private:
  TileFrontier Build(const Rect& query_rect, bool eps_mode,
                     double param) const;
  // Cuts an undecided, valid τ tile frontier into its quadrants, or decides
  // the tile when all quadrants settle τ the same way. Leaves the tile as it
  // was (bar the counted work) on a numeric fault.
  void AddQuadrants(const Rect& query_rect, double tau,
                    TileFrontier* tile) const;
  // Re-bounds every node of `tile` over the sub-rect `rect` into `quad`.
  // Returns false on a numeric fault.
  bool BoundQuadrant(const TileFrontier& tile, const Rect& rect, double tau,
                     TileFrontier* quad, uint64_t* nodes_visited) const;

  const KdTree* tree_;
  KernelParams params_;
  const NodeBounds* bounds_;
};

}  // namespace kdv

#endif  // QUADKDV_CORE_TILE_REFINER_H_
