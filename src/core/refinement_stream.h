// Step-wise bound refinement for one query point.
//
// A RefinementStream exposes the §3.2 best-first loop one queue-pop at a
// time, maintaining a certified, monotonically tightening interval
// [lower(), upper()] around F_P(q). εKDV, τKDV, the Fig-18 traces and the
// kernel-density classifier are all thin drivers over this stream.
//
// Reuse: a stream may be constructed unprimed and primed per query with
// Reset(q) — the priority-queue storage is retained across resets, so a tile
// of thousands of pixels performs zero heap allocations after the first few
// queries warm the buffer. A root reset, Reset(q), is indistinguishable
// from a freshly constructed stream, and so is every seeded reset from a
// frontier without an identity (τKDV): the per-pixel renderer's
// bit-identical-output contract relies on this. A seeded εKDV reset may
// instead carry the previous query's cut over (Reset(q, frontier) below),
// so its result depends on the stream's previous query, by a fixed rule.
//
// Numerical hardening: every bound update is validated; if the bound math
// ever produces a NaN/Inf total or a genuinely inverted interval (beyond
// floating-point drift), the stream freezes at its last certified finite
// envelope and reports poisoned() instead of propagating the bad values.
// A stream whose very first bounds are already invalid falls back to the
// universal envelope [0, n·w·K(0)], which holds for every kernel.
#ifndef QUADKDV_CORE_REFINEMENT_STREAM_H_
#define QUADKDV_CORE_REFINEMENT_STREAM_H_

#include <cstdint>
#include <vector>

#include "bounds/node_bounds.h"
#include "core/tile_frontier.h"
#include "geom/point.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"

namespace kdv {

class RefinementStream {
 public:
  // Non-owning: tree/bounds must outlive the stream. bounds == nullptr means
  // the EXACT method: the stream starts already exhausted with
  // lower == upper == F_P(q).
  //
  // The unprimed form is the reusable-scratch entry point: the stream is
  // exhausted until Reset(q) primes it for a query.
  RefinementStream(const KdTree* tree, const KernelParams& params,
                   const NodeBounds* bounds);
  RefinementStream(const KdTree* tree, const KernelParams& params,
                   const NodeBounds* bounds, const Point& q);

  // Movable but not copyable: each stream self-accounts its queue storage
  // against MemBudget::Global() (source kRefinementScratch), and the charge
  // must follow exactly one owner. Charged on capacity growth, released on
  // destruction; clear()-style resets keep both capacity and charge.
  RefinementStream(RefinementStream&& other) noexcept;
  RefinementStream& operator=(RefinementStream&& other) noexcept;
  RefinementStream(const RefinementStream&) = delete;
  RefinementStream& operator=(const RefinementStream&) = delete;
  ~RefinementStream();

  // Re-primes the stream for query q, discarding all prior state but keeping
  // the queue's heap storage. Equivalent to constructing a fresh stream.
  void Reset(const Point& q);

  // Seeded variant: primes the stream from a tile frontier instead of the
  // tree root, in O(1) — the running totals start at the frontier baseline
  // plus the precomputed sum of the region intervals, and frontier nodes
  // are injected into the heap lazily (descending region gap) as their
  // slack comes to block termination. The shared part of the traversal
  // (everything the tile pass accepted or pruned) is never re-derived. A
  // frontier with quadrants (τKDV) seeds from the quadrant containing q
  // (TileFrontier::SeedFor); a decided quadrant's totals already settle τ,
  // so its pixels finish with zero steps. The frontier must be valid, built
  // for a tile containing q, and must outlive the stream's use of it (until
  // the next Reset); requires bounds != nullptr.
  //
  // Cut reuse along a chunk row. When the stream's previous query was
  // seeded from the same frontier (equal nonzero TileFrontier::id), was not
  // poisoned, and sat left of q in the same row (equal coordinates but the
  // first, a smaller first), q starts from that query's final cut instead:
  // its heap nodes and the leaves it scanned are re-evaluated at q (one
  // Evaluate each) and heapified in one O(C) pass, and the frontier nodes
  // it never injected keep their region intervals and are injected lazily
  // as above. The cut covers every point not in the baseline exactly once,
  // so its interval is certified for q like any other. Any other seeded
  // reset — a row's first pixel, a new chunk or frame, a τ frontier (id 0)
  // — primes from the frontier as described above.
  void Reset(const Point& q, const TileFrontier& frontier);

  // Performs one refinement step (pop the loosest node, replace it by its
  // children's bounds or its exact leaf sum). Returns false if the stream
  // was already exhausted (or poisoned).
  bool Step();

  // Certified bounds: lower() <= F_P(q) <= upper(), weakly monotone in the
  // number of steps (best-so-far envelope; see evaluator.cc for why the raw
  // running totals alone are not monotone). Always finite, even after a
  // numeric fault.
  double lower() const { return best_lb_; }
  double upper() const { return best_ub_; }

  // Interval width; 0 once exhausted (up to FP drift, which is clamped).
  double gap() const { return best_ub_ - best_lb_; }

  bool exhausted() const { return heap_.empty() && seed_next_ >= seed_count_; }
  // True once a bound update produced NaN/Inf or an inverted interval; the
  // envelope is frozen at the last certified values and Step() refuses to
  // refine further.
  bool poisoned() const { return poisoned_; }
  uint64_t iterations() const { return iterations_; }
  uint64_t points_scanned() const { return points_scanned_; }
  // Per-node bound evaluations performed (root/seed priming + expansions):
  // the traversal-work metric the pruning-efficiency counters report.
  uint64_t node_evals() const { return node_evals_; }

 private:
  struct QueueEntry {
    double gap = 0.0;
    int32_t node = -1;
    double lower = 0.0;
    double upper = 0.0;
  };
  // The heap's strict order: larger gap first, then smaller node id. A node
  // is in the heap at most once, so no two entries are equivalent and the
  // pop sequence (hence every output bit) is fixed by the entries alone,
  // whatever the heap layout.
  static bool PopsBefore(const QueueEntry& a, const QueueEntry& b) {
    return a.gap > b.gap || (a.gap == b.gap && a.node < b.node);
  }

  void Push(const QueueEntry& entry);
  // Removes the top entry.
  void PopTop();
  // Overwrites the top entry with `entry` and restores the heap: one
  // sift-down in place of a pop and a push.
  void ReplaceTop(const QueueEntry& entry) { SiftDown(0, entry); }
  // Puts `entry` at slot `hole` and sifts it down; the subtrees below
  // `hole` must be heaps. By value: `entry` may be a copy of a slot the
  // sift overwrites.
  void SiftDown(size_t hole, QueueEntry entry);
  // Charges any heap- or leaf-list-capacity growth since the last sync to
  // the global memory budget. Capacity never shrinks while the stream
  // lives, so the delta is one-directional until the destructor releases it
  // all.
  void SyncCharge();
  // The cut-reuse half of Reset(q, frontier): re-primes from the previous
  // query's final cut (see there). seed_nodes_/seed_count_ already point at
  // `seed`.
  void ReseedFromCut(const TileFrontier& seed);

  double LeafSum(const KdTree::Node& node) const;
  // Freezes the stream after a numeric fault, discarding pending work.
  void Poison();
  // Certified-for-free fallback [0, n·w·K(0)] used when even the root
  // bounds are invalid.
  void SetUniversalEnvelope();

  const KdTree* tree_;
  KernelParams params_;
  const NodeBounds* bounds_;
  Point q_;

  // Binary heap in PopsBefore order (heap_.front() pops first); a plain
  // vector so Reset can clear it without freeing its buffer.
  std::vector<QueueEntry> heap_;
  // Lazily injected tile frontier (seeded resets only). The nodes are
  // consumed front-to-back (descending region gap); every node already
  // contributes its region interval to lb_/ub_ from Reset, and injection
  // swaps that interval for this pixel's own bounds with a single Evaluate.
  // Never owned; a root Reset(q) clears it. Empty for root-seeded streams,
  // so their behaviour (and output) is untouched.
  const TileFrontier::Node* seed_nodes_ = nullptr;
  size_t seed_count_ = 0;
  size_t seed_next_ = 0;
  // Cut reuse (see Reset(q, frontier)): the id of the frontier the current
  // query was seeded from, 0 when its cut may not seed the next query (root
  // resets, τ frontiers); and, while it is nonzero, the leaves the query
  // has scanned, which are part of its cut but no longer in the heap.
  uint64_t cut_frontier_ = 0;
  std::vector<int32_t> scanned_leaves_;
  double lb_ = 0.0;       // raw running totals
  double ub_ = 0.0;
  double best_lb_ = 0.0;  // monotone envelope
  double best_ub_ = 0.0;
  bool poisoned_ = false;
  uint64_t iterations_ = 0;
  uint64_t points_scanned_ = 0;
  uint64_t node_evals_ = 0;
  // Bytes of heap_ and scanned_leaves_ capacity currently charged to the
  // global MemBudget.
  uint64_t charged_bytes_ = 0;
};

}  // namespace kdv

#endif  // QUADKDV_CORE_REFINEMENT_STREAM_H_
