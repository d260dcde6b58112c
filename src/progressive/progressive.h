// Progressive visualization framework (paper §6).
//
// Instead of evaluating pixels in row-major order, pixels are evaluated in a
// quad-tree order: the center pixel of the frame first (its density value
// stands in for the whole frame), then the centers of the four quadrants,
// and so on — each evaluated pixel's value fills its surrounding region
// until refined. The user (or a Deadline / CancelToken) can stop at any time
// t and keep a coarse-to-fine approximation of the full color map.
//
// Robustness contract: the returned frame is always fully painted and
// finite, whatever stopped the run — an expired budget, a cancellation, a
// numeric fault (clamped and counted), or an injected failpoint error
// (reported in `status`).
#ifndef QUADKDV_PROGRESSIVE_PROGRESSIVE_H_
#define QUADKDV_PROGRESSIVE_PROGRESSIVE_H_

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/timer.h"
#include "viz/frame.h"
#include "viz/pixel_grid.h"

namespace kdv {

// One step of the progressive schedule: evaluate the density at pixel
// (cx, cy) and paint it over the region [x0, x1) x [y0, y1).
struct RegionOp {
  int x0 = 0, y0 = 0;  // region top-left (inclusive)
  int x1 = 0, y1 = 0;  // region bottom-right (exclusive)
  int cx = 0, cy = 0;  // representative pixel
};

// Builds the quad-tree evaluation schedule for a width x height frame
// (breadth-first: coarse levels before fine levels, as in paper Fig. 13).
// Every pixel appears as the representative of at least one op, so running
// the full schedule evaluates the complete frame.
std::vector<RegionOp> QuadTreeSchedule(int width, int height);

// Result of a progressive render.
struct ProgressiveResult {
  DensityFrame frame;             // fully painted, finite values
  uint64_t pixels_evaluated = 0;  // distinct pixels given exact/ε values
  bool completed = false;         // full schedule ran before a stop
  bool deadline_expired = false;  // stopped by the deadline
  bool cancelled = false;         // stopped by the CancelToken
  uint64_t numeric_faults = 0;    // pixel values clamped by hardening
  Status status;                  // non-OK iff an internal fault aborted
  BatchStats stats;
};

// Runs the schedule under `control` (deadline + cancellation), evaluating
// εKDV per representative pixel with the evaluator's method.
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const QueryControl& control,
                                    const std::vector<RegionOp>& schedule);

// Budget-seconds convenience forms (<= 0 means run to completion).
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds,
                                    const std::vector<RegionOp>& schedule);

// Convenience overload using the quad-tree schedule.
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds);

}  // namespace kdv

#endif  // QUADKDV_PROGRESSIVE_PROGRESSIVE_H_
