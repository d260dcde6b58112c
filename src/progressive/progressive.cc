#include "progressive/progressive.h"

#include <cmath>
#include <deque>

#include "util/check.h"
#include "util/failpoint.h"

namespace kdv {

std::vector<RegionOp> QuadTreeSchedule(int width, int height) {
  KDV_CHECK(width > 0 && height > 0);
  std::vector<RegionOp> schedule;
  schedule.reserve(static_cast<size_t>(width) * height * 4 / 3 + 4);

  struct Region {
    int x0, y0, x1, y1;
  };
  std::deque<Region> frontier;  // BFS: coarse levels first
  frontier.push_back({0, 0, width, height});

  while (!frontier.empty()) {
    Region r = frontier.front();
    frontier.pop_front();
    const int w = r.x1 - r.x0;
    const int h = r.y1 - r.y0;
    if (w <= 0 || h <= 0) continue;

    RegionOp op;
    op.x0 = r.x0;
    op.y0 = r.y0;
    op.x1 = r.x1;
    op.y1 = r.y1;
    op.cx = r.x0 + w / 2;
    op.cy = r.y0 + h / 2;
    schedule.push_back(op);

    if (w == 1 && h == 1) continue;
    const int mx = r.x0 + w / 2;
    const int my = r.y0 + h / 2;
    // Split into up to four children. Degenerate strips (w==1 or h==1)
    // split along the long axis only.
    if (w > 1 && h > 1) {
      frontier.push_back({r.x0, r.y0, mx, my});
      frontier.push_back({mx, r.y0, r.x1, my});
      frontier.push_back({r.x0, my, mx, r.y1});
      frontier.push_back({mx, my, r.x1, r.y1});
    } else if (w > 1) {
      frontier.push_back({r.x0, r.y0, mx, r.y1});
      frontier.push_back({mx, r.y0, r.x1, r.y1});
    } else {
      frontier.push_back({r.x0, r.y0, r.x1, my});
      frontier.push_back({r.x0, my, r.x1, r.y1});
    }
  }
  return schedule;
}

namespace {

// Records why the schedule stopped early and keeps the stats in sync.
void MarkStopped(ProgressiveResult* result, StopReason reason) {
  result->completed = false;
  if (reason == StopReason::kDeadline) {
    result->deadline_expired = true;
    result->stats.deadline_expired = true;
  }
  if (reason == StopReason::kCancel) {
    result->cancelled = true;
    result->stats.cancelled = true;
  }
}

}  // namespace

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const QueryControl& control,
                                    const std::vector<RegionOp>& schedule) {
  ProgressiveResult result;
  result.frame = DensityFrame(grid.width(), grid.height());
  std::vector<uint8_t> evaluated(grid.num_pixels(), 0);
  std::vector<double> pixel_value(grid.num_pixels(), 0.0);

  Timer timer;
  result.completed = true;

  result.status = KDV_FAILPOINT_STATUS("progressive.render");
  if (!result.status.ok()) {
    // Injected entry fault: the (all-zero, finite) frame is still well
    // formed for the degradation ladder.
    result.completed = false;
    result.stats.completed = false;
    result.stats.status = result.status;
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

  for (const RegionOp& op : schedule) {
    StopReason stop = control.CheckStop();
    if (stop != StopReason::kNone) {
      MarkStopped(&result, stop);
      break;
    }
    Status op_status = KDV_FAILPOINT_STATUS("progressive.op");
    if (!op_status.ok()) {
      result.status = op_status;
      result.stats.status = op_status;
      result.completed = false;
      break;
    }
    const size_t center_idx = grid.PixelIndex(op.cx, op.cy);
    double value;
    bool interrupted = false;
    if (evaluated[center_idx]) {
      // A coarser level already evaluated this pixel; reuse its value.
      value = pixel_value[center_idx];
    } else {
      EvalResult r =
          evaluator.EvaluateEps(grid.PixelCenter(op.cx, op.cy), eps, control);
      value = r.estimate;
      if (r.numeric_fault) ++result.numeric_faults;
      if (!std::isfinite(value)) {
        // Hardening backstop: a frame value must never be NaN/Inf.
        value = 0.0;
        ++result.numeric_faults;
      }
      interrupted = r.interrupted;
      evaluated[center_idx] = 1;
      pixel_value[center_idx] = value;
      ++result.pixels_evaluated;
      ++result.stats.queries;
      result.stats.iterations += r.iterations;
      result.stats.points_scanned += r.points_scanned;
    }
    // Paint the region; pixels already holding evaluated values keep them
    // (they are at least as accurate as this coarser representative).
    for (int y = op.y0; y < op.y1; ++y) {
      for (int x = op.x0; x < op.x1; ++x) {
        size_t idx = grid.PixelIndex(x, y);
        if (!evaluated[idx]) result.frame.values[idx] = value;
      }
    }
    result.frame.values[center_idx] = pixel_value[center_idx];
    if (interrupted) {
      // The stop fired mid-query; its wider-interval estimate was still
      // painted (better than leaving the coarser representative).
      MarkStopped(&result, control.CheckStop());
      break;
    }
  }

  result.stats.numeric_faults = result.numeric_faults;
  result.stats.seconds = timer.ElapsedSeconds();
  result.stats.completed = result.completed;
  return result;
}

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds,
                                    const std::vector<RegionOp>& schedule) {
  Deadline deadline(budget_seconds);
  QueryControl control;
  control.deadline = &deadline;
  return RenderProgressive(evaluator, grid, eps, control, schedule);
}

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds) {
  return RenderProgressive(evaluator, grid, eps, budget_seconds,
                           QuadTreeSchedule(grid.width(), grid.height()));
}

}  // namespace kdv
