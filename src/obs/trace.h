// Per-request trace spans: where one render's wall time actually went.
//
// A TraceSpan is a fixed-size record of stage timings for a single request
// as it moves through the serve stack:
//
//   queue_wait  — Submit() admission to worker pickup
//   admission   — worker-side preflight (governor assessment, epoch
//                 snapshot, queue-expiry checks) before the attempt loop
//   tier_attempt— total time inside certified-path attempts (all retries)
//   tile_pass   — shared-traversal region passes (core/tile_refiner),
//                 summed across tiles (CPU seconds, not wall)
//   refinement  — certified-path time not spent in tile passes
//   coarse      — GridKde fallback renders
//   scrub       — final non-finite scrub of the outgoing frame
//   backoff     — retry backoff sleeps
//
// The epoch id, the delivered degradation tier and whether the frame came
// from the epoch's frame cache ride along, so one span answers "why was
// this request slow and what did it actually get".
//
// All durations are measured by the caller through util/clock.h (Timer on
// CurrentClock), never by this header — that keeps spans deterministic
// under the simulator's virtual clock. Spans are plain values: the service
// fills one per request and hands it to MetricsRegistry::RecordTrace, which
// keeps a bounded recent-trace ring for the exporters.
#ifndef QUADKDV_OBS_TRACE_H_
#define QUADKDV_OBS_TRACE_H_

#include <cstdint>

#include "util/timer.h"

namespace kdv {
namespace obs {

enum class TraceStage {
  kQueueWait = 0,
  kAdmission,
  kTierAttempt,
  kTilePass,
  kRefinement,
  kCoarse,
  kScrub,
  kBackoff,
};
constexpr int kNumTraceStages = 8;

// Stable snake_case stage name ("queue_wait", ...), used verbatim as the
// JSON key and the Prometheus label value.
const char* TraceStageName(TraceStage stage);

struct TraceSpan {
  uint64_t request_id = 0;

  // Evaluator epoch the render executed against. has_epoch distinguishes
  // "ran on epoch N" from "never reached execution" — epoch ids start at 1,
  // but the distinction must not hang on that convention.
  uint64_t epoch = 0;
  bool has_epoch = false;

  // Delivered tier name (QualityTierName: "certified", "coarse", ...);
  // points at static storage. "" until the outcome is known.
  const char* tier = "";

  int attempts = 0;
  // The frame shipped as a copy from the epoch renderer's frame cache
  // (serve/frame_cache.h): no refinement ran for it.
  bool frame_cache_hit = false;
  bool ok = false;
  double total_seconds = 0.0;
  double stage_seconds[kNumTraceStages] = {};

  void AddStage(TraceStage stage, double seconds) {
    if (seconds > 0.0) stage_seconds[static_cast<int>(stage)] += seconds;
  }
  double stage(TraceStage s) const {
    return stage_seconds[static_cast<int>(s)];
  }
};

// RAII stage timer: adds the scope's elapsed time (CurrentClock, so virtual
// under sim) to one stage of `span`. Null span: inert.
class StageTimer {
 public:
  StageTimer(TraceSpan* span, TraceStage stage) : span_(span), stage_(stage) {}
  ~StageTimer() {
    if (span_ != nullptr) span_->AddStage(stage_, timer_.ElapsedSeconds());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  TraceSpan* span_;
  TraceStage stage_;
  Timer timer_;
};

}  // namespace obs
}  // namespace kdv

#endif  // QUADKDV_OBS_TRACE_H_
