// Brownout governor: smooth quality degradation under overload.
//
// The admission controller in RenderService is binary — a request is either
// served at full quality or shed with kResourceExhausted. Real overload is
// rarely binary: before the queue overflows there is a band where the
// service could keep serving everyone by spending less per request, the way
// coreset-based KDE systems trade accuracy for load. The governor implements
// that band as a *brownout*: as pressure rises it lowers the starting tier
// of the ResilientRenderer ladder (certified → progressive → coarse) and
// relaxes the ε target (which the service applies to the progressive
// level's attempt), and only past a hard ceiling does it shed.
//
// Pressure model. Three normalized signals, combined by max() — the most
// saturated resource governs:
//
//   * queue wait:  EWMA of observed queue_seconds / queue_wait_saturation
//   * in-flight:   admitted-but-unfinished requests / max_in_flight
//   * memory:      MemBudget used_bytes / memory_budget_bytes (if budgeted)
//
// Levels and hysteresis. Pressure maps to a level (kNormal, kProgressive,
// kCoarse) with asymmetric transitions: escalation is immediate (overload
// hurts now), de-escalation requires pressure to stay below the entry
// threshold minus `exit_margin` for `recover_hold_seconds`, and steps down
// one level at a time. This makes the level sequence monotone in pressure
// spikes and free of flapping at a threshold boundary — the property the
// overload-chaos CI job asserts on the serve-sim transition log.
//
// Thread safety: all methods may be called concurrently.
#ifndef QUADKDV_SERVE_OVERLOAD_GOVERNOR_H_
#define QUADKDV_SERVE_OVERLOAD_GOVERNOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "serve/resilient_renderer.h"
#include "util/mem_budget.h"
#include "util/timer.h"

namespace kdv {

class OverloadGovernor {
 public:
  // Degradation level, best to worst. Maps onto ResilientRenderOptions
  // max_tier; kShed exists only in Decision (it is not a resting level).
  enum class Level : int {
    kNormal = 0,       // full certified ladder
    kProgressive = 1,  // certified fan-out off, no ε certificate
    kCoarse = 2,       // straight to the stand-in: εKDV at 3× the request ε
  };

  struct Options {
    // Off by default: brownout is opt-in (serve-sim --governor, tests), so
    // pre-governor service behavior is unchanged unless asked for.
    bool enabled = false;

    // Queue wait (seconds) considered fully saturated (pressure 1.0).
    double queue_wait_saturation_seconds = 0.5;
    // EWMA smoothing factor for queue-wait samples in (0, 1]; higher reacts
    // faster.
    double ewma_alpha = 0.3;
    // Half-life (seconds) for aging the queue-wait EWMA between Assess
    // calls. New samples only arrive when admitted requests dequeue, so
    // during a full shed the signal would otherwise freeze at its peak and
    // the governor would shed forever — a stale congestion reading must age
    // out so the service re-probes after a burst. 0 disables decay.
    double queue_wait_decay_halflife_seconds = 1.0;

    // Total in-flight capacity the in-flight signal is normalized by; the
    // service sets this to its max_in_flight.
    size_t in_flight_capacity = 0;
    // Ceiling on the in-flight signal's pressure contribution. A full
    // service has ratio exactly 1.0 >= shed_ceiling, but admission control
    // already rejects at max_in_flight — letting this signal shed too would
    // just retire the last admission slot early. Capped below the ceiling,
    // a full service browns out to coarse; shedding is left to admission
    // control and to the signals it cannot see (queue wait, memory).
    double in_flight_pressure_cap = 0.95;

    // Transient-memory ceiling for the memory signal; 0 disables it.
    uint64_t memory_budget_bytes = 0;

    // Pressure thresholds. Escalation at >= enter_*; shedding at >= shed.
    double enter_progressive = 0.55;
    double enter_coarse = 0.80;
    double shed_ceiling = 0.97;
    // De-escalation requires pressure < enter_threshold - exit_margin ...
    double exit_margin = 0.15;
    // ... sustained for this long (seconds) before each one-level step down.
    double recover_hold_seconds = 0.5;

    // ε relaxation: the effective eps is request eps times a multiplier that
    // ramps linearly from 1 at enter_progressive to this value at the shed
    // ceiling. 1.0 disables relaxation.
    double eps_max_multiplier = 4.0;

    // Monotonic time source; null uses CurrentClock() (resolved once, at
    // construction). The render service passes its own clock through here.
    const Clock* clock = nullptr;
  };

  // One admission/execution decision.
  struct Decision {
    Level level = Level::kNormal;
    double eps_multiplier = 1.0;
    bool shed = false;      // past the hard ceiling: reject, don't serve
    double pressure = 0.0;  // combined signal the decision was based on
  };

  // One recorded level change, for observability (serve-sim JSON).
  struct Transition {
    double at_seconds = 0.0;  // governor clock
    Level from = Level::kNormal;
    Level to = Level::kNormal;
    double pressure = 0.0;
  };

  struct Stats {
    uint64_t assessments = 0;
    uint64_t activations = 0;  // decisions below the certified level
    uint64_t sheds = 0;        // decisions past the hard ceiling
    Level level = Level::kNormal;
    Level max_level = Level::kNormal;  // worst level ever reached
    double pressure = 0.0;             // last combined pressure
    double queue_wait_ewma = 0.0;
  };

  explicit OverloadGovernor(Options options);

  // Signal feeds. RecordQueueWait folds one observed admission→execution
  // wait into the EWMA; RecordInFlight publishes the current in-flight
  // count.
  void RecordQueueWait(double seconds);
  void RecordInFlight(size_t in_flight);

  // Combines the current signals, applies the hysteresis state machine, and
  // returns the decision callers should act on. Called per request (both at
  // admission, for shedding, and at execution, for tier/eps), and
  // idempotent between signal changes.
  Decision Assess();

  Stats stats() const;
  // Level-change log, oldest first, capped at an internal bound (the cap
  // drops the oldest entries; under test loads it is never reached).
  std::vector<Transition> transitions() const;

  static const char* LevelName(Level level);

 private:
  double Now() const;
  double CombinedPressureLocked() const;
  // Entry threshold for `level` (the pressure at/above which it escalates).
  double EnterThreshold(Level level) const;

  const Options options_;
  const Clock* const clock_;

  mutable std::mutex mu_;
  double queue_wait_ewma_ = 0.0;
  bool have_queue_sample_ = false;
  // Clock time the EWMA was last sampled or decayed; drives the staleness
  // decay in Assess.
  double queue_wait_touched_ = 0.0;
  size_t in_flight_ = 0;
  Level level_ = Level::kNormal;
  Level max_level_ = Level::kNormal;
  double last_pressure_ = 0.0;
  // Start of the current below-exit-threshold stretch; < 0 when pressure is
  // not currently low enough to recover.
  double calm_since_ = -1.0;
  uint64_t assessments_ = 0;
  uint64_t activations_ = 0;
  uint64_t sheds_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_OVERLOAD_GOVERNOR_H_
