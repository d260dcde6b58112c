// Whole-stack deterministic simulation: virtual time, seeded chaos,
// bit-identical replay.
//
// RunSimulation() stands up the entire serve stack — RenderService with its
// breaker/governor/watchdog, the IntegrityScrubber, and the persistence
// stack (journal + checkpoints + RecoveryManager) over a real state
// directory — and drives it through a seed-derived schedule of virtual
// operations: render submissions, virtual-time ticks, journal appends,
// checkpoints, evaluator hot-swaps, simulated crash-and-recover cycles,
// and failpoint activations (sim/fault_schedule.h).
//
// Determinism comes from three substitutions, all behind seams the
// production code already has:
//
//   * SimClock replaces wall time (installed process-wide, so Timer,
//     Deadline, breaker cooldowns, backoff sleeps, and failpoint delays
//     all read virtual time).
//   * SimExecutor replaces the service's ThreadPool: every worker task is
//     cooperatively scheduled, one at a time, in a PRNG-chosen order.
//   * The watchdog and scrubber run no threads (start_monitor = false /
//     never Start()); the driver invokes their sweep/tick entry points at
//     deterministic points of virtual time.
//
// The service renders tile-shared on odd seeds and per-pixel on even ones,
// so a sweep puts the oracles on both frame paths; the run's first event
// records which.
//
// Everything the run does lands in a canonical event log (no pointers, no
// wall time, no paths), hashed with CRC32. Two runs of the same seed and
// config must produce the same hash — that is the replay contract
// `kdvtool sim --replay` enforces, and what makes "failing seed 12345"
// a complete bug report.
//
// Invariants checked while driving (any violation fails the run):
//   * ε-oracle: a certified frame's sampled pixels lie within the claimed
//     relative ε of EvaluateExact on the epoch the frame was rendered by.
//   * Frames are finite and correctly sized, whatever faults were active.
//   * Breaker and governor transition logs contain only legal edges, at
//     non-decreasing virtual times.
//   * No lost or double-completed requests: every admitted future resolves
//     exactly once, across hot-swaps, faults, and crash/recover cycles.
//   * Crash atomicity: after every crash-and-recover, the recovered point
//     set equals the acknowledged writes exactly — or the acknowledged
//     writes plus the one indeterminate batch whose append failed after
//     the record was durably written (whole-batch resurrection is legal;
//     partial batches and lost acks never are). Recovery declaring data
//     loss under crash-only faults is itself a violation.
//   * Admission rejections carry only the contractually allowed codes.
//
// The planted-bug mode (SimOptions::plant_bug) deliberately drops one
// completion from the bookkeeping when a hot-swap races in-flight renders;
// the determinism test uses it as a canary that the invariant machinery
// and the shrinking reducer actually catch and minimize bugs.
#ifndef QUADKDV_SIM_SIM_ENV_H_
#define QUADKDV_SIM_SIM_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_schedule.h"

namespace kdv {

struct SimOptions {
  uint64_t seed = 1;
  int num_ops = 300;    // virtual operations to drive
  int num_workers = 2;  // simulated worker slots
  size_t max_queue = 8;
  int dataset_n = 96;  // bootstrap dataset cardinality (kept small: the
                       // oracle re-evaluates pixels exactly per completion)
  // Root for per-run state directories; "" uses the system temp dir. Each
  // run works in <root>/kdvsim-<seed> and wipes it first.
  std::string state_root;
  // Override the seed-derived fault schedule (the shrinker's entry point;
  // also `kdvtool sim --schedule`). Borrowed; may be null.
  const FaultSchedule* schedule_override = nullptr;
  // Arm failpoints per the schedule. In a build without -DKDV_FAILPOINTS=ON
  // arming succeeds but sites never fire; the run is then pure
  // concurrency/crash chaos, and still deterministic.
  bool faults_enabled = true;
  bool plant_bug = false;  // canary: deliberately corrupt the bookkeeping
};

struct SimReport {
  uint64_t seed = 0;
  bool failed = false;
  std::string failure;  // first invariant violation, "" when !failed
  FaultSchedule schedule;

  // The scalar knobs the run used, echoed so ReproLine() names every flag
  // that differs from the defaults (a repro line must be complete).
  int num_ops = 0;
  int num_workers = 0;
  size_t max_queue = 0;
  int dataset_n = 0;
  bool plant_bug = false;

  // Canonical event log and its CRC32 — the replay-identity fingerprint.
  std::vector<std::string> events;
  uint32_t event_hash = 0;

  // Prometheus-text snapshot of the process-wide metrics registry at run
  // end, and its CRC32. The registry is Reset() at run start and every
  // duration flows through the virtual clock, so same-seed runs must
  // produce byte-identical snapshots — a second replay fingerprint, kept
  // out of event_hash so the event-log contract is unchanged.
  std::string metrics_text;
  uint32_t metrics_crc = 0;

  // Counters for the one-line summary.
  uint64_t ops = 0;
  uint64_t submits = 0;
  uint64_t admitted = 0;
  uint64_t completions = 0;
  uint64_t certified = 0;
  uint64_t degraded = 0;
  // Certified attempts served from the frame cache, and those that looked
  // it up and rendered (ServiceStats at the end of the run).
  uint64_t frame_cache_hits = 0;
  uint64_t frame_cache_misses = 0;
  uint64_t journal_appends = 0;
  uint64_t checkpoints = 0;
  uint64_t swaps = 0;
  uint64_t crashes = 0;
  uint64_t faults_armed = 0;
  double virtual_seconds = 0.0;

  std::string Summary() const;
  // One shell-ready line that reproduces this run exactly.
  std::string ReproLine() const;
};

// Runs one simulation to completion (all ops, drain, final checks).
// Deterministic: equal options produce equal reports, event logs included.
SimReport RunSimulation(const SimOptions& options);

// Runs the failing seed's schedule through ShrinkSchedule, re-simulating
// each candidate, and returns the report of the minimal still-failing
// schedule (with its ReproLine naming the explicit schedule). `failing`
// must be a failed report produced from `options`.
SimReport MinimizeFailure(const SimOptions& options,
                          const SimReport& failing);

}  // namespace kdv

#endif  // QUADKDV_SIM_SIM_ENV_H_
