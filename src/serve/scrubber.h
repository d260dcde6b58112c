// Online integrity scrubber: continuous self-verification of a live epoch.
//
// PR 5's RecoveryManager verifies every checksum at startup — and then
// trusts the loaded state forever. A long-running server accumulates risk
// the startup check cannot cover: on-disk rot under the published index
// file, and in-memory corruption (bad RAM, a stray write) in the tree or
// bound structures the evaluator serves from. The scrubber closes that gap
// with two continuous, low-priority checks:
//
//   * CRC sweep: re-reads the published index file in small slices (one
//     slice per tick, between requests), accumulating an incremental CRC32
//     across a full pass and comparing it to the baseline established by
//     the first pass. On mismatch the file is re-validated with the full
//     checksummed loader (LoadKdTree); a load failure confirms rot, while
//     a clean load (the file was atomically replaced by a checkpoint)
//     re-baselines instead of alarming.
//
//   * Pixel oracle check: samples random indexed points and evaluates each
//     through the certified bound path (EvaluateEps) and the exact scan
//     (EvaluateExact). The quadratic bounds make this
//     cross-check nearly free: the exact value must lie inside the
//     certified [lower, upper] interval (within floating-point tolerance).
//     A violation means the tree, its node statistics, or the bound
//     profiles are corrupt in memory.
//
// Either failure invokes the host's corruption callback, which is expected
// to quarantine the epoch and run RecoveryManager::Recover + SwapEvaluator
// (see kdvtool serve-sim); in-flight requests finish on their snapshotted
// epoch, so self-healing drops nothing.
//
// The "scrub.corrupt" failpoint forces a simulated mismatch, so chaos tests
// can exercise the full quarantine → recover → hot-swap loop without
// real bit-flips.
#ifndef QUADKDV_SERVE_SCRUBBER_H_
#define QUADKDV_SERVE_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "core/evaluator.h"
#include "util/clock.h"
#include "util/status.h"

namespace kdv {

class IntegrityScrubber {
 public:
  struct Options {
    bool enabled = true;
    // Background cadence; one tick = one CRC slice + pixel_samples_per_tick
    // oracle checks.
    double interval_seconds = 0.05;
    // Bytes of index file re-read per tick. Small by design: the scrubber
    // must never compete with renders for I/O or cache.
    size_t slice_bytes = 64 * 1024;
    // Random certified-vs-exact cross-checks per tick; 0 disables them.
    int pixel_samples_per_tick = 2;
    // ε used for the certified side of the oracle check.
    double pixel_eps = 0.05;
    // Relative tolerance for exact-inside-[lb,ub]: FP drift between the
    // two evaluation orders is not corruption.
    double pixel_tolerance = 1e-9;
    uint64_t seed = 0x5C12BBE2u;
    // Published index file for the CRC sweep; empty disables it.
    std::string index_path;
    // Low-priority gate: when set and returning true, the tick is skipped
    // (e.g. "the service has requests in flight"). May be null.
    std::function<bool()> defer;
    // Time source for the background loop's cadence; null uses
    // CurrentClock() (resolved once, at construction).
    Clock* clock = nullptr;
  };

  struct Stats {
    uint64_t ticks = 0;
    uint64_t deferred = 0;
    uint64_t crc_slices = 0;      // slices read
    uint64_t crc_passes = 0;      // full-file passes completed
    uint64_t pixel_checks = 0;    // oracle comparisons performed
    uint64_t mismatches = 0;      // confirmed corruption events
    uint64_t rebaselines = 0;     // benign file replacements observed
    uint64_t recoveries = 0;      // corruption callbacks that returned OK
    std::string last_verdict;     // "" until something noteworthy happens
  };

  // Returns the evaluator of the currently published epoch (null while
  // starting/recovering). Called on the scrubber thread; must be safe to
  // call concurrently with swaps (the service's epoch snapshot provides
  // this).
  using EvaluatorFn = std::function<const KdeEvaluator*()>;
  // Invoked on confirmed corruption with a human-readable reason. The host
  // quarantines + recovers + hot-swaps, returning OK if the service healed.
  using CorruptionFn = std::function<Status(const std::string& reason)>;

  IntegrityScrubber(Options options, EvaluatorFn evaluator,
                    CorruptionFn on_corruption);
  ~IntegrityScrubber();  // Stop()

  IntegrityScrubber(const IntegrityScrubber&) = delete;
  IntegrityScrubber& operator=(const IntegrityScrubber&) = delete;

  // One synchronous scrub tick — the unit the background thread repeats.
  // Returns OK when nothing was found (including deferred/disabled ticks);
  // a non-OK status describes confirmed corruption (after the callback ran).
  Status RunTick();

  void Start();  // idempotent; no-op when disabled
  void Stop();

  Stats stats() const;

 private:
  void Loop();
  // Advances the CRC sweep one slice. Sets *corrupt_reason on confirmed rot.
  Status CrcSliceTick(std::string* corrupt_reason);
  // Runs the configured number of oracle samples.
  Status PixelOracleTick(std::string* corrupt_reason);
  Status HandleCorruption(const std::string& reason);

  const Options options_;
  const EvaluatorFn evaluator_;
  const CorruptionFn on_corruption_;
  Clock* const clock_;

  mutable std::mutex mu_;
  // Set by Stop(): ends the loop's inter-tick wait immediately.
  Waker stop_waker_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;

  // CRC sweep state (scrubber-thread only; stats under mu_).
  uint64_t sweep_offset_ = 0;
  uint32_t sweep_crc_ = 0;
  bool have_baseline_ = false;
  uint32_t baseline_crc_ = 0;
  uint64_t baseline_size_ = 0;

  uint64_t rng_state_;
  Stats stats_;
};

}  // namespace kdv

#endif  // QUADKDV_SERVE_SCRUBBER_H_
