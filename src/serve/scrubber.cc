#include "serve/scrubber.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "index/serialization.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace kdv {

namespace {

// Registry mirror of the scrubber's work and verdicts. Ticks run on a
// background cadence, so these are never hot.
struct ScrubObs {
  obs::Counter* ticks;
  obs::Counter* crc_slices;
  obs::Counter* mismatches;
  ScrubObs() {
    auto& r = obs::MetricsRegistry::Global();
    ticks = r.GetCounter("kdv_scrub_ticks_total");
    crc_slices = r.GetCounter("kdv_scrub_crc_slices_total");
    mismatches = r.GetCounter("kdv_scrub_mismatches_total");
  }
  static ScrubObs& Get() {
    static ScrubObs& o = *new ScrubObs();
    return o;
  }
};

// xorshift64*: deterministic, seedable, and independent of the libstdc++
// distributions (which are not bit-stable across versions).
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

}  // namespace

IntegrityScrubber::IntegrityScrubber(Options options, EvaluatorFn evaluator,
                                     CorruptionFn on_corruption)
    : options_(std::move(options)),
      evaluator_(std::move(evaluator)),
      on_corruption_(std::move(on_corruption)),
      clock_(options_.clock != nullptr ? options_.clock : CurrentClock()),
      rng_state_(options_.seed != 0 ? options_.seed : 0x5C12BBE2u) {}

IntegrityScrubber::~IntegrityScrubber() { Stop(); }

Status IntegrityScrubber::CrcSliceTick(std::string* corrupt_reason) {
  if (options_.index_path.empty()) return OkStatus();

  std::FILE* f = std::fopen(options_.index_path.c_str(), "rb");
  if (f == nullptr) {
    // The published index vanished out from under us — that is rot of the
    // most decisive kind.
    *corrupt_reason = "index file " + options_.index_path + " is unreadable";
    return OkStatus();
  }
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  const uint64_t size = end < 0 ? 0 : static_cast<uint64_t>(end);

  if (have_baseline_ && size != baseline_size_ && sweep_offset_ == 0) {
    // Size changed between passes: either a checkpoint replaced the file
    // (benign) or it was truncated. The full loader decides.
    std::fclose(f);
    StatusOr<std::unique_ptr<KdTree>> reload = LoadKdTree(options_.index_path);
    if (!reload.ok()) {
      *corrupt_reason = "index file " + options_.index_path +
                        " changed size and fails verification: " +
                        reload.status().message();
      return OkStatus();
    }
    have_baseline_ = false;  // restart the sweep against the new file
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rebaselines;
    }
    return OkStatus();
  }

  if (sweep_offset_ >= size) {
    // Pass complete (or empty file). Compare/establish the baseline.
    std::fclose(f);
    bool mismatch = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.crc_passes;
    }
    if (!have_baseline_) {
      have_baseline_ = true;
      baseline_crc_ = sweep_crc_;
      baseline_size_ = size;
    } else if (sweep_crc_ != baseline_crc_) {
      mismatch = true;
    }
    sweep_offset_ = 0;
    sweep_crc_ = 0;
    if (mismatch) {
      // The bytes changed. An atomic checkpoint replacement produces a
      // different-but-valid file; rot produces one the checksummed loader
      // rejects.
      StatusOr<std::unique_ptr<KdTree>> reload =
          LoadKdTree(options_.index_path);
      if (!reload.ok()) {
        *corrupt_reason = "index file " + options_.index_path +
                          " CRC drifted and fails verification: " +
                          reload.status().message();
        return OkStatus();
      }
      have_baseline_ = false;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rebaselines;
    }
    return OkStatus();
  }

  if (std::fseek(f, static_cast<long>(sweep_offset_), SEEK_SET) != 0) {
    std::fclose(f);
    *corrupt_reason =
        "index file " + options_.index_path + " seek failed mid-sweep";
    return OkStatus();
  }
  std::vector<char> buf(std::min<uint64_t>(options_.slice_bytes > 0
                                               ? options_.slice_bytes
                                               : 64 * 1024,
                                           size - sweep_offset_));
  const size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (got == 0) {
    *corrupt_reason =
        "index file " + options_.index_path + " read failed mid-sweep";
    return OkStatus();
  }
  sweep_crc_ = Crc32Update(sweep_crc_, buf.data(), got);
  sweep_offset_ += got;
  ScrubObs::Get().crc_slices->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.crc_slices;
  return OkStatus();
}

Status IntegrityScrubber::PixelOracleTick(std::string* corrupt_reason) {
  if (options_.pixel_samples_per_tick <= 0) return OkStatus();
  const KdeEvaluator* evaluator = evaluator_ != nullptr ? evaluator_() : nullptr;
  if (evaluator == nullptr) return OkStatus();
  const KdTree& tree = evaluator->tree();
  if (tree.num_points() == 0 || evaluator->bounds() == nullptr) {
    return OkStatus();
  }

  for (int i = 0; i < options_.pixel_samples_per_tick; ++i) {
    const size_t idx = NextRand(&rng_state_) % tree.num_points();
    const Point q = tree.point(idx);
    EvalResult certified = evaluator->EvaluateEps(q, options_.pixel_eps);
    const double exact = evaluator->EvaluateExact(q);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.pixel_checks;
    }
    if (certified.numeric_fault) continue;  // hardening already flagged it
    // The certified interval must bracket the exact oracle, up to FP drift
    // between the two summation orders.
    const double slack =
        options_.pixel_tolerance * (1.0 + std::abs(exact));
    if (exact < certified.lower - slack || exact > certified.upper + slack) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "certified interval [%.17g, %.17g] excludes exact %.17g "
                    "at sample %zu",
                    certified.lower, certified.upper, exact, idx);
      *corrupt_reason = detail;
      return OkStatus();
    }
  }
  return OkStatus();
}

Status IntegrityScrubber::HandleCorruption(const std::string& reason) {
  ScrubObs::Get().mismatches->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.mismatches;
    stats_.last_verdict = reason;
  }
  Status healed = OkStatus();
  if (on_corruption_ != nullptr) {
    healed = on_corruption_(reason);
    if (healed.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.recoveries;
    }
  }
  // The sweep state refers to an epoch/file that just got replaced (or is
  // known bad): start over either way.
  have_baseline_ = false;
  sweep_offset_ = 0;
  sweep_crc_ = 0;
  if (!healed.ok()) {
    return DataLossError("scrubber found corruption (" + reason +
                         ") and recovery failed: " +
                         std::string(healed.message()));
  }
  return DataLossError("scrubber found corruption (" + reason +
                       "); recovered");
}

Status IntegrityScrubber::RunTick() {
  if (!options_.enabled) return OkStatus();
  ScrubObs::Get().ticks->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.ticks;
  }
  if (options_.defer != nullptr && options_.defer()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deferred;
    return OkStatus();
  }

  Status injected = KDV_FAILPOINT_STATUS("scrub.corrupt");
  if (!injected.ok()) {
    return HandleCorruption("injected mismatch (failpoint scrub.corrupt)");
  }

  std::string reason;
  KDV_RETURN_IF_ERROR(CrcSliceTick(&reason));
  if (!reason.empty()) return HandleCorruption(reason);
  KDV_RETURN_IF_ERROR(PixelOracleTick(&reason));
  if (!reason.empty()) return HandleCorruption(reason);
  return OkStatus();
}

void IntegrityScrubber::Start() {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || stopping_) return;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void IntegrityScrubber::Loop() {
  const double period = std::max(options_.interval_seconds, 1e-4);
  for (;;) {
    // The stop waker cuts the wait short, so Stop() latency is one
    // in-progress tick at most, never a scrub interval.
    clock_->WaitFor(period, &stop_waker_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    // Verdicts are recorded in stats_ / the corruption callback; the tick's
    // status is the test-visible channel and intentionally unused here.
    (void)RunTick();
  }
}

void IntegrityScrubber::Stop() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (running_) {
      joinee = std::move(thread_);
      running_ = false;
    }
  }
  stop_waker_.Set();
  if (joinee.joinable()) joinee.join();
}

IntegrityScrubber::Stats IntegrityScrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kdv
