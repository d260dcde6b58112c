#include "sim/sim_env.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "geom/rect.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/recovery_manager.h"
#include "serve/render_service.h"
#include "serve/scrubber.h"
#include "sim/sim_clock.h"
#include "sim/sim_executor.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "viz/pixel_grid.h"
#include "viz/viewport_stream.h"
#include "workbench/workbench.h"

namespace kdv {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t x = (*state += 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from 53 random bits.
double UnitDouble(uint64_t* state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

bool PointLess(const Point& a, const Point& b) {
  if (a.dim() != b.dim()) return a.dim() < b.dim();
  for (int i = 0; i < a.dim(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool PointSetsEqual(PointSet a, PointSet b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), PointLess);
  std::sort(b.begin(), b.end(), PointLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dim() != b[i].dim()) return false;
    for (int d = 0; d < a[i].dim(); ++d) {
      if (a[i][d] != b[i][d]) return false;
    }
  }
  return true;
}

const char* TierName(QualityTier tier) { return QualityTierName(tier); }

// One published evaluator generation, kept alive for the whole run: an
// in-flight render may finish on an old epoch long after a newer one was
// published (or the state it came from was crashed away), so epochs are
// decoupled from the crashable persistence state on purpose.
struct EpochCtx {
  explicit EpochCtx(PointSet points)
      : bench(std::move(points), KernelType::kGaussian),
        eval(bench.MakeEvaluator(Method::kQuad)) {}
  Workbench bench;
  KdeEvaluator eval;
};

struct PendingRequest {
  uint64_t id = 0;
  // The request's viewport; heap-held so that it stays put while the
  // service renders it, however pending_ grows.
  std::unique_ptr<PixelGrid> grid;
  std::future<ServeOutcome> future;
  double eps = 0.05;
  double budget = -1.0;
  bool checked = false;
};

class SimEnv {
 public:
  explicit SimEnv(const SimOptions& options)
      : options_(options),
        rng_(options.seed ^ 0x51E57A7E5EEDull),
        clock_(0.0),
        executor_(&clock_, MakeExecutorOptions(options)),
        viewports_(6, 6, UnitSquare(), options.seed) {}

  SimReport Run();

 private:
  static SimExecutor::Options MakeExecutorOptions(const SimOptions& o) {
    SimExecutor::Options eo;
    eo.num_workers = o.num_workers;
    eo.max_queue = o.max_queue;
    eo.seed = o.seed ^ 0xE8EC0704Bull;
    return eo;
  }

  static Rect UnitSquare() {
    Rect r(2);
    r.set_lo(0, 0.0);
    r.set_hi(0, 1.0);
    r.set_lo(1, 0.0);
    r.set_hi(1, 1.0);
    return r;
  }

  uint64_t Rand() { return SplitMix(&rng_); }

  void Log(const std::string& line) {
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "t=%.6f op=%llu ",
                  clock_.NowSeconds(),
                  static_cast<unsigned long long>(report_.ops));
    report_.events.push_back(prefix + line);
  }

  void Fail(const std::string& why) {
    if (report_.failed) return;
    report_.failed = true;
    report_.failure = why;
    Log("FAIL " + why);
  }

  Status SetUp();
  void TearDown();
  void PublishEpoch(const char* cause);
  Status CrashRecover(const char* cause);

  void OpSubmit();
  void OpTick();
  void OpPump(bool final_drain);
  void OpJournalAppend();
  void OpCheckpoint();
  void OpSwap();
  void ArmDueFaults(int op_index);
  void CheckOutcome(PendingRequest* req, const ServeOutcome& outcome);
  void CheckTransitionLogs();

  const SimOptions options_;
  SimReport report_;
  uint64_t rng_;

  SimClock clock_;
  SimExecutor executor_;
  // Request i renders viewport viewports_.Request(i): recurring viewports
  // exercise the frame cache, fresh ones the render path. Seeded by the
  // run's seed but not drawn from rng_, so it moves no other op or fault.
  ViewportStream viewports_;

  std::string state_dir_;
  RecoveryOptions recovery_options_;
  RecoveredState state_;
  PointSet acked_;  // every write the journal acknowledged (plus bootstrap)
  // The last failed append's batch. An unacknowledged append is
  // indeterminate, not guaranteed-absent: a fault after the record hit the
  // file (a failed fsync, say) persists the data, and replay legitimately
  // resurrects it. Cleared once recovery adjudicates.
  PointSet indeterminate_;

  std::vector<std::unique_ptr<EpochCtx>> epochs_;  // index i <-> epoch id i+1
  std::unique_ptr<RenderService> service_;
  std::unique_ptr<IntegrityScrubber> scrubber_;

  FaultSchedule schedule_;
  size_t next_fault_ = 0;

  std::vector<PendingRequest> pending_;
  std::set<uint64_t> completed_ids_;
  uint64_t next_request_id_ = 1;
  bool bug_planted_ = false;
};

Status SimEnv::SetUp() {
  failpoint::Reset();

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path root = options_.state_root.empty()
                      ? fs::temp_directory_path(ec)
                      : fs::path(options_.state_root);
  state_dir_ =
      (root / ("kdvsim-" + std::to_string(options_.seed))).string();
  fs::remove_all(state_dir_, ec);
  fs::create_directories(state_dir_, ec);
  if (ec) {
    return InternalError("cannot create sim state dir " + state_dir_ + ": " +
                         ec.message());
  }

  // Deterministic bootstrap dataset in the unit square.
  MixtureSpec spec;
  spec.name = "sim";
  spec.n = static_cast<size_t>(std::max(8, options_.dataset_n));
  spec.dim = 2;
  spec.num_clusters = 4;
  spec.seed = options_.seed ^ 0xDA7A5E7ull;
  PointSet base = GenerateMixture(spec);
  NormalizeToUnitCube(&base);

  recovery_options_.state_dir = state_dir_;
  recovery_options_.leaf_size = 16;
  StatusOr<RecoveredState> boot =
      RecoveryManager::Bootstrap(recovery_options_, std::move(base));
  if (!boot.ok()) return boot.status();
  state_ = std::move(*boot);
  acked_ = state_.live_points;

  RenderService::Options so;
  so.num_threads = options_.num_workers;
  so.max_queue = options_.max_queue;
  so.max_attempts = 3;
  so.backoff.initial_ms = 1.0;
  so.backoff.max_ms = 16.0;
  so.backoff_seed = options_.seed ^ 0xBAC0FFull;
  so.breaker.failure_threshold = 3;
  so.breaker.cooldown_seconds = 0.2;
  so.clock = &clock_;
  so.executor = &executor_;
  // Odd seeds serve tile-shared, as production does; even seeds keep the
  // per-pixel path. Read off the seed, not drawn from rng_, so every seed's
  // op and fault sequence is the same either way.
  so.tile_shared = (options_.seed & 1) != 0;
  so.governor.enabled = true;
  so.governor.memory_budget_bytes = 0;  // real RSS is not deterministic
  so.watchdog.enabled = true;
  so.watchdog.start_monitor = false;  // the driver sweeps at tick points
  so.watchdog.no_progress_seconds = 0.5;
  so.watchdog.no_budget_kill_seconds = 5.0;
  service_ = std::make_unique<RenderService>(so);
  Log(std::string("config tile_shared=") + (so.tile_shared ? "1" : "0"));

  PublishEpoch("bootstrap");

  IntegrityScrubber::Options sc;
  sc.enabled = true;
  sc.index_path = "";  // CRC sweep reads real files; keep the sim in-memory
  sc.pixel_samples_per_tick = 2;
  sc.pixel_eps = 0.05;
  sc.seed = options_.seed ^ 0x5C2BBEull;
  sc.clock = &clock_;
  scrubber_ = std::make_unique<IntegrityScrubber>(
      sc, [this]() { return service_->CurrentEvaluator(); },
      [this](const std::string& reason) {
        Log("scrub.corruption reason=" + reason);
        return CrashRecover("scrub");
      });
  // Never Start(): RunTick() is driven from tick ops, like the watchdog.

  schedule_ = options_.schedule_override != nullptr
                  ? *options_.schedule_override
                  : DeriveFaultSchedule(options_.seed, options_.num_ops);
  report_.schedule = schedule_;
  return OkStatus();
}

void SimEnv::TearDown() {
  scrubber_.reset();
  if (service_ != nullptr) service_->Stop();
  service_.reset();
  state_ = RecoveredState();
  failpoint::Reset();
  std::error_code ec;
  std::filesystem::remove_all(state_dir_, ec);
}

void SimEnv::PublishEpoch(const char* cause) {
  epochs_.push_back(std::make_unique<EpochCtx>(state_.live_points));
  service_->SwapEvaluator(&epochs_.back()->eval);
  ++report_.swaps;
  char line[96];
  std::snprintf(line, sizeof(line), "swap epoch=%zu points=%zu cause=%s",
                epochs_.size(), state_.live_points.size(), cause);
  Log(line);
}

// Simulated crash of the persistence layer: drop every in-memory handle
// (open journal fd included — an unsynced tail is exactly what a real crash
// leaves), then run full recovery against the directory and hot-swap the
// recovered dataset in. The service keeps serving throughout; in-flight
// renders finish on their snapshotted epochs.
Status SimEnv::CrashRecover(const char* cause) {
  ++report_.crashes;
  service_->SetHealth(ServiceHealth::kRecovering);
  state_.journal.reset();
  state_.tree.reset();

  RecoveryReport recovery;
  StatusOr<RecoveredState> rec =
      RecoveryManager::Recover(recovery_options_, &recovery);
  if (!rec.ok()) {
    // A fault injected *during* recovery is legitimate chaos, and "crash
    // during recovery is just another recovery": clear the transient and
    // retry once. A second failure is a real recovery bug.
    Log(std::string("recover retry after: ") + rec.status().message());
    failpoint::Reset();
    rec = RecoveryManager::Recover(recovery_options_, &recovery);
  }
  if (!rec.ok()) {
    Fail(std::string("recovery failed after crash (") + cause +
         "): " + rec.status().message());
    return rec.status();
  }
  state_ = std::move(*rec);

  char line[160];
  std::snprintf(line, sizeof(line),
                "recover cause=%s source=%s gen=%llu replayed=%llu torn=%d "
                "quarantined=%zu",
                cause, RecoverySourceName(recovery.source),
                static_cast<unsigned long long>(recovery.generation),
                static_cast<unsigned long long>(
                    recovery.journal_stats.records_applied),
                recovery.journal_stats.tail_truncated ? 1 : 0,
                recovery.quarantined.size());
  Log(line);

  // Crash atomicity: what recovery serves must be exactly the acknowledged
  // writes. Data loss is only legal when recovery itself declared it (and
  // nothing in the crash fault model should make it).
  if (recovery.possible_data_loss) {
    Fail("recovery declared possible data loss under crash-only faults");
  } else if (!PointSetsEqual(state_.live_points, acked_)) {
    // Not the acked set exactly — the one legal alternative is the acked
    // set plus the single indeterminate batch (an append that failed after
    // its record was durably written). Journal records are atomic under
    // replay, so the batch must appear whole or not at all; anything else
    // is a real crash-atomicity violation.
    bool resurrected_whole = false;
    if (!indeterminate_.empty()) {
      PointSet with_batch = acked_;
      for (const Point& p : indeterminate_) with_batch.push_back(p);
      resurrected_whole = PointSetsEqual(state_.live_points, with_batch);
    }
    if (!resurrected_whole) {
      char why[128];
      std::snprintf(why, sizeof(why),
                    "recovered point set (%zu) != acknowledged set (%zu, "
                    "%zu indeterminate)",
                    state_.live_points.size(), acked_.size(),
                    indeterminate_.size());
      Fail(why);
    }
  }
  acked_ = state_.live_points;
  indeterminate_.clear();

  PublishEpoch(cause);
  return OkStatus();
}

void SimEnv::ArmDueFaults(int op_index) {
  while (next_fault_ < schedule_.events.size() &&
         schedule_.events[next_fault_].at_op <= op_index) {
    const FaultEvent& e = schedule_.events[next_fault_++];
    if (options_.faults_enabled) {
      Status armed = failpoint::Arm(e.site, e.action, e.delay_ms, e.max_hits);
      if (!armed.ok()) {
        Fail("failpoint arm failed: " + armed.message());
        return;
      }
      ++report_.faults_armed;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "fault site=%s hits=%d delay=%d",
                  e.site.c_str(), e.max_hits, e.delay_ms);
    Log(line);
  }
}

void SimEnv::OpSubmit() {
  ++report_.submits;
  ServeRequestOptions req;
  req.eps = 0.05;
  switch (Rand() % 4) {
    case 0:
      req.budget_seconds = -1.0;
      break;
    case 1:
      req.budget_seconds = 0.05;
      break;
    case 2:
      req.budget_seconds = 0.2;
      break;
    default:
      req.budget_seconds = 0.5;
      break;
  }
  req.degrade = (Rand() % 5) != 0;

  const uint64_t id = next_request_id_++;
  const uint64_t view = viewports_.ViewportId(id);
  auto grid = std::make_unique<PixelGrid>(viewports_.Viewport(view));
  StatusOr<std::future<ServeOutcome>> sub = service_->Submit(*grid, req);
  char line[128];
  if (!sub.ok()) {
    std::snprintf(line, sizeof(line), "submit id=%llu -> shed code=%d",
                  static_cast<unsigned long long>(id),
                  static_cast<int>(sub.status().code()));
    Log(line);
    // Admission may only shed (queue/in-flight/governor full). kUnavailable
    // would mean the service lost its published evaluator mid-run.
    if (sub.status().code() != StatusCode::kResourceExhausted) {
      Fail("submit rejected with illegal code " +
           std::to_string(static_cast<int>(sub.status().code())));
    }
    return;
  }
  ++report_.admitted;
  std::snprintf(line, sizeof(line),
                "submit id=%llu view=%llu budget=%.3f degrade=%d",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(view), req.budget_seconds,
                req.degrade ? 1 : 0);
  Log(line);
  PendingRequest pending;
  pending.id = id;
  pending.grid = std::move(grid);
  pending.future = std::move(*sub);
  pending.eps = req.eps;
  pending.budget = req.budget_seconds;
  pending_.push_back(std::move(pending));
}

void SimEnv::OpTick() {
  const double dt = 0.005 + static_cast<double>(Rand() % 100) * 0.001;
  executor_.AdvanceUntil(clock_.NowSeconds() + dt);
  const int kills = service_->WatchdogSweepOnce();
  Status scrub = scrubber_->RunTick();
  char line[96];
  std::snprintf(line, sizeof(line), "tick dt=%.3f kills=%d scrub=%d", dt,
                kills, static_cast<int>(scrub.code()));
  Log(line);
}

void SimEnv::OpPump(bool final_drain) {
  if (!final_drain) executor_.RunReady();
  for (PendingRequest& req : pending_) {
    if (req.checked) continue;
    if (req.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      if (final_drain) {
        Fail("lost request: future " + std::to_string(req.id) +
             " unresolved after drain");
        req.checked = true;
      }
      continue;
    }
    ServeOutcome outcome = req.future.get();
    req.checked = true;
    CheckOutcome(&req, outcome);
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const PendingRequest& r) {
                                  return r.checked;
                                }),
                 pending_.end());
}

void SimEnv::CheckOutcome(PendingRequest* req, const ServeOutcome& outcome) {
  ++report_.completions;
  char line[160];
  std::snprintf(line, sizeof(line),
                "complete id=%llu code=%d tier=%s epoch=%llu attempts=%d "
                "cached=%d",
                static_cast<unsigned long long>(req->id),
                static_cast<int>(outcome.status.code()),
                TierName(outcome.render.tier),
                static_cast<unsigned long long>(outcome.epoch),
                outcome.attempts, outcome.render.from_cache() ? 1 : 0);
  Log(line);

  if (!completed_ids_.insert(req->id).second) {
    Fail("request " + std::to_string(req->id) + " completed twice");
    return;
  }

  switch (outcome.status.code()) {
    case StatusCode::kOk:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
      break;
    default:
      Fail("outcome carries illegal status code " +
           std::to_string(static_cast<int>(outcome.status.code())));
      return;
  }

  const PixelGrid& grid = *req->grid;
  const DensityFrame& frame = outcome.render.frame;
  if (frame.width != grid.width() || frame.height != grid.height()) {
    Fail("frame has wrong dimensions");
    return;
  }
  for (double v : frame.values) {
    if (!std::isfinite(v)) {
      Fail("frame contains a non-finite value");
      return;
    }
  }

  if (outcome.render.tier != QualityTier::kCertified) {
    ++report_.degraded;
  }
  if (outcome.status.ok() && outcome.render.certified_eps >= 0 &&
      outcome.render.numeric_faults == 0) {
    if (outcome.render.tier == QualityTier::kCertified) ++report_.certified;
    if (outcome.epoch == 0 || outcome.epoch > epochs_.size()) {
      Fail("certified outcome names unknown epoch " +
           std::to_string(outcome.epoch));
      return;
    }
    // ε-oracle: sampled pixels of every frame that claims an ε — certified,
    // or the coarse stand-in at its relaxed ε_c — must match the exact
    // density of the epoch they rendered on, within the claimed relative ε
    // (paper guarantee |R - F| <= ε·F), plus float-order slack. A frame
    // copied from the frame cache is held to the same check, so a frame of
    // another epoch or viewport fails it.
    const KdeEvaluator& eval = epochs_[outcome.epoch - 1]->eval;
    const double eps = outcome.render.certified_eps;
    for (int s = 0; s < 3; ++s) {
      const int px = static_cast<int>(Rand() % grid.width());
      const int py = static_cast<int>(Rand() % grid.height());
      const double value = frame.values[grid.PixelIndex(px, py)];
      const double exact = eval.EvaluateExact(grid.PixelCenter(px, py));
      const double slack = eps * exact + 1e-9 * exact + 1e-12;
      if (std::abs(value - exact) > slack) {
        std::snprintf(line, sizeof(line),
                      "eps oracle violated: pixel (%d,%d) value=%.17g "
                      "exact=%.17g eps=%.3f epoch=%llu",
                      px, py, value, exact, eps,
                      static_cast<unsigned long long>(outcome.epoch));
        Fail(line);
        return;
      }
    }
  }
}

void SimEnv::OpJournalAppend() {
  // Insert-only batches keep the acked mirror trivially exact: the live set
  // is bootstrap ∪ acknowledged inserts, whatever order replay applies.
  PointSet batch;
  const int n = 1 + static_cast<int>(Rand() % 4);
  for (int i = 0; i < n; ++i) {
    Point p(2);
    p[0] = UnitDouble(&rng_);
    p[1] = UnitDouble(&rng_);
    batch.push_back(p);
  }
  Status appended = state_.journal->Append(JournalOp::kInsert, batch);
  char line[96];
  std::snprintf(line, sizeof(line), "append n=%d code=%d", n,
                static_cast<int>(appended.code()));
  Log(line);
  if (appended.ok()) {
    ++report_.journal_appends;
    for (const Point& p : batch) {
      acked_.push_back(p);
      state_.live_points.push_back(p);
    }
    return;
  }
  // A failed durable write is fatal to the writer: the tail may be torn,
  // and appending past a torn record would turn repairable crash damage
  // into mid-segment corruption. Crash and recover instead. The batch was
  // never acknowledged but its durability is indeterminate — recovery may
  // find it whole (fault hit after the write) or not at all.
  indeterminate_ = std::move(batch);
  (void)CrashRecover("append-fault");
}

void SimEnv::OpCheckpoint() {
  Status st = RecoveryManager::RunCheckpoint(&state_);
  char line[96];
  std::snprintf(line, sizeof(line), "checkpoint code=%d gen=%llu",
                static_cast<int>(st.code()),
                static_cast<unsigned long long>(state_.generation));
  Log(line);
  if (st.ok()) {
    ++report_.checkpoints;
    return;
  }
  // A failed checkpoint may have rotated the journal or left temps behind;
  // the in-memory handles are no longer trustworthy. Same policy as a
  // failed append: crash, and let recovery adjudicate what committed.
  (void)CrashRecover("checkpoint-fault");
}

void SimEnv::OpSwap() {
  if (options_.plant_bug && !bug_planted_) {
    // Deliberate bookkeeping bug (the determinism test's canary): claim an
    // in-flight request already completed, so its real completion counts
    // twice. Mimics the classic lost/double-completion race a hot-swap
    // could introduce.
    if (pending_.empty()) OpSubmit();
    if (!pending_.empty()) {
      completed_ids_.insert(pending_.front().id);
      bug_planted_ = true;
    }
  }
  PublishEpoch("swap");
}

SimReport SimEnv::Run() {
  // Install the virtual clock as the process default for the whole run.
  // The serve stack gets its clock plumbed explicitly (Options::clock), but
  // code below that seam — recovery timing, any default-constructed Timer
  // in the obs instrumentation — falls back to CurrentClock(), and a real
  // clock there leaks wall time into duration histograms, breaking the
  // byte-identical-metrics replay contract.
  ScopedClockOverride virtual_time(&clock_);
  // Zero the process-wide metrics so the end-of-run snapshot is a pure
  // function of this run (and of the seed): byte-identical across replays.
  obs::MetricsRegistry::Global().Reset();
  report_.seed = options_.seed;
  report_.num_ops = options_.num_ops;
  report_.num_workers = options_.num_workers;
  report_.max_queue = options_.max_queue;
  report_.dataset_n = options_.dataset_n;
  report_.plant_bug = options_.plant_bug;
  Status up = SetUp();
  if (!up.ok()) {
    Fail("setup: " + up.message());
  } else {
    for (int op = 0; op < options_.num_ops && !report_.failed; ++op) {
      report_.ops = static_cast<uint64_t>(op);
      ArmDueFaults(op);
      if (report_.failed) break;
      const uint64_t roll = Rand() % 100;
      if (roll < 40) {
        OpSubmit();
      } else if (roll < 60) {
        OpTick();
      } else if (roll < 75) {
        OpPump(false);
      } else if (roll < 85) {
        OpJournalAppend();
      } else if (roll < 90) {
        OpCheckpoint();
      } else if (roll < 95) {
        OpSwap();
      } else {
        (void)CrashRecover("chaos");
      }
    }
    report_.ops = static_cast<uint64_t>(options_.num_ops);

    // Drain: stop rejects new work and runs every admitted task to
    // completion on virtual time; afterwards every future must be ready.
    service_->Stop();
    OpPump(true);
    CheckTransitionLogs();

    const ServiceStats stats = service_->stats();
    report_.frame_cache_hits = stats.frame_cache_hits;
    report_.frame_cache_misses = stats.frame_cache_misses;
    if (!report_.failed && stats.completed != stats.admitted) {
      Fail("service stats leak: admitted " + std::to_string(stats.admitted) +
           " != completed " + std::to_string(stats.completed));
    }
    if (!report_.failed &&
        completed_ids_.size() != static_cast<size_t>(report_.admitted)) {
      Fail("completion bookkeeping mismatch: " +
           std::to_string(completed_ids_.size()) + " completions for " +
           std::to_string(report_.admitted) + " admissions");
    }
    Log("done");
  }

  report_.virtual_seconds = clock_.NowSeconds();
  uint32_t hash = 0;
  for (const std::string& line : report_.events) {
    hash = Crc32Update(hash, line.data(), line.size());
    hash = Crc32Update(hash, "\n", 1);
  }
  report_.event_hash = hash;

  report_.metrics_text =
      obs::ExportPrometheus(obs::MetricsRegistry::Global().Snapshot());
  report_.metrics_crc = Crc32Update(0, report_.metrics_text.data(),
                                    report_.metrics_text.size());

  TearDown();
  return report_;
}

void SimEnv::CheckTransitionLogs() {
  using BS = CircuitBreaker::State;
  double last = -1.0;
  for (const CircuitBreaker::Transition& t :
       service_->breaker_transitions()) {
    const bool legal = (t.from == BS::kClosed && t.to == BS::kOpen) ||
                       (t.from == BS::kOpen && t.to == BS::kHalfOpen) ||
                       (t.from == BS::kHalfOpen && t.to == BS::kOpen) ||
                       (t.from == BS::kHalfOpen && t.to == BS::kClosed);
    if (!legal) {
      Fail(std::string("illegal breaker transition ") +
           CircuitBreaker::StateName(t.from) + " -> " +
           CircuitBreaker::StateName(t.to));
      return;
    }
    if (t.at_seconds < last) {
      Fail("breaker transition log is not time-ordered");
      return;
    }
    last = t.at_seconds;
  }
  last = -1.0;
  for (const OverloadGovernor::Transition& t :
       service_->governor_transitions()) {
    if (t.from == t.to) {
      Fail("governor recorded a self-transition");
      return;
    }
    if (t.at_seconds < last) {
      Fail("governor transition log is not time-ordered");
      return;
    }
    last = t.at_seconds;
  }
}

}  // namespace

std::string SimReport::Summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "seed=%llu %s hash=%08x ops=%llu submits=%llu/%llu done=%llu "
      "certified=%llu cache=%llu/%llu appends=%llu ckpts=%llu swaps=%llu "
      "crashes=%llu faults=%llu vt=%.3fs",
      static_cast<unsigned long long>(seed), failed ? "FAIL" : "ok",
      event_hash, static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(submits),
      static_cast<unsigned long long>(completions),
      static_cast<unsigned long long>(certified),
      static_cast<unsigned long long>(frame_cache_hits),
      static_cast<unsigned long long>(frame_cache_hits + frame_cache_misses),
      static_cast<unsigned long long>(journal_appends),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(swaps),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(faults_armed), virtual_seconds);
  return buf;
}

std::string SimReport::ReproLine() const {
  const SimOptions defaults;
  std::string line = "kdvtool sim --seed " + std::to_string(seed);
  if (num_ops != defaults.num_ops) {
    line += " --ops " + std::to_string(num_ops);
  }
  if (num_workers != defaults.num_workers) {
    line += " --workers " + std::to_string(num_workers);
  }
  if (max_queue != defaults.max_queue) {
    line += " --queue " + std::to_string(max_queue);
  }
  if (dataset_n != defaults.dataset_n) {
    line += " --n " + std::to_string(dataset_n);
  }
  if (plant_bug) line += " --plant-bug";
  const std::string spec = schedule.Spec();
  if (!spec.empty()) line += " --schedule \"" + spec + "\"";
  return line;
}

SimReport RunSimulation(const SimOptions& options) {
  SimEnv env(options);
  return env.Run();
}

SimReport MinimizeFailure(const SimOptions& options,
                          const SimReport& failing) {
  if (!failing.failed) return failing;
  const FaultSchedule minimal = ShrinkSchedule(
      failing.schedule, [&options](const FaultSchedule& candidate) {
        SimOptions attempt = options;
        attempt.schedule_override = &candidate;
        return RunSimulation(attempt).failed;
      });
  SimOptions final_options = options;
  final_options.schedule_override = &minimal;
  return RunSimulation(final_options);
}

}  // namespace kdv
