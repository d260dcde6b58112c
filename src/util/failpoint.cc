#include "util/failpoint.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "util/clock.h"

namespace kdv {
namespace failpoint {

namespace {

struct Spec {
  Action action = Action::kOff;
  int delay_ms = 0;
  int hits_remaining = -1;  // < 0: unlimited
  uint64_t hits = 0;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Spec> specs;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

// Fast-path gate: number of currently armed sites. A relaxed load keeps the
// per-hit cost negligible when nothing is armed.
std::atomic<int> g_armed_count{0};

bool KnownSite(const std::string& site) {
  for (const std::string& s : AllSites()) {
    if (s == site) return true;
  }
  return false;
}

// Returns the action to apply for this hit (consuming one max_hits slot),
// or kOff. `delay_ms` receives the configured delay.
Action ConsumeHit(const char* site, int* delay_ms) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) return Action::kOff;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.specs.find(site);
  if (it == reg.specs.end() || it->second.action == Action::kOff) {
    return Action::kOff;
  }
  Spec& spec = it->second;
  ++spec.hits;
  *delay_ms = spec.delay_ms;
  Action action = spec.action;
  if (spec.hits_remaining > 0 && --spec.hits_remaining == 0) {
    spec.action = Action::kOff;
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  return action;
}

// Injected delays go through the clock seam: under the simulator they spend
// virtual time (and are cooperative yield points), so a delay(MS) failpoint
// interacts with watchdogs and deadlines deterministically.
void SleepMs(int ms) {
  if (ms > 0) CurrentClock()->WaitFor(ms / 1000.0);
}

}  // namespace

const std::vector<std::string>& AllSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "refine.step",         // RefinementStream::Step child-bound math
      "eval.eps",            // KdeEvaluator::RefineEps result interval
      "eval.tau",            // KdeEvaluator::EvaluateTau result interval
      "runner.eps",          // εKDV frame render, per pixel / chunk
      "runner.tau",          // τKDV frame render, per pixel / chunk
      "runner.exact",        // exact frame render, per pixel
      "progressive.render",  // RenderProgressive entry
      "progressive.op",      // RenderProgressive per-region-op
      "viz.render",          // whole-frame render entry (eps/tau/exact)
      "serve.render",        // ResilientRenderer::Render entry
      "serve.coarse",        // ResilientRenderer coarse stand-in stage
      "io.write",            // atomic/journal writes: short write, then fail
      "io.fsync",            // data written, fsync reports failure
      "io.rename",           // temp complete+synced, rename never happens
      "journal.tail",        // journal append leaves a torn half-record
      "refine.stall",        // wedge a refinement query (ignores deadline)
      "scrub.corrupt",       // integrity scrubber sees a forced mismatch
  };
  return *sites;
}

bool enabled() {
#ifdef KDV_FAILPOINTS_ENABLED
  return true;
#else
  return false;
#endif
}

Status Arm(const std::string& site, Action action, int delay_ms,
           int max_hits) {
  if (!KnownSite(site)) {
    return InvalidArgumentError("unknown failpoint site '" + site + "'");
  }
  if (max_hits == 0) {
    return InvalidArgumentError("failpoint max_hits must be nonzero");
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  Spec& spec = reg.specs[site];
  if (spec.action == Action::kOff && action != Action::kOff) {
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  } else if (spec.action != Action::kOff && action == Action::kOff) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  spec.action = action;
  spec.delay_ms = delay_ms;
  spec.hits_remaining = max_hits;
  spec.hits = 0;
  return OkStatus();
}

void Disarm(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.specs.find(site);
  if (it == reg.specs.end()) return;
  if (it->second.action != Action::kOff) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  reg.specs.erase(it);
}

void Reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [site, spec] : reg.specs) {
    if (spec.action != Action::kOff) {
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  reg.specs.clear();
}

uint64_t hits(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.specs.find(site);
  return it == reg.specs.end() ? 0 : it->second.hits;
}

Status ConfigureFromSpec(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("failpoint spec entry '" + entry +
                                  "' is not site=action");
    }
    std::string site = entry.substr(0, eq);
    std::string action_str = entry.substr(eq + 1);

    Action action;
    int delay_ms = 10;
    if (action_str == "error") {
      action = Action::kError;
    } else if (action_str == "nan") {
      action = Action::kNaN;
    } else if (action_str == "off") {
      action = Action::kOff;
    } else if (action_str.rfind("delay(", 0) == 0 &&
               action_str.back() == ')') {
      action = Action::kDelay;
      std::string ms = action_str.substr(6, action_str.size() - 7);
      char* parse_end = nullptr;
      long value = std::strtol(ms.c_str(), &parse_end, 10);
      if (ms.empty() || *parse_end != '\0' || value < 0 || value > 60000) {
        return InvalidArgumentError("bad failpoint delay '" + action_str +
                                    "' (want delay(MS), MS in [0, 60000])");
      }
      delay_ms = static_cast<int>(value);
    } else {
      return InvalidArgumentError("unknown failpoint action '" + action_str +
                                  "' (want error|nan|delay(MS)|off)");
    }
    KDV_RETURN_IF_ERROR(Arm(site, action, delay_ms));
  }
  return OkStatus();
}

void ConfigureFromEnv() {
  const char* env = std::getenv("KDV_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  Status status = ConfigureFromSpec(env);
  if (!status.ok()) {
    std::fprintf(stderr, "KDV_FAILPOINTS ignored entry: %s\n",
                 status.ToString().c_str());
  }
}

void MaybeDelay(const char* site) {
  int delay_ms = 0;
  if (ConsumeHit(site, &delay_ms) == Action::kDelay) SleepMs(delay_ms);
}

Status ConsumeStatus(const char* site) {
  int delay_ms = 0;
  switch (ConsumeHit(site, &delay_ms)) {
    case Action::kError:
      return InternalError(std::string("injected fault at failpoint '") +
                           site + "'");
    case Action::kDelay:
      SleepMs(delay_ms);
      return OkStatus();
    default:
      return OkStatus();
  }
}

void StallWhileArmed(const char* site, const QueryControl* control) {
  int delay_ms = 0;
  if (ConsumeHit(site, &delay_ms) != Action::kDelay) return;
  const auto wake = [control]() {
    if (control == nullptr) return false;
    if (control->cancel != nullptr && control->cancel->cancelled()) {
      return true;
    }
    return control->force_cancel != nullptr &&
           control->force_cancel->cancelled();
  };
  // The deadline is intentionally never consulted here: the site models a
  // query wedged where the deadline poll is unreachable, which is exactly
  // the gap the watchdog's force-cancel exists to cover.
  for (int slept = 0; slept < delay_ms; ++slept) {
    if (wake()) return;
    SleepMs(1);
  }
}

bool CorruptInterval(const char* site, double* lower, double* upper) {
  int delay_ms = 0;
  switch (ConsumeHit(site, &delay_ms)) {
    case Action::kNaN:
      *lower = std::numeric_limits<double>::quiet_NaN();
      return true;
    case Action::kError:
      // Inverted certified interval: upper strictly below lower.
      *upper = *lower - 1.0 - std::abs(*lower);
      return true;
    case Action::kDelay:
      SleepMs(delay_ms);
      return false;
    default:
      return false;
  }
}

}  // namespace failpoint
}  // namespace kdv
