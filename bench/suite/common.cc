// Helpers shared by the workloads: set-up, seeding, viewports, certificate
// checks, order statistics and the span log.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <latch>
#include <set>
#include <thread>
#include <utility>

#include "suite.h"

namespace kdv_suite {

Index BuildIndex(kdv::PointSet points, kdv::KernelType kernel) {
  Index index;
  const double start = NowS();
  index.bench = std::make_unique<kdv::Workbench>(std::move(points), kernel);
  index.build_s = NowS() - start;
  index.evaluator.emplace(index.bench->MakeEvaluator(kdv::Method::kQuad));
  return index;
}

uint64_t DeriveSeed(uint64_t seed, Stream stream) {
  kdv::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(stream));
  return rng.NextUint64();
}

ViewportSequence::ViewportSequence(const Params& p, const kdv::PointSet& pts,
                                   const kdv::Rect& extent, uint64_t seed)
    : width_(p.width),
      height_(p.height),
      pts_(pts),
      extent_(extent) {
  KDV_CHECK(!pts.empty());
  std::vector<std::pair<uint64_t, uint32_t>> keyed(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    keyed[i] = {kdv::MortonCodeForPoint(pts[i], extent),
                static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  curve_order_.reserve(keyed.size());
  for (const auto& [code, index] : keyed) curve_order_.push_back(index);
  kdv::Rng rng(seed);
  shift_[0] = rng.NextDouble();
  shift_[1] = rng.NextDouble();
}

kdv::PixelGrid ViewportSequence::Grid(int i) const {
  // R2 sequence: steps 1/g and 1/g^2, g the plastic number.
  constexpr double kG = 1.32471795724474602596;
  const double position = std::fmod(shift_[0] + (i + 1) / kG, 1.0);
  const double zoom = std::fmod(shift_[1] + (i + 1) / (kG * kG), 1.0);
  const size_t rank = std::min(
      curve_order_.size() - 1,
      static_cast<size_t>(position * static_cast<double>(curve_order_.size())));
  const kdv::Point& center = pts_[curve_order_[rank]];

  const double side = std::max(extent_.Length(0), extent_.Length(1));
  const double half_w = 0.5 * side / std::pow(kMaxZoom, zoom);
  const double half[2] = {half_w, half_w * height_ / width_};
  kdv::Rect view(2);
  for (int d = 0; d < 2; ++d) {
    const double lo = extent_.lo(d) + half[d];
    const double hi = extent_.hi(d) - half[d];
    const double c = lo <= hi ? std::clamp(center[d], lo, hi)
                              : 0.5 * (extent_.lo(d) + extent_.hi(d));
    view.set_lo(d, c - half[d]);
    view.set_hi(d, c + half[d]);
  }
  return kdv::PixelGrid(width_, height_, view);
}

std::vector<kdv::PixelGrid> ViewportSequence::Grids(int first,
                                                    int count) const {
  std::vector<kdv::PixelGrid> grids;
  for (int i = first; i < first + count; ++i) grids.push_back(Grid(i));
  return grids;
}

std::vector<Arrival> MakeSchedule(double rate, double seconds, double hot_frac,
                                  kdv::Rng* rng) {
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  auto shuffle = [rng](auto* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[rng->UniformInt(i)]);
    }
  };
  std::vector<double> gaps(count);
  for (size_t k = 0; k < count; ++k) {
    const double u = (static_cast<double>(k) + rng->NextDouble()) /
                     static_cast<double>(count);
    gaps[k] = -std::log1p(-u) / rate;
  }
  shuffle(&gaps);
  std::vector<char> hot(count, 0);
  std::fill_n(hot.begin(),
              std::min(count, static_cast<size_t>(std::llround(
                                  hot_frac * static_cast<double>(count)))),
              1);
  shuffle(&hot);

  std::vector<Arrival> schedule(count);
  double t = 0.0;
  for (size_t k = 0; k < count; ++k) {
    t += gaps[k];
    schedule[k] = {t, hot[k] != 0};
  }
  return schedule;
}

std::vector<size_t> CheckPixels(const kdv::PixelGrid& grid, kdv::Rng* rng) {
  std::vector<size_t> pixels;
  for (int s = 0; s < kCheckPixels; ++s) {
    pixels.push_back(rng->UniformInt(grid.num_pixels()));
  }
  return pixels;
}

void SampleChecks(const kdv::KdeEvaluator& evaluator,
                  const kdv::PixelGrid& grid, bool eps_mode, double param,
                  const std::vector<double>& values, size_t outcome,
                  kdv::Rng* rng, std::vector<PixelCheck>* checks) {
  for (size_t px : CheckPixels(grid, rng)) {
    checks->push_back(
        {&evaluator, &grid, outcome, px, values[px], param, eps_mode});
  }
}

std::set<size_t> RunChecks(const std::vector<PixelCheck>& checks,
                           std::vector<std::string>* problems) {
  // Exact sums dominate (a full scan per pixel), so they are spread over
  // threads; each thread marks its own slice of `bad`.
  std::vector<char> bad(checks.size(), 0);
  std::vector<double> exact(checks.size(), 0.0);
  const size_t threads = kCpus;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThisThread(static_cast<int>(t));
      for (size_t i = t; i < checks.size(); i += threads) {
        const PixelCheck& c = checks[i];
        const kdv::Point q = c.grid->PixelCenter(
            static_cast<int>(c.pixel % c.grid->width()),
            static_cast<int>(c.pixel / c.grid->width()));
        const double f = c.evaluator->EvaluateExact(q);
        exact[i] = f;
        bad[i] = c.eps_mode
                     ? !(std::isfinite(c.value) &&
                         std::abs(c.value - f) <= c.param * f + 1e-12)
                     : !(f == c.param || (c.value != 0.0) == (f >= c.param));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  std::set<size_t> bad_outcomes;
  for (size_t i = 0; i < checks.size(); ++i) {
    if (bad[i]) bad_outcomes.insert(checks[i].outcome);
    if (bad[i] && problems->size() < 20) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s violation at pixel %zu: value=%.17g exact=%.17g "
                    "param=%g",
                    checks[i].eps_mode ? "eps" : "tau", checks[i].pixel,
                    checks[i].value, exact[i], checks[i].param);
      problems->push_back(buf);
    }
  }
  return bad_outcomes;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

namespace {

// The first kCpus CPUs the process started with; later pins must not
// shrink the set a new thread can choose from.
const std::vector<int>& BenchCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> first;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE && first.size() < kCpus; ++c) {
        if (CPU_ISSET(c, &set)) first.push_back(c);
      }
    }
    return first;
  }();
  return cpus;
}

}  // namespace

void PinThisThread(int cpu) {
  const std::vector<int>& cpus = BenchCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(cpu) % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
}

IdleSpinners::IdleSpinners() {
  for (size_t cpu = 0; cpu < BenchCpus().size(); ++cpu) {
    threads_.emplace_back([this, cpu] {
      PinThisThread(static_cast<int>(cpu));
      const sched_param param{};
      (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

std::unique_ptr<kdv::ThreadPool> MakePinnedPool(int workers, size_t max_queue,
                                                int first_cpu) {
  if (workers < 1) return nullptr;
  auto pool = std::make_unique<kdv::ThreadPool>(
      kdv::ThreadPool::Options{workers, max_queue});
  // One pinning task per worker; each holds its worker until all are
  // pinned, so no worker takes two. The tasks share ownership of the latch:
  // a worker may still be leaving arrive_and_wait when this call returns.
  struct Pinning {
    explicit Pinning(int n) : pinned(n) {}
    std::latch pinned;
    std::atomic<int> next{0};
  };
  auto state = std::make_shared<Pinning>(workers);
  for (int i = 0; i < workers; ++i) {
    KDV_CHECK(pool->TrySubmit([state, first_cpu] {
                    PinThisThread(first_cpu + state->next.fetch_add(1));
                    state->pinned.arrive_and_wait();
                  }).ok());
  }
  state->pinned.wait();
  return pool;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NowS() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request) {
  const double now = NowS();
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) { spans_[id].end = NowS(); }

int64_t SpanLog::Record(const char* name, int64_t parent, uint64_t request,
                        double start, double end) {
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

bool SpanLog::Write(const std::string& path) const {
  kdv::JsonWriter w;
  w.BeginObject().Key("spans").BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("start").Number(s.start, 9)
        .Key("end").Number(s.end, 9)
        .Key("parent").Value(static_cast<int64_t>(s.parent))
        .Key("request").Value(s.request)
        .EndObject();
  }
  w.EndArray().EndObject();
  return kdv::AtomicWriteFile(path, w.Take()).ok();
}

Frame RenderFrame(const kdv::KdeEvaluator& evaluator,
                  const kdv::PixelGrid& grid, bool eps_mode, double param,
                  const kdv::RenderOptions& options, kdv::Executor* pool) {
  const kdv::QueryControl control;
  Frame frame;
  if (eps_mode) {
    const double start = NowS();
    kdv::DensityFrame f = kdv::RenderEpsFrameParallel(
        evaluator, grid, param, options, pool, control, &frame.stats);
    frame.wall_s = NowS() - start;
    frame.values = std::move(f.values);
  } else {
    const double start = NowS();
    kdv::BinaryFrame f = kdv::RenderTauFrameParallel(
        evaluator, grid, param, options, pool, control, &frame.stats);
    frame.wall_s = NowS() - start;
    frame.values.assign(f.values.begin(), f.values.end());
  }
  return frame;
}

bool SameCounts(const kdv::BatchStats& a, const kdv::BatchStats& b) {
  return a.queries == b.queries && a.iterations == b.iterations &&
         a.points_scanned == b.points_scanned &&
         a.nodes_visited == b.nodes_visited &&
         a.numeric_faults == b.numeric_faults &&
         a.tile_nodes_visited == b.tile_nodes_visited &&
         a.tile_accepted == b.tile_accepted &&
         a.tile_pruned == b.tile_pruned && a.tiles_decided == b.tiles_decided;
}

}  // namespace kdv_suite
