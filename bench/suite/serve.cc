// Serve workloads: an open-loop client against RenderService, optionally
// with a writer thread that grows the dataset and hot-swaps the evaluator
// while requests are in flight.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "suite.h"

namespace kdv_suite {

namespace {

using Clock = std::chrono::steady_clock;

// kSwapsPerRun times a run, at the middle of each of kSwapsPerRun equal
// intervals: appends the next p.swap_points points, builds a new index and
// publishes it with SwapEvaluator. Epoch k+1 is (*epochs)[k]; the
// caller reads `epochs` and swap_s() only after Stop().
class SwapWriter {
 public:
  SwapWriter(const Params& p, const kdv::PointSet& all, size_t initial,
             kdv::RenderService* service,
             std::vector<std::unique_ptr<Index>>* epochs)
      : p_(p), all_(all), size_(initial), service_(service),
        epochs_(epochs) {}
  ~SwapWriter() { Stop(); }

  SwapWriter(const SwapWriter&) = delete;
  SwapWriter& operator=(const SwapWriter&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& swap_s() const { return swap_s_; }

 private:
  void Loop() {
    PinThisThread(1 + kServeWorkers);  // beside the main thread and workers
    const auto every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(p_.seconds / kSwapsPerRun));
    // Mid-interval, so the last swap lands well before the run ends and
    // every run makes all of them.
    auto next = Clock::now() + every / 2;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      next += every;
      if (size_ + p_.swap_points > all_.size()) return;
      size_ += p_.swap_points;
      lock.unlock();
      kdv::PointSet grown(all_.begin(), all_.begin() + size_);
      const double start = NowS();
      epochs_->push_back(
          std::make_unique<Index>(BuildIndex(std::move(grown), p_.kernel)));
      service_->SwapEvaluator(&*epochs_->back()->evaluator);
      swap_s_.push_back(NowS() - start);
      lock.lock();
    }
  }

  const Params& p_;
  const kdv::PointSet& all_;
  size_t size_;
  kdv::RenderService* service_;
  std::vector<std::unique_ptr<Index>>* epochs_;
  std::vector<double> swap_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: joined before the members it uses go away
};

// One request from its scheduled send to its outcome.
struct Request {
  uint64_t id = 0;            // span request id
  double sched = 0.0;         // when the open-loop schedule sends it
  double submit_start = 0.0;  // when Submit() was called
  double sent = 0.0;          // when Submit() returned
  const kdv::PixelGrid* grid = nullptr;
  std::vector<size_t> check_px;
  std::future<kdv::ServeOutcome> future;

  // Filled from the outcome.
  bool done = false;
  bool ok = false;
  bool cache_hit = false;
  kdv::QualityTier tier = kdv::QualityTier::kFlat;
  double certified_eps = -1.0;
  uint64_t epoch = 0;
  double queue_s = 0.0;
  double exec_s = 0.0;
  double latency_s = std::numeric_limits<double>::infinity();  // refused: inf
  std::vector<double> check_values;
  bool finite = true;
};

// The requests of one open-loop phase, [begin, end) of Client::requests(),
// and how many were still in flight when the last one was sent.
struct Phase {
  size_t begin = 0;
  size_t end = 0;
  double backlog_end = 0.0;
};

// The open-loop client. It sends each phase's schedule on time and picks up
// finished requests while it waits for the next send; requests borrow their
// grid from grids_ (a deque: addresses stay put as fresh viewports are
// appended).
class Client {
 public:
  Client(kdv::RenderService* service, const kdv::ServeRequestOptions& request,
         std::vector<kdv::PixelGrid> hot, const ViewportSequence* fresh,
         kdv::Rng* check_rng, SpanLog* log)
      : service_(service),
        request_(request),
        grids_(hot.begin(), hot.end()),
        hot_count_(hot.size()),
        fresh_(fresh),
        check_rng_(check_rng),
        log_(log) {}

  // Every hot viewport once (fills the frontier cache) and two fresh ones,
  // one at a time, untimed.
  void WarmUp() {
    std::vector<const kdv::PixelGrid*> warm;
    for (size_t i = 0; i < hot_count_; ++i) warm.push_back(&grids_[i]);
    for (int i = 0; i < 2; ++i) warm.push_back(Fresh());
    for (const kdv::PixelGrid* grid : warm) {
      auto ticket = service_->Submit(*grid, request_);
      if (ticket.ok()) (void)ticket->get();
    }
  }

  // Sends `schedule` from now on, then waits for all of its outcomes.
  Phase Run(const std::vector<Arrival>& schedule) {
    Phase phase;
    phase.begin = requests_.size();
    const auto start = Clock::now();
    const double start_s = NowS();
    for (const Arrival& a : schedule) {
      CollectReady(start_s + a.t - 0.002);
      Request& req = requests_.emplace_back();
      if (log_ != nullptr) req.id = log_->NewRequest();
      req.grid = a.hot && hot_count_ > 0 ? &grids_[next_hot_++ % hot_count_]
                                         : Fresh();
      req.sched = start_s + a.t;
      req.check_px = CheckPixels(*req.grid, check_rng_);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.t)));
      req.submit_start = NowS();
      auto ticket = service_->Submit(*req.grid, request_);
      req.sent = NowS();
      if (ticket.ok()) req.future = std::move(*ticket);
    }
    phase.backlog_end = static_cast<double>(service_->in_flight());
    CollectReady(std::numeric_limits<double>::infinity(), /*wait=*/true);
    phase.end = requests_.size();
    return phase;
  }

  const std::deque<Request>& requests() const { return requests_; }

 private:
  const kdv::PixelGrid* Fresh() {
    grids_.push_back(fresh_->Grid(next_fresh_++));
    return &grids_.back();
  }

  // Takes outcomes in send order until one is not ready (unless `wait`) or
  // the clock reaches `until`.
  void CollectReady(double until, bool wait = false) {
    while (next_collect_ < requests_.size() && NowS() < until) {
      Request& req = requests_[next_collect_];
      if (req.future.valid() && !wait &&
          req.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        return;
      }
      if (req.future.valid()) Collect(&req);
      ++next_collect_;
    }
  }

  // The request's timings, tier, and the pixel values the certificate check
  // needs (the frame itself is dropped).
  void Collect(Request* req) {
    const kdv::ServeOutcome o = req->future.get();
    req->done = true;
    req->ok = o.ok();
    req->cache_hit = o.render.stats.frontier_cache_hits > 0;
    req->tier = o.render.tier;
    req->certified_eps = o.render.certified_eps;
    req->epoch = o.epoch;
    req->queue_s = o.queue_seconds;
    req->exec_s = o.total_seconds - o.queue_seconds;
    req->latency_s = (req->sent - req->sched) + o.total_seconds;
    for (size_t px : req->check_px) {
      req->check_values.push_back(o.render.frame.values[px]);
    }
    for (double v : o.render.frame.values) req->finite &= std::isfinite(v);
    if (log_ != nullptr) {
      const int64_t span = log_->Record("request", -1, req->id, req->sched,
                                        req->sent + o.total_seconds);
      log_->Record("admit", span, req->id, req->submit_start, req->sent);
      log_->Record("queue", span, req->id, req->sent,
                   req->sent + req->queue_s);
      log_->Record("exec", span, req->id, req->sent + req->queue_s,
                   req->sent + o.total_seconds);
    }
  }

  kdv::RenderService* service_;
  const kdv::ServeRequestOptions request_;
  std::deque<kdv::PixelGrid> grids_;  // hot ones first
  const size_t hot_count_;
  const ViewportSequence* fresh_;
  kdv::Rng* check_rng_;
  SpanLog* log_;
  std::deque<Request> requests_;
  size_t next_collect_ = 0;
  size_t next_hot_ = 0;
  int next_fresh_ = 0;
};

// Whether a ladder step met the service-level objective: p95 latency within
// kSloP95S, at most 1% of requests failed or degraded, and no more than two
// requests per worker still in flight when the step's last one was sent.
bool MeetsSlo(const Client& client, const Phase& phase) {
  std::vector<double> latency;
  uint64_t bad = 0;
  for (size_t i = phase.begin; i < phase.end; ++i) {
    const Request& req = client.requests()[i];
    latency.push_back(req.latency_s);
    if (!req.ok || req.tier != kdv::QualityTier::kCertified) ++bad;
  }
  return !latency.empty() && Percentile(latency, 0.95) <= kSloP95S &&
         bad <= 0.01 * static_cast<double>(latency.size()) &&
         phase.backlog_end <= 2.0 * kServeWorkers;
}

}  // namespace

void AddServeLayerMetrics(const ServeLayer& layer, Result* result) {
  const double sent = static_cast<double>(std::max<uint64_t>(1, layer.sent));
  result->Add("serve.admit_us_p50", Median(layer.admit_s) * 1e6, "us",
              layer.admit_s.size());
  result->Add("serve.queue_ms_p50", Median(layer.queue_s) * 1e3, "ms",
              layer.queue_s.size());
  result->Add("serve.queue_ms_p95", Percentile(layer.queue_s, 0.95) * 1e3,
              "ms", layer.queue_s.size());
  result->Add("serve.exec_ms_p50", Median(layer.exec_s) * 1e3, "ms",
              layer.exec_s.size());
  result->Add("serve.exec_ms_p95", Percentile(layer.exec_s, 0.95) * 1e3, "ms",
              layer.exec_s.size());
  result->Add("serve.tier_progressive_frac", layer.progressive / sent,
              "fraction");
  result->Add("serve.tier_coarse_frac", layer.coarse / sent, "fraction");
  result->Add("serve.backlog_end", layer.backlog_end, "count");
  result->Add("serve.swap_ms", Median(layer.swap_s) * 1e3, "ms",
              layer.swap_s.size());
  result->Add("serve.late_ms_p95", Percentile(layer.late_s, 0.95) * 1e3, "ms",
              layer.late_s.size());
  result->Add("serve.max_rps_slo", layer.max_rps_slo, "1/s");
}

Result RunServeWorkload(const Params& p, const kdv::PointSet& points,
                        size_t initial_points) {
  Result r;
  const kdv::PointSet base(points.begin(), points.begin() + initial_points);
  kdv::RenderService::Options options;
  options.num_threads = kServeWorkers;
  options.max_queue = kServeMaxQueue;
  options.intra_frame_threads = p.frame_threads;
  options.tile_shared = true;

  // Set-up: index + evaluator + service start (its request workers, pinned
  // to CPUs 1..workers), repeated, each time on the next CPU; the last is
  // kept. Declared before the service and the writer, which borrow from
  // them.
  std::vector<std::unique_ptr<Index>> epochs;
  std::unique_ptr<kdv::ThreadPool> workers;
  std::unique_ptr<kdv::RenderService> service;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    service.reset();
    workers.reset();
    epochs.clear();
    kdv::PointSet copy = base;
    PinThisThread(rep);  // see PinThisThread on set-ups
    const double start = NowS();
    auto index = std::make_unique<Index>(BuildIndex(std::move(copy), p.kernel));
    workers = MakePinnedPool(kServeWorkers, kServeMaxQueue, 1);
    options.executor = workers.get();
    service = std::make_unique<kdv::RenderService>(&*index->evaluator, options);
    setup_s.push_back(NowS() - start);
    build_s.push_back(index->build_s);
    epochs.push_back(std::move(index));
  }
  PinThisThread(0);
  const kdv::Rect extent = epochs[0]->bench->data_bounds();

  const ViewportSequence hot(p, base, extent, kHotViewportSeed);
  const ViewportSequence fresh(p, base, extent,
                               DeriveSeed(p.seed, Stream::kViewports));
  kdv::ServeRequestOptions request;
  request.eps = p.eps;
  request.budget_seconds = kServeBudgetS;
  request.degrade = true;
  kdv::Rng check_rng(DeriveSeed(p.seed, Stream::kChecks));
  SpanLog log;
  const int hot_viewports = p.hot_frac > 0.0 ? kHotViewports : 0;
  Client client(service.get(), request, hot.Grids(0, hot_viewports), &fresh,
                &check_rng, p.trace ? &log : nullptr);
  client.WarmUp();

  // The nominal phase (half the run when traced), then, traced, the ladder:
  // one step of kLadderStepRequests per rate until a step misses the SLO.
  kdv::Rng arrivals(DeriveSeed(p.seed, Stream::kArrivals));
  ServeLayer layer;
  SwapWriter writer(p, points, initial_points, service.get(), &epochs);
  if (p.swap_points > 0) writer.Start();
  const double run_start = NowS();
  const Phase nominal = client.Run(
      MakeSchedule(kServeRate, p.trace ? 0.5 * p.seconds : p.seconds,
                   p.hot_frac, &arrivals));
  if (p.trace) {
    for (double rate : p.ladder) {
      const Phase step = client.Run(MakeSchedule(
          rate, kLadderStepRequests / rate, p.hot_frac, &arrivals));
      if (!MeetsSlo(client, step)) break;
      layer.max_rps_slo = rate;
    }
  }
  writer.Stop();
  layer.swap_s = writer.swap_s();
  layer.backlog_end = nominal.backlog_end;

  // Outcomes, then the certificate checks (untimed): certified frames
  // against EvaluateExact of the epoch that rendered them. The end-to-end
  // metrics, the serve layer's samples and attempted/failed come from the
  // nominal phase; ladder steps probe past capacity, where refusals are
  // expected, so their outcomes are only checked.
  std::vector<double> latency;
  std::vector<PixelCheck> checks;
  double certified_px = 0.0, exec_s = 0.0;
  uint64_t hits = 0, certified = 0;  // nominal phase
  const std::deque<Request>& requests = client.requests();
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const bool in_nominal = i >= nominal.begin && i < nominal.end;
    layer.late_s.push_back(req.submit_start - req.sched);
    if (in_nominal) {
      ++r.attempted;
      if (!req.done || !req.ok) ++r.failed;
      ++layer.sent;
      latency.push_back(req.latency_s);
      layer.admit_s.push_back(req.sent - req.submit_start);
      if (req.done && req.ok) {
        layer.queue_s.push_back(req.queue_s);
        layer.exec_s.push_back(req.exec_s);
        exec_s += req.exec_s;
        if (req.tier == kdv::QualityTier::kProgressive) ++layer.progressive;
        if (req.tier == kdv::QualityTier::kCoarse) ++layer.coarse;
      }
    }
    if (!req.done || !req.ok) continue;
    if (!req.finite) r.problems.push_back("served frame has non-finite pixels");
    if (req.tier != kdv::QualityTier::kCertified) continue;
    if (in_nominal) {
      ++certified;
      hits += req.cache_hit ? 1 : 0;
      certified_px += static_cast<double>(req.grid->num_pixels());
    }
    const kdv::KdeEvaluator* evaluator = &*epochs.at(req.epoch - 1)->evaluator;
    for (size_t k = 0; k < req.check_px.size(); ++k) {
      checks.push_back({evaluator, req.grid, i, req.check_px[k],
                        req.check_values[k], req.certified_eps, true});
    }
  }
  for (size_t i : RunChecks(checks, &r.problems)) {
    if (i >= nominal.begin && i < nominal.end) ++r.failed;
  }
  // A late generator sends less load than scheduled, which invalidates the
  // timings, not the outputs: on a shared virtual machine the host was seen
  // to stop the client's vCPU for up to 60 ms at a time. A p95 needs some
  // samples beyond it; a smoke run sends only a handful.
  const double late_p95 = Percentile(layer.late_s, 0.95);
  if (layer.late_s.size() >= 40 && late_p95 > 0.005) {
    r.invalid.push_back("open-loop generator ran late: p95 " +
                        std::to_string(late_p95 * 1e3) + " ms > 5 ms");
  }

  if (p.trace) {
    AddServeLayerMetrics(layer, &r);
    r.Add("viz.cache_hit_frac",
          certified > 0 ? static_cast<double>(hits) / certified : 0.0,
          "fraction", certified);
    // Replayed: the hot viewports, then fresh ones, p.trace_frames in all,
    // over the first epoch, for the rest of the run.
    const int hot_replayed = std::min(hot_viewports, p.trace_frames);
    std::vector<kdv::PixelGrid> replay = hot.Grids(0, hot_replayed);
    for (const kdv::PixelGrid& grid :
         fresh.Grids(0, p.trace_frames - hot_replayed)) {
      replay.push_back(grid);
    }
    AddFrameLayerMetrics(p, *epochs[0]->evaluator, replay, /*eps_mode=*/true,
                         p.eps, Median(build_s),
                         p.seconds - (NowS() - run_start), &log, &r);
    if (!p.trace_out.empty() && !log.Write(p.trace_out)) {
      r.problems.push_back("cannot write " + p.trace_out);
    }
    return r;
  }

  r.Add("setup_s", Median(setup_s), "s", setup_s.size());
  r.Add("lat_ms_p50", Percentile(latency, 0.5) * 1e3, "ms", latency.size());
  r.Add("lat_ms_p95", Percentile(latency, 0.95) * 1e3, "ms", latency.size());
  r.Add("px_per_s", exec_s > 0.0 ? kServeWorkers * certified_px / exec_s : 0.0,
        "px/s", certified);
  r.Add("ok_frac",
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "fraction", r.attempted);
  r.Add("certified_frac",
        static_cast<double>(certified) / static_cast<double>(layer.sent),
        "fraction", layer.sent);
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return r;
}

}  // namespace kdv_suite
