// Shared types of the kdv_bench program (see README.md in this directory).
//
// kdv_bench runs one named workload per process. Its parameters arrive as
// `--key value` flags that run.py copies from workloads.json, so the
// workload definitions live in one file. Every timed region wraps a public
// entry point of the library; nothing under src/ knows it is benchmarked.
#ifndef QUADKDV_BENCH_SUITE_SUITE_H_
#define QUADKDV_BENCH_SUITE_SUITE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "quadkdv.h"

namespace kdv_suite {

// Workload parameters (workloads.json) plus the per-run flags. Only what
// differs between workloads is a parameter; kdv_bench requires every flag,
// so these fields carry no defaults of their own.
struct Params {
  std::string name;
  std::string kind;     // "frame" or "serve"
  std::string dataset;  // "crime" or "hep" (data/datasets.h analogues)
  double scale = 0.0;
  kdv::KernelType kernel = kdv::KernelType::kGaussian;
  std::string query;  // "eps" or "tau" (serve is always eps)
  double eps = 0.0;
  int width = 0;
  int height = 0;
  int frame_threads = 0;
  int trace_frames = 0;  // viewports replayed by the traced run
  int setup_reps = 0;    // set-ups per run; setup_s is their median

  // Serve workloads.
  double hot_frac = 0.0;  // share of requests for one of kHotViewports
  int swap_points = 0;    // points the writer appends per swap; 0: no writer
  // Traced run only: the rates of the ladder behind serve.max_rps_slo
  // (empty: no ladder).
  std::vector<double> ladder;

  // Per run.
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

// Settings every workload shares.
//
// Viewports per frame run: a p95 of their frame times has 10 beyond it.
inline constexpr int kFrameViewports = 200;
// Viewports zoom from 1x (the whole extent) to this.
inline constexpr double kMaxZoom = 4.0;
inline constexpr int kServeWorkers = 2;
inline constexpr double kServeRate = 16.0;  // open-loop requests per second
inline constexpr size_t kServeMaxQueue = 64;
inline constexpr double kServeBudgetS = 1.0;
inline constexpr int kHotViewports = 6;
inline constexpr int kSwapsPerRun = 6;
// Ladder steps: requests per step (a p95 with 10 beyond it) and the p95
// latency limit a step must meet.
inline constexpr int kLadderStepRequests = 200;
inline constexpr double kSloP95S = 0.5;

// Rows (and columns) of parallel_render.cc's square chunks, at the
// renderer's default, which every workload uses.
inline const int kChunkRows = kdv::RenderOptions().tile_rows;

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // timings: how many samples the value summarizes
};

// What a run reports. `counts` are deterministic work counts (same seed,
// same code => same numbers); run.py prints them so two runs can be diffed.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // correctness failures (empty = correct)
  // Why the run's timings cannot be trusted though its outputs may be
  // correct (empty = valid): compare.py refuses invalid runs.
  std::vector<std::string> invalid;
  std::vector<Metric> metrics;
  std::map<std::string, uint64_t> counts;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

// The indexed dataset and its QUAD evaluator, as one set-up builds them.
struct Index {
  std::unique_ptr<kdv::Workbench> bench;
  std::optional<kdv::KdeEvaluator> evaluator;
  double build_s = 0.0;  // Workbench construction alone (the index build)
};

// Builds the Workbench and its QUAD evaluator (callers time this call: it is
// the set-up every workload pays before its first frame).
Index BuildIndex(kdv::PointSet points, kdv::KernelType kernel);

// Independent deterministic streams derived from the run seed. The dataset
// itself is not one of them: it is the fixed paper analogue of
// data/datasets.h, standing in for a real dataset that does not change
// between runs (a re-drawn mixture moved frame cost by over 20% from seed
// to seed, which would drown every change the benchmark should detect).
enum class Stream : uint64_t {
  kViewports = 2,
  kArrivals = 3,
  kChecks = 4,
  kProbes = 5,
  kAppended = 6,
};
uint64_t DeriveSeed(uint64_t seed, Stream stream);

// The seed of a serve workload's hot viewports: the popular places of the
// map, fixed like the dataset; when each request asks for one comes from
// the run seed.
inline constexpr uint64_t kHotViewportSeed = 0x407;

// Seeded viewports over a dataset. Viewport i is point i of a 2-d
// low-discrepancy (R2 Kronecker) sequence, shifted by the seed, over
// (position along the data's Z-order curve, zoom exponent z): it centres on
// the data point at that quantile of the curve, moved inward so the view
// stays over the data extent where it fits, and zooms to kMaxZoom^z (1x is
// the whole extent). Any run of consecutive viewports thus covers the data,
// weighted by density, and the zoom range evenly: the viewports differ from
// seed to seed, what they cost in total hardly does. (Frame cost varies by
// about a third around its mean from viewport to viewport, so 100
// independent random viewports would move a run's cost by about 5% from
// seed to seed.)
class ViewportSequence {
 public:
  // `pts` must outlive the sequence.
  ViewportSequence(const Params& p, const kdv::PointSet& pts,
                   const kdv::Rect& extent, uint64_t seed);

  kdv::PixelGrid Grid(int i) const;
  std::vector<kdv::PixelGrid> Grids(int first, int count) const;

 private:
  int width_;
  int height_;
  const kdv::PointSet& pts_;
  kdv::Rect extent_;
  std::vector<uint32_t> curve_order_;  // point indices in Z-order
  double shift_[2];
};

// One open-loop arrival: when it is due (seconds from the phase start) and
// whether it asks for a hot viewport.
struct Arrival {
  double t = 0.0;
  bool hot = false;
};

// An open-loop schedule of round(rate * seconds) arrivals whose gaps are the
// exponential (Poisson-process) gaps of mean 1/rate, drawn stratified: one
// from each of the count equal-probability slices of the distribution, in
// seeded random order. round(hot_frac * count) of the arrivals, at seeded
// random places, ask for a hot viewport. Every seed thus sends as many
// requests, with the same spread of gaps and of hot requests, in a
// different order.
std::vector<Arrival> MakeSchedule(double rate, double seconds, double hot_frac,
                                  kdv::Rng* rng);

// One rendered pixel whose certificate is checked after the timed region:
// εKDV |v - F| <= ε·F, τKDV mask == [F >= τ], with F from EvaluateExact of
// the evaluator that rendered it. The evaluator and grid must outlive the
// check.
struct PixelCheck {
  const kdv::KdeEvaluator* evaluator = nullptr;
  const kdv::PixelGrid* grid = nullptr;
  size_t outcome = 0;  // the frame or request that rendered it
  size_t pixel = 0;
  double value = 0.0;  // rendered value (τ: the 0/1 mask)
  double param = 0.0;  // ε or τ
  bool eps_mode = true;
};

// Pixels checked per rendered frame.
inline constexpr int kCheckPixels = 16;

// Seeded pixel indices of one frame's check sample.
std::vector<size_t> CheckPixels(const kdv::PixelGrid& grid, kdv::Rng* rng);

// Appends the check sample of one rendered frame, outcome `outcome`.
void SampleChecks(const kdv::KdeEvaluator& evaluator,
                  const kdv::PixelGrid& grid, bool eps_mode, double param,
                  const std::vector<double>& values, size_t outcome,
                  kdv::Rng* rng, std::vector<PixelCheck>* checks);

// Runs the checks on kCpus threads; appends a description of each
// violation (the first 20) to *problems. Returns the outcomes that violated
// their certificate.
std::set<size_t> RunChecks(const std::vector<PixelCheck>& checks,
                           std::vector<std::string>* problems);

// Order statistics over a sample (copies and sorts). Percentile uses the
// nearest rank; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

// CPU placement. On a 4-vCPU virtual machine the guest scheduler was seen
// to leave two busy threads stacked on one vCPU for up to a second, halving
// a 2-thread frame's speed at random; so every thread kdv_bench owns is
// pinned to a CPU of its own: the main thread to CPU 0, pool workers and
// the writer to the CPUs after it. Threads the main thread starts inherit
// CPU 0 until they pin themselves. kdv_bench uses the first kCpus CPUs the
// process may use (all of them if it may use fewer); CPU numbers wrap
// around those.
//
// Set-up repetition k runs on CPU k instead. On the same machine one vCPU
// at a time was often a third slower than the others for minutes (its host
// core busy with other guests), and a set-up, a short computation on one
// thread, took that vCPU's speed; spread over all CPUs, the median set-up
// no longer depends on which vCPU the main thread is on.
inline constexpr int kCpus = 4;
void PinThisThread(int cpu);

// Keeps the CPUs kdv_bench uses from going idle while it lives: one thread
// per CPU, at SCHED_IDLE priority, spins until destroyed. The kernel runs a
// SCHED_IDLE thread only when its CPU has nothing else to run and preempts
// it as soon as another thread wakes there, so the workload keeps the CPUs
// to itself. On a virtual machine an idle CPU halts its vCPU, and how long
// the host takes to resume it, and how cold the vCPU's caches are by then,
// depends on the host's other guests. Serve requests wake idle workers
// hundreds of times a run: in six interleaved pairs of serve_hot runs, the
// quartile spread of lat_ms_p50 was 0.22 without spinners and 0.04 with
// them, and that of px_per_s 0.26 and 0.08.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// A pool of `workers` threads, each pinned to its own CPU from `first_cpu`
// on. Null when workers is 0.
std::unique_ptr<kdv::ThreadPool> MakePinnedPool(int workers, size_t max_queue,
                                                int first_cpu);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Seconds on a monotonic clock since the first call in this process.
double NowS();

// Spans recorded by the traced run around kdv_bench's own calls into the
// library: name, start, end, parent span, request id. Kept in memory and
// written once at the end of the run.
class SpanLog {
 public:
  // A request id no span of this log has used yet.
  uint64_t NewRequest() { return next_request_++; }
  void Clear() { spans_.clear(); }
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t id);
  // Adds a span whose times were measured elsewhere (e.g. a serve request's
  // queue wait, reconstructed from its ServeOutcome).
  int64_t Record(const char* name, int64_t parent, uint64_t request,
                 double start, double end);
  // Total duration of every span called `name`.
  double Total(const std::string& name) const;
  // Writes {"spans":[{name,start,end,parent,request},...]}.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int64_t parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

// Workloads (frames.cc, serve.cc) and the layer probes (probes.cc). A serve
// workload indexes the first `initial_points` points; its writer appends
// the rest in slices of p.swap_points.
Result RunFrameWorkload(const Params& p, const kdv::PointSet& points);
Result RunServeWorkload(const Params& p, const kdv::PointSet& points,
                        size_t initial_points);

// Per-request samples of the serve layer, as the traced serve run records
// them over its nominal phase. Empty for frame workloads, whose serve
// metrics then read 0.
struct ServeLayer {
  std::vector<double> admit_s;  // Submit() call
  std::vector<double> queue_s;  // ServeOutcome.queue_seconds
  std::vector<double> exec_s;   // total_seconds - queue_seconds
  std::vector<double> late_s;   // generator lateness at each send
  std::vector<double> swap_s;   // writer: index build + SwapEvaluator
  uint64_t sent = 0;
  uint64_t progressive = 0;
  uint64_t coarse = 0;
  double backlog_end = 0.0;
  double max_rps_slo = 0.0;  // highest ladder rate that met the SLO
};
void AddServeLayerMetrics(const ServeLayer& layer, Result* result);

// Per-layer cost probes over the same seeded pixels the workload renders.
struct LayerProbes {
  double point_eval_ns = 0.0;   // NodeBounds::Evaluate
  double region_eval_ns = 0.0;  // NodeBounds::EvaluateRegion, chunk rects
  double leaf_ns_per_point = 0.0;         // LeafSum, active SIMD level
  double leaf_ns_per_point_scalar = 0.0;  // LeafSum, scalar level
};
LayerProbes ProbeLayers(const kdv::KdeEvaluator& evaluator,
                        const std::vector<kdv::PixelGrid>& grids,
                        uint64_t seed);

// Traced replay of frames with parallel_render.cc's chunk geometry
// (kChunkRows x kChunkRows chunks, query rect = hull of the chunk's pixel
// centres), serially, timing TileRefiner::Build* and the seeded per-pixel
// refinement of each chunk as spans. Its BatchStats must equal the untraced
// renderer's exactly.
struct ReplayTotals {
  kdv::BatchStats stats;   // counts only (seconds unused)
  uint64_t chunks = 0;     // region passes run
  uint64_t frontier_nodes = 0;  // summed over valid, undecided chunks
  uint64_t frontier_chunks = 0;
};
std::vector<double> ReplayFrame(const kdv::KdeEvaluator& evaluator,
                                const kdv::PixelGrid& grid, bool eps_mode,
                                double param, SpanLog* log, uint64_t request,
                                ReplayTotals* totals);

// Renders one frame with the public parallel renderer; values as doubles
// (τ masks as 0/1).
struct Frame {
  std::vector<double> values;
  kdv::BatchStats stats;
  double wall_s = 0.0;
};
Frame RenderFrame(const kdv::KdeEvaluator& evaluator,
                  const kdv::PixelGrid& grid, bool eps_mode, double param,
                  const kdv::RenderOptions& options, kdv::Executor* pool);

// The work counters two renders of one frame must agree on.
bool SameCounts(const kdv::BatchStats& a, const kdv::BatchStats& b);

// Per-layer metrics shared by every workload's traced run: index shape,
// probe costs, and the traced replay of `grids` beside untraced renders of
// the same frames at p.frame_threads and at 1 thread. The three run frame
// by frame, in passes over `grids` until `seconds` have gone by (at least
// one pass); timings are medians over the passes. Spans are kept for the
// first pass only and counts come from it; every later pass must repeat
// them. Checks every untraced frame's certificate and the replay's counts
// and pixels against it, into *result.
void AddFrameLayerMetrics(const Params& p, const kdv::KdeEvaluator& evaluator,
                          const std::vector<kdv::PixelGrid>& grids,
                          bool eps_mode, double param, double index_build_s,
                          double seconds, SpanLog* log, Result* result);

}  // namespace kdv_suite

#endif  // QUADKDV_BENCH_SUITE_SUITE_H_
