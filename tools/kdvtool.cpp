// kdvtool — command-line front end to the QUAD KDV library.
//
// Each subcommand declares the flags it accepts once, in Commands() at the
// bottom of this file: name, kind, default, accepted range or choices, and
// one line of help. Flags::Parse (util/flags.h) checks argv against that
// declaration before any input is read, and the usage text (`kdvtool` with
// no arguments, or any usage error) is printed from it.
//
// Every failure path exits non-zero with a printed reason; bad input (a
// malformed CSV, a truncated index, a NaN flag value) must never abort.
// Exit codes: 0 success (including a degraded budgeted render), 1 failure
// (including an invalid ε, τ or γ, which their validators reject by name),
// 2 usage error (an unknown subcommand or flag, a positional argument, or a
// malformed or out-of-range flag value), 3 budget expired under
// `render --on-deadline=fail`. README.md carries the exit-code table.
//
// Examples:
//   kdvtool generate --dataset crime --scale 0.05 --out crime.csv
//   kdvtool index --in crime.csv --out crime.kdv
//   kdvtool info --index crime.kdv
//   kdvtool render --in crime.csv --eps 0.01 --width 640 --out heat.ppm
//   kdvtool hotspot --in crime.csv --tau-sigma 0.1 --out mask.ppm
//   kdvtool progressive --in crime.csv --budget 0.5 --out partial.ppm
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "quadkdv.h"
#include "util/flags.h"

namespace {

using namespace kdv;
using F = FlagSpec;

// Prints a Status as "kdvtool: CODE: message".
void PrintStatus(const Status& status) {
  std::fprintf(stderr, "kdvtool: %s\n", status.ToString().c_str());
}

// --metrics-out FILE: dump the process-wide metrics registry as JSON to
// FILE (atomic write, so a crash never leaves a torn artifact). Shared by
// render, serve-sim, and metrics. Returns 1 on write failure, else 0.
int MaybeWriteMetricsOut(const Flags& flags) {
  const std::string& path = flags.String("metrics-out");
  if (path.empty()) return 0;
  const Status written = AtomicWriteFile(
      path, obs::ExportJson(obs::MetricsRegistry::Global().Snapshot()));
  if (!written.ok()) {
    PrintStatus(written);
    return 1;
  }
  return 0;
}

// Helper pool for an intra-frame parallel render: resolved - 1 workers (the
// caller participates), or null when the render is serial.
std::unique_ptr<ThreadPool> MakeTilePool(int threads) {
  const int resolved = ResolveRenderThreads(threads);
  if (resolved <= 1) return nullptr;
  ThreadPool::Options options;
  options.num_threads = resolved - 1;
  options.max_queue = static_cast<size_t>(resolved) * 2;
  return std::make_unique<ThreadPool>(options);
}

// The values of the choice flags --kernel, --method and --dataset.
const std::pair<const char*, KernelType> kKernels[] = {
    {"gaussian", KernelType::kGaussian},
    {"triangular", KernelType::kTriangular},
    {"cosine", KernelType::kCosine},
    {"exponential", KernelType::kExponential},
    {"epanechnikov", KernelType::kEpanechnikov},
    {"quartic", KernelType::kQuartic},
    {"uniform", KernelType::kUniform}};
const std::pair<const char*, Method> kMethods[] = {
    {"quad", Method::kQuad}, {"karl", Method::kKarl}, {"akde", Method::kAkde},
    {"tkdc", Method::kTkdc}, {"exact", Method::kExact}};
const std::pair<const char*, MixtureSpec (*)(double)> kDatasets[] = {
    {"el_nino", ElNinoSpec}, {"crime", CrimeSpec}, {"home", HomeSpec},
    {"hep", HepSpec}};

// A choice table's names, '|'-separated, for its flag declaration.
template <typename Table>
std::string Names(const Table& table) {
  std::string names;
  for (const auto& [name, value] : table) names += "|" + std::string(name);
  return names.substr(1);
}

// The value a choice flag selects; the parser admits only the table's names.
template <typename Table>
auto Chosen(const Table& table, const std::string& name) {
  for (const auto& [n, value] : table) {
    if (name == n) return value;
  }
  KDV_CHECK_MSG(false, "choice flag value missing from its table");
  return table[0].second;
}

// Reads --method and --kernel. Returns false, after printing why, when the
// method has no bound function for the kernel (paper Table 6: KARL bounds
// only the Gaussian), so no command silently falls back to an exact scan.
bool ReadModel(const Flags& flags, Method* method, KernelType* kernel) {
  *method = Chosen(kMethods, flags.String("method"));
  *kernel = Chosen(kKernels, flags.String("kernel"));
  KernelParams params;
  params.type = *kernel;
  const bool bounded =
      *method == Method::kExact || MakeNodeBounds(*method, params) != nullptr;
  if (!bounded) {
    std::fprintf(stderr, "kdvtool: method does not support this kernel\n");
  }
  return bounded;
}

// --height, by default 3/4 of --width but at least 1.
int HeightFlag(const Flags& flags) {
  if (flags.Has("height")) return flags.Int("height");
  return static_cast<int>(
      std::max<int64_t>(1, static_cast<int64_t>(flags.Int("width")) * 3 / 4));
}

// Reads --eps. Returns false after printing ValidateEps' INVALID_ARGUMENT
// (exit 1, like an invalid τ or γ) when it is malformed or not positive.
bool ReadEps(const Flags& flags, double* eps) {
  *eps = flags.Double("eps");
  const Status status = ValidateEps(*eps);
  if (!status.ok()) PrintStatus(status);
  return status.ok();
}

// --threads, --tile-rows and --tile-shared (on: shared-traversal tile
// refinement; off: per-pixel refinement, the bitwise oracle).
RenderOptions RenderOptionsFromFlags(const Flags& flags) {
  RenderOptions options;
  options.num_threads = flags.Int("threads");
  options.tile_rows = flags.Int("tile-rows");
  options.tile_shared = flags.String("tile-shared") == "on";
  return options;
}

// Ingestion policy from flags: --drop-bad switches from reject to drop.
ValidateOptions ValidateOptionsFromFlags(const Flags& flags) {
  ValidateOptions options;
  if (flags.Bool("drop-bad")) {
    options.policy = ValidateOptions::BadPointPolicy::kDrop;
  }
  return options;
}

// Loads the input dataset from --in CSV or synthesizes from --dataset.
bool LoadInput(const Flags& flags, PointSet* points) {
  const std::string& in = flags.String("in");
  if (!in.empty()) {
    CsvReadStats csv_stats;
    Status status = LoadPointsCsv(in, {}, points, &csv_stats);
    if (!status.ok()) {
      PrintStatus(status);
      return false;
    }
    if (csv_stats.skipped() > 0) {
      std::fprintf(stderr,
                   "kdvtool: %s: skipped %zu rows (%zu malformed/non-finite, "
                   "%zu ragged)\n",
                   in.c_str(), csv_stats.skipped(), csv_stats.skipped_malformed,
                   csv_stats.skipped_ragged);
    }
    if ((*points)[0].dim() < 2) {
      std::fprintf(stderr, "kdvtool: %s: need >= 2 columns\n", in.c_str());
      return false;
    }
    IngestReport report;
    status = ValidatePointSet(points, ValidateOptionsFromFlags(flags),
                              &report);
    if (!status.ok()) {
      PrintStatus(status);
      return false;
    }
    if (report.kept_points < report.input_points || report.degenerate) {
      std::fprintf(stderr, "kdvtool: %s: %s\n", in.c_str(),
                   report.Summary().c_str());
    }
    return true;
  }
  *points = GenerateMixture(
      Chosen(kDatasets, flags.String("dataset"))(flags.Double("scale")));
  return true;
}

int CmdGenerate(const Flags& flags) {
  PointSet points;
  if (!LoadInput(flags, &points)) return 1;
  const std::string& out = flags.String("out");
  Status status = SavePointsCsv(out, points);
  if (!status.ok()) {
    PrintStatus(status);
    return 1;
  }
  std::printf("wrote %zu points to %s\n", points.size(), out.c_str());
  return 0;
}

// Builds a kd-tree over the input and persists it (checksummed v2 format by
// default; --format-version 1 writes the legacy layout).
int CmdIndex(const Flags& flags) {
  PointSet points;
  if (!LoadInput(flags, &points)) return 1;
  KdTree::Options tree_options;
  tree_options.leaf_size = static_cast<size_t>(flags.Int("leaf-size"));
  KdTree tree(std::move(points), tree_options);

  const std::string& out = flags.String("out");
  const int version = flags.Int("format-version");
  Status status = SaveKdTree(tree, out, static_cast<uint32_t>(version));
  if (!status.ok()) {
    PrintStatus(status);
    return 1;
  }
  std::printf("indexed %zu points (%zu nodes, depth %d) -> %s (format v%d)\n",
              tree.num_points(), tree.num_nodes(), tree.Depth(), out.c_str(),
              version);
  return 0;
}

struct Session {
  std::unique_ptr<Workbench> bench;
  Method method = Method::kQuad;
  int width = 640;
  int height = 480;
};

// Reads the resolution and model flags, loads the input and builds the
// workbench. Returns false, after printing why, when the input, kernel,
// method or γ cannot be used.
bool OpenSession(const Flags& flags, Session* session) {
  session->width = flags.Int("width");
  session->height = HeightFlag(flags);
  KernelType kernel = KernelType::kGaussian;
  if (!ReadModel(flags, &session->method, &kernel)) return false;
  PointSet points;
  if (!LoadInput(flags, &points)) return false;

  Workbench::Options options;
  options.gamma_override = flags.Double("gamma");
  options.validate = ValidateOptionsFromFlags(flags);
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(std::move(points), kernel, options);
  if (!bench.ok()) {
    PrintStatus(bench.status());
    return false;
  }
  session->bench = *std::move(bench);
  return true;
}

int CmdInfo(const Flags& flags) {
  std::printf("build:        %s\n", BuildStamp().c_str());
  // --index FILE: verify and summarize a persisted index instead of
  // building one from points.
  const std::string& index_path = flags.String("index");
  if (!index_path.empty()) {
    StatusOr<std::unique_ptr<KdTree>> tree = LoadKdTree(index_path);
    if (!tree.ok()) {
      PrintStatus(tree.status());
      return 1;
    }
    std::printf("index:        %s (verified)\n", index_path.c_str());
    std::printf("points:       %zu (dim %d)\n", (*tree)->num_points(),
                (*tree)->dim());
    std::printf("kd-tree:      %zu nodes, depth %d\n", (*tree)->num_nodes(),
                (*tree)->Depth());
    return 0;
  }
  Session s;
  if (!OpenSession(flags, &s)) return 1;
  const Workbench& b = *s.bench;
  std::printf("points:       %zu (dim %d)\n", b.num_points(), b.tree().dim());
  std::printf("bounds:       [%g, %g] x [%g, %g]\n", b.data_bounds().lo(0),
              b.data_bounds().hi(0), b.data_bounds().lo(1),
              b.data_bounds().hi(1));
  std::printf("kernel:       %s (gamma=%g, weight=%g)\n",
              KernelTypeName(b.kernel()), b.params().gamma,
              b.params().weight);
  std::printf("kd-tree:      %zu nodes, depth %d\n", b.tree().num_nodes(),
              b.tree().Depth());
  return 0;
}

// Budgeted render path: QUAD under --budget-ms with the degradation ladder
// (or fail-fast with exit code 3 under --on-deadline=fail). A render that
// did not succeed writes no frame and prints nothing to stdout: only the
// error, on stderr, and the --metrics-out artifact.
int CmdRenderBudgeted(const Flags& flags, Session* s, double eps) {
  const double budget_ms = flags.Double("budget-ms");
  KdeEvaluator evaluator = s->bench->MakeEvaluator(s->method);
  PixelGrid grid(s->width, s->height, s->bench->data_bounds());
  ResilientRenderOptions options;
  options.eps = eps;
  options.budget_seconds = budget_ms / 1000.0;
  options.degrade = flags.String("on-deadline") == "degrade";
  options.parallel = RenderOptionsFromFlags(flags);
  std::unique_ptr<ThreadPool> pool = MakeTilePool(options.parallel.num_threads);
  options.tile_pool = pool.get();
  ResilientRenderer renderer(&evaluator);
  Timer timer;
  RenderOutcome outcome = renderer.Render(grid, options);
  const double seconds = timer.ElapsedSeconds();
  if (!outcome.ok()) {
    (void)MaybeWriteMetricsOut(flags);
    PrintStatus(outcome.status);
    return outcome.status.code() == StatusCode::kDeadlineExceeded ? 3 : 1;
  }

  const std::string& out = flags.String("out");
  if (!RenderHeatMap(outcome.frame).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  if (flags.Bool("json")) {
    const BatchStats& stats = outcome.stats;
    JsonWriter w;
    w.BeginObject()
        .Key("method").Value(MethodName(s->method))
        .Key("eps").Number(eps, 6)
        .Key("budget_ms").Number(budget_ms, 6)
        .Key("width").Value(s->width)
        .Key("height").Value(s->height)
        .Key("tier").Value(QualityTierName(outcome.tier))
        .Key("deadline_expired").Value(outcome.deadline_expired);
    if (outcome.certified_eps >= 0.0) {
      w.Key("certified_eps").Number(outcome.certified_eps, 6);
    } else {
      w.Key("certified_eps").Null();
    }
    w.Key("seconds").Number(seconds, 6);
    w.Key("work").BeginObject()
        .Key("queries").Value(stats.queries)
        .Key("iterations").Value(stats.iterations)
        .Key("points_scanned").Value(stats.points_scanned)
        .Key("nodes_visited").Value(stats.nodes_visited)
        .EndObject();
    w.Key("out").Value(out)
        .Key("build").Value(BuildStamp())
        .EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf(
        "εKDV (%s, eps=%g, budget=%gms): %dx%d tier=%s%s in %.3fs -> %s\n",
        MethodName(s->method), eps, budget_ms, s->width, s->height,
        QualityTierName(outcome.tier),
        outcome.deadline_expired ? " (deadline expired)" : "", seconds,
        out.c_str());
  }
  return MaybeWriteMetricsOut(flags);
}

int CmdRender(const Flags& flags) {
  Session s;
  if (!OpenSession(flags, &s)) return 1;
  double eps = 0.0;
  if (!ReadEps(flags, &eps)) return 1;
  if (flags.Has("budget-ms")) return CmdRenderBudgeted(flags, &s, eps);

  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());
  const RenderOptions ropts = RenderOptionsFromFlags(flags);
  std::unique_ptr<ThreadPool> pool = MakeTilePool(ropts.num_threads);
  BatchStats stats;
  DensityFrame frame = RenderEpsFrameParallel(
      evaluator, grid, eps, ropts, pool.get(), QueryControl(), &stats);
  if (!stats.status.ok()) {
    PrintStatus(stats.status);
    return 1;
  }
  const std::string& out = flags.String("out");
  if (!RenderHeatMap(frame).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  if (flags.Bool("json")) {
    const double px_per_sec =
        stats.seconds > 0.0
            ? static_cast<double>(grid.num_pixels()) / stats.seconds
            : 0.0;
    JsonWriter w;
    w.BeginObject()
        .Key("method").Value(MethodName(s.method))
        .Key("eps").Number(eps, 6)
        .Key("width").Value(s.width)
        .Key("height").Value(s.height)
        .Key("threads").Value(ResolveRenderThreads(ropts.num_threads))
        .Key("tile_shared").Value(ropts.tile_shared)
        .Key("simd").Value(SimdLevelName(ActiveSimdLevel()))
        .Key("seconds").Number(stats.seconds, 6)
        .Key("pixels_per_sec").Number(px_per_sec, 8);
    w.Key("work").BeginObject()
        .Key("queries").Value(stats.queries)
        .Key("iterations").Value(stats.iterations)
        .Key("points_scanned").Value(stats.points_scanned)
        .Key("nodes_visited").Value(stats.nodes_visited)
        .EndObject();
    w.Key("tile_pass").BeginObject()
        .Key("nodes_visited").Value(stats.tile_nodes_visited)
        .Key("accepted").Value(stats.tile_accepted)
        .Key("pruned").Value(stats.tile_pruned)
        .Key("tiles_decided").Value(stats.tiles_decided)
        .EndObject();
    w.Key("out").Value(out)
        .Key("build").Value(BuildStamp())
        .EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf("εKDV (%s, eps=%g, threads=%d%s): %dx%d in %.3fs -> %s\n",
                MethodName(s.method), eps,
                ResolveRenderThreads(ropts.num_threads),
                ropts.tile_shared ? ", tile-shared" : "", s.width, s.height,
                stats.seconds, out.c_str());
  }
  return MaybeWriteMetricsOut(flags);
}

int CmdHotspot(const Flags& flags) {
  Session s;
  if (!OpenSession(flags, &s)) return 1;
  KdeEvaluator evaluator = s.bench->MakeEvaluator(
      s.method == Method::kQuad ? Method::kQuad : s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());

  double tau;
  if (flags.Has("tau")) {
    tau = flags.Double("tau");
    Status tau_status = ValidateTau(tau);
    if (!tau_status.ok()) {
      PrintStatus(tau_status);
      return 1;
    }
  } else {
    MeanStd stats = EstimateDensityStats(evaluator, grid, /*stride=*/8);
    tau = stats.mean + flags.Double("tau-sigma") * stats.stddev;
    std::printf("tau = %g (mu=%g, sigma=%g)\n", tau, stats.mean,
                stats.stddev);
  }
  const RenderOptions ropts = RenderOptionsFromFlags(flags);
  std::unique_ptr<ThreadPool> pool = MakeTilePool(ropts.num_threads);
  BatchStats stats;
  BinaryFrame mask = RenderTauFrameParallel(evaluator, grid, tau, ropts,
                                            pool.get(), QueryControl(), &stats);
  if (!stats.status.ok()) {
    PrintStatus(stats.status);
    return 1;
  }
  const std::string& out = flags.String("out");
  if (!RenderThresholdMap(mask).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  size_t hot = 0;
  for (uint8_t v : mask.values) hot += v;
  std::printf("τKDV (%s): %.1f%% hot pixels in %.3fs -> %s\n",
              MethodName(s.method),
              100.0 * static_cast<double>(hot) /
                  static_cast<double>(mask.values.size()),
              stats.seconds, out.c_str());
  return 0;
}

int CmdProgressive(const Flags& flags) {
  Session s;
  if (!OpenSession(flags, &s)) return 1;
  double eps = 0.0;
  if (!ReadEps(flags, &eps)) return 1;
  const double budget = flags.Double("budget");
  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());
  ProgressiveResult r = RenderProgressive(evaluator, grid, eps, budget);
  if (!r.status.ok()) {
    PrintStatus(r.status);
    return 1;
  }
  const std::string& out = flags.String("out");
  if (!RenderHeatMap(r.frame).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf(
      "progressive εKDV (%s): %llu/%zu pixels in %.3fs%s -> %s\n",
      MethodName(s.method),
      static_cast<unsigned long long>(r.pixels_evaluated), grid.num_pixels(),
      r.stats.seconds, r.completed ? " (completed)" : "", out.c_str());
  return 0;
}

// Reads --in as rows of x, y and one value column (--`col_flag`, default: the
// last column; any further columns are ignored) into the 2-d points, their
// values and the points' bounding box. Returns false after printing why.
bool LoadValueCsv(const Flags& flags, const char* cmd, const char* col_flag,
                  PointSet* points, std::vector<double>* values, Rect* domain) {
  const std::string& in = flags.String("in");
  if (in.empty()) {
    std::fprintf(stderr, "kdvtool %s: --in FILE.csv required\n", cmd);
    return false;
  }
  PointSet rows;
  Status load_status = LoadPointsCsv(in, {}, &rows);
  if (!load_status.ok()) {
    PrintStatus(load_status);
    return false;
  }
  const int cols = rows[0].dim();
  const int col = flags.Has(col_flag) ? flags.Int(col_flag) : cols - 1;
  if (cols < 3 || col >= cols) {
    std::fprintf(stderr, "kdvtool %s: need x,y plus a --%s column\n", cmd,
                 col_flag);
    return false;
  }
  for (const Point& row : rows) {
    Point p(2);
    int c = 0;
    for (int j = 0; j < cols && c < 2; ++j) {
      if (j != col) p[c++] = row[j];
    }
    points->push_back(p);
    values->push_back(row[col]);
    domain->Expand(p);
  }
  return true;
}

// Renders a kernel-density-classification map: each pixel colored by the
// class with the highest class-conditional density. Input CSV must carry a
// label column (--label-col, default: last column); the remaining first two
// numeric columns are the coordinates.
int CmdClassify(const Flags& flags) {
  const int width = flags.Int("width");
  const int height = HeightFlag(flags);
  KdeClassifier::Options options;
  if (!ReadModel(flags, &options.method, &options.kernel)) return 1;
  PointSet points;
  std::vector<double> labels;
  Rect domain(2);
  if (!LoadValueCsv(flags, "classify", "label-col", &points, &labels,
                    &domain)) {
    return 1;
  }
  std::vector<PointSet> classes;
  for (size_t i = 0; i < points.size(); ++i) {
    // Checked as a double: a fractional, negative or huge label must not
    // reach the cast.
    if (!(labels[i] >= 0.0 && labels[i] <= 63.0) ||
        labels[i] != std::floor(labels[i])) {
      std::fprintf(stderr,
                   "kdvtool classify: labels must be integers in [0, 63]\n");
      return 1;
    }
    const size_t label = static_cast<size_t>(labels[i]);
    if (label >= classes.size()) classes.resize(label + 1);
    classes[label].push_back(points[i]);
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].empty()) {
      std::fprintf(stderr, "kdvtool classify: class %zu has no points\n", c);
      return 1;
    }
  }
  const int k = static_cast<int>(classes.size());
  KdeClassifier classifier(std::move(classes), options);

  PixelGrid grid(width, height, domain);
  Image img(width, height);
  Timer timer;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      int label = classifier.Classify(grid.PixelCenter(x, y)).label;
      img.at(x, y) = HeatColor(k > 1 ? static_cast<double>(label) / (k - 1)
                                     : 0.5);
    }
  }
  const std::string& out = flags.String("out");
  if (!img.WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("classification map (%d classes, %s): %dx%d in %.3fs -> %s\n",
              k, MethodName(options.method), width, height,
              timer.ElapsedSeconds(), out.c_str());
  return 0;
}

// Renders a Nadaraya–Watson regression field from a CSV with a non-negative
// target column (--target-col, default: last column).
int CmdRegress(const Flags& flags) {
  const int width = flags.Int("width");
  const int height = HeightFlag(flags);
  double eps = 0.0;
  if (!ReadEps(flags, &eps)) return 1;
  KernelRegressor::Options options;
  if (!ReadModel(flags, &options.method, &options.kernel)) return 1;
  PointSet xs;
  std::vector<double> ys;
  Rect domain(2);
  if (!LoadValueCsv(flags, "regress", "target-col", &xs, &ys, &domain)) {
    return 1;
  }
  for (double y : ys) {
    if (y < 0.0) {
      std::fprintf(stderr, "kdvtool regress: targets must be >= 0\n");
      return 1;
    }
  }
  KernelRegressor regressor(std::move(xs), std::move(ys), options);

  PixelGrid grid(width, height, domain);
  DensityFrame field(width, height);
  Timer timer;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      field.at(x, y) = regressor.Estimate(grid.PixelCenter(x, y),
                                          eps).estimate;
    }
  }
  const std::string& out = flags.String("out");
  if (!RenderHeatMap(field).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("regression field (%s, eps=%g): %dx%d in %.3fs -> %s\n",
              MethodName(options.method), eps, width, height,
              timer.ElapsedSeconds(), out.c_str());
  return 0;
}

// The state-directory flags of recover and checkpoint. Returns false after
// printing a usage error when --state is missing.
bool ReadRecoveryOptions(const Flags& flags, const char* cmd,
                         RecoveryOptions* options) {
  options->state_dir = flags.String("state");
  if (options->state_dir.empty()) {
    std::fprintf(stderr, "kdvtool %s: --state DIR required\n", cmd);
    return false;
  }
  options->csv_fallback = flags.String("csv");
  options->leaf_size = static_cast<size_t>(flags.Int("leaf-size"));
  return true;
}

// Recovers (or with --bootstrap, initializes) a crash-consistent state
// directory and prints the full recovery report. Quarantined files are
// listed on stderr so operators see them even when piping stdout.
int CmdRecover(const Flags& flags) {
  RecoveryOptions options;
  if (!ReadRecoveryOptions(flags, "recover", &options)) return 2;

  if (flags.Bool("bootstrap")) {
    PointSet points;
    if (!LoadInput(flags, &points)) return 1;
    StatusOr<RecoveredState> state =
        RecoveryManager::Bootstrap(options, std::move(points));
    if (!state.ok()) {
      PrintStatus(state.status());
      return 1;
    }
    std::printf("bootstrapped %s: gen %llu, %zu points, journal floor %llu\n",
                options.state_dir.c_str(),
                static_cast<unsigned long long>(state->generation),
                state->live_points.size(),
                static_cast<unsigned long long>(state->journal->floor()));
    return 0;
  }

  RecoveryReport report;
  StatusOr<RecoveredState> state = RecoveryManager::Recover(options, &report);
  for (const std::string& path : report.quarantined) {
    std::fprintf(stderr, "kdvtool recover: quarantined %s\n", path.c_str());
  }
  if (!state.ok()) {
    PrintStatus(state.status());
    return 1;
  }
  std::printf("%s\n", report.Summary().c_str());
  std::printf("recovered %s: gen %llu, %zu live points, journal segments "
              "[%llu, %llu]\n",
              options.state_dir.c_str(),
              static_cast<unsigned long long>(state->generation),
              state->live_points.size(),
              static_cast<unsigned long long>(state->journal->floor()),
              static_cast<unsigned long long>(state->journal->tail_sequence()));
  return 0;
}

// Recovers the state directory, then folds the journal into a fresh index
// generation committed by an atomic manifest flip.
int CmdCheckpoint(const Flags& flags) {
  RecoveryOptions options;
  if (!ReadRecoveryOptions(flags, "checkpoint", &options)) return 2;

  RecoveryReport report;
  StatusOr<RecoveredState> state = RecoveryManager::Recover(options, &report);
  if (!state.ok()) {
    PrintStatus(state.status());
    return 1;
  }
  const uint64_t old_gen = state->generation;
  Status status = RecoveryManager::RunCheckpoint(&*state);
  if (!status.ok()) {
    PrintStatus(status);
    return 1;
  }
  std::printf("checkpoint %s: gen %llu -> %llu, %zu points folded, journal "
              "floor %llu\n",
              options.state_dir.c_str(),
              static_cast<unsigned long long>(old_gen),
              static_cast<unsigned long long>(state->generation),
              state->live_points.size(),
              static_cast<unsigned long long>(state->journal->floor()));
  return 0;
}

// Percentile over a sorted sample (nearest-rank); 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

// Closed-loop load generator against RenderService: --clients worker threads
// each submit a request, wait for its outcome, and repeat until --requests
// requests have been attempted. Request i asks for viewport i of a
// ViewportStream seeded by --seed: about half revisit one of a few
// recurring viewports (frame-cache hits once rendered), the rest are fresh.
// Prints throughput, latency percentiles, and shed/degraded/retried counts,
// then verifies the serving invariants (only kResourceExhausted rejections,
// only finite pixels) and exits non-zero if any were violated.
int CmdServeSim(const Flags& flags) {
  Session s;
  if (!OpenSession(flags, &s)) return 1;

  double eps = 0.0;
  if (!ReadEps(flags, &eps)) return 1;
  const int threads = ResolveRenderThreads(flags.Int("threads"));
  const int clients = flags.Has("clients") ? flags.Int("clients") : threads * 4;
  const int requests = flags.Int("requests");
  const int queue = flags.Has("queue") ? flags.Int("queue") : threads * 2;
  const double budget_ms = flags.Double("budget-ms");
  const int swap_after = flags.Has("swap-after") ? flags.Int("swap-after") : -1;
  // Base seed for the request viewports and the client swarm's
  // shed-backoff jitter (client c derives seed + c). Stamped into the JSON
  // report alongside the build id so a captured run names everything needed
  // to reproduce it.
  const uint64_t swarm_seed = flags.Uint64("seed");
  // Runtime self-defense (all opt-in).
  const bool use_governor = flags.Bool("governor");
  const bool use_watchdog = flags.Bool("watchdog");
  const bool use_scrub = flags.Bool("scrub");
  const std::string& scrub_index = flags.String("scrub-index");

  const std::string& fp_spec = flags.String("failpoints");
  if (!fp_spec.empty()) {
    Status fp = failpoint::ConfigureFromSpec(fp_spec);
    if (!fp.ok()) {
      PrintStatus(fp);
      return 2;
    }
    if (!failpoint::enabled()) {
      std::fprintf(stderr,
                   "kdvtool serve-sim: warning: --failpoints armed but this "
                   "binary was built without -DKDV_FAILPOINTS=ON\n");
    }
  }

  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  // The hot-swap target must exist before any serving thread starts:
  // Workbench::MakeEvaluator mutates its bound-function caches and is not
  // thread-safe. The evaluators themselves are safe to share.
  KdeEvaluator next_evaluator = s.bench->MakeEvaluator(s.method);
  const ViewportStream viewports(s.width, s.height, s.bench->data_bounds(),
                                 swarm_seed);

  RenderService::Options options;
  options.num_threads = threads;
  options.max_queue = static_cast<size_t>(queue);
  options.max_attempts = flags.Int("max-attempts");
  options.intra_frame_threads = flags.Int("frame-threads");
  options.tile_rows = flags.Int("tile-rows");
  options.tile_shared = flags.String("tile-shared") == "on";
  if (use_governor) {
    options.governor.enabled = true;
    options.governor.queue_wait_saturation_seconds =
        flags.Double("queue-wait-sat-ms") / 1e3;
    options.governor.memory_budget_bytes = static_cast<uint64_t>(
        flags.Double("mem-budget-mb") * 1024.0 * 1024.0);
  }
  if (use_watchdog) {
    options.watchdog.enabled = true;
    options.watchdog.deadline_multiple = flags.Double("watchdog-multiple");
    options.watchdog.no_progress_seconds = flags.Double("no-progress-ms") / 1e3;
  }

  // Start cold so the readiness transition is observable, then publish the
  // first epoch the way a recovery-managed deployment would.
  RenderService service(options);
  const std::string health_at_start = ServiceHealthName(service.Health());
  service.SwapEvaluator(&evaluator);
  const std::string health_serving = ServiceHealthName(service.Health());

  // Online integrity scrubber: re-verifies the serving state while the load
  // runs. On a confirmed mismatch the corruption handler quarantines the
  // on-disk index (if one is being swept), hot-swaps the known-good spare
  // evaluator as a new epoch, and returns the service to kServing — all
  // without dropping in-flight requests (they finish on their own epoch).
  const size_t in_flight_cap = options.max_in_flight > 0
                                   ? options.max_in_flight
                                   : options.max_queue +
                                         static_cast<size_t>(threads);
  std::unique_ptr<IntegrityScrubber> scrubber;
  if (use_scrub) {
    IntegrityScrubber::Options sopts;
    sopts.enabled = true;
    sopts.interval_seconds = flags.Double("scrub-interval-ms") / 1e3;
    sopts.pixel_samples_per_tick = flags.Int("scrub-samples");
    sopts.index_path = scrub_index;
    sopts.defer = [&service, in_flight_cap] {
      // Yield to the serving path while it is saturated; scrub in the gaps.
      return service.in_flight() >= in_flight_cap;
    };
    scrubber = std::make_unique<IntegrityScrubber>(
        sopts, [&service] { return service.CurrentEvaluator(); },
        [&service, &next_evaluator, &scrub_index](const std::string& reason) {
          std::fprintf(stderr, "kdvtool serve-sim: scrubber: %s\n",
                       reason.c_str());
          service.SetHealth(ServiceHealth::kRecovering);
          if (!scrub_index.empty() && !LoadKdTree(scrub_index).ok()) {
            const std::string jail = scrub_index + ".quarantine";
            if (std::rename(scrub_index.c_str(), jail.c_str()) == 0) {
              std::fprintf(stderr, "kdvtool serve-sim: quarantined %s\n",
                           jail.c_str());
            }
          }
          service.SwapEvaluator(&next_evaluator);
          service.SetHealth(ServiceHealth::kServing);
          return OkStatus();
        });
    scrubber->Start();
  }

  ServeRequestOptions request;
  request.eps = eps;
  request.budget_seconds = budget_ms >= 0.0 ? budget_ms / 1000.0 : -1.0;
  request.degrade = flags.String("on-deadline") == "degrade";

  std::atomic<long> next{0};
  std::atomic<uint64_t> bad_rejections{0};  // shed with a code other than
                                            // kResourceExhausted
  std::atomic<uint64_t> nonfinite_pixels{0};
  std::atomic<uint64_t> dropped{0};  // shed even after client-side retries
  std::mutex merge_mu;
  std::vector<double> latencies_ms;  // served requests, shed-retry included

  // A shed request is retried by its client with jittered backoff (what a
  // well-behaved production client does), so measured latency includes the
  // time spent being pushed back. A request shed kMaxClientTries times in a
  // row is dropped.
  constexpr int kMaxClientTries = 1000;

  Timer wall;
  std::vector<std::thread> swarm;
  swarm.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    swarm.emplace_back([&, c] {
      std::vector<double> local;
      Backoff shed_backoff({/*initial_ms=*/0.2, /*multiplier=*/2.0,
                            /*max_ms=*/5.0, /*jitter=*/0.5},
                           /*seed=*/swarm_seed + static_cast<uint64_t>(c));
      for (;;) {
        const long i = next.fetch_add(1);
        if (i >= requests) break;
        const PixelGrid grid = viewports.Request(static_cast<uint64_t>(i));
        Timer lat;
        bool served = false;
        shed_backoff.Reset();
        for (int tries = 0; tries < kMaxClientTries; ++tries) {
          StatusOr<std::future<ServeOutcome>> ticket =
              service.Submit(grid, request);
          if (ticket.ok()) {
            ServeOutcome outcome = ticket->get();
            local.push_back(lat.ElapsedMillis());
            for (double v : outcome.render.frame.values) {
              if (!std::isfinite(v)) nonfinite_pixels.fetch_add(1);
            }
            served = true;
            break;
          }
          if (ticket.status().code() != StatusCode::kResourceExhausted) {
            bad_rejections.fetch_add(1);
            break;
          }
          double ms = shed_backoff.NextDelayMs();
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
        }
        if (!served) dropped.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  // Hot-swap monitor: publishes the next epoch once --swap-after requests
  // have completed (or at end of load if the run was shorter), while the
  // client swarm keeps submitting. In-flight renders finish on the epoch
  // they started with; the invariant checks below would catch any drop.
  std::atomic<bool> clients_done{false};
  std::thread swapper;
  if (swap_after >= 0) {
    swapper = std::thread([&] {
      while (!clients_done.load(std::memory_order_acquire)) {
        if (service.stats().completed >=
            static_cast<uint64_t>(swap_after)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      service.SwapEvaluator(&next_evaluator);
    });
  }
  for (std::thread& t : swarm) t.join();
  clients_done.store(true, std::memory_order_release);
  if (swapper.joinable()) swapper.join();
  if (scrubber != nullptr) scrubber->Stop();
  service.Stop();
  const std::string health_final = ServiceHealthName(service.Health());
  const double wall_seconds = wall.ElapsedSeconds();
  if (!fp_spec.empty()) failpoint::Reset();

  ServiceStats stats = service.stats();
  OverloadGovernor::Stats gov = service.governor_stats();
  std::vector<OverloadGovernor::Transition> gov_transitions =
      service.governor_transitions();
  std::vector<StallReport> stalls = service.watchdog_stall_reports();
  IntegrityScrubber::Stats scrub{};
  if (scrubber != nullptr) scrub = scrubber->stats();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double rps =
      wall_seconds > 0.0
          ? static_cast<double>(stats.completed) / wall_seconds
          : 0.0;
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p95 = Percentile(latencies_ms, 0.95);
  const double p99 = Percentile(latencies_ms, 0.99);

  if (flags.Bool("json")) {
    JsonWriter w;
    w.BeginObject()
        .Key("seed").Value(swarm_seed)
        .Key("build").Value(BuildStamp())
        .Key("threads").Value(threads)
        .Key("clients").Value(clients)
        .Key("requests").Value(requests)
        .Key("budget_ms").Number(budget_ms, 6)
        .Key("wall_seconds").Number(wall_seconds, 6)
        .Key("throughput_rps").Number(rps, 6);
    w.Key("latency_ms").BeginObject()
        .Key("p50").Number(p50, 6)
        .Key("p95").Number(p95, 6)
        .Key("p99").Number(p99, 6)
        .EndObject();
    w.Key("counts").BeginObject()
        .Key("submitted").Value(stats.submitted)
        .Key("admitted").Value(stats.admitted)
        .Key("shed").Value(stats.shed)
        .Key("served_ok").Value(stats.served_ok)
        .Key("cancelled").Value(stats.cancelled)
        .Key("deadline_expired").Value(stats.deadline_expired)
        .Key("degraded").Value(stats.degraded)
        .Key("retries").Value(stats.retries)
        .Key("faults").Value(stats.faults)
        .Key("breaker_trips").Value(stats.breaker_trips)
        .Key("unavailable").Value(stats.unavailable)
        .Key("dropped").Value(static_cast<uint64_t>(dropped.load()))
        .EndObject();
    w.Key("tiers").BeginObject()
        .Key("certified").Value(stats.tier_certified)
        .Key("progressive").Value(stats.tier_progressive)
        .Key("coarse").Value(stats.tier_coarse)
        .Key("flat").Value(stats.tier_flat)
        .EndObject();
    // "current" is null until the first publication: epoch ids start at 1,
    // but consumers must not key liveness off the raw number.
    w.Key("epochs").BeginObject().Key("swaps").Value(stats.swaps);
    if (stats.epoch_published) {
      w.Key("current").Value(stats.epoch);
    } else {
      w.Key("current").Null();
    }
    w.EndObject();
    w.Key("tile_shared").BeginObject()
        .Key("enabled").Value(options.tile_shared)
        .EndObject();
    w.Key("frame_cache").BeginObject()
        .Key("hits").Value(stats.frame_cache_hits)
        .Key("misses").Value(stats.frame_cache_misses)
        .EndObject();
    w.Key("simd").Value(SimdLevelName(ActiveSimdLevel()));
    w.Key("health").BeginObject()
        .Key("at_start").Value(health_at_start)
        .Key("serving").Value(health_serving)
        .Key("final").Value(health_final)
        .EndObject();
    w.Key("invariants").BeginObject()
        .Key("bad_rejections").Value(static_cast<uint64_t>(bad_rejections.load()))
        .Key("nonfinite_pixels").Value(static_cast<uint64_t>(nonfinite_pixels.load()))
        .EndObject();
    w.Key("governor").BeginObject()
        .Key("enabled").Value(use_governor)
        .Key("activations").Value(gov.activations)
        .Key("brownout_applied").Value(stats.brownout_applied)
        .Key("brownout_shed").Value(stats.brownout_shed)
        .Key("level").Value(OverloadGovernor::LevelName(gov.level))
        .Key("max_level").Value(OverloadGovernor::LevelName(gov.max_level))
        .Key("pressure").Number(gov.pressure, 6)
        .Key("transitions").BeginArray();
    for (const OverloadGovernor::Transition& t : gov_transitions) {
      w.BeginObject()
          .Key("at_s").Number(t.at_seconds, 6)
          .Key("from").Value(OverloadGovernor::LevelName(t.from))
          .Key("to").Value(OverloadGovernor::LevelName(t.to))
          .Key("pressure").Number(t.pressure, 6)
          .EndObject();
    }
    w.EndArray().EndObject();
    w.Key("watchdog").BeginObject()
        .Key("enabled").Value(use_watchdog)
        .Key("kills").Value(stats.watchdog_kills)
        .Key("stalls").BeginArray();
    for (const StallReport& stall : stalls) {
      w.BeginObject()
          .Key("request_id").Value(stall.request_id)
          .Key("elapsed_s").Number(stall.elapsed_seconds, 6)
          .Key("budget_s").Number(stall.budget_seconds, 6)
          .Key("no_progress").Value(stall.no_progress)
          .EndObject();
    }
    w.EndArray().EndObject();
    w.Key("scrubber").BeginObject()
        .Key("enabled").Value(use_scrub)
        .Key("ticks").Value(scrub.ticks)
        .Key("deferred").Value(scrub.deferred)
        .Key("crc_slices").Value(scrub.crc_slices)
        .Key("crc_passes").Value(scrub.crc_passes)
        .Key("pixel_checks").Value(scrub.pixel_checks)
        .Key("mismatches").Value(scrub.mismatches)
        .Key("recoveries").Value(scrub.recoveries)
        .Key("rebaselines").Value(scrub.rebaselines)
        .EndObject();
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf("serve-sim: %d workers, %d clients, %d requests, %dx%d "
                "frames, budget %gms\n",
                threads, clients, requests, s.width, s.height, budget_ms);
    std::printf("  throughput: %.1f req/s (%llu completed in %.3fs)\n", rps,
                static_cast<unsigned long long>(stats.completed),
                wall_seconds);
    std::printf("  latency:    p50 %.2fms  p95 %.2fms  p99 %.2fms\n", p50,
                p95, p99);
    std::printf("  admitted %llu, shed %llu, served_ok %llu, degraded %llu, "
                "deadline_expired %llu\n",
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.served_ok),
                static_cast<unsigned long long>(stats.degraded),
                static_cast<unsigned long long>(stats.deadline_expired));
    std::printf("  retries %llu, faults %llu, breaker_trips %llu, "
                "unavailable %llu, dropped %llu\n",
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.faults),
                static_cast<unsigned long long>(stats.breaker_trips),
                static_cast<unsigned long long>(stats.unavailable),
                static_cast<unsigned long long>(dropped.load()));
    std::printf("  tiers: certified %llu, progressive %llu, coarse %llu, "
                "flat %llu\n",
                static_cast<unsigned long long>(stats.tier_certified),
                static_cast<unsigned long long>(stats.tier_progressive),
                static_cast<unsigned long long>(stats.tier_coarse),
                static_cast<unsigned long long>(stats.tier_flat));
    std::printf("  health: %s -> %s (final %s), epoch %llu after %llu "
                "swap(s)\n",
                health_at_start.c_str(), health_serving.c_str(),
                health_final.c_str(),
                static_cast<unsigned long long>(stats.epoch),
                static_cast<unsigned long long>(stats.swaps));
    std::printf("  tile-shared: %s, frame cache: %llu hit(s), %llu "
                "miss(es)\n",
                options.tile_shared ? "on" : "off",
                static_cast<unsigned long long>(stats.frame_cache_hits),
                static_cast<unsigned long long>(stats.frame_cache_misses));
    std::printf("  simd: %s\n", SimdLevelName(ActiveSimdLevel()));
    if (use_governor) {
      std::printf("  governor: level %s (max %s), pressure %.3f, "
                  "browned_out %llu, shed %llu, %zu transition(s)\n",
                  OverloadGovernor::LevelName(gov.level),
                  OverloadGovernor::LevelName(gov.max_level), gov.pressure,
                  static_cast<unsigned long long>(stats.brownout_applied),
                  static_cast<unsigned long long>(stats.brownout_shed),
                  gov_transitions.size());
    }
    if (use_watchdog) {
      std::printf("  watchdog: %llu kill(s), %zu stall report(s)\n",
                  static_cast<unsigned long long>(stats.watchdog_kills),
                  stalls.size());
    }
    if (use_scrub) {
      std::printf("  scrubber: %llu tick(s) (%llu deferred), %llu CRC "
                  "slice(s)/%llu pass(es), %llu pixel check(s), %llu "
                  "mismatch(es), %llu recover(ies)\n",
                  static_cast<unsigned long long>(scrub.ticks),
                  static_cast<unsigned long long>(scrub.deferred),
                  static_cast<unsigned long long>(scrub.crc_slices),
                  static_cast<unsigned long long>(scrub.crc_passes),
                  static_cast<unsigned long long>(scrub.pixel_checks),
                  static_cast<unsigned long long>(scrub.mismatches),
                  static_cast<unsigned long long>(scrub.recoveries));
    }
  }

  // Written before the alarm checks below: the metrics artifact should
  // exist even when the run exits nonzero (that is when it is most useful).
  const int metrics_rc = MaybeWriteMetricsOut(flags);

  if (bad_rejections.load() > 0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: %llu rejections carried a code other "
                 "than RESOURCE_EXHAUSTED\n",
                 static_cast<unsigned long long>(bad_rejections.load()));
    return 1;
  }
  if (nonfinite_pixels.load() > 0) {
    std::fprintf(stderr, "kdvtool serve-sim: %llu non-finite pixels served\n",
                 static_cast<unsigned long long>(nonfinite_pixels.load()));
    return 1;
  }
  if (scrub.mismatches > 0) {
    // The run is still reported in full above; the exit code is the alarm a
    // deployment script keys off (the scrubber found live-state corruption,
    // even if it then recovered).
    std::fprintf(stderr,
                 "kdvtool serve-sim: scrubber found %llu integrity "
                 "mismatch(es) (%llu recovered)\n",
                 static_cast<unsigned long long>(scrub.mismatches),
                 static_cast<unsigned long long>(scrub.recoveries));
    return 1;
  }
  return metrics_rc;
}

// ---- metrics: exercise the stack, dump the registry ------------------------

// Runs a small RenderService workload to populate the metric families, then
// prints the process-wide registry: Prometheus text exposition by default,
// the escaped-JSON snapshot with --json. --metrics-out FILE additionally
// writes the JSON form to FILE. This is the quickest way to inspect what
// the observability layer exports without standing up a full load run.
int CmdMetrics(const Flags& flags) {
  Session s;
  if (!OpenSession(flags, &s)) return 1;

  const int requests = flags.Int("requests");
  double eps = 0.0;
  if (!ReadEps(flags, &eps)) return 1;

  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());

  RenderService::Options options;
  options.num_threads = 2;
  options.max_queue = 8;
  {
    RenderService service(options);
    service.SwapEvaluator(&evaluator);
    ServeRequestOptions request;
    request.eps = eps;
    for (int i = 0; i < requests; ++i) {
      StatusOr<std::future<ServeOutcome>> ticket =
          service.Submit(grid, request);
      if (!ticket.ok()) {
        PrintStatus(ticket.status());
        return 1;
      }
      const ServeOutcome outcome = ticket->get();
      if (!outcome.status.ok()) {
        PrintStatus(outcome.status);
        return 1;
      }
    }
    // Scope exit stops the service before the snapshot, so no worker is
    // mid-increment while we read.
  }

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  if (flags.Bool("json")) {
    std::printf("%s\n", obs::ExportJson(snapshot).c_str());
  } else {
    std::fputs(obs::ExportPrometheus(snapshot).c_str(), stdout);
  }
  return MaybeWriteMetricsOut(flags);
}

// ---- sim: deterministic whole-stack simulation -----------------------------

// Formats a CRC32 the way the human-readable output does ("%08x").
std::string HexCrc(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

// Machine-readable one-object report for a single simulated run. The
// failure string is arbitrary text (invariant messages quote paths and
// expressions), so it goes through the escaping writer rather than the old
// replace-quotes-with-apostrophes hack that mangled the message.
void PrintSimJson(const SimReport& report) {
  JsonWriter w;
  w.BeginObject()
      .Key("seed").Value(report.seed)
      .Key("failed").Value(report.failed)
      .Key("failure").Value(report.failure)
      .Key("event_hash").Value(HexCrc(report.event_hash))
      .Key("events").Value(static_cast<uint64_t>(report.events.size()))
      .Key("metrics_crc").Value(HexCrc(report.metrics_crc))
      .Key("schedule").Value(report.schedule.Spec());
  w.Key("counts").BeginObject()
      .Key("ops").Value(report.ops)
      .Key("submits").Value(report.submits)
      .Key("admitted").Value(report.admitted)
      .Key("completions").Value(report.completions)
      .Key("certified").Value(report.certified)
      .Key("degraded").Value(report.degraded)
      .Key("frame_cache_hits").Value(report.frame_cache_hits)
      .Key("frame_cache_misses").Value(report.frame_cache_misses)
      .Key("journal_appends").Value(report.journal_appends)
      .Key("checkpoints").Value(report.checkpoints)
      .Key("swaps").Value(report.swaps)
      .Key("crashes").Value(report.crashes)
      .Key("faults_armed").Value(report.faults_armed)
      .EndObject();
  w.Key("virtual_seconds").Number(report.virtual_seconds, 6)
      .Key("build").Value(BuildStamp())
      .EndObject();
  std::printf("%s\n", w.Take().c_str());
}

// Shrinks the failing run's fault schedule and prints a shell-ready repro
// line. Always exits 1: the caller invokes this only for a failed report.
int ReportSimFailure(SimOptions options, const SimReport& failing) {
  options.seed = failing.seed;
  std::fprintf(stderr, "kdvtool sim: seed %llu FAILED: %s\n",
               static_cast<unsigned long long>(failing.seed),
               failing.failure.c_str());
  std::fprintf(stderr,
               "kdvtool sim: shrinking fault schedule (%zu event(s))...\n",
               failing.schedule.events.size());
  SimReport minimal = MinimizeFailure(options, failing);
  std::fprintf(stderr, "kdvtool sim: minimal schedule has %zu event(s): %s\n",
               minimal.schedule.events.size(),
               minimal.failure.empty() ? failing.failure.c_str()
                                       : minimal.failure.c_str());
  std::fprintf(stderr, "repro: %s\n", minimal.ReproLine().c_str());
  return 1;
}

int CmdSim(const Flags& flags) {
  SimOptions options;
  const bool replay = flags.Has("replay");
  options.seed = flags.Uint64(replay ? "replay" : "seed");
  options.num_ops = flags.Int("ops");
  options.num_workers = flags.Int("workers");
  options.max_queue = static_cast<size_t>(flags.Int("queue"));
  options.dataset_n = flags.Int("n");
  options.state_root = flags.String("state-root");
  options.faults_enabled = flags.Bool("faults");
  options.plant_bug = flags.Bool("plant-bug");

  // --schedule replaces the seed-derived fault schedule (how a minimized
  // repro line re-enters the simulator).
  FaultSchedule explicit_schedule;
  if (flags.Has("schedule")) {
    StatusOr<FaultSchedule> parsed =
        FaultSchedule::Parse(flags.String("schedule"));
    if (!parsed.ok()) {
      PrintStatus(parsed.status());
      return 2;
    }
    explicit_schedule = std::move(parsed).value();
    options.schedule_override = &explicit_schedule;
  }

  const bool json = flags.Bool("json");
  const int sweep = flags.Int("seeds");
  const bool until_failure = flags.Bool("until-failure");

  if (replay) {
    // The replay contract: two runs of the same (seed, config) must produce
    // byte-identical event logs. Divergence means nondeterminism leaked in
    // somewhere, which is itself a bug — report it before any invariant
    // verdict, because a diverging sim cannot be debugged from its seed.
    SimReport first = RunSimulation(options);
    SimReport second = RunSimulation(options);
    // Two fingerprints must match: the event log and the metrics snapshot.
    // The metrics snapshot catches a different class of leak (a wall-clock
    // read that slipped past the clock seam shows up as a differing
    // duration histogram even when the event order is stable).
    const bool identical = first.event_hash == second.event_hash &&
                           first.events == second.events &&
                           first.metrics_crc == second.metrics_crc &&
                           first.metrics_text == second.metrics_text;
    if (json) {
      PrintSimJson(first);
    } else {
      std::printf("sim replay: seed %llu, hash %08x vs %08x, "
                  "metrics %08x vs %08x -> %s\n",
                  static_cast<unsigned long long>(first.seed),
                  first.event_hash, second.event_hash, first.metrics_crc,
                  second.metrics_crc, identical ? "IDENTICAL" : "DIVERGED");
      std::printf("  %s\n", first.Summary().c_str());
    }
    if (!identical) {
      if (first.event_hash == second.event_hash &&
          first.events == second.events) {
        // Same event log, different metrics: nondeterminism confined to the
        // observability layer (an unseamed clock read or a real-time-ordered
        // histogram). Still a replay failure.
        std::fprintf(stderr,
                     "kdvtool sim: replay metrics diverged (%08x vs %08x) "
                     "with identical event logs\n",
                     first.metrics_crc, second.metrics_crc);
        // Name the first differing exposition line — "which metric" is the
        // whole debugging battle for this class of leak.
        std::istringstream a(first.metrics_text), b(second.metrics_text);
        std::string la, lb;
        while (std::getline(a, la) && std::getline(b, lb)) {
          if (la != lb) {
            std::fprintf(stderr, "  run 1: %s\n  run 2: %s\n", la.c_str(),
                         lb.c_str());
            break;
          }
        }
        return 1;
      }
      const size_t n = std::min(first.events.size(), second.events.size());
      size_t diverge = n;
      for (size_t i = 0; i < n; ++i) {
        if (first.events[i] != second.events[i]) {
          diverge = i;
          break;
        }
      }
      std::fprintf(stderr,
                   "kdvtool sim: replay diverged at event %zu of %zu/%zu\n",
                   diverge, first.events.size(), second.events.size());
      if (diverge < first.events.size()) {
        std::fprintf(stderr, "  run 1: %s\n", first.events[diverge].c_str());
      }
      if (diverge < second.events.size()) {
        std::fprintf(stderr, "  run 2: %s\n", second.events[diverge].c_str());
      }
      return 1;
    }
    if (first.failed) return ReportSimFailure(options, first);
    return 0;
  }

  // Seed sweep. --seeds N walks seed..seed+N-1; --until-failure keeps
  // walking until an invariant breaks (Ctrl-C is the other exit).
  const uint64_t base = options.seed;
  const uint64_t count = until_failure ? 0 : static_cast<uint64_t>(sweep);
  uint64_t passed = 0;
  for (uint64_t i = 0; count == 0 || i < count; ++i) {
    options.seed = base + i;
    SimReport report = RunSimulation(options);
    if (report.failed) {
      if (json) {
        PrintSimJson(report);
      } else {
        std::printf("%s\n", report.Summary().c_str());
      }
      return ReportSimFailure(options, report);
    }
    ++passed;
    if (count == 1) {
      if (json) {
        PrintSimJson(report);
      } else {
        std::printf("%s\n", report.Summary().c_str());
      }
      return 0;
    }
    if (!json && passed % 25 == 0) {
      std::printf("sim sweep: %llu seed(s) passed (last %llu)\n",
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(options.seed));
    }
  }
  if (json) {
    JsonWriter w;
    w.BeginObject()
        .Key("seeds").Value(passed)
        .Key("base_seed").Value(base)
        .Key("failed").Value(false)
        .Key("build").Value(BuildStamp())
        .EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf("sim sweep: all %llu seed(s) passed (%llu..%llu)\n",
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(base + passed - 1));
  }
  return 0;
}

int CmdVersion(const Flags&) {
  std::printf("%s\n", BuildStamp().c_str());
  return 0;
}

// ---- flag declarations -----------------------------------------------------

// One command's declaration, joined from flag groups.
std::vector<FlagSpec> Join(
    std::initializer_list<std::vector<FlagSpec>> groups) {
  std::vector<FlagSpec> flags;
  for (const std::vector<FlagSpec>& group : groups) {
    flags.insert(flags.end(), group.begin(), group.end());
  }
  return flags;
}

struct Command {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

std::vector<Command> Commands() {
  const auto eps = [](double default_eps) {
    return F::Double("eps", "relative error", default_eps).CheckedByCommand();
  };
  const auto out = [](const char* default_path) {
    return F::String("out", "output file", default_path);
  };
  const FlagSpec json = F::Bool("json", "machine-readable output");
  const FlagSpec metrics_out =
      F::String("metrics-out", "write the metrics registry as JSON");
  const std::vector<FlagSpec> input = {  // LoadInput
      F::String("in", "input CSV, one point per row (else --dataset)"),
      F::Choice("dataset", Names(kDatasets), "synthetic dataset", "crime"),
      F::Double("scale", "fraction of its full size", 0.01).Above(0).AtMost(1),
      F::Bool("drop-bad", "drop NaN/Inf rows instead of failing")};
  const std::vector<FlagSpec> model = {  // ReadModel and HeightFlag
      F::Choice("kernel", Names(kKernels), "kernel", "gaussian"),
      F::Choice("method", Names(kMethods), "bound method", "quad"),
      F::Int("height", "frame height, by default 3/4 of --width").AtLeast(1)};
  const std::vector<FlagSpec> session = Join(  // OpenSession
      {input, model,
       {F::Int("width", "frame width, pixels", 640).AtLeast(1),
        F::Double("gamma", "kernel scale; < 0: Scott's rule", -1.0)
            .CheckedByCommand()}});
  const std::vector<FlagSpec> tile = {
      F::Int("tile-rows", "chunk edge, pixels", 16).AtLeast(1),
      F::Choice("tile-shared", "on|off", "off: per-pixel, the oracle", "on")};
  const std::vector<FlagSpec> frame = Join(  // RenderOptionsFromFlags
      {{F::Int("threads", "0: hardware threads", 1).AtLeast(0)}, tile});
  const std::vector<FlagSpec> recovery = {  // ReadRecoveryOptions
      F::String("state", "state directory (required)"),
      F::String("csv", "CSV to rebuild from if the index is lost"),
      F::Int("leaf-size", "kd-tree leaf size", 32).AtLeast(1)};
  const SimOptions sim;
  return {
      {"generate", "synthesize a dataset analogue and write it as CSV",
       Join({input, {out("points.csv")}}), CmdGenerate},
      {"info", "dataset summary (bounds, Scott bandwidth, index stats)",
       Join({session, {F::String("index", "verify a saved index")}}),
       CmdInfo},
      {"index", "build a kd-tree index and persist it",
       Join({input,
             {F::Int("leaf-size", "kd-tree leaf size", 32).AtLeast(1),
              F::Int("format-version", "1: legacy",
                     static_cast<int>(kKdTreeFormatVersion))
                  .AtLeast(1),
              out("index.kdv")}}),
       CmdIndex},
      {"render", "εKDV heat map -> PPM",
       Join({session, {eps(0.01)}, frame,
             {F::Double("budget-ms", "wall-clock budget").AtLeast(0),
              F::Choice("on-deadline", "degrade|fail",
                        "budget missed: lower tier, or exit 3", "degrade"),
              json, metrics_out, out("kdv.ppm")}}),
       CmdRender},
      {"hotspot", "τKDV two-color map -> PPM",
       Join({session,
             {F::Double("tau", "threshold (else --tau-sigma)")
                  .CheckedByCommand(),
              F::Double("tau-sigma", "K in tau = mu + K*sigma", 0.0)},
             frame, {out("hotspots.ppm")}}),
       CmdHotspot},
      {"progressive", "anytime εKDV under a time budget -> PPM",
       Join({session,
             {eps(0.01), F::Double("budget", "seconds", 0.5),
              out("progressive.ppm")}}),
       CmdProgressive},
      {"classify", "kernel density classification map -> PPM",
       Join({model,
             {F::Int("width", "frame width, pixels", 320).AtLeast(1),
              F::String("in", "CSV: x, y, integer label (required)"),
              F::Int("label-col", "label column (default: last)").AtLeast(0),
              out("classes.ppm")}}),
       CmdClassify},
      {"regress", "certified Nadaraya-Watson regression field -> PPM",
       Join({model,
             {F::Int("width", "frame width, pixels", 320).AtLeast(1),
              eps(0.01), F::String("in", "CSV: x, y, target >= 0 (required)"),
              F::Int("target-col", "target column (default: last)").AtLeast(0),
              out("regression.ppm")}}),
       CmdRegress},
      {"serve-sim", "closed-loop load generator against the RenderService",
       Join({session, tile,
             {eps(0.05),
              F::Int("threads", "workers (0: hardware threads)", 4).AtLeast(0),
              F::Int("frame-threads", "tile workers per frame", 1).AtLeast(0),
              F::Int("clients", "client threads (default 4x workers)")
                  .AtLeast(1),
              F::Int("requests", "requests to attempt", 100).AtLeast(1),
              F::Int("queue", "queue depth (default 2x workers)").AtLeast(1),
              F::Int("max-attempts", "attempts per request", 3).AtLeast(1),
              F::Double("budget-ms", "request budget; < 0: none", -1.0),
              F::Choice("on-deadline", "degrade|fail",
                        "budget missed: lower tier, or fail", "degrade"),
              F::Int("swap-after", "hot-swap after N requests").AtLeast(0),
              F::Uint64("seed", "viewport stream and backoff jitter seed",
                        0xC11E47),
              F::Bool("governor", "brownout under overload"),
              // Converted to a uint64_t byte count: 1e12 MiB keeps it
              // below 2^64 bytes.
              F::Double("mem-budget-mb", "memory budget", 0.0)
                  .AtLeast(0)
                  .AtMost(1e12),
              F::Double("queue-wait-sat-ms", "saturation", 500.0).Above(0),
              F::Bool("watchdog", "force-cancel wedged renders"),
              F::Double("watchdog-multiple", "N x budget", 2.0).Above(0),
              F::Double("no-progress-ms", "stall limit; 0: off", 1000.0),
              F::Bool("scrub", "integrity scrubber; exit 1 on a mismatch"),
              F::Double("scrub-interval-ms", "scrubber tick", 5.0).Above(0),
              F::Int("scrub-samples", "pixels per tick", 2).AtLeast(0),
              F::String("scrub-index", "saved index to CRC-sweep"),
              F::String("failpoints", "site=action;..."), json,
              metrics_out}}),
       CmdServeSim},
      {"metrics", "serve a few requests, then print the metrics registry",
       Join({session,
             {eps(0.05), F::Int("requests", "requests", 8).AtLeast(0), json,
              metrics_out}}),
       CmdMetrics},
      {"sim", "deterministic whole-stack simulation under seeded faults",
       {F::Uint64("seed", "first seed", sim.seed),
        F::Int("seeds", "seeds to sweep", 1).AtLeast(1),
        F::Bool("until-failure", "sweep until an invariant breaks"),
        F::Uint64("replay", "run this seed twice; exit 1 on divergence"),
        F::String("schedule", "at_op:site=action;... (replaces seed's)"),
        F::Int("ops", "virtual operations", sim.num_ops).AtLeast(1),
        F::Int("workers", "worker slots", sim.num_workers).AtLeast(1),
        F::Int("queue", "queue", static_cast<int>(sim.max_queue)).AtLeast(1),
        F::Int("n", "bootstrap points", sim.dataset_n).AtLeast(8),
        F::String("state-root", "simulated state directory"),
        F::Bool("faults", "arm the fault schedule", true),
        F::Bool("plant-bug", "canary: corrupt the ledger (must exit 1)"),
        json},
       CmdSim},
      {"recover", "recover a crash-consistent state directory",
       Join({recovery, input,
             {F::Bool("bootstrap", "initialize --state from the input")}}),
       CmdRecover},
      {"checkpoint", "fold the update journal into a new index generation",
       recovery, CmdCheckpoint},
      {"version", "print the build stamp (also: kdvtool --version)", {},
       CmdVersion},
  };
}

// Prints the usage text of one command, or of all (null), to stderr and
// returns the usage-error exit code.
int Usage(const std::vector<Command>& commands, const Command* only) {
  std::fprintf(stderr, "usage: kdvtool <command> [--flag value]...\n");
  for (const Command& c : commands) {
    if (only != nullptr && &c != only) continue;
    std::fprintf(stderr, "  %-12s %s\n%s", c.name, c.summary,
                 FlagsUsage(c.flags, "      ").c_str());
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Command> commands = Commands();
  if (argc < 2) return Usage(commands, nullptr);
  const std::string name =
      std::string(argv[1]) == "--version" ? "version" : argv[1];
  for (const Command& command : commands) {
    if (name != command.name) continue;
    kdv::Flags flags;
    std::string error;
    if (!kdv::Flags::Parse(command.flags, argc - 1, argv + 1, &flags,
                           &error)) {
      std::fprintf(stderr, "kdvtool %s: %s\n", command.name, error.c_str());
      return Usage(commands, &command);
    }
    // Fault-injection sites from KDV_FAILPOINTS (no-op unless the binary was
    // built with -DKDV_FAILPOINTS=ON; a malformed spec warns on stderr).
    kdv::failpoint::ConfigureFromEnv();
    return command.run(flags);
  }
  std::fprintf(stderr, "kdvtool: unknown command '%s'\n", name.c_str());
  return Usage(commands, nullptr);
}
