// kdvtool — command-line front end to the QUAD KDV library.
//
// Subcommands:
//   generate    synthesize a dataset analogue and write it as CSV
//   info        dataset summary (bounds, Scott bandwidth, index stats);
//               with --index FILE, verify and summarize a saved index
//   index       build a kd-tree index and persist it (checksummed v2)
//   render      εKDV heat map -> PPM
//   hotspot     τKDV two-color map -> PPM
//   progressive anytime εKDV under a time budget -> PPM
//   serve-sim   closed-loop load generator against the concurrent
//               RenderService (throughput, latency percentiles, shed/
//               degraded/retried counts; --json for machine-readable;
//               --swap-after N hot-swaps the evaluator mid-run;
//               --governor/--watchdog/--scrub arm the runtime
//               self-defense layer: brownout under overload, wedged-
//               render kills, online integrity scrubbing)
//   metrics     run a small serve workload and dump the process metrics
//               registry (Prometheus text, or --json for the escaped
//               JSON snapshot; --metrics-out FILE writes the JSON form)
//   sim         deterministic whole-stack simulation: virtual time, a
//               cooperative scheduler, and seed-derived fault schedules
//               drive the full serve+persistence stack under invariant
//               checkers; failures shrink to a one-line repro
//               (--seed, --seeds N, --until-failure, --replay S)
//   recover     recover a crash-consistent state directory (or --bootstrap
//               one from points); prints the recovery report
//   checkpoint  fold the update journal into a fresh index generation
//   version     print the build stamp (also: kdvtool --version)
//
// Every failure path exits non-zero with a printed reason; bad input (a
// malformed CSV, a truncated index, a NaN flag value) must never abort.
// Exit codes: 0 success (including a degraded budgeted render), 1 failure,
// 2 usage error, 3 budget expired under `render --on-deadline=fail`.
// README.md carries the per-subcommand exit-code table.
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
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "quadkdv.h"
#include "util/flags.h"

namespace {

using namespace kdv;

int Usage() {
  std::fprintf(
      stderr,
      "usage: kdvtool "
      "<generate|info|index|render|hotspot|progressive|classify|regress"
      "|serve-sim|metrics|sim|recover|checkpoint|version> [flags]\n"
      "  common flags: --in FILE.csv | --dataset el_nino|crime|home|hep\n"
      "                --scale S --kernel NAME --method quad|karl|akde|exact\n"
      "                --width W --height H --out FILE\n"
      "                --drop-bad (drop NaN/Inf rows instead of failing)\n"
      "  info:         --index FILE.kdv (verify + summarize a saved index)\n"
      "  index:        --out FILE.kdv [--format-version 1|2]\n"
      "  render:       --eps E [--budget-ms MS --on-deadline degrade|fail]\n"
      "                (degrade: ship best-effort frame, exit 0; fail: exit\n"
      "                3 when the budget expires before certification)\n"
      "                [--threads N (0 = hardware concurrency)\n"
      "                 --tile-rows R (chunk edge: threads claim R x R pixel\n"
      "                 chunks, then share their rows; default 16)\n"
      "                 --tile-shared on|off (default on: amortize tree\n"
      "                 traversal across chunk pixels; off is per-pixel\n"
      "                 refinement, the bitwise oracle)\n"
      "                 --json (machine-readable stats incl. pruning\n"
      "                 counters and the active SIMD level; KDV_SIMD=\n"
      "                 scalar|sse2|avx2 pins the leaf-kernel dispatch)]\n"
      "  hotspot:      --tau T | --tau-sigma K (tau = mu + K*sigma)\n"
      "                [--threads N --tile-rows R (chunk edge)\n"
      "                 --tile-shared on|off (default on)]\n"
      "  progressive:  --eps E --budget SECONDS\n"
      "  classify:     --in FILE.csv --label-col I (x,y + integer labels)\n"
      "  regress:      --in FILE.csv --target-col I (x,y + target >= 0)\n"
      "  serve-sim:    --threads N (0 = hardware concurrency) --requests R\n"
      "                --budget-ms MS\n"
      "                [--clients C (default 4x threads) --queue Q\n"
      "                 --frame-threads N (intra-frame tile workers)\n"
      "                 --tile-rows R (chunk edge) --tile-shared on|off\n"
      "                 (default on)\n"
      "                 --eps E --on-deadline degrade|fail\n"
      "                 --failpoints \"site=action;...\" --json\n"
      "                 --swap-after N (hot-swap the evaluator after N\n"
      "                 completed requests)\n"
      "                 --governor (brownout under overload; tuning:\n"
      "                 --mem-budget-mb MB --queue-wait-sat-ms MS)\n"
      "                 --watchdog (force-cancel wedged renders; tuning:\n"
      "                 --watchdog-multiple X --no-progress-ms MS)\n"
      "                 --scrub (online integrity scrubber; tuning:\n"
      "                 --scrub-interval-ms MS --scrub-samples N\n"
      "                 --scrub-index FILE.kdv); exits 1 on any scrubber\n"
      "                 mismatch]\n"
      "                [--seed S (client backoff jitter base, stamped into\n"
      "                 the JSON report with the build id)]\n"
      "                [--metrics-out FILE (write the process metrics\n"
      "                 registry as JSON; also on render and metrics)]\n"
      "  metrics:      run a small serve workload, then dump the process\n"
      "                metrics registry (Prometheus text; --json for the\n"
      "                JSON snapshot) [--requests N --eps E\n"
      "                --metrics-out FILE]\n"
      "  sim:          deterministic simulation of the whole serve stack\n"
      "                --seed S | --seeds N (sweep S..S+N-1)\n"
      "                | --until-failure (sweep until an invariant breaks)\n"
      "                | --replay S (run S twice; byte-identical event\n"
      "                logs or exit 1)\n"
      "                [--schedule \"at_op:site=action;...\" (replaces the\n"
      "                 seed-derived fault schedule; repro lines use this)\n"
      "                 --ops N --workers N --queue N --n N\n"
      "                 --state-root DIR --faults=0 --plant-bug --json]\n"
      "                failing runs shrink their schedule and print a\n"
      "                one-line repro; exit 1\n"
      "  recover:      --state DIR [--csv FILE.csv (rebuild fallback)]\n"
      "                [--bootstrap (initialize DIR from --in/--dataset)]\n"
      "  checkpoint:   --state DIR [--csv FILE.csv]\n");
  return 2;
}

// Prints a Status as "kdvtool: CODE: message".
void PrintStatus(const Status& status) {
  std::fprintf(stderr, "kdvtool: %s\n", status.ToString().c_str());
}

// --metrics-out FILE: dump the process-wide metrics registry as JSON to
// FILE (atomic write, so a crash never leaves a torn artifact). Shared by
// render, serve-sim, and metrics. Returns 1 on write failure, else 0.
int MaybeWriteMetricsOut(const Flags& flags) {
  const std::string path = flags.GetString("metrics-out", "");
  if (path.empty()) return 0;
  const Status written = AtomicWriteFile(
      path, obs::ExportJson(obs::MetricsRegistry::Global().Snapshot()));
  if (!written.ok()) {
    PrintStatus(written);
    return 1;
  }
  return 0;
}

// Numeric accessor for validated query parameters (ε, τ, γ, budgets).
// Flags::GetDouble silently substitutes the default for malformed or
// non-finite text; here a present-but-unusable value parses to NaN instead,
// so the downstream Validate*() check rejects it by name.
double GetValidatedDouble(const Flags& flags, const std::string& name,
                          double default_value) {
  if (!flags.Has(name)) return default_value;
  const std::string raw = flags.GetString(name, "");
  char* end = nullptr;
  double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end == raw.c_str() || *end != '\0') {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v;  // may be NaN/Inf from the text itself; validation decides
}

// Strict integer accessor for count-like flags (--threads, --tile-rows).
// Flags::GetInt silently substitutes the default for malformed text; here a
// present-but-unusable value parses to INT_MIN so the caller rejects it by
// name with a usage error instead of silently running with the default.
int GetValidatedInt(const Flags& flags, const std::string& name,
                    int default_value) {
  if (!flags.Has(name)) return default_value;
  const std::string raw = flags.GetString(name, "");
  char* end = nullptr;
  long v = std::strtol(raw.c_str(), &end, 10);
  if (raw.empty() || end == raw.c_str() || *end != '\0' ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return std::numeric_limits<int>::min();
  }
  return static_cast<int>(v);
}

// Reads a count flag through GetValidatedInt. Returns false (after printing
// a usage error that names the flag) when the value is malformed or below
// `min`.
bool ParseCountFlag(const Flags& flags, const char* cmd, const char* name,
                    int default_value, int min, int* out) {
  *out = GetValidatedInt(flags, name, default_value);
  if (*out >= min) return true;
  std::fprintf(stderr, "kdvtool %s: --%s must be an integer >= %d\n", cmd,
               name, min);
  return false;
}

// Strict uint64 accessor for seed flags. Seeds span the full 64-bit space,
// which Flags::GetInt would truncate; malformed text fails parsing so the
// caller can reject it by name instead of silently simulating the default.
bool GetSeedFlag(const Flags& flags, const std::string& name,
                 uint64_t default_value, uint64_t* out) {
  *out = default_value;
  if (!flags.Has(name)) return true;
  const std::string raw = flags.GetString(name, "");
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(raw.c_str(), &end, 0);
  if (raw.empty() || end == raw.c_str() || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

// Parses --threads (0 = hardware concurrency) and --tile-rows for the
// intra-frame parallel renderer. Returns false (after printing a usage
// error) on malformed or out-of-range values.
bool ParseFrameThreads(const Flags& flags, const char* cmd, int* threads,
                       int* tile_rows) {
  *threads = GetValidatedInt(flags, "threads", 1);
  if (*threads < 0) {
    std::fprintf(stderr,
                 "kdvtool %s: --threads must be an integer >= 0 "
                 "(0 = hardware concurrency)\n",
                 cmd);
    return false;
  }
  return ParseCountFlag(flags, cmd, "tile-rows", 16, 1, tile_rows);
}

// Parses --tile-shared=on|off (default on, as serving runs): shared-
// traversal tile refinement for the frame renderers. off is per-pixel
// refinement, the bitwise oracle. Returns false (after printing a usage
// error) on any other value.
bool ParseTileShared(const Flags& flags, const char* cmd, bool* tile_shared) {
  const std::string v = flags.GetString("tile-shared", "on");
  if (v == "on") {
    *tile_shared = true;
    return true;
  }
  if (v == "off") {
    *tile_shared = false;
    return true;
  }
  std::fprintf(stderr, "kdvtool %s: --tile-shared must be 'on' or 'off'\n",
               cmd);
  return false;
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

bool ParseKernel(const std::string& name, KernelType* out) {
  const KernelType all[] = {
      KernelType::kGaussian,     KernelType::kTriangular,
      KernelType::kCosine,       KernelType::kExponential,
      KernelType::kEpanechnikov, KernelType::kQuartic,
      KernelType::kUniform,
  };
  for (KernelType k : all) {
    if (name == KernelTypeName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool ParseMethod(const std::string& name, Method* out) {
  if (name == "quad") {
    *out = Method::kQuad;
  } else if (name == "karl") {
    *out = Method::kKarl;
  } else if (name == "akde") {
    *out = Method::kAkde;
  } else if (name == "tkdc") {
    *out = Method::kTkdc;
  } else if (name == "exact") {
    *out = Method::kExact;
  } else {
    return false;
  }
  return true;
}

bool MakeSpec(const std::string& name, double scale, MixtureSpec* spec) {
  if (name == "el_nino") {
    *spec = ElNinoSpec(scale);
  } else if (name == "crime") {
    *spec = CrimeSpec(scale);
  } else if (name == "home") {
    *spec = HomeSpec(scale);
  } else if (name == "hep") {
    *spec = HepSpec(scale);
  } else {
    return false;
  }
  return true;
}

// Ingestion policy from flags: --drop-bad switches from reject to drop.
ValidateOptions ValidateOptionsFromFlags(const Flags& flags) {
  ValidateOptions options;
  if (flags.GetBool("drop-bad", false)) {
    options.policy = ValidateOptions::BadPointPolicy::kDrop;
  }
  return options;
}

// Loads the input dataset from --in CSV or synthesizes from --dataset.
bool LoadInput(const Flags& flags, PointSet* points) {
  std::string in = flags.GetString("in", "");
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
  MixtureSpec spec;
  if (!MakeSpec(flags.GetString("dataset", "crime"),
                flags.GetDouble("scale", 0.01), &spec)) {
    std::fprintf(stderr, "kdvtool: unknown --dataset\n");
    return false;
  }
  *points = GenerateMixture(spec);
  return true;
}

int CmdGenerate(const Flags& flags) {
  PointSet points;
  if (!LoadInput(flags, &points)) return 1;
  std::string out = flags.GetString("out", "points.csv");
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
  int leaf_size = 0;
  int version = 0;
  if (!ParseCountFlag(flags, "index", "leaf-size", 32, 1, &leaf_size) ||
      !ParseCountFlag(flags, "index", "format-version",
                      static_cast<int>(kKdTreeFormatVersion), 1, &version)) {
    return 2;
  }
  PointSet points;
  if (!LoadInput(flags, &points)) return 1;
  KdTree::Options tree_options;
  tree_options.leaf_size = static_cast<size_t>(leaf_size);
  KdTree tree(std::move(points), tree_options);

  std::string out = flags.GetString("out", "index.kdv");
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

// Reads --width (default `default_width`) and --height (default 3/4 of the
// width, at least 1). Returns false (after printing a usage error that names
// the flag) when either is malformed or below 1.
bool ParseResolution(const Flags& flags, const char* cmd, int default_width,
                     int* width, int* height) {
  if (!ParseCountFlag(flags, cmd, "width", default_width, 1, width)) {
    return false;
  }
  const int default_height = static_cast<int>(
      std::max<int64_t>(1, static_cast<int64_t>(*width) * 3 / 4));
  return ParseCountFlag(flags, cmd, "height", default_height, 1, height);
}

struct Session {
  std::unique_ptr<Workbench> bench;
  Method method = Method::kQuad;
  int width = 640;
  int height = 480;
};

// Reads --width/--height, loads the input and builds the workbench. Returns
// 0 on success, 2 on a malformed resolution (a usage error), and 1 when the
// input, kernel or method cannot be used.
int OpenSession(const Flags& flags, const char* cmd, Session* session) {
  if (!ParseResolution(flags, cmd, 640, &session->width, &session->height)) {
    return 2;
  }
  PointSet points;
  if (!LoadInput(flags, &points)) return 1;

  KernelType kernel = KernelType::kGaussian;
  if (!ParseKernel(flags.GetString("kernel", "gaussian"), &kernel)) {
    std::fprintf(stderr, "kdvtool: unknown --kernel\n");
    return 1;
  }
  if (!ParseMethod(flags.GetString("method", "quad"), &session->method)) {
    std::fprintf(stderr, "kdvtool: unknown --method\n");
    return 1;
  }
  Workbench::Options options;
  options.gamma_override = GetValidatedDouble(flags, "gamma", -1.0);
  options.validate = ValidateOptionsFromFlags(flags);
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(std::move(points), kernel, options);
  if (!bench.ok()) {
    PrintStatus(bench.status());
    return 1;
  }
  session->bench = *std::move(bench);
  if (session->method != Method::kExact &&
      !session->bench->Supports(session->method)) {
    std::fprintf(stderr, "kdvtool: method does not support this kernel\n");
    return 1;
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  std::printf("build:        %s\n", BuildStamp().c_str());
  // --index FILE: verify and summarize a persisted index instead of
  // building one from points.
  std::string index_path = flags.GetString("index", "");
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
  if (const int rc = OpenSession(flags, "info", &s); rc != 0) return rc;
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
// (or fail-fast with exit code 3 under --on-deadline=fail).
int CmdRenderBudgeted(const Flags& flags, Session* s, double eps, int threads,
                      int tile_rows, bool tile_shared) {
  std::string on_deadline = flags.GetString("on-deadline", "degrade");
  if (on_deadline != "degrade" && on_deadline != "fail") {
    std::fprintf(stderr,
                 "kdvtool: --on-deadline must be 'degrade' or 'fail'\n");
    return 2;
  }
  double budget_ms = GetValidatedDouble(flags, "budget-ms", -1.0);
  if (!(budget_ms >= 0.0)) {  // also catches NaN
    std::fprintf(stderr, "kdvtool: --budget-ms must be >= 0\n");
    return 2;
  }

  KdeEvaluator evaluator = s->bench->MakeEvaluator(s->method);
  PixelGrid grid(s->width, s->height, s->bench->data_bounds());
  ResilientRenderOptions options;
  options.eps = eps;
  options.budget_seconds = budget_ms / 1000.0;
  options.degrade = on_deadline == "degrade";
  options.parallel.num_threads = threads;
  options.parallel.tile_rows = tile_rows;
  options.parallel.tile_shared = tile_shared;
  std::unique_ptr<ThreadPool> pool = MakeTilePool(threads);
  options.tile_pool = pool.get();
  ResilientRenderer renderer(&evaluator);
  RenderOutcome outcome = renderer.Render(grid, options);

  std::string out = flags.GetString("out", "kdv.ppm");
  if (!RenderHeatMap(outcome.frame).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf(
      "εKDV (%s, eps=%g, budget=%gms): %dx%d tier=%s%s in %.3fs -> %s\n",
      MethodName(s->method), eps, budget_ms, s->width, s->height,
      QualityTierName(outcome.tier),
      outcome.deadline_expired ? " (deadline expired)" : "",
      outcome.stats.seconds, out.c_str());
  const int metrics_rc = MaybeWriteMetricsOut(flags);
  if (!outcome.ok()) {
    PrintStatus(outcome.status);
    return outcome.status.code() == StatusCode::kDeadlineExceeded ? 3 : 1;
  }
  return metrics_rc;
}

int CmdRender(const Flags& flags) {
  Session s;
  if (const int rc = OpenSession(flags, "render", &s); rc != 0) return rc;
  double eps = GetValidatedDouble(flags, "eps", 0.01);
  Status eps_status = ValidateEps(eps);
  if (!eps_status.ok()) {
    PrintStatus(eps_status);
    return 1;
  }
  int threads = 1;
  int tile_rows = 16;
  if (!ParseFrameThreads(flags, "render", &threads, &tile_rows)) return 2;
  bool tile_shared = true;
  if (!ParseTileShared(flags, "render", &tile_shared)) return 2;
  if (flags.Has("budget-ms")) {
    return CmdRenderBudgeted(flags, &s, eps, threads, tile_rows, tile_shared);
  }

  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());
  std::unique_ptr<ThreadPool> pool = MakeTilePool(threads);
  RenderOptions ropts;
  ropts.num_threads = threads;
  ropts.tile_rows = tile_rows;
  ropts.tile_shared = tile_shared;
  BatchStats stats;
  DensityFrame frame = RenderEpsFrameParallel(
      evaluator, grid, eps, ropts, pool.get(), QueryControl(), &stats);
  if (!stats.status.ok()) {
    PrintStatus(stats.status);
    return 1;
  }
  std::string out = flags.GetString("out", "kdv.ppm");
  if (!RenderHeatMap(frame).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  if (flags.GetBool("json", false)) {
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
        .Key("threads").Value(ResolveRenderThreads(threads))
        .Key("tile_shared").Value(tile_shared)
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
        .Key("frontier_cache_hits").Value(stats.frontier_cache_hits)
        .EndObject();
    w.Key("out").Value(out)
        .Key("build").Value(BuildStamp())
        .EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf("εKDV (%s, eps=%g, threads=%d%s): %dx%d in %.3fs -> %s\n",
                MethodName(s.method), eps, ResolveRenderThreads(threads),
                tile_shared ? ", tile-shared" : "", s.width, s.height,
                stats.seconds, out.c_str());
  }
  return MaybeWriteMetricsOut(flags);
}

int CmdHotspot(const Flags& flags) {
  Session s;
  if (const int rc = OpenSession(flags, "hotspot", &s); rc != 0) return rc;
  KdeEvaluator evaluator = s.bench->MakeEvaluator(
      s.method == Method::kQuad ? Method::kQuad : s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());

  double tau;
  if (flags.Has("tau")) {
    tau = GetValidatedDouble(flags, "tau", 0.0);
    Status tau_status = ValidateTau(tau);
    if (!tau_status.ok()) {
      PrintStatus(tau_status);
      return 1;
    }
  } else {
    MeanStd stats = EstimateDensityStats(evaluator, grid, /*stride=*/8);
    tau = stats.mean + flags.GetDouble("tau-sigma", 0.0) * stats.stddev;
    std::printf("tau = %g (mu=%g, sigma=%g)\n", tau, stats.mean,
                stats.stddev);
  }
  int threads = 1;
  int tile_rows = 16;
  if (!ParseFrameThreads(flags, "hotspot", &threads, &tile_rows)) return 2;
  bool tile_shared = true;
  if (!ParseTileShared(flags, "hotspot", &tile_shared)) return 2;
  std::unique_ptr<ThreadPool> pool = MakeTilePool(threads);
  RenderOptions ropts;
  ropts.num_threads = threads;
  ropts.tile_rows = tile_rows;
  ropts.tile_shared = tile_shared;
  BatchStats stats;
  BinaryFrame mask = RenderTauFrameParallel(evaluator, grid, tau, ropts,
                                            pool.get(), QueryControl(), &stats);
  if (!stats.status.ok()) {
    PrintStatus(stats.status);
    return 1;
  }
  std::string out = flags.GetString("out", "hotspots.ppm");
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
  if (const int rc = OpenSession(flags, "progressive", &s); rc != 0) return rc;
  double eps = GetValidatedDouble(flags, "eps", 0.01);
  Status eps_status = ValidateEps(eps);
  if (!eps_status.ok()) {
    PrintStatus(eps_status);
    return 1;
  }
  double budget = flags.GetDouble("budget", 0.5);
  KdeEvaluator evaluator = s.bench->MakeEvaluator(s.method);
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());
  ProgressiveResult r = RenderProgressive(evaluator, grid, eps, budget);
  if (!r.status.ok()) {
    PrintStatus(r.status);
    return 1;
  }
  std::string out = flags.GetString("out", "progressive.ppm");
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

// Renders a kernel-density-classification map: each pixel colored by the
// class with the highest class-conditional density. Input CSV must carry a
// label column (--label-col, default: last column); the remaining first two
// numeric columns are the coordinates.
int CmdClassify(const Flags& flags) {
  int width = 0;
  int height = 0;
  if (!ParseResolution(flags, "classify", 320, &width, &height)) return 2;
  std::string in = flags.GetString("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "kdvtool classify: --in FILE.csv required\n");
    return 1;
  }
  PointSet rows;
  Status load_status = LoadPointsCsv(in, {}, &rows);
  if (!load_status.ok()) {
    PrintStatus(load_status);
    return 1;
  }
  const int cols = rows[0].dim();
  int label_col = 0;
  if (!ParseCountFlag(flags, "classify", "label-col", cols - 1, 0,
                      &label_col)) {
    return 2;
  }
  if (cols < 3 || label_col >= cols) {
    std::fprintf(stderr, "kdvtool classify: need x,y plus a label column\n");
    return 1;
  }

  std::vector<PointSet> classes;
  Rect domain(2);
  for (const Point& row : rows) {
    int label = static_cast<int>(row[label_col]);
    if (label < 0 || label > 63) {
      std::fprintf(stderr, "kdvtool classify: labels must be in [0, 63]\n");
      return 1;
    }
    Point p(2);
    int c = 0;
    for (int j = 0; j < cols && c < 2; ++j) {
      if (j == label_col) continue;
      p[c++] = row[j];
    }
    if (static_cast<size_t>(label) >= classes.size()) {
      classes.resize(label + 1);
    }
    classes[label].push_back(p);
    domain.Expand(p);
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].empty()) {
      std::fprintf(stderr, "kdvtool classify: class %zu has no points\n", c);
      return 1;
    }
  }
  const int k = static_cast<int>(classes.size());

  KdeClassifier::Options options;
  if (!ParseMethod(flags.GetString("method", "quad"), &options.method)) {
    std::fprintf(stderr, "kdvtool: unknown --method\n");
    return 1;
  }
  if (!ParseKernel(flags.GetString("kernel", "gaussian"), &options.kernel)) {
    std::fprintf(stderr, "kdvtool: unknown --kernel\n");
    return 1;
  }
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
  std::string out = flags.GetString("out", "classes.ppm");
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
  int width = 0;
  int height = 0;
  if (!ParseResolution(flags, "regress", 320, &width, &height)) return 2;
  const double eps = GetValidatedDouble(flags, "eps", 0.01);
  const Status eps_status = ValidateEps(eps);
  if (!eps_status.ok()) {
    PrintStatus(eps_status);
    return 1;
  }
  std::string in = flags.GetString("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "kdvtool regress: --in FILE.csv required\n");
    return 1;
  }
  PointSet rows;
  Status load_status = LoadPointsCsv(in, {}, &rows);
  if (!load_status.ok()) {
    PrintStatus(load_status);
    return 1;
  }
  const int cols = rows[0].dim();
  int target_col = 0;
  if (!ParseCountFlag(flags, "regress", "target-col", cols - 1, 0,
                      &target_col)) {
    return 2;
  }
  if (cols < 3 || target_col >= cols) {
    std::fprintf(stderr, "kdvtool regress: need x,y plus a target column\n");
    return 1;
  }

  PointSet xs;
  std::vector<double> ys;
  Rect domain(2);
  for (const Point& row : rows) {
    if (row[target_col] < 0.0) {
      std::fprintf(stderr, "kdvtool regress: targets must be >= 0\n");
      return 1;
    }
    Point p(2);
    int c = 0;
    for (int j = 0; j < cols && c < 2; ++j) {
      if (j == target_col) continue;
      p[c++] = row[j];
    }
    xs.push_back(p);
    ys.push_back(row[target_col]);
    domain.Expand(p);
  }

  KernelRegressor::Options options;
  if (!ParseMethod(flags.GetString("method", "quad"), &options.method)) {
    std::fprintf(stderr, "kdvtool: unknown --method\n");
    return 1;
  }
  if (!ParseKernel(flags.GetString("kernel", "gaussian"), &options.kernel)) {
    std::fprintf(stderr, "kdvtool: unknown --kernel\n");
    return 1;
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
  std::string out = flags.GetString("out", "regression.ppm");
  if (!RenderHeatMap(field).WritePpm(out)) {
    std::fprintf(stderr, "kdvtool: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("regression field (%s, eps=%g): %dx%d in %.3fs -> %s\n",
              MethodName(options.method), eps, width, height,
              timer.ElapsedSeconds(), out.c_str());
  return 0;
}

// Shared flag parsing for the state-directory commands (recover,
// checkpoint). Returns false after printing a usage error.
bool ParseRecoveryOptions(const Flags& flags, const char* cmd,
                          RecoveryOptions* options) {
  options->state_dir = flags.GetString("state", "");
  if (options->state_dir.empty()) {
    std::fprintf(stderr, "kdvtool %s: --state DIR required\n", cmd);
    return false;
  }
  options->csv_fallback = flags.GetString("csv", "");
  const int leaf_size = GetValidatedInt(flags, "leaf-size", 32);
  if (leaf_size < 1) {
    std::fprintf(stderr, "kdvtool %s: --leaf-size must be >= 1\n", cmd);
    return false;
  }
  options->leaf_size = static_cast<size_t>(leaf_size);
  return true;
}

// Recovers (or with --bootstrap, initializes) a crash-consistent state
// directory and prints the full recovery report. Quarantined files are
// listed on stderr so operators see them even when piping stdout.
int CmdRecover(const Flags& flags) {
  RecoveryOptions options;
  if (!ParseRecoveryOptions(flags, "recover", &options)) return 2;

  if (flags.GetBool("bootstrap", false)) {
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
  if (!ParseRecoveryOptions(flags, "checkpoint", &options)) return 2;

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
// requests have been attempted. Prints throughput, latency percentiles, and
// shed/degraded/retried counts, then verifies the serving invariants (only
// kResourceExhausted rejections, only finite pixels) and exits non-zero if
// any were violated.
int CmdServeSim(const Flags& flags) {
  Session s;
  if (const int rc = OpenSession(flags, "serve-sim", &s); rc != 0) return rc;

  const int threads_flag = GetValidatedInt(flags, "threads", 4);
  if (threads_flag < 0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: --threads must be an integer >= 0 "
                 "(0 = hardware concurrency)\n");
    return 2;
  }
  const int threads = ResolveRenderThreads(threads_flag);
  int frame_threads = GetValidatedInt(flags, "frame-threads", 1);
  if (frame_threads < 0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: --frame-threads must be an integer >= 0 "
                 "(0 = hardware concurrency)\n");
    return 2;
  }
  int tile_rows = 0;
  if (!ParseCountFlag(flags, "serve-sim", "tile-rows", 16, 1, &tile_rows)) {
    return 2;
  }
  bool tile_shared = true;
  if (!ParseTileShared(flags, "serve-sim", &tile_shared)) return 2;
  int clients = 0;
  int requests = 0;
  int queue = 0;
  int max_attempts = 0;
  if (!ParseCountFlag(flags, "serve-sim", "clients", threads * 4, 1,
                      &clients) ||
      !ParseCountFlag(flags, "serve-sim", "requests", 100, 1, &requests) ||
      !ParseCountFlag(flags, "serve-sim", "queue", threads * 2, 1, &queue) ||
      !ParseCountFlag(flags, "serve-sim", "max-attempts", 3, 1,
                      &max_attempts)) {
    return 2;
  }
  double budget_ms = GetValidatedDouble(flags, "budget-ms", -1.0);
  if (std::isnan(budget_ms)) {
    std::fprintf(stderr, "kdvtool serve-sim: bad --budget-ms\n");
    return 2;
  }
  double eps = GetValidatedDouble(flags, "eps", 0.05);
  Status eps_status = ValidateEps(eps);
  if (!eps_status.ok()) {
    PrintStatus(eps_status);
    return 1;
  }
  std::string on_deadline = flags.GetString("on-deadline", "degrade");
  if (on_deadline != "degrade" && on_deadline != "fail") {
    std::fprintf(stderr,
                 "kdvtool serve-sim: --on-deadline must be 'degrade' or "
                 "'fail'\n");
    return 2;
  }

  const int swap_after = GetValidatedInt(flags, "swap-after", -1);
  if (flags.Has("swap-after") && swap_after < 0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: --swap-after must be an integer >= 0 "
                 "(completed requests before the hot-swap)\n");
    return 2;
  }

  // Base seed for the client swarm's shed-backoff jitter (client c derives
  // seed + c). Stamped into the JSON report alongside the build id so a
  // captured run names everything needed to reproduce it.
  uint64_t swarm_seed = 0xC11E47ull;
  if (!GetSeedFlag(flags, "seed", swarm_seed, &swarm_seed)) {
    std::fprintf(stderr, "kdvtool serve-sim: bad --seed\n");
    return 2;
  }

  // Runtime self-defense knobs (all opt-in).
  const bool use_governor = flags.GetBool("governor", false);
  const double mem_budget_mb = GetValidatedDouble(flags, "mem-budget-mb", 0.0);
  const double queue_wait_sat_ms =
      GetValidatedDouble(flags, "queue-wait-sat-ms", 500.0);
  if (std::isnan(mem_budget_mb) || mem_budget_mb < 0.0 ||
      std::isnan(queue_wait_sat_ms) || queue_wait_sat_ms <= 0.0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: bad --mem-budget-mb / "
                 "--queue-wait-sat-ms\n");
    return 2;
  }
  const bool use_watchdog = flags.GetBool("watchdog", false);
  const double watchdog_multiple =
      GetValidatedDouble(flags, "watchdog-multiple", 2.0);
  const double no_progress_ms =
      GetValidatedDouble(flags, "no-progress-ms", 1000.0);
  if (std::isnan(watchdog_multiple) || watchdog_multiple <= 0.0 ||
      std::isnan(no_progress_ms)) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: bad --watchdog-multiple / "
                 "--no-progress-ms\n");
    return 2;
  }
  const bool use_scrub = flags.GetBool("scrub", false);
  const double scrub_interval_ms =
      GetValidatedDouble(flags, "scrub-interval-ms", 5.0);
  const int scrub_samples = GetValidatedInt(flags, "scrub-samples", 2);
  const std::string scrub_index = flags.GetString("scrub-index", "");
  if (std::isnan(scrub_interval_ms) || scrub_interval_ms <= 0.0 ||
      scrub_samples < 0) {
    std::fprintf(stderr,
                 "kdvtool serve-sim: bad --scrub-interval-ms / "
                 "--scrub-samples\n");
    return 2;
  }

  std::string fp_spec = flags.GetString("failpoints", "");
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
  PixelGrid grid(s.width, s.height, s.bench->data_bounds());

  RenderService::Options options;
  options.num_threads = threads;
  options.max_queue = static_cast<size_t>(queue);
  options.max_attempts = max_attempts;
  options.intra_frame_threads = frame_threads;
  options.tile_rows = tile_rows;
  options.tile_shared = tile_shared;
  if (use_governor) {
    options.governor.enabled = true;
    options.governor.queue_wait_saturation_seconds = queue_wait_sat_ms / 1e3;
    options.governor.memory_budget_bytes =
        static_cast<uint64_t>(mem_budget_mb * 1024.0 * 1024.0);
  }
  if (use_watchdog) {
    options.watchdog.enabled = true;
    options.watchdog.deadline_multiple = watchdog_multiple;
    options.watchdog.no_progress_seconds = no_progress_ms / 1e3;
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
    sopts.interval_seconds = scrub_interval_ms / 1e3;
    sopts.pixel_samples_per_tick = scrub_samples;
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
  request.degrade = on_deadline == "degrade";

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
        if (next.fetch_add(1) >= requests) break;
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

  if (flags.GetBool("json", false)) {
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
        .Key("enabled").Value(tile_shared)
        .Key("frontier_cache_hits").Value(stats.frontier_cache_hits)
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
    if (tile_shared) {
      std::printf("  tile-shared: on, %llu frontier cache hit(s)\n",
                  static_cast<unsigned long long>(stats.frontier_cache_hits));
    }
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
  if (const int rc = OpenSession(flags, "metrics", &s); rc != 0) return rc;

  int requests = 0;
  if (!ParseCountFlag(flags, "metrics", "requests", 8, 0, &requests)) return 2;
  const double eps = GetValidatedDouble(flags, "eps", 0.05);
  const Status eps_status = ValidateEps(eps);
  if (!eps_status.ok()) {
    PrintStatus(eps_status);
    return 1;
  }

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
  if (flags.GetBool("json", false)) {
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
  if (!GetSeedFlag(flags, "seed", options.seed, &options.seed)) {
    std::fprintf(stderr, "kdvtool sim: bad --seed\n");
    return 2;
  }
  const bool replay = flags.Has("replay");
  if (replay && !GetSeedFlag(flags, "replay", options.seed, &options.seed)) {
    std::fprintf(stderr, "kdvtool sim: bad --replay\n");
    return 2;
  }
  options.num_ops = GetValidatedInt(flags, "ops", options.num_ops);
  options.num_workers = GetValidatedInt(flags, "workers", options.num_workers);
  const int queue =
      GetValidatedInt(flags, "queue", static_cast<int>(options.max_queue));
  options.dataset_n = GetValidatedInt(flags, "n", options.dataset_n);
  if (options.num_ops < 1 || options.num_workers < 1 || queue < 1 ||
      options.dataset_n < 8) {
    std::fprintf(stderr,
                 "kdvtool sim: --ops/--workers/--queue must be integers >= 1 "
                 "and --n an integer >= 8\n");
    return 2;
  }
  options.max_queue = static_cast<size_t>(queue);
  options.state_root = flags.GetString("state-root", "");
  options.faults_enabled = flags.GetBool("faults", true);
  options.plant_bug = flags.GetBool("plant-bug", false);

  // --schedule replaces the seed-derived fault schedule (how a minimized
  // repro line re-enters the simulator).
  FaultSchedule explicit_schedule;
  if (flags.Has("schedule")) {
    StatusOr<FaultSchedule> parsed =
        FaultSchedule::Parse(flags.GetString("schedule", ""));
    if (!parsed.ok()) {
      PrintStatus(parsed.status());
      return 2;
    }
    explicit_schedule = std::move(parsed).value();
    options.schedule_override = &explicit_schedule;
  }

  const bool json = flags.GetBool("json", false);
  const int sweep = GetValidatedInt(flags, "seeds", 1);
  const bool until_failure = flags.GetBool("until-failure", false);
  if (sweep < 1) {
    std::fprintf(stderr, "kdvtool sim: --seeds must be an integer >= 1\n");
    return 2;
  }

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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // Handled before flag parsing so `kdvtool --version` works even though
  // every other invocation expects a bare subcommand first.
  if (cmd == "version" || cmd == "--version") {
    std::printf("%s\n", kdv::BuildStamp().c_str());
    return 0;
  }

  kdv::Flags flags;
  std::string error;
  if (!kdv::Flags::Parse(argc - 1, argv + 1, &flags, &error)) {
    std::fprintf(stderr, "kdvtool: %s\n", error.c_str());
    return 2;
  }

  // Fault-injection sites from KDV_FAILPOINTS (no-op unless the binary was
  // built with -DKDV_FAILPOINTS=ON; a malformed spec warns on stderr).
  kdv::failpoint::ConfigureFromEnv();

  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "index") return CmdIndex(flags);
  if (cmd == "render") return CmdRender(flags);
  if (cmd == "hotspot") return CmdHotspot(flags);
  if (cmd == "progressive") return CmdProgressive(flags);
  if (cmd == "classify") return CmdClassify(flags);
  if (cmd == "regress") return CmdRegress(flags);
  if (cmd == "serve-sim") return CmdServeSim(flags);
  if (cmd == "metrics") return CmdMetrics(flags);
  if (cmd == "sim") return CmdSim(flags);
  if (cmd == "recover") return CmdRecover(flags);
  if (cmd == "checkpoint") return CmdCheckpoint(flags);
  return Usage();
}
