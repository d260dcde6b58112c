// kdv_bench: runs one benchmark workload and prints one JSON line.
//
//   kdv_bench --name eps_crime_full --kind frame --dataset crime --scale 1
//             --kernel gaussian --query eps --eps 0.01 ... --seed 7
//             --seconds 25 --trace 0 --trace_out ""
//
// run.py supplies the workload flags from workloads.json; every flag is
// required to be known, so a typo fails loudly instead of silently running
// a default. The output carries the metrics, the deterministic work counts,
// any correctness problem and any reason the timings are invalid; run.py
// turns it into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "suite.h"

namespace {

using kdv_suite::Params;

class FlagMap {
 public:
  bool Parse(int argc, char** argv, std::string* error) {
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        *error = "expected --key value pairs, got '" + key + "'";
        return false;
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    return true;
  }

  std::string Str(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      missing_.insert(key);
      return "";
    }
    used_.insert(key);
    return it->second;
  }
  double Num(const std::string& key) {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0') bad_.insert(key);
    return v;
  }
  int Int(const std::string& key) { return static_cast<int>(Num(key)); }
  // Comma-separated numbers; an empty value is an empty list.
  std::vector<double> List(const std::string& key) {
    std::vector<double> values;
    std::stringstream in(Str(key));
    std::string item;
    while (std::getline(in, item, ',')) {
      char* end = nullptr;
      values.push_back(std::strtod(item.c_str(), &end));
      if (item.empty() || *end != '\0') bad_.insert(key);
    }
    return values;
  }

  // Every flag given was read, every flag read was given and numeric where
  // a number was expected.
  bool Complete(std::string* error) const {
    std::ostringstream msg;
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) msg << " unknown flag --" << key << ";";
    }
    for (const std::string& key : missing_) msg << " missing --" << key << ";";
    for (const std::string& key : bad_) msg << " bad number for --" << key << ";";
    *error = msg.str();
    return error->empty();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_, missing_, bad_;
};

bool ParseParams(int argc, char** argv, Params* p, std::string* error) {
  FlagMap f;
  if (!f.Parse(argc, argv, error)) return false;
  p->name = f.Str("name");
  p->kind = f.Str("kind");
  p->dataset = f.Str("dataset");
  p->scale = f.Num("scale");
  const std::string kernel = f.Str("kernel");
  p->query = f.Str("query");
  if (p->query == "eps") p->eps = f.Num("eps");
  p->width = f.Int("width");
  p->height = f.Int("height");
  p->frame_threads = f.Int("frame_threads");
  p->trace_frames = f.Int("trace_frames");
  p->setup_reps = f.Int("setup_reps");
  if (p->kind == "serve") {
    p->hot_frac = f.Num("hot_frac");
    p->swap_points = f.Int("swap_points");
    p->ladder = f.List("ladder");
  }
  p->seed = static_cast<uint64_t>(f.Num("seed"));
  p->seconds = f.Num("seconds");
  p->trace = f.Int("trace") != 0;
  p->trace_out = f.Str("trace_out");
  if (!f.Complete(error)) return false;

  if (kernel == "gaussian") {
    p->kernel = kdv::KernelType::kGaussian;
  } else if (kernel == "triangular") {
    p->kernel = kdv::KernelType::kTriangular;
  } else {
    *error = "unknown kernel '" + kernel + "'";
    return false;
  }
  if ((p->kind != "frame" && p->kind != "serve") ||
      (p->dataset != "crime" && p->dataset != "hep") ||
      (p->query != "eps" && p->query != "tau") ||
      (p->kind == "serve" && p->query != "eps")) {
    *error = "unsupported kind/dataset/query combination";
    return false;
  }
  bool ladder_ok = true;
  for (double rate : p->ladder) ladder_ok &= rate > 0.0;
  if (p->scale <= 0.0 || p->scale > 1.0 || p->width < 1 || p->height < 1 ||
      p->frame_threads < 1 || p->trace_frames < 1 || p->setup_reps < 1 ||
      p->seconds <= 0.0 || p->hot_frac < 0.0 || p->hot_frac > 1.0 ||
      p->swap_points < 0 || !ladder_ok) {
    *error = "a workload parameter is out of range";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  std::string error;
  if (!ParseParams(argc, argv, &p, &error)) {
    std::fprintf(stderr, "kdv_bench: %s\n", error.c_str());
    return 2;
  }

  // The fixed dataset analogue (see Stream in suite.h); generation is not
  // part of any timed region. A writer appends a seeded sample of a further
  // draw from the same mixture (a longer draw of one generator has the
  // shorter draw as its prefix).
  const kdv::MixtureSpec spec = p.dataset == "crime" ? kdv::CrimeSpec(p.scale)
                                                     : kdv::HepSpec(p.scale);
  kdv::PointSet points = kdv::GenerateMixture(spec);
  const size_t initial = points.size();
  if (p.kind == "serve" && p.swap_points > 0) {
    const size_t appended =
        static_cast<size_t>(p.swap_points) * kdv_suite::kSwapsPerRun;
    kdv::MixtureSpec longer = spec;
    longer.n = spec.n + 2 * appended;
    kdv::PointSet pool = kdv::GenerateMixture(longer);
    pool.erase(pool.begin(), pool.begin() + spec.n);
    const kdv::PointSet sample = kdv::SamplePoints(
        pool, appended,
        kdv_suite::DeriveSeed(p.seed, kdv_suite::Stream::kAppended));
    points.insert(points.end(), sample.begin(), sample.end());
  }

  kdv_suite::PinThisThread(0);
  kdv_suite::Result r;
  {
    const kdv_suite::IdleSpinners spinners;
    r = p.kind == "frame" ? kdv_suite::RunFrameWorkload(p, points)
                          : kdv_suite::RunServeWorkload(p, points, initial);
  }

  kdv::JsonWriter w;
  w.BeginObject()
      .Key("workload").Value(p.name)
      .Key("seed").Value(p.seed)
      .Key("trace").Value(p.trace)
      .Key("points").Value(static_cast<uint64_t>(initial))
      .Key("simd").Value(kdv::SimdLevelName(kdv::ActiveSimdLevel()))
      .Key("hardware_threads").Value(std::thread::hardware_concurrency())
      .Key("attempted").Value(r.attempted)
      .Key("failed").Value(r.failed);
  w.Key("problems").BeginArray();
  for (const std::string& problem : r.problems) w.Value(problem);
  w.EndArray();
  w.Key("invalid").BeginArray();
  for (const std::string& reason : r.invalid) w.Value(reason);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const kdv_suite::Metric& m : r.metrics) {
    w.Key(m.name).BeginObject()
        .Key("value").Number(m.value, 17)
        .Key("unit").Value(m.unit)
        .Key("samples").Value(m.samples)
        .EndObject();
  }
  w.EndObject();
  w.Key("counts").BeginObject();
  for (const auto& [name, count] : r.counts) w.Key(name).Value(count);
  w.EndObject().EndObject();
  std::printf("%s\n", w.Take().c_str());
  return 0;
}
