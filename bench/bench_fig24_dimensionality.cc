// Figure 24: general kernel density estimation throughput (queries/sec) vs
// dimensionality on the home and hep analogues. Following the paper, a
// higher-dimensional dataset is reduced to d ∈ {2,4,6,8,10} via PCA, then
// εKDE point queries (ε = 0.01, Gaussian) run under SCAN (exact), aKDE,
// KARL and QUAD. Paper result: throughput of all bound-based methods decays
// with d, but QUAD stays on top; Z-order is omitted (2-d only).
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace {

kdv::PointSet RandomQueries(const kdv::Rect& box, int count, uint64_t seed) {
  kdv::Rng rng(seed);
  kdv::PointSet queries;
  for (int i = 0; i < count; ++i) {
    kdv::Point q(box.dim());
    for (int j = 0; j < box.dim(); ++j) {
      q[j] = rng.Uniform(box.lo(j), box.hi(j));
    }
    queries.push_back(q);
  }
  return queries;
}

// Queries per second of εKDV (or of the exact scan when eps <= 0) over
// `queries`. Pixel frames go through the frame renderers; these are
// d-dimensional point queries, so the loop is local.
double QueriesPerSec(const kdv::KdeEvaluator& evaluator,
                     const kdv::PointSet& queries, double eps) {
  kdv::BatchStats stats;
  kdv::Timer timer;
  for (const kdv::Point& q : queries) {
    if (eps > 0.0) {
      kdv::AccumulateQueryStats(&stats, evaluator.EvaluateEps(q, eps));
    } else {
      evaluator.EvaluateExact(q);
      ++stats.queries;
    }
  }
  return stats.queries / std::max(timer.ElapsedSeconds(), 1e-9);
}

}  // namespace

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 24",
                         "KDE throughput (queries/sec) vs dimensionality "
                         "(PCA-projected, eps=0.01)");

  const std::vector<int> dims = {2, 4, 6, 8, 10};
  const int kQueries = 200;
  const double eps = 0.01;

  struct Source {
    const char* name;
    MixtureSpec spec;
  };
  MixtureSpec home = HomeSpec(kdv_bench::BenchScale());
  home.dim = 10;
  MixtureSpec hep = HepSpec(kdv_bench::BenchScale());
  hep.dim = 10;
  const Source sources[] = {{"home", home}, {"hep", hep}};

  std::FILE* csv = std::fopen("fig24.csv", "w");
  if (csv != nullptr) {
    std::fprintf(csv, "dataset,dim,method,queries_per_sec\n");
  }

  for (const Source& source : sources) {
    PointSet raw = GenerateMixture(source.spec);
    std::printf("\n(%s, n=%zu, source dim=%d)\n", source.name, raw.size(),
                source.spec.dim);
    std::printf("%-6s %12s %12s %12s %12s\n", "dim", "SCAN", "aKDE", "KARL",
                "QUAD");

    for (int d : dims) {
      PointSet projected = PcaProject(raw, d);
      Workbench bench(std::move(projected), KernelType::kGaussian);
      PointSet queries = RandomQueries(bench.data_bounds(), kQueries,
                                       1000 + d);

      double qps[4];
      qps[0] = QueriesPerSec(bench.MakeEvaluator(Method::kExact), queries,
                             /*eps=*/0.0);
      const Method methods[] = {Method::kAkde, Method::kKarl, Method::kQuad};
      for (int i = 0; i < 3; ++i) {
        qps[i + 1] = QueriesPerSec(bench.MakeEvaluator(methods[i]), queries,
                                   eps);
      }
      std::printf("%-6d %12.1f %12.1f %12.1f %12.1f\n", d, qps[0], qps[1],
                  qps[2], qps[3]);
      if (csv != nullptr) {
        const char* names[] = {"SCAN", "aKDE", "KARL", "QUAD"};
        for (int i = 0; i < 4; ++i) {
          std::fprintf(csv, "%s,%d,%s,%.3f\n", source.name, d, names[i],
                       qps[i]);
        }
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig24.csv\n");
  return 0;
}
