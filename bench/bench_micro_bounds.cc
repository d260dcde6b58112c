// Micro-benchmarks (google-benchmark): per-node bound evaluation costs,
// validating the paper's complexity claims — O(d) for aKDE/KARL and the
// distance-kernel QUAD bounds, O(d^2) for the Gaussian QUAD bounds — plus
// the aggregate-statistics primitives and index build.
//
// Two views of the bound layer: BM_BoundEvaluate on one cache-hot node (the
// arithmetic alone), and BM_BoundEvaluateDescent cycling through the nodes
// root-to-leaf descents touch in a crime-analogue tree (the node records as
// the renderer reads them, cache misses included). A short smoke run:
//   build/bench/bench_micro_bounds --benchmark_min_time=0.01
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "quadkdv.h"

namespace {

kdv::PointSet RandomPoints(int n, int dim, uint64_t seed) {
  kdv::Rng rng(seed);
  kdv::PointSet pts;
  for (int i = 0; i < n; ++i) {
    kdv::Point p(dim);
    for (int j = 0; j < dim; ++j) p[j] = rng.NextDouble();
    pts.push_back(p);
  }
  return pts;
}

kdv::KdTree OneLeafTree(kdv::PointSet points) {
  kdv::KdTree::Options options;
  options.leaf_size = points.size();
  return kdv::KdTree(std::move(points), options);
}

// One node of 256 uniform points, queried at one fixed point.
struct Fixture {
  explicit Fixture(int dim)
      : tree(OneLeafTree(RandomPoints(256, dim, 7))),
        stats(tree.node(tree.root()).stats),
        query(dim) {
    kdv::Rng rng(11);
    for (int j = 0; j < dim; ++j) query[j] = rng.Uniform(-1.0, 2.0);
  }
  kdv::KdTree tree;
  kdv::NodeStats stats;
  kdv::Point query;
};

// The (node, query) pairs best-first refinement evaluates near 256 queries
// drawn from the data: at each level of a descent towards the child whose
// MBR is nearer the query, both children. Crime analogue at scale 0.25
// (67,672 points, 8,191 nodes), lifted to `dim` dimensions.
struct DescentFixture {
  explicit DescentFixture(int dim) {
    kdv::MixtureSpec spec = kdv::CrimeSpec(0.25);
    spec.dim = dim;
    tree = std::make_unique<kdv::KdTree>(kdv::GenerateMixture(spec));
    spec.n = 256;
    spec.seed += 1;
    queries = kdv::GenerateMixture(spec);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const kdv::Point& q = queries[qi];
      int32_t id = tree->root();
      while (!tree->node(id).IsLeaf()) {
        const kdv::KdTree::Node n = tree->node(id);
        evals.emplace_back(n.left, qi);
        evals.emplace_back(n.right, qi);
        const double dl = tree->node(n.left).stats.mbr().MinSquaredDistance(q);
        const double dr =
            tree->node(n.right).stats.mbr().MinSquaredDistance(q);
        id = dl <= dr ? n.left : n.right;
      }
    }
  }
  std::unique_ptr<kdv::KdTree> tree;
  kdv::PointSet queries;
  std::vector<std::pair<int32_t, size_t>> evals;  // (node, query index)
};

// Built once per dimensionality and shared by every profile.
const DescentFixture& Descent(int dim) {
  static std::map<int, std::unique_ptr<DescentFixture>> cache;
  std::unique_ptr<DescentFixture>& slot = cache[dim];
  if (slot == nullptr) slot = std::make_unique<DescentFixture>(dim);
  return *slot;
}

void BM_SumSquaredDistances(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.stats.SumSquaredDistances(f.query));
  }
}
BENCHMARK(BM_SumSquaredDistances)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SumQuarticDistances(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.stats.SumQuarticDistances(f.query));
  }
}
BENCHMARK(BM_SumQuarticDistances)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

template <kdv::Method M, kdv::KernelType K>
void BM_BoundEvaluate(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  kdv::KernelParams params;
  params.type = K;
  params.gamma = 2.0;
  params.weight = 1.0;
  std::unique_ptr<kdv::NodeBounds> bounds = kdv::MakeNodeBounds(M, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds->Evaluate(f.stats, f.query));
  }
}

BENCHMARK(BM_BoundEvaluate<kdv::Method::kAkde, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kKarl, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kTriangular>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kCosine>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kExponential>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);

// The tree's points in tree order.
kdv::PointSet TreeOrderPoints(const kdv::KdTree& tree) {
  kdv::PointSet points;
  points.reserve(tree.num_points());
  for (size_t i = 0; i < tree.num_points(); ++i) {
    points.push_back(tree.point(i));
  }
  return points;
}

// ns per NodeBounds::Evaluate over the descent pairs, in descent order,
// with Scott's-rule bandwidth as the renderer would use (taken over the
// points in tree order).
template <kdv::Method M, kdv::KernelType K>
void BM_BoundEvaluateDescent(benchmark::State& state) {
  const DescentFixture& f = Descent(static_cast<int>(state.range(0)));
  const kdv::KernelParams params =
      kdv::MakeScottParams(K, TreeOrderPoints(*f.tree));
  std::unique_ptr<kdv::NodeBounds> bounds = kdv::MakeNodeBounds(M, params);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [node, qi] = f.evals[i];
    benchmark::DoNotOptimize(
        bounds->Evaluate(f.tree->node(node).stats, f.queries[qi]));
    if (++i == f.evals.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["record_bytes"] =
      static_cast<double>(f.tree->record_bytes());
}

BENCHMARK(
    BM_BoundEvaluateDescent<kdv::Method::kAkde, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluateDescent<kdv::Method::kKarl, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluateDescent<kdv::Method::kQuad, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluateDescent<kdv::Method::kQuad,
                                  kdv::KernelType::kTriangular>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluateDescent<kdv::Method::kQuad, kdv::KernelType::kCosine>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluateDescent<kdv::Method::kQuad,
                                  kdv::KernelType::kExponential>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);

void BM_KdTreeBuild(benchmark::State& state) {
  kdv::PointSet pts = RandomPoints(static_cast<int>(state.range(0)), 2, 3);
  for (auto _ : state) {
    kdv::KdTree tree{kdv::PointSet(pts)};
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EpsQueryQuad(benchmark::State& state) {
  kdv::PointSet pts =
      kdv::GenerateMixture(kdv::CrimeSpec(0.01));
  kdv::Workbench bench(std::move(pts), kdv::KernelType::kGaussian);
  kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
  kdv::Point q = bench.data_bounds().Center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quad.EvaluateEps(q, 0.01));
  }
}
BENCHMARK(BM_EpsQueryQuad);

}  // namespace

BENCHMARK_MAIN();
