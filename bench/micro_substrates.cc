// Google-benchmark microbenchmarks for the substrates: matrix multiply,
// MLP training epochs, k-means, grouping (Operation 1) and fold
// construction (Operation 2). These quantify the paper's claim that the
// grouping overhead is negligible next to model training (Section III-E).

#include <benchmark/benchmark.h>

#include <numeric>

#include "cluster/balanced_kmeans.h"
#include "cv/gen_folds.h"
#include "cv/grouping.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"
#include "ml/mlp.h"

namespace bhpo {
namespace {

Dataset BenchData(size_t n, size_t d) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.seed = 1;
  return MakeBlobs(spec).value().Standardized();
}

void BM_MatMul(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(n, n, &rng);
  Matrix b = Matrix::RandomGaussian(n, n, &rng);
  Matrix out(n, n);
  for (auto _ : state) {
    MatMulInto(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_MlpEpoch(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  MlpConfig config;
  config.hidden_layer_sizes = {50};
  config.solver = Solver::kAdam;
  config.max_iter = 1;
  for (auto _ : state) {
    MlpModel model(config);
    benchmark::DoNotOptimize(model.Fit(data));
  }
}
BENCHMARK(BM_MlpEpoch)->Arg(200)->Arg(500)->Arg(1000);

void BM_KMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KMeans(data.features(), opts));
  }
}
BENCHMARK(BM_KMeans)->Arg(200)->Arg(500)->Arg(1000);

// Section III-E claims grouping ~ one epoch of a small MLP; compare
// BM_BuildGrouping to BM_MlpEpoch at the same n.
void BM_BuildGrouping(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  GroupingOptions opts;
  opts.num_groups = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildGrouping(data, opts));
  }
}
BENCHMARK(BM_BuildGrouping)->Arg(200)->Arg(500)->Arg(1000);

void BM_GenFolds(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset data = BenchData(n, 20);
  GroupingOptions opts;
  opts.num_groups = 2;
  Grouping grouping = BuildGrouping(data, opts).value();
  std::vector<size_t> subset(n);
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(2);
  GenFoldsOptions fold_opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenFolds(grouping, subset, fold_opts, &rng));
  }
}
BENCHMARK(BM_GenFolds)->Arg(200)->Arg(1000);

void BM_StratifiedKFold(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset data = BenchData(n, 20);
  std::vector<size_t> subset(n);
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(3);
  StratifiedKFold builder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(data, subset, 5, &rng));
  }
}
BENCHMARK(BM_StratifiedKFold)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace bhpo

BENCHMARK_MAIN();
