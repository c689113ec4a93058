// Fit-level microbenchmark for the MLP engine: one Table III-shaped MLP per
// solver (lbfgs, sgd, adam), fitted on the first 8, 88 and 441 training
// rows of the australian and a9a stand-ins through a subset view, the way
// cross-validation hands folds to a model. 441 rows is a 5-fold training
// side of australian at scale 1; 8 and 88 are the bottom rungs' subsets.
//
// Each cell reports the minimum over --reps fits. A checksum over the bits
// of every cell's final training loss and iteration count is printed too:
// two builds that agree on it ran the same floating-point operations, so a
// speedup claim can be checked for bit-identity in the same run. The
// checksum does not depend on the matmul tile width; the `ms` cells do, so
// the JSON names the width that ran ("sse2", "avx2" or "avx512").
//
//   micro_mlp_fit [--reps 5] [--max-iter 40] [--out BENCH_mlp_fit.json]
//
// Emits machine-readable JSON on stdout (and to --out):
//   {"max_iter":..,"reps":..,"tile":"sse2"|"avx2"|"avx512","cells":[{"dataset":..,"solver":..,"rows":..,
//    "ms":..,"iterations":..,"loss_bits":".."},..],"loss_checksum":".."}

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/matrix.h"
#include "data/dataset_view.h"
#include "data/paper_datasets.h"
#include "ml/mlp.h"

namespace bhpo {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int reps = flags.GetInt("reps", 5).value();
  int max_iter = flags.GetInt("max-iter", 40).value();
  std::string out = flags.GetString("out", "BENCH_mlp_fit.json");
  Status unrecognized = flags.CheckUnrecognized();
  if (!unrecognized.ok()) {
    std::fprintf(stderr, "%s\n", unrecognized.ToString().c_str());
    return 1;
  }
  if (reps < 1 || max_iter < 1) {
    std::fprintf(stderr, "--reps and --max-iter must be >= 1\n");
    return 1;
  }

  const size_t kRows[] = {8, 88, 441};
  const Solver kSolvers[] = {Solver::kLbfgs, Solver::kSgd, Solver::kAdam};
  std::string cells;
  uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis.
  auto mix = [&checksum](uint64_t x) {
    checksum ^= x;
    checksum *= 1099511628211ull;
  };

  for (const char* name : {"australian", "a9a"}) {
    TrainTestSplit split = MakePaperDataset(name, 42, 1.0).value();
    const Dataset& train = split.train;
    for (Solver solver : kSolvers) {
      for (size_t rows : kRows) {
        BHPO_CHECK_LE(rows, train.n());
        std::vector<size_t> indices(rows);
        std::iota(indices.begin(), indices.end(), 0);
        DatasetView view(train, indices);

        MlpConfig config;
        config.hidden_layer_sizes = {50, 50};
        config.activation = Activation::kRelu;
        config.solver = solver;
        config.learning_rate_init = 0.01;
        config.max_iter = max_iter;
        config.seed = 3;

        double best_ms = std::numeric_limits<double>::infinity();
        double loss = 0.0;
        int iterations = 0;
        for (int r = 0; r < reps; ++r) {
          MlpModel model(config);
          auto start = std::chrono::steady_clock::now();
          Status st = model.Fit(view);
          auto end = std::chrono::steady_clock::now();
          BHPO_CHECK(st.ok()) << st.ToString();
          best_ms = std::min(
              best_ms,
              std::chrono::duration<double, std::milli>(end - start).count());
          loss = model.final_loss();
          iterations = model.iterations_run();
        }
        mix(Bits(loss));
        mix(static_cast<uint64_t>(iterations));

        if (!cells.empty()) cells += ", ";
        cells += std::string("{\"dataset\": \"") + name +
                 "\", \"solver\": \"" + SolverToString(solver) +
                 "\", \"rows\": " + std::to_string(rows) +
                 ", \"ms\": " + std::to_string(best_ms) +
                 ", \"iterations\": " + std::to_string(iterations) +
                 ", \"loss_bits\": \"" + Hex(Bits(loss)) + "\"}";
        std::fprintf(stderr, "%-10s %-5s rows=%3zu  %9.3f ms  iters=%d\n",
                     name, SolverToString(solver), rows, best_ms, iterations);
      }
    }
  }

  const char* tile =
      internal::TileWidthName(internal::DispatchedTileWidth());
  std::string json = "{\"max_iter\": " + std::to_string(max_iter) +
                     ", \"reps\": " + std::to_string(reps) +
                     ", \"tile\": \"" + tile + "\"" +
                     ", \"cells\": [" + cells + "], \"loss_checksum\": \"" +
                     Hex(checksum) + "\"}";
  std::printf("%s\n", json.c_str());
  std::fprintf(stderr, "loss checksum %s (tile %s)\n", Hex(checksum).c_str(),
               tile);

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file, "%s\n", json.c_str());
  std::fclose(file);
  return 0;
}

}  // namespace
}  // namespace bhpo

int main(int argc, char** argv) { return bhpo::Main(argc, argv); }
