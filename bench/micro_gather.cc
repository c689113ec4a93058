// Microbenchmark for the indexed-gather kernel on the subset
// materialization path of rung evaluation: gather subsets of an `n x d`
// feature matrix at successive-halving rung sizes (n/27, n/9, n/3 and a
// 90% fold complement) through two index patterns — a sorted fold
// complement (contiguous blocks, the shape CV and rung promotion produce)
// and a shuffled bootstrap (no runs) — with the historical per-row scalar
// loop versus the run-coalescing + prefetching kernel. Small rungs are
// latency- and call-overhead-bound, where coalescing wins big; the 90%
// gather is DRAM-bandwidth-bound on most machines and reported for
// honesty, not headlines.
//
// Emits machine-readable JSON:
//   {"n":..,"d":..,
//    "gather":[{"rows":..,"pattern":..,"scalar_ms":..,"kernel_ms":..,
//               "speedup":..},..],
//    "headline_speedup":..}
// headline_speedup is the fold-complement gather at the smallest rung.
// Every timed variant is checksummed against the scalar reference; any
// divergence aborts the bench, so the numbers can only come from
// bit-identical work.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/gather.h"
#include "common/rng.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

// Best-of-reps wall time in milliseconds; *sink defeats dead-code
// elimination of the measured work.
template <typename Fn>
double TimeMs(int reps, double* sink, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    *sink += fn();
    auto end = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

// Sorted subset with one contiguous span held out — the shape of both a CV
// fold complement and a rung subset carried forward by promotion. The
// held-out span sits mid-matrix so the complement is always two coalesced
// runs, never a degenerate single prefix.
std::vector<size_t> FoldComplement(size_t n, size_t rows) {
  std::vector<size_t> indices;
  indices.reserve(rows);
  size_t held_out = n - rows;
  size_t start = rows / 2;
  for (size_t i = 0; i < n && indices.size() < rows; ++i) {
    if (i < start || i >= start + held_out) indices.push_back(i);
  }
  return indices;
}

std::vector<size_t> Shuffled(size_t n, size_t rows, Rng* rng) {
  std::vector<size_t> indices(rows);
  for (size_t& idx : indices) idx = rng->UniformIndex(n);
  return indices;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int n = flags.GetInt("n", 50000).value();
  int d = flags.GetInt("d", 50).value();
  int reps = flags.GetInt("reps", 30).value();
  std::string out = flags.GetString("out", "BENCH_gather.json");
  Status unrecognized = flags.CheckUnrecognized();
  if (!unrecognized.ok()) {
    std::fprintf(stderr, "%s\n", unrecognized.ToString().c_str());
    return 1;
  }

  BlobsSpec spec;
  spec.n = static_cast<size_t>(n);
  spec.num_features = static_cast<size_t>(d);
  spec.num_classes = 4;
  spec.seed = 17;
  Dataset data = MakeBlobs(spec).value();
  const double* src = data.features().data().data();
  size_t cols = data.num_features();

  // Successive-halving rung sizes for eta=3 plus a 90% CV train split.
  std::vector<size_t> sizes = {data.n() / 27, data.n() / 9, data.n() / 3,
                               data.n() * 9 / 10};
  Rng rng(3);

  double sink = 0.0;
  double headline = 0.0;
  std::string gather_json;
  for (size_t rows : sizes) {
    if (rows == 0) continue;
    for (int pattern = 0; pattern < 2; ++pattern) {
      const char* name = pattern == 0 ? "fold_complement" : "shuffled";
      std::vector<size_t> indices = pattern == 0
                                        ? FoldComplement(data.n(), rows)
                                        : Shuffled(data.n(), rows, &rng);
      // Scale inner iterations so every timed sample does comparable work;
      // microsecond-scale single gathers are too noisy to compare.
      int iters = static_cast<int>(
          std::max<size_t>(1, 2000000 / std::max<size_t>(rows, 1)));

      std::vector<double> reference(rows * cols);
      std::vector<double> dst(reference.size());
      internal::GatherRowsScalar(src, cols, cols, indices.data(),
                                 indices.size(), reference.data());

      double scalar_ms = TimeMs(reps, &sink, [&] {
        for (int it = 0; it < iters; ++it) {
          internal::GatherRowsScalar(src, cols, cols, indices.data(),
                                     indices.size(), dst.data());
        }
        return dst[0];
      });
      BHPO_CHECK_EQ(0, std::memcmp(dst.data(), reference.data(),
                                   reference.size() * sizeof(double)));

      std::fill(dst.begin(), dst.end(), 0.0);
      double kernel_ms = TimeMs(reps, &sink, [&] {
        for (int it = 0; it < iters; ++it) {
          GatherRows(src, cols, cols, indices.data(), indices.size(),
                     dst.data());
        }
        return dst[0];
      });
      BHPO_CHECK_EQ(0, std::memcmp(dst.data(), reference.data(),
                                   reference.size() * sizeof(double)));

      double speedup = scalar_ms / kernel_ms;
      if (pattern == 0 && headline == 0.0) headline = speedup;
      std::fprintf(stderr,
                   "rows %6zu %-16s scalar %9.3f ms  kernel %9.3f ms  "
                   "(x%d)  %.2fx\n",
                   rows, name, scalar_ms, kernel_ms, iters, speedup);
      if (!gather_json.empty()) gather_json += ", ";
      gather_json += "{\"rows\": " + std::to_string(rows) +
                     ", \"pattern\": \"" + name +
                     "\", \"scalar_ms\": " + std::to_string(scalar_ms) +
                     ", \"kernel_ms\": " + std::to_string(kernel_ms) +
                     ", \"speedup\": " + std::to_string(speedup) + "}";
    }
  }

  std::fprintf(stderr, "(sink %.3f)\n", sink);

  std::string json = "{\"n\": " + std::to_string(n) +
                     ", \"d\": " + std::to_string(d) + ", \"gather\": [" +
                     gather_json + "], \"headline_speedup\": " +
                     std::to_string(headline) + "}";
  std::printf("%s\n", json.c_str());

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
