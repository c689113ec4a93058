// Per-element cost of the tanh activation: std::tanh against the in-tree
// bodies (src/ml/activations.cc) on one seeded N(0, 3) array, the spread of
// a hidden layer's pre-activations. Each cell is the minimum over --reps
// passes of the time per element. Every body is also compared bit for bit
// with std::tanh; the count is 0 where std::tanh is glibc 2.36's FMA build
// (tests/ml/tanh_test.cc checks the bits on every host).
//
//   micro_activations [--n 65536] [--reps 50] [--out BENCH_activations.json]
//
// Emits one JSON line on stdout (and to --out):
//   {"n":..,"reps":..,"body":"scalar"|"fma"|"avx512","ns_per_element":
//    {"std_tanh":..,"scalar":..,"fma":..,"avx512":..,"dispatched":..},
//    "mismatches":{"scalar":..,"fma":..,"avx512":..}}
// with "body" the one ApplyActivation dispatches to and only the bodies this
// CPU has.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "ml/activations.h"

namespace bhpo {
namespace {

using internal::TanhBody;

// Minimum over `reps` passes of fn(buffer) on a fresh copy of `input`, in
// nanoseconds per element; the result of the last pass stays in `out`.
template <typename Fn>
double NsPerElement(const std::vector<double>& input, int reps,
                    std::vector<double>* out, Fn fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    *out = input;
    auto start = std::chrono::steady_clock::now();
    fn(out->data(), out->size());
    auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(end - start)
                        .count());
  }
  return best / static_cast<double>(input.size());
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int n = flags.GetInt("n", 1 << 16).value();
  int reps = flags.GetInt("reps", 50).value();
  std::string out = flags.GetString("out", "BENCH_activations.json");
  Status unrecognized = flags.CheckUnrecognized();
  if (!unrecognized.ok()) {
    std::fprintf(stderr, "%s\n", unrecognized.ToString().c_str());
    return 1;
  }
  if (n < 1 || reps < 1) {
    std::fprintf(stderr, "--n and --reps must be >= 1\n");
    return 1;
  }

  Rng rng(7);
  std::vector<double> input(static_cast<size_t>(n));
  for (double& x : input) x = rng.Gaussian(0.0, 3.0);

  std::vector<double> expected, result;
  double libm_ns = NsPerElement(input, reps, &expected,
                                [](double* x, size_t count) {
                                  for (size_t i = 0; i < count; ++i) {
                                    x[i] = std::tanh(x[i]);
                                  }
                                });
  std::string ns = "\"std_tanh\": " + std::to_string(libm_ns);
  std::string mismatches;
  std::fprintf(stderr, "%-10s %7.2f ns/element\n", "std::tanh", libm_ns);
  const TanhBody dispatched = internal::DispatchedTanhBody();
  double dispatched_ns = 0.0;
  for (TanhBody body :
       {TanhBody::kScalar, TanhBody::kFma, TanhBody::kAvx512}) {
    if (!internal::TanhBodySupported(body)) continue;
    double body_ns =
        NsPerElement(input, reps, &result, [body](double* x, size_t count) {
          internal::TanhInPlace(body, x, count);
        });
    size_t differ = 0;
    for (size_t i = 0; i < result.size(); ++i) {
      differ += std::memcmp(&result[i], &expected[i], sizeof(double)) != 0;
    }
    const char* name = internal::TanhBodyName(body);
    ns += std::string(", \"") + name + "\": " + std::to_string(body_ns);
    if (!mismatches.empty()) mismatches += ", ";
    mismatches += std::string("\"") + name + "\": " + std::to_string(differ);
    if (body == dispatched) dispatched_ns = body_ns;
    std::fprintf(stderr, "%-10s %7.2f ns/element  %zu mismatches\n", name,
                 body_ns, differ);
  }
  ns += ", \"dispatched\": " + std::to_string(dispatched_ns);

  std::string json = "{\"n\": " + std::to_string(n) +
                     ", \"reps\": " + std::to_string(reps) +
                     ", \"body\": \"" + internal::TanhBodyName(dispatched) +
                     "\", \"ns_per_element\": {" + ns +
                     "}, \"mismatches\": {" + mismatches + "}}";
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
