// Golden MLP fits: the final training loss (as raw bits) and the number of
// iterations run, for every solver x activation x depth cell of a small
// classification problem plus a few regression and early-stopping cells.
// The values were recorded with the original allocate-per-call kernels and
// per-layer parameter matrices; the fit engine must reproduce them bit for
// bit, since every search's history digest depends on them.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_view.h"
#include "data/synthetic.h"
#include "ml/mlp.h"

namespace bhpo {
namespace {

struct GoldenCase {
  const char* name;
  Solver solver;
  Activation activation;
  std::vector<size_t> hidden;
  Task task;
  bool early_stopping;
  uint64_t loss_bits;
  int iterations;
  // FNV-1a over the bits of the fitted model's predictions on all rows, so
  // the final parameters (including an early-stopping restore) are pinned
  // too, not just the loss.
  uint64_t predict_digest;
};

Dataset GoldenData(Task task) {
  if (task == Task::kClassification) {
    BlobsSpec spec;
    spec.n = 150;
    spec.num_features = 8;
    spec.informative_features = 6;
    spec.num_classes = 2;
    spec.clusters_per_class = 3;
    spec.seed = 5;
    return MakeBlobs(spec).value().Standardized();
  }
  RegressionSpec spec;
  spec.n = 150;
  spec.num_features = 8;
  spec.seed = 5;
  return MakeRegression(spec).value().Standardized();
}

// Fits on a 120-row subset view, so the minibatch solvers gather every
// batch (32 + 32 + 32 + 24 rows) and L-BFGS materializes the view once.
MlpModel GoldenFit(const GoldenCase& c, const Dataset& data) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < data.n(); ++i) {
    if (i % 5 != 3) rows.push_back(i);
  }
  MlpConfig config;
  config.hidden_layer_sizes = c.hidden;
  config.activation = c.activation;
  config.solver = c.solver;
  config.batch_size = 32;
  config.learning_rate_init = c.solver == Solver::kSgd ? 0.05 : 0.01;
  config.max_iter = c.solver == Solver::kLbfgs ? 25 : 15;
  config.early_stopping = c.early_stopping;
  config.seed = 11;
  MlpModel model(config);
  Status st = model.Fit(DatasetView(data, rows));
  BHPO_CHECK(st.ok()) << st.ToString();
  return model;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

uint64_t PredictDigest(const MlpModel& model, const Dataset& data) {
  std::vector<double> values;
  if (data.is_classification()) {
    values = model.PredictProba(data.features()).data();
  } else {
    values = model.PredictValues(data.features());
  }
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    h ^= Bits(v);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr Solver kL = Solver::kLbfgs;
constexpr Solver kS = Solver::kSgd;
constexpr Solver kA = Solver::kAdam;
constexpr Activation kLog = Activation::kLogistic;
constexpr Activation kTanh = Activation::kTanh;
constexpr Activation kRelu = Activation::kRelu;
constexpr Task kCls = Task::kClassification;
constexpr Task kReg = Task::kRegression;

const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase> cases = {
      // clang-format off
      {"lbfgs_logistic_30",     kL, kLog,  {30},     kCls, false, 0x3f30e401d828b3d0ull, 19,
       0xc98b1ab9f31bae58ull},
      {"lbfgs_logistic_50_50",  kL, kLog,  {50, 50}, kCls, false, 0x3f43f8df9ce044d3ull, 25,
       0x24641cd7da148c6dull},
      {"lbfgs_tanh_30",         kL, kTanh, {30},     kCls, false, 0x3f08612047ee95fcull, 16,
       0x7269e483a832490cull},
      {"lbfgs_tanh_50_50",      kL, kTanh, {50, 50}, kCls, false, 0x3f070d9f962788faull, 16,
       0x5bb1dc5f89b50afcull},
      {"lbfgs_relu_30",         kL, kRelu, {30},     kCls, false, 0x3f00e7e6d9b02244ull, 16,
       0x2bb53048af608265ull},
      {"lbfgs_relu_50_50",      kL, kRelu, {50, 50}, kCls, false, 0x3f074da13116382aull, 16,
       0x5b6d519a281f628cull},
      {"sgd_logistic_30",       kS, kLog,  {30},     kCls, false, 0x3fb81f6a38f72bd4ull, 15,
       0x9796cc6641edd049ull},
      {"sgd_logistic_50_50",    kS, kLog,  {50, 50}, kCls, false, 0x3fe54c8c7e064c49ull, 15,
       0x2986137a2a889fc0ull},
      {"sgd_tanh_30",           kS, kTanh, {30},     kCls, false, 0x3f8c3540117ea875ull, 15,
       0x58577085d9a6bce2ull},
      {"sgd_tanh_50_50",        kS, kTanh, {50, 50}, kCls, false, 0x3f71cbec1107173cull, 15,
       0x242ee67f73cee97eull},
      {"sgd_relu_30",           kS, kRelu, {30},     kCls, false, 0x3f7e57b92995bef3ull, 15,
       0xef58c9e46c7f96f1ull},
      {"sgd_relu_50_50",        kS, kRelu, {50, 50}, kCls, false, 0x3f6007f95cbd97d9ull, 15,
       0x44f39bb2302804d7ull},
      {"adam_logistic_30",      kA, kLog,  {30},     kCls, false, 0x3fc234c873481494ull, 15,
       0x36d1ae1b833b1318ull},
      {"adam_logistic_50_50",   kA, kLog,  {50, 50}, kCls, false, 0x3fab7fcd640e3285ull, 15,
       0x449852af45e0b4dfull},
      {"adam_tanh_30",          kA, kTanh, {30},     kCls, false, 0x3f955fc8aec2c6adull, 15,
       0x29933fe98042e920ull},
      {"adam_tanh_50_50",       kA, kTanh, {50, 50}, kCls, false, 0x3f4a3d1d32fb64e1ull, 15,
       0x132e7c10407d280aull},
      {"adam_relu_30",          kA, kRelu, {30},     kCls, false, 0x3f95efba3f29ad84ull, 15,
       0x85d2630e4bab1e9cull},
      {"adam_relu_50_50",       kA, kRelu, {50, 50}, kCls, false, 0x3f31a730202d6e8dull, 15,
       0xb975e0341ae84015ull},
      {"reg_lbfgs_tanh_30",     kL, kTanh, {30},     kReg, false, 0x3fcb0d6a42fd90c5ull, 25,
       0x5203a45f2eb0f469ull},
      {"reg_adam_relu_50_50",   kA, kRelu, {50, 50}, kReg, false, 0x40051ec6572e07f7ull, 15,
       0xc1c399338e528f52ull},
      {"es_sgd_tanh_30",        kS, kTanh, {30},     kCls, true,  0x3f91d6f64767df8bull, 12,
       0x58a3e9100e6a064full},
      {"es_adam_relu_50_50",    kA, kRelu, {50, 50}, kCls, true,  0x3f3f02d9f9cfdce1ull, 11,
       0x227de4196369ccb3ull},
      // clang-format on
  };
  return cases;
}

class MlpGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MlpGoldenTest, FinalLossBitsAndIterationsMatchReference) {
  const GoldenCase& c = GoldenCases()[GetParam()];
  Dataset data = GoldenData(c.task);
  MlpModel model = GoldenFit(c, data);
  uint64_t digest = PredictDigest(model, data);
  char actual[80];
  std::snprintf(actual, sizeof(actual), "0x%016llxull, %d, 0x%016llxull",
                static_cast<unsigned long long>(Bits(model.final_loss())),
                model.iterations_run(),
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(Bits(model.final_loss()), c.loss_bits)
      << c.name << ": got " << actual << " (loss " << model.final_loss()
      << ")";
  EXPECT_EQ(model.iterations_run(), c.iterations)
      << c.name << ": got " << actual;
  EXPECT_EQ(digest, c.predict_digest) << c.name << ": got " << actual;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, MlpGoldenTest,
    ::testing::Range<size_t>(0, GoldenCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(GoldenCases()[info.param].name);
    });

}  // namespace
}  // namespace bhpo
