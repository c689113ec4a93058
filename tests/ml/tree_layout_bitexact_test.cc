// Bit-exactness lockdown for tree training: a DecisionTree, RandomForest or
// GBDT fit must reproduce the trees recorded before the column-blocked
// builder became the only one — identical node structure, thresholds, leaf
// payloads, and therefore identical predictions — on any view and at any
// CV pool size. Every check compares FNV-1a digests of serialized text or
// raw double bits, so equality is exact, never approximate. The digests
// were recorded when a row-major builder still existed beside the
// column-blocked one; both reproduced every digest.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cv/cross_validate.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"

namespace bhpo {
namespace {

Dataset Blobs(size_t n, size_t d, uint64_t seed) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.num_classes = 3;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

Dataset Regression(size_t n, size_t d, uint64_t seed) {
  RegressionSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.seed = seed;
  return MakeRegression(spec).value().Standardized();
}

// FNV-1a, folded over raw bytes: equal digests mean equal bytes.
class Fnv {
 public:
  void Add(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double x) { Add(&x, sizeof(x)); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

std::string Hex(uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// Serialized text captures every split feature, threshold and leaf payload
// at full precision: string equality == structural tree identity.
std::string Serialized(const DecisionTree& tree) {
  std::ostringstream out;
  BHPO_CHECK(SaveDecisionTree(tree, out).ok());
  return out.str();
}

uint64_t TextDigest(const std::string& text) {
  Fnv fnv;
  fnv.Add(text);
  return fnv.value();
}

void ExpectTreeGolden(const DatasetView& view,
                      const DecisionTreeConfig& config, const char* label,
                      size_t nodes, int depth, uint64_t text_digest) {
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(view).ok()) << label;
  EXPECT_EQ(tree.node_count(), nodes) << label;
  EXPECT_EQ(tree.depth(), depth) << label;
  uint64_t actual = TextDigest(Serialized(tree));
  EXPECT_EQ(actual, text_digest) << label << " actual " << Hex(actual);
}

TEST(TreeLayoutBitExactTest, ClassificationTreesMatchOnViews) {
  Dataset data = Blobs(150, 8, 21);
  DecisionTreeConfig config;
  config.max_depth = 6;

  ExpectTreeGolden(DatasetView(data), config, "full", 13, 4,
                   0x3f8934d9e012fbd9ull);

  std::vector<size_t> strided;
  for (size_t i = 0; i < data.n(); i += 3) strided.push_back(i);
  ExpectTreeGolden(DatasetView(data, strided), config, "strided", 7, 3,
                   0xbdf998891258052bull);

  // Bootstrap bag: duplicates force tied feature values inside the sort.
  Rng rng(5);
  std::vector<size_t> bag(data.n());
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  ExpectTreeGolden(DatasetView(data, bag), config, "bootstrap", 11, 4,
                   0xd5ed724585998966ull);
}

TEST(TreeLayoutBitExactTest, RegressionTreesMatch) {
  Dataset data = Regression(120, 6, 22);
  DecisionTreeConfig config;
  config.max_depth = 5;
  config.min_samples_leaf = 2;
  ExpectTreeGolden(DatasetView(data), config, "regression-full", 47, 5,
                   0x8b81262bb73daf66ull);

  std::vector<size_t> half;
  for (size_t i = 0; i < data.n(); i += 2) half.push_back(i);
  ExpectTreeGolden(DatasetView(data, half), config, "regression-half", 29,
                   5, 0xe9056e21c81b8196ull);
}

TEST(TreeLayoutBitExactTest, RandomFeatureSubsetsDrawTheSameRngStream) {
  // max_features > 0 shuffles candidate features per node; the builder
  // must consume the per-node RNG exactly as recorded or trees diverge.
  Dataset data = Blobs(100, 10, 23);
  DecisionTreeConfig config;
  config.max_features = 3;
  config.seed = 77;
  ExpectTreeGolden(DatasetView(data), config, "max-features", 23, 7,
                   0x38541385e64d74f6ull);
}

TEST(TreeLayoutBitExactTest, TinyShapes) {
  Dataset data = Blobs(40, 5, 24);
  DecisionTreeConfig config;
  ExpectTreeGolden(DatasetView(data, {7}), config, "single-row", 1, 0,
                   0x09e532002335d6f9ull);
  ExpectTreeGolden(DatasetView(data, {7, 7, 7}), config, "constant-rows", 1,
                   0, 0x09e532002335d6f9ull);
  ExpectTreeGolden(DatasetView(data, {3, 19}), config, "two-rows", 3, 1,
                   0xf986ba5d5074f5acull);
}

TEST(TreeLayoutBitExactTest, RandomForestPredictionsMatch) {
  Dataset data = Blobs(120, 7, 25);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 3;
  config.tree.max_depth = 5;

  RandomForest forest(config);
  ASSERT_TRUE(forest.Fit(data).ok());
  Fnv labels;
  for (int y : forest.PredictLabels(data.features())) {
    labels.Add(&y, sizeof(y));
  }
  Matrix probabilities = forest.PredictProba(data.features());
  Fnv proba;
  for (double p : probabilities.data()) proba.Add(p);
  EXPECT_EQ(labels.value(), 0xadd3a0273232b043ull)
      << "labels actual " << Hex(labels.value());
  EXPECT_EQ(proba.value(), 0xc5a3f8577e9e3d82ull)
      << "proba actual " << Hex(proba.value());
}

// Digest of the final training loss bits plus every prediction's bits.
void ExpectGbdtGolden(const Dataset& data, const GbdtConfig& config,
                      const char* label, uint64_t loss_bits,
                      uint64_t predict_digest) {
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok()) << label;
  double loss = model.final_loss();
  uint64_t actual_loss;
  std::memcpy(&actual_loss, &loss, sizeof(loss));
  EXPECT_EQ(actual_loss, loss_bits) << label << " actual " << Hex(actual_loss);
  Fnv predictions;
  if (data.is_classification()) {
    for (int y : model.PredictLabels(data.features())) {
      predictions.Add(&y, sizeof(y));
    }
    Matrix probabilities = model.PredictProba(data.features());
    for (double p : probabilities.data()) predictions.Add(p);
  } else {
    for (double v : model.PredictValues(data.features())) predictions.Add(v);
  }
  EXPECT_EQ(predictions.value(), predict_digest)
      << label << " actual " << Hex(predictions.value());
}

TEST(TreeLayoutBitExactTest, GbdtClassificationMatches) {
  GbdtConfig config;
  config.num_rounds = 6;
  config.subsample = 0.7;  // Exercises the per-round subset gather.
  config.seed = 9;
  ExpectGbdtGolden(Blobs(100, 6, 26), config, "gbdt-cls",
                   0x3fe90b894fc81c18ull, 0xdb12144930365d61ull);
}

TEST(TreeLayoutBitExactTest, GbdtRegressionMatches) {
  GbdtConfig config;
  config.num_rounds = 8;
  config.seed = 10;
  ExpectGbdtGolden(Regression(90, 5, 27), config, "gbdt-reg",
                   0x400bf1ea72ee58ebull, 0x47a9502394e4dbb1ull);
}

// ---------------------------------------------------------------------------
// Cross-validation at pool sizes 1 and 8: the fold scores a bandit consumes
// must match the recorded ones no matter how folds are scheduled across
// threads.
// ---------------------------------------------------------------------------

CvOutcome RunCv(const Dataset& data, size_t threads, bool gbdt) {
  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  Rng rng(1);
  StratifiedKFold builder;
  FoldSet folds = builder.Build(data, all, 5, &rng).value();

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  CvOptions options;
  options.pool = pool.get();

  auto factory = [&](size_t fold) -> std::unique_ptr<Model> {
    if (gbdt) {
      GbdtConfig config;
      config.num_rounds = 4;
      config.seed = 100 + fold;
      return std::make_unique<GbdtModel>(config);
    }
    DecisionTreeConfig config;
    config.max_depth = 6;
    config.seed = 100 + fold;
    return std::make_unique<DecisionTree>(config);
  };
  return CrossValidate(DatasetView(data), folds, factory, options).value();
}

uint64_t OutcomeDigest(const CvOutcome& outcome) {
  Fnv fnv;
  fnv.Add(outcome.mean);
  fnv.Add(outcome.stddev);
  for (double score : outcome.fold_scores) fnv.Add(score);
  return fnv.value();
}

TEST(TreeLayoutBitExactTest, CvLayoutTransparentPool1And8) {
  Dataset data = Blobs(140, 6, 28);
  for (bool gbdt : {false, true}) {
    const uint64_t expected =
        gbdt ? 0x47861f46a5bc6274ull : 0xc7f34ac628c8a911ull;
    const char* label = gbdt ? "gbdt" : "tree";
    CvOutcome serial = RunCv(data, 1, gbdt);
    CvOutcome pooled = RunCv(data, 8, gbdt);
    EXPECT_EQ(serial.fold_scores.size(), 5u) << label;
    EXPECT_EQ(OutcomeDigest(serial), expected)
        << label << " actual " << Hex(OutcomeDigest(serial));
    // And the pool itself must be schedule transparent.
    EXPECT_EQ(OutcomeDigest(pooled), OutcomeDigest(serial)) << label;
  }
}

}  // namespace
}  // namespace bhpo
