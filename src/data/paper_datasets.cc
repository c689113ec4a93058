#include "data/paper_datasets.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/synthetic.h"

namespace bhpo {

namespace {

// Generator knobs per dataset, chosen so the stand-in reproduces the
// original's qualitative character: class balance, number of latent
// clusters, and difficulty (typical MLP accuracy band).
struct GeneratorKnobs {
  int clusters_per_class;
  double cluster_spread;
  double center_spread;
  std::vector<double> class_weights;  // empty = balanced
  double label_noise;
  // Regression-only knobs.
  double reg_noise;
  double reg_nonlinearity;
};

struct Entry {
  PaperDatasetSpec spec;
  GeneratorKnobs knobs;
};

const std::vector<Entry>& Catalog() {
  // Intentionally leaked: immortal catalog, no destructor-order hazard.
  // bhpo-lint: allow(raw-new)
  static const std::vector<Entry>* kCatalog = new std::vector<Entry>{
      // name, task, classes, train, test, features, imbalanced,
      // paper_train, paper_test, paper_features
      {{"australian", Task::kClassification, 2, 552, 138, 14, false, 690, 0,
        14},
       {2, 2.0, 3.0, {}, 0.09, 0, 0}},
      {{"splice", Task::kClassification, 2, 1000, 400, 60, false, 1000, 2175,
        60},
       {3, 3.2, 3.0, {}, 0.12, 0, 0}},
      {{"gisette", Task::kClassification, 2, 1200, 300, 100, false, 6000,
        1000, 5000},
       {2, 2.6, 3.0, {}, 0.03, 0, 0}},
      {{"machine", Task::kClassification, 2, 2000, 500, 9, true, 10000, 0, 9},
       {2, 0.6, 3.4, {0.95, 0.05}, 0.01, 0, 0}},
      {{"NTICUSdroid", Task::kClassification, 2, 2000, 500, 60, false, 29332,
        0, 86},
       {3, 3.0, 3.0, {}, 0.05, 0, 0}},
      {{"a9a", Task::kClassification, 2, 2000, 500, 80, true, 32561, 16281,
        123},
       {3, 2.2, 3.0, {0.76, 0.24}, 0.07, 0, 0}},
      {{"fraud", Task::kClassification, 2, 2000, 500, 30, true, 284807, 0,
        86},
       {2, 0.8, 4.0, {0.98, 0.02}, 0.002, 0, 0}},
      {{"credit2023", Task::kClassification, 2, 2000, 500, 29, false, 568630,
        0, 29},
       {3, 2.4, 3.0, {}, 0.06, 0, 0}},
      {{"satimage", Task::kClassification, 6, 1500, 400, 36, true, 4435,
        2000, 36},
       {2, 1.6, 3.2, {0.24, 0.11, 0.21, 0.10, 0.11, 0.23}, 0.04, 0, 0}},
      {{"usps", Task::kClassification, 10, 1500, 400, 64, false, 7291, 2007,
        256},
       {2, 1.8, 3.4, {}, 0.04, 0, 0}},
      {{"molecules", Task::kRegression, 0, 1500, 375, 80, false, 16242, 0,
        1275},
       {0, 0, 0, {}, 0, 0.3, 6.0}},
      {{"kc-house", Task::kRegression, 0, 1500, 375, 18, false, 21613, 0, 18},
       {0, 0, 0, {}, 0, 1.5, 8.0}},
  };
  return *kCatalog;
}

const Entry* FindEntry(const std::string& name) {
  for (const Entry& e : Catalog()) {
    if (e.spec.name == name) return &e;
  }
  return nullptr;
}

// Stable per-name seed offset so different datasets never share streams even
// when the caller passes the same seed.
uint64_t NameHash(const std::string& name) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const std::vector<PaperDatasetSpec>& PaperDatasets() {
  static const std::vector<PaperDatasetSpec>* kSpecs = [] {
    // Intentionally leaked, same immortal-static pattern as Catalog().
    // bhpo-lint: allow(raw-new)
    auto* specs = new std::vector<PaperDatasetSpec>();
    for (const Entry& e : Catalog()) specs->push_back(e.spec);
    return specs;
  }();
  return *kSpecs;
}

Result<PaperDatasetSpec> GetPaperDatasetSpec(const std::string& name) {
  const Entry* e = FindEntry(name);
  if (e == nullptr) {
    return Status::NotFound("unknown paper dataset '" + name + "'");
  }
  return e->spec;
}

Result<TrainTestSplit> MakePaperDataset(const std::string& name,
                                        uint64_t seed, double scale) {
  const Entry* e = FindEntry(name);
  if (e == nullptr) {
    return Status::NotFound("unknown paper dataset '" + name + "'");
  }
  // NaN and inf would reach std::llround, whose result is then unspecified.
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument("scale must be finite and positive");
  }
  const PaperDatasetSpec& spec = e->spec;
  const GeneratorKnobs& knobs = e->knobs;

  auto scaled = [scale](size_t v) {
    return std::max<size_t>(
        20, static_cast<size_t>(std::llround(scale * static_cast<double>(v))));
  };
  size_t n_train = scaled(spec.train_size);
  size_t n_test = scaled(spec.test_size);
  uint64_t mixed_seed = seed ^ NameHash(name);

  Dataset full;
  if (spec.task == Task::kClassification) {
    BlobsSpec blobs;
    blobs.n = n_train + n_test;
    blobs.num_features = spec.num_features;
    // Leave ~1/4 of the features uninformative: real tabular data carries
    // nuisance dimensions, and they keep feature clustering non-trivial.
    blobs.informative_features =
        std::max<size_t>(2, spec.num_features - spec.num_features / 4);
    blobs.num_classes = spec.num_classes;
    blobs.clusters_per_class = knobs.clusters_per_class;
    blobs.cluster_spread = knobs.cluster_spread;
    blobs.center_spread = knobs.center_spread;
    blobs.class_weights = knobs.class_weights;
    blobs.label_noise = knobs.label_noise;
    blobs.seed = mixed_seed;
    BHPO_ASSIGN_OR_RETURN(full, MakeBlobs(blobs));
  } else {
    RegressionSpec reg;
    reg.n = n_train + n_test;
    reg.num_features = spec.num_features;
    reg.informative_features = std::max<size_t>(5, spec.num_features / 2);
    reg.noise = knobs.reg_noise;
    reg.nonlinearity = knobs.reg_nonlinearity;
    reg.seed = mixed_seed;
    BHPO_ASSIGN_OR_RETURN(full, MakeRegression(reg));
    // Standardize regression targets (zero mean, unit variance): R^2 is
    // scale-free, and normalized targets keep the default MLP learning
    // rates in a workable regime, as scaling pipelines do in practice.
    std::vector<double> targets = full.targets();
    double mean = 0.0;
    for (double t : targets) mean += t;
    mean /= static_cast<double>(targets.size());
    double var = 0.0;
    for (double t : targets) var += (t - mean) * (t - mean);
    double sd = std::sqrt(var / static_cast<double>(targets.size()));
    if (sd < 1e-12) sd = 1.0;
    for (double& t : targets) t = (t - mean) / sd;
    BHPO_ASSIGN_OR_RETURN(
        full, Dataset::Regression(Matrix(full.features()), std::move(targets)));
  }

  full = full.Standardized();
  Rng split_rng(mixed_seed + 1);
  double test_fraction =
      static_cast<double>(n_test) / static_cast<double>(n_train + n_test);
  return SplitTrainTest(full, test_fraction, &split_rng,
                        /*stratified=*/spec.task == Task::kClassification);
}

}  // namespace bhpo
