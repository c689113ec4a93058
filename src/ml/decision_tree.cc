#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/col_block_matrix.h"

namespace bhpo {

Status DecisionTreeConfig::Validate() const {
  if (max_depth < 0) return Status::InvalidArgument("max_depth must be >= 0");
  if (min_samples_split < 2) {
    return Status::InvalidArgument("min_samples_split must be >= 2");
  }
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (max_features < 0) {
    return Status::InvalidArgument("max_features must be >= 0");
  }
  return Status::OK();
}

namespace {

// Gini impurity of class counts.
double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // Lower = better.
};

}  // namespace

// The training rows, gathered once per fit: feature columns, plus the
// labels (classification) or targets (regression) in the same local row
// order 0..n-1.
struct DecisionTree::TrainingRows {
  ColBlockMatrix features;
  std::vector<int> labels;
  std::vector<double> targets;
};

int DecisionTree::BuildNode(const TrainingRows& train,
                            std::vector<size_t>* indices, size_t begin,
                            size_t end, int depth, Rng* rng) {
  size_t n = end - begin;
  BHPO_CHECK_GT(n, 0u);
  depth_ = std::max(depth_, depth);

  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  // Leaf payload (always computed; interior nodes keep it empty later).
  std::vector<double> leaf_value;
  bool pure = true;
  if (task_ == Task::kClassification) {
    leaf_value.assign(num_classes_, 0.0);
    int first = train.labels[(*indices)[begin]];
    for (size_t i = begin; i < end; ++i) {
      int y = train.labels[(*indices)[i]];
      leaf_value[y] += 1.0;
      pure &= y == first;
    }
    for (double& v : leaf_value) v /= static_cast<double>(n);
  } else {
    double mean = 0.0;
    double first = train.targets[(*indices)[begin]];
    for (size_t i = begin; i < end; ++i) {
      double y = train.targets[(*indices)[i]];
      mean += y;
      pure &= y == first;
    }
    leaf_value = {mean / static_cast<double>(n)};
  }

  bool depth_capped = config_.max_depth > 0 && depth >= config_.max_depth;
  if (pure || depth_capped ||
      n < static_cast<size_t>(config_.min_samples_split) ||
      n < 2 * static_cast<size_t>(config_.min_samples_leaf)) {
    nodes_[node_id].value = std::move(leaf_value);
    return node_id;
  }

  // Candidate features: all, or a random subset of max_features.
  size_t num_features = train.features.cols();
  std::vector<size_t> features(num_features);
  std::iota(features.begin(), features.end(), 0);
  if (config_.max_features > 0 &&
      static_cast<size_t>(config_.max_features) < num_features) {
    rng->Shuffle(&features);
    features.resize(config_.max_features);
  }

  // Best split search over sorted feature values with prefix statistics.
  SplitCandidate best;
  std::vector<size_t> scratch(indices->begin() + begin,
                              indices->begin() + end);
  size_t min_leaf = static_cast<size_t>(config_.min_samples_leaf);

  for (size_t f : features) {
    const double* col = train.features.Column(f);
    std::sort(scratch.begin(), scratch.end(),
              [col](size_t a, size_t b) { return col[a] < col[b]; });

    if (task_ == Task::kClassification) {
      std::vector<double> left_counts(num_classes_, 0.0);
      std::vector<double> right_counts(num_classes_, 0.0);
      for (size_t i = 0; i < n; ++i) {
        right_counts[train.labels[scratch[i]]] += 1.0;
      }
      for (size_t i = 0; i + 1 < n; ++i) {
        int y = train.labels[scratch[i]];
        left_counts[y] += 1.0;
        right_counts[y] -= 1.0;
        double lo = col[scratch[i]];
        double hi = col[scratch[i + 1]];
        if (lo == hi) continue;  // No valid threshold between equal values.
        size_t n_left = i + 1, n_right = n - n_left;
        if (n_left < min_leaf || n_right < min_leaf) continue;
        double score =
            static_cast<double>(n_left) * Gini(left_counts, n_left) +
            static_cast<double>(n_right) * Gini(right_counts, n_right);
        if (score < best.score) {
          best = {static_cast<int>(f), (lo + hi) / 2.0, score};
        }
      }
    } else {
      double right_sum = 0.0, right_sq = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double y = train.targets[scratch[i]];
        right_sum += y;
        right_sq += y * y;
      }
      double left_sum = 0.0, left_sq = 0.0;
      for (size_t i = 0; i + 1 < n; ++i) {
        double y = train.targets[scratch[i]];
        left_sum += y;
        left_sq += y * y;
        right_sum -= y;
        right_sq -= y * y;
        double lo = col[scratch[i]];
        double hi = col[scratch[i + 1]];
        if (lo == hi) continue;
        size_t n_left = i + 1, n_right = n - n_left;
        if (n_left < min_leaf || n_right < min_leaf) continue;
        // Weighted child SSE = sum of (sum_sq - sum^2 / n) per side.
        double score = (left_sq - left_sum * left_sum / n_left) +
                       (right_sq - right_sum * right_sum / n_right);
        if (score < best.score) {
          best = {static_cast<int>(f), (lo + hi) / 2.0, score};
        }
      }
    }
  }

  if (best.feature < 0) {
    // No valid split (e.g. all features constant): leaf.
    nodes_[node_id].value = std::move(leaf_value);
    return node_id;
  }

  // Partition [begin, end) by the chosen split.
  const double* best_col = train.features.Column(best.feature);
  auto middle = std::stable_partition(
      indices->begin() + begin, indices->begin() + end,
      [&](size_t idx) { return best_col[idx] <= best.threshold; });
  size_t split_point = static_cast<size_t>(middle - indices->begin());
  BHPO_CHECK(split_point > begin && split_point < end);

  nodes_[node_id].feature = best.feature;
  nodes_[node_id].threshold = best.threshold;
  int left = BuildNode(train, indices, begin, split_point, depth + 1, rng);
  int right = BuildNode(train, indices, split_point, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

Status DecisionTree::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  task_ = train.task();
  num_classes_ = train.is_classification() ? train.num_classes() : 0;
  nodes_.clear();
  depth_ = 0;
  Rng rng(config_.seed);
  size_t n = train.n();

  // Gather-transpose the training rows once, so every split scan streams
  // contiguous columns; labels/targets are gathered alongside, so all
  // builder reads are local-id indexed.
  TrainingRows rows{train.GatherFeatureColumns(), {}, {}};
  if (task_ == Task::kClassification) {
    rows.labels = train.GatherLabels();
  } else {
    rows.targets = train.GatherTargets();
  }
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  BuildNode(rows, &indices, 0, n, 0, &rng);
  fitted_ = true;
  return Status::OK();
}

const DecisionTree::Node& DecisionTree::Descend(const double* row) const {
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node];
}

std::vector<int> DecisionTree::PredictLabels(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictLabels before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  std::vector<int> labels(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    const std::vector<double>& dist = Descend(features.Row(r)).value;
    labels[r] = static_cast<int>(
        std::max_element(dist.begin(), dist.end()) - dist.begin());
  }
  return labels;
}

Matrix DecisionTree::PredictProba(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix proba(features.rows(), num_classes_);
  for (size_t r = 0; r < features.rows(); ++r) {
    const std::vector<double>& dist = Descend(features.Row(r)).value;
    for (int c = 0; c < num_classes_; ++c) proba(r, c) = dist[c];
  }
  return proba;
}

std::vector<double> DecisionTree::PredictValues(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> values(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    values[r] = Descend(features.Row(r)).value[0];
  }
  return values;
}

std::vector<int> DecisionTree::PredictLabels(const DatasetView& view) const {
  BHPO_CHECK(fitted_) << "PredictLabels before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  std::vector<int> labels(view.n());
  for (size_t r = 0; r < view.n(); ++r) {
    const std::vector<double>& dist = Descend(view.row(r)).value;
    labels[r] = static_cast<int>(
        std::max_element(dist.begin(), dist.end()) - dist.begin());
  }
  return labels;
}

Matrix DecisionTree::PredictProba(const DatasetView& view) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix proba(view.n(), num_classes_);
  for (size_t r = 0; r < view.n(); ++r) {
    const std::vector<double>& dist = Descend(view.row(r)).value;
    for (int c = 0; c < num_classes_; ++c) proba(r, c) = dist[c];
  }
  return proba;
}

std::vector<double> DecisionTree::PredictValues(const DatasetView& view) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> values(view.n());
  for (size_t r = 0; r < view.n(); ++r) {
    values[r] = Descend(view.row(r)).value[0];
  }
  return values;
}

}  // namespace bhpo
