#ifndef BHPO_ML_DECISION_TREE_H_
#define BHPO_ML_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "ml/model.h"

namespace bhpo {

// CART decision tree (gini impurity for classification, variance reduction
// for regression). A second model family behind the Model interface: the
// HPO layer is model-agnostic, and trees exercise a very different
// hyperparameter response surface than the MLP (depth/leaf-size instead of
// solver dynamics).
struct DecisionTreeConfig {
  // 0 = unlimited.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  // Features examined per split; 0 = all (a random subset of this size is
  // drawn per split when positive — the random-forest setting).
  int max_features = 0;
  uint64_t seed = 0;

  Status Validate() const;
};

class DecisionTree : public Model {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {})
      : config_(std::move(config)) {}

  using Model::Fit;
  using Model::PredictLabels;
  using Model::PredictValues;

  // Gathers the view's rows into contiguous feature columns once, then
  // grows the tree over them.
  Status Fit(const DatasetView& train) override;
  std::vector<int> PredictLabels(const Matrix& features) const override;
  std::vector<double> PredictValues(const Matrix& features) const override;

  // Row-wise view predictions: descend on rows in place, zero gathering.
  std::vector<int> PredictLabels(const DatasetView& view) const override;
  std::vector<double> PredictValues(const DatasetView& view) const override;

  // Classification: per-class probability rows (leaf class frequencies).
  Matrix PredictProba(const Matrix& features) const;
  Matrix PredictProba(const DatasetView& view) const;

  bool fitted() const { return fitted_; }
  size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }

 private:
  friend Status SaveDecisionTree(const DecisionTree& tree, std::ostream& out);
  friend Result<std::unique_ptr<DecisionTree>> LoadDecisionTree(
      std::istream& in);

  struct Node {
    // -1 feature marks a leaf.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    // Leaf payload: class frequencies (classification) or {mean}
    // (regression).
    std::vector<double> value;
  };

  // Gathered training rows (defined in decision_tree.cc).
  struct TrainingRows;

  // Recursive builder over the rows indices[begin, end), which are local
  // row ids into `train`.
  int BuildNode(const TrainingRows& train, std::vector<size_t>* indices,
                size_t begin, size_t end, int depth, Rng* rng);
  const Node& Descend(const double* row) const;

  DecisionTreeConfig config_;
  Task task_ = Task::kClassification;
  int num_classes_ = 0;
  std::vector<Node> nodes_;
  int depth_ = 0;
  bool fitted_ = false;
};

}  // namespace bhpo

#endif  // BHPO_ML_DECISION_TREE_H_
