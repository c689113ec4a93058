#include "data/libsvm_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace bhpo {

namespace {
struct SparseRow {
  double label = 0.0;
  std::vector<std::pair<size_t, double>> entries;  // (1-based index, value)
};

// Class labels must be whole numbers a `long` holds: rounding would merge
// 0.6 and 1.4 into one class, and nan/inf name no class at all. [-2^63,
// 2^63) is exactly the doubles that convert to `long` without overflow.
bool IsClassLabel(double label) {
  constexpr double kLongMin =
      static_cast<double>(std::numeric_limits<long>::min());
  return std::isfinite(label) && label == std::trunc(label) &&
         label >= kLongMin && label < -kLongMin;
}
}  // namespace

Result<Dataset> LoadLibsvm(const std::string& path,
                           const LibsvmOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }

  std::vector<SparseRow> rows;
  size_t max_index = options.num_features;
  std::string line;
  size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    std::istringstream tokens{std::string(trimmed)};
    std::string token;
    if (!(tokens >> token)) continue;
    const std::string at_line = " at line " + std::to_string(line_no);
    SparseRow row;
    BHPO_ASSIGN_OR_RETURN(row.label, ParseDouble(token));
    if (options.task == Task::kClassification && !IsClassLabel(row.label)) {
      return Status::InvalidArgument("class label '" + token +
                                     "' is not an integer that fits in long" +
                                     at_line);
    }
    if (!std::isfinite(row.label)) {
      return Status::InvalidArgument("non-finite target '" + token + "'" +
                                     at_line);
    }

    while (tokens >> token) {
      size_t colon = token.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("malformed entry '" + token + "'" +
                                       at_line);
      }
      BHPO_ASSIGN_OR_RETURN(int index, ParseInt(token.substr(0, colon)));
      BHPO_ASSIGN_OR_RETURN(double value, ParseDouble(token.substr(colon + 1)));
      if (index < 1) {
        return Status::OutOfRange("feature index must be >= 1" + at_line);
      }
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("non-finite feature value '" + token +
                                       "'" + at_line);
      }
      row.entries.emplace_back(static_cast<size_t>(index), value);
      max_index = std::max(max_index, static_cast<size_t>(index));
    }
    std::sort(row.entries.begin(), row.entries.end());
    auto repeated = std::adjacent_find(
        row.entries.begin(), row.entries.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
    if (repeated != row.entries.end()) {
      return Status::InvalidArgument("feature index " +
                                     std::to_string(repeated->first) +
                                     " repeated" + at_line);
    }
    rows.push_back(std::move(row));
  }

  if (rows.empty()) {
    return Status::InvalidArgument("libsvm file '" + path + "' is empty");
  }
  if (options.num_features > 0 && max_index > options.num_features) {
    return Status::OutOfRange("feature index " + std::to_string(max_index) +
                              " exceeds declared num_features");
  }

  Matrix features(rows.size(), max_index);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const auto& [idx, value] : rows[r].entries) {
      features(r, idx - 1) = value;
    }
  }

  if (options.task == Task::kRegression) {
    std::vector<double> targets;
    targets.reserve(rows.size());
    for (const SparseRow& row : rows) targets.push_back(row.label);
    return Dataset::Regression(std::move(features), std::move(targets));
  }

  // Remap distinct labels (e.g. -1/+1) to contiguous ids in sorted order.
  std::map<long, int> label_ids;
  for (const SparseRow& row : rows) {
    label_ids.emplace(static_cast<long>(row.label), 0);
  }
  int next = 0;
  for (auto& [orig, id] : label_ids) id = next++;
  std::vector<int> labels;
  labels.reserve(rows.size());
  for (const SparseRow& row : rows) {
    labels.push_back(label_ids.at(static_cast<long>(row.label)));
  }
  return Dataset::Classification(std::move(features), std::move(labels),
                                 static_cast<int>(label_ids.size()));
}

}  // namespace bhpo
