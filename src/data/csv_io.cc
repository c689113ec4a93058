#include "data/csv_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <vector>

#include "common/strings.h"

namespace bhpo {

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }

  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<double> targets;
  std::map<std::string, int> label_ids;

  std::string line;
  size_t line_no = 0;
  bool skipped_header = !options.has_header;
  size_t num_cols = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    std::vector<std::string> fields = Split(trimmed, options.delimiter);
    if (num_cols == 0) {
      num_cols = fields.size();
      if (num_cols < 2) {
        return Status::InvalidArgument(
            "CSV needs at least 2 columns (features + label), line " +
            std::to_string(line_no));
      }
    } else if (fields.size() != num_cols) {
      return Status::InvalidArgument("ragged CSV row at line " +
                                     std::to_string(line_no));
    }
    size_t label_col =
        options.label_column < 0
            ? num_cols - 1
            : static_cast<size_t>(options.label_column);
    if (label_col >= num_cols) {
      return Status::OutOfRange("label column out of range");
    }

    std::vector<double> feature_row;
    feature_row.reserve(num_cols - 1);
    for (size_t c = 0; c < num_cols; ++c) {
      if (c == label_col) continue;
      BHPO_ASSIGN_OR_RETURN(double v, ParseDouble(fields[c]));
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite feature value '" +
                                       fields[c] + "' at line " +
                                       std::to_string(line_no));
      }
      feature_row.push_back(v);
    }
    rows.push_back(std::move(feature_row));

    if (options.task == Task::kClassification) {
      std::string key(StripWhitespace(fields[label_col]));
      auto [it, inserted] =
          label_ids.emplace(key, static_cast<int>(label_ids.size()));
      labels.push_back(it->second);
      (void)inserted;
    } else {
      BHPO_ASSIGN_OR_RETURN(double v, ParseDouble(fields[label_col]));
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite target '" +
                                       fields[label_col] + "' at line " +
                                       std::to_string(line_no));
      }
      targets.push_back(v);
    }
  }

  if (rows.empty()) {
    return Status::InvalidArgument("CSV file '" + path + "' has no data rows");
  }
  Matrix features = Matrix::FromRows(rows);
  if (options.task == Task::kClassification) {
    return Dataset::Classification(std::move(features), std::move(labels));
  }
  return Dataset::Regression(std::move(features), std::move(targets));
}

Status SaveCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  // Round-trippable doubles.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (size_t c = 0; c < dataset.num_features(); ++c) {
    out << "f" << c << ",";
  }
  out << (dataset.is_classification() ? "label" : "target") << "\n";
  for (size_t r = 0; r < dataset.n(); ++r) {
    const double* p = dataset.features().Row(r);
    for (size_t c = 0; c < dataset.num_features(); ++c) {
      out << p[c] << ",";
    }
    if (dataset.is_classification()) {
      out << dataset.label(r);
    } else {
      out << dataset.target(r);
    }
    out << "\n";
  }
  if (!out) {
    return Status::IoError("write failure on '" + path + "'");
  }
  return Status::OK();
}

}  // namespace bhpo
