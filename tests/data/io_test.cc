#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/csv_io.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(IoTest, CsvClassificationRoundTrip) {
  BlobsSpec spec;
  spec.n = 40;
  spec.num_features = 3;
  spec.seed = 5;
  Dataset original = MakeBlobs(spec).value();
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveCsv(original, path).ok());

  CsvOptions opts;
  Dataset loaded = LoadCsv(path, opts).value();
  ASSERT_EQ(loaded.n(), original.n());
  ASSERT_EQ(loaded.num_features(), original.num_features());
  // Labels are remapped by first appearance; class *partition* must match.
  for (size_t i = 0; i < loaded.n(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(original.label(i) == original.label(j),
                loaded.label(i) == loaded.label(j));
    }
  }
  for (size_t i = 0; i < loaded.n(); ++i) {
    EXPECT_NEAR(loaded.features()(i, 0), original.features()(i, 0), 1e-9);
  }
}

TEST_F(IoTest, CsvStringLabels) {
  std::string path = TempPath("strings.csv");
  WriteFile(path, "f0,f1,label\n1,2,cat\n3,4,dog\n5,6,cat\n");
  Dataset d = LoadCsv(path, {}).value();
  EXPECT_EQ(d.n(), 3u);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_EQ(d.label(0), d.label(2));
  EXPECT_NE(d.label(0), d.label(1));
}

TEST_F(IoTest, CsvRegressionTask) {
  std::string path = TempPath("reg.csv");
  WriteFile(path, "a,b,y\n1,2,0.5\n3,4,1.5\n");
  CsvOptions opts;
  opts.task = Task::kRegression;
  Dataset d = LoadCsv(path, opts).value();
  EXPECT_FALSE(d.is_classification());
  EXPECT_DOUBLE_EQ(d.target(1), 1.5);
}

TEST_F(IoTest, CsvCustomLabelColumn) {
  std::string path = TempPath("labelfirst.csv");
  WriteFile(path, "label,f0\n1,10\n0,20\n");
  CsvOptions opts;
  opts.label_column = 0;
  Dataset d = LoadCsv(path, opts).value();
  EXPECT_EQ(d.num_features(), 1u);
  EXPECT_DOUBLE_EQ(d.features()(1, 0), 20.0);
}

TEST_F(IoTest, CsvRejectsRaggedRows) {
  std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,b,y\n1,2,0\n1,2\n");
  EXPECT_FALSE(LoadCsv(path, {}).ok());
}

TEST_F(IoTest, CsvRejectsMissingFile) {
  auto r = LoadCsv(TempPath("does_not_exist.csv"), {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, CsvRejectsEmptyFile) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "header,only\n");
  EXPECT_FALSE(LoadCsv(path, {}).ok());
}

TEST_F(IoTest, LibsvmBasicParsing) {
  std::string path = TempPath("basic.svm");
  WriteFile(path, "+1 1:0.5 3:1.5\n-1 2:2.0\n+1 1:1.0 2:1.0 3:1.0\n");
  Dataset d = LoadLibsvm(path).value();
  EXPECT_EQ(d.n(), 3u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.num_classes(), 2);
  // -1 maps to 0, +1 maps to 1 (sorted distinct labels).
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(1), 0);
  EXPECT_DOUBLE_EQ(d.features()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.features()(0, 1), 0.0);  // Missing entry = 0.
  EXPECT_DOUBLE_EQ(d.features()(1, 1), 2.0);
}

TEST_F(IoTest, LibsvmSkipsCommentsAndBlankLines) {
  std::string path = TempPath("comments.svm");
  WriteFile(path, "# header comment\n\n1 1:1\n2 1:2\n");
  Dataset d = LoadLibsvm(path).value();
  EXPECT_EQ(d.n(), 2u);
}

TEST_F(IoTest, LibsvmDeclaredWidthPadsFeatures) {
  std::string path = TempPath("width.svm");
  WriteFile(path, "0 1:1\n1 2:1\n");
  LibsvmOptions opts;
  opts.num_features = 10;
  Dataset d = LoadLibsvm(path, opts).value();
  EXPECT_EQ(d.num_features(), 10u);
}

TEST_F(IoTest, LibsvmRejectsIndexPastDeclaredWidth) {
  std::string path = TempPath("overflow.svm");
  WriteFile(path, "0 5:1\n");
  LibsvmOptions opts;
  opts.num_features = 3;
  EXPECT_FALSE(LoadLibsvm(path, opts).ok());
}

TEST_F(IoTest, LibsvmRejectsMalformedEntry) {
  std::string path = TempPath("malformed.svm");
  WriteFile(path, "0 nocolon\n");
  EXPECT_FALSE(LoadLibsvm(path).ok());
}

TEST_F(IoTest, LibsvmRejectsZeroFeatureIndex) {
  std::string path = TempPath("zeroidx.svm");
  WriteFile(path, "0 0:1\n");
  EXPECT_FALSE(LoadLibsvm(path).ok());
}

TEST_F(IoTest, LibsvmRegressionKeepsRealLabels) {
  std::string path = TempPath("reg.svm");
  WriteFile(path, "2.5 1:1\n-0.5 1:2\n");
  LibsvmOptions opts;
  opts.task = Task::kRegression;
  Dataset d = LoadLibsvm(path, opts).value();
  EXPECT_DOUBLE_EQ(d.target(0), 2.5);
  EXPECT_DOUBLE_EQ(d.target(1), -0.5);
}

// Asserts that loading fails with InvalidArgument naming `line`.
void ExpectRejectedAtLine(const Result<Dataset>& result, int line) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("line " + std::to_string(line)),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(IoTest, LibsvmRejectsFractionalClassLabels) {
  // 0.6 and 1.4 would both round to class 1 and merge silently.
  std::string path = TempPath("fractional.svm");
  WriteFile(path, "0 1:1\n0.6 1:2\n1.4 1:3\n");
  ExpectRejectedAtLine(LoadLibsvm(path), 2);
}

TEST_F(IoTest, LibsvmRejectsNonFiniteAndOutOfRangeClassLabels) {
  for (const char* label : {"nan", "inf", "-inf", "1e300", "9.3e18"}) {
    std::string path = TempPath("label.svm");
    WriteFile(path, std::string("1 1:1\n") + label + " 1:2\n");
    ExpectRejectedAtLine(LoadLibsvm(path), 2);
  }
}

TEST_F(IoTest, LibsvmRejectsNonFiniteRegressionTargets) {
  LibsvmOptions opts;
  opts.task = Task::kRegression;
  for (const char* target : {"nan", "inf", "-inf"}) {
    std::string path = TempPath("target.svm");
    WriteFile(path, std::string("2.5 1:1\n") + target + " 1:2\n");
    ExpectRejectedAtLine(LoadLibsvm(path, opts), 2);
  }
}

TEST_F(IoTest, LibsvmRejectsRepeatedFeatureIndex) {
  std::string path = TempPath("repeated.svm");
  WriteFile(path, "0 1:1 2:2\n1 1:5 2:1 1:7\n");
  ExpectRejectedAtLine(LoadLibsvm(path), 2);
}

TEST_F(IoTest, LibsvmRejectsNonFiniteFeatureValues) {
  for (const char* value : {"nan", "inf", "-inf", "1e400"}) {
    std::string path = TempPath("value.svm");
    WriteFile(path, std::string("0 1:1\n1 1:") + value + "\n");
    ExpectRejectedAtLine(LoadLibsvm(path), 2);
  }
}

TEST_F(IoTest, CsvRejectsNonFiniteFeatureValues) {
  for (const char* value : {"nan", "inf", "-inf", "1e400"}) {
    std::string path = TempPath("value.csv");
    WriteFile(path, std::string("a,b,y\n1,2,0\n1,") + value + ",1\n");
    ExpectRejectedAtLine(LoadCsv(path, {}), 3);
  }
}

TEST_F(IoTest, CsvRejectsNonFiniteRegressionTargets) {
  CsvOptions opts;
  opts.task = Task::kRegression;
  for (const char* target : {"nan", "inf"}) {
    std::string path = TempPath("target.csv");
    WriteFile(path, std::string("a,y\n1,2.5\n2,") + target + "\n");
    ExpectRejectedAtLine(LoadCsv(path, opts), 3);
  }
}

TEST_F(IoTest, LibsvmAcceptsWholeNumberClassLabelsWrittenAsReals) {
  std::string path = TempPath("whole.svm");
  WriteFile(path, "-1.0 1:1\n1e0 1:2\n-1 1:3\n");
  Dataset d = LoadLibsvm(path).value();
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_EQ(d.label(0), 0);
  EXPECT_EQ(d.label(1), 1);
  EXPECT_EQ(d.label(2), 0);
}

}  // namespace
}  // namespace bhpo
