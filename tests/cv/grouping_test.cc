#include "cv/grouping.h"

#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bhpo {
namespace {

Dataset ClusteredData(size_t n = 300, int classes = 2, uint64_t seed = 1) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 4;
  spec.num_classes = classes;
  spec.clusters_per_class = 2;
  spec.cluster_spread = 0.6;
  spec.center_spread = 5.0;
  spec.seed = seed;
  return MakeBlobs(spec).value();
}

TEST(EffectiveLabelsTest, BalancedClassesUnchanged) {
  Dataset data = ClusteredData(200, 3, 2);
  GroupingOptions opts;
  int u = 0;
  std::vector<int> labels = EffectiveLabels(data, opts, &u);
  EXPECT_EQ(u, 3);
  EXPECT_EQ(labels, data.labels());
}

TEST(EffectiveLabelsTest, RareClassesMerge) {
  // 4 classes: two big, two tiny (below 10% of n/u = 10 instances each).
  BlobsSpec spec;
  spec.n = 400;
  spec.num_classes = 4;
  spec.class_weights = {0.48, 0.48, 0.02, 0.02};
  spec.seed = 3;
  Dataset data = MakeBlobs(spec).value();
  GroupingOptions opts;  // rare_class_ratio = 0.1 -> threshold = 10.
  int u = 0;
  std::vector<int> labels = EffectiveLabels(data, opts, &u);
  EXPECT_EQ(u, 3);  // Two rare classes merged into one pseudo-class.
  // Instances of original classes 2 and 3 share an effective label.
  int merged = -1;
  for (size_t i = 0; i < data.n(); ++i) {
    if (data.label(i) >= 2) {
      if (merged < 0) merged = labels[i];
      EXPECT_EQ(labels[i], merged);
    }
  }
}

TEST(EffectiveLabelsTest, RegressionBinsTargets) {
  RegressionSpec spec;
  spec.n = 100;
  spec.seed = 4;
  Dataset data = MakeRegression(spec).value();
  GroupingOptions opts;
  opts.regression_bins = 5;
  int u = 0;
  std::vector<int> labels = EffectiveLabels(data, opts, &u);
  EXPECT_EQ(u, 5);
  std::vector<size_t> counts(5, 0);
  for (int l : labels) ++counts[l];
  for (size_t c : counts) EXPECT_EQ(c, 20u);  // Quantile bins are balanced.
}

TEST(BuildGroupingTest, EveryInstanceAssignedToAGroup) {
  Dataset data = ClusteredData();
  GroupingOptions opts;
  opts.num_groups = 3;
  opts.seed = 5;
  Grouping g = BuildGrouping(data, opts).value();
  EXPECT_EQ(g.num_groups, 3);
  ASSERT_EQ(g.group_of.size(), data.n());
  size_t total = 0;
  for (const auto& m : g.members) {
    EXPECT_FALSE(m.empty());
    total += m.size();
  }
  EXPECT_EQ(total, data.n());
  for (size_t i = 0; i < data.n(); ++i) {
    EXPECT_GE(g.group_of[i], 0);
    EXPECT_LT(g.group_of[i], 3);
  }
}

TEST(BuildGroupingTest, MembersConsistentWithGroupOf) {
  Dataset data = ClusteredData(150, 2, 6);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 7;
  Grouping g = BuildGrouping(data, opts).value();
  for (int grp = 0; grp < g.num_groups; ++grp) {
    for (size_t idx : g.members[grp]) {
      EXPECT_EQ(g.group_of[idx], grp);
    }
  }
}

TEST(BuildGroupingTest, ContingencyCountsSumToN) {
  Dataset data = ClusteredData(200, 3, 8);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 9;
  Grouping g = BuildGrouping(data, opts).value();
  size_t total = 0;
  for (const auto& row : g.counts) {
    total += std::accumulate(row.begin(), row.end(), 0u);
  }
  EXPECT_EQ(total, data.n());
}

TEST(BuildGroupingTest, GroupsCaptureFeatureStructure) {
  // Two classes, each split across 2 well-separated feature clusters: the
  // grouping should separate instances by feature cluster, so groups are
  // not simply the class partition.
  Dataset data = ClusteredData(400, 2, 10);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 11;
  Grouping g = BuildGrouping(data, opts).value();
  // At least one group mixes both classes (pure label-based grouping would
  // not, with balanced classes).
  bool some_group_mixes = false;
  for (const auto& m : g.members) {
    std::set<int> classes;
    for (size_t idx : m) classes.insert(data.label(idx));
    if (classes.size() > 1) some_group_mixes = true;
  }
  EXPECT_TRUE(some_group_mixes);
}

TEST(BuildGroupingTest, WorksForRegression) {
  RegressionSpec spec;
  spec.n = 200;
  spec.seed = 12;
  Dataset data = MakeRegression(spec).value();
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 13;
  Grouping g = BuildGrouping(data, opts).value();
  EXPECT_EQ(g.group_of.size(), 200u);
  EXPECT_GT(g.num_effective_classes, 1);
}

TEST(BuildGroupingTest, RejectsInvalidOptions) {
  Dataset data = ClusteredData(50, 2, 16);
  GroupingOptions opts;
  opts.num_groups = 1;
  EXPECT_FALSE(BuildGrouping(data, opts).ok());
  opts.num_groups = 100;  // More groups than instances.
  EXPECT_FALSE(BuildGrouping(data, opts).ok());
}

TEST(BuildGroupingTest, ValidateNeedsAtLeastTwoGroups) {
  GroupingOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.num_groups = 1;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(BuildGroupingTest, DeterministicForFixedSeed) {
  Dataset data = ClusteredData(150, 2, 17);
  GroupingOptions opts;
  opts.num_groups = 3;
  opts.seed = 18;
  Grouping a = BuildGrouping(data, opts).value();
  Grouping b = BuildGrouping(data, opts).value();
  EXPECT_EQ(a.group_of, b.group_of);
}

TEST(MembersWithinTest, RestrictsToSubset) {
  Dataset data = ClusteredData(100, 2, 19);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 20;
  Grouping g = BuildGrouping(data, opts).value();
  std::vector<size_t> subset = {0, 5, 10, 15, 20};
  auto within = g.MembersWithin(subset);
  size_t total = 0;
  for (int grp = 0; grp < 2; ++grp) {
    for (size_t idx : within[grp]) {
      EXPECT_EQ(g.group_of[idx], grp);
      EXPECT_NE(std::find(subset.begin(), subset.end(), idx), subset.end());
    }
    total += within[grp].size();
  }
  EXPECT_EQ(total, subset.size());
}

TEST(SampleFromGroupsTest, QuotaProportionalToGroupSizes) {
  Dataset data = ClusteredData(300, 2, 21);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 22;
  Grouping g = BuildGrouping(data, opts).value();
  Rng rng(23);
  std::vector<size_t> sample = SampleFromGroups(g, 100, &rng);
  ASSERT_EQ(sample.size(), 100u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);

  std::vector<size_t> per_group(2, 0);
  for (size_t idx : sample) ++per_group[g.group_of[idx]];
  double expected0 = 100.0 * g.members[0].size() / 300.0;
  EXPECT_NEAR(static_cast<double>(per_group[0]), expected0, 2.0);
}

TEST(SampleFromGroupsTest, CountClampedToN) {
  Dataset data = ClusteredData(50, 2, 24);
  GroupingOptions opts;
  opts.num_groups = 2;
  opts.seed = 25;
  Grouping g = BuildGrouping(data, opts).value();
  Rng rng(26);
  EXPECT_EQ(SampleFromGroups(g, 1000, &rng).size(), 50u);
}

}  // namespace
}  // namespace bhpo
