// Tests of the benchmark's own helpers: the tail-percentile rule, self time
// as union coverage, digest stability, and metric-name validity (including
// agreement between the metric catalogue and BENCHMARK.json).

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // Descending, so the helpers must sort.
}

TEST(TailPercentileTest, PicksHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    size_t n;
    double percentile;
    size_t beyond;
  };
  const Case cases[] = {
      {20, 50.0, 10},   {39, 50.0, 19},  {40, 75.0, 10},
      {100, 90.0, 10},  {199, 90.0, 19}, {200, 95.0, 10},
      {1000, 99.0, 10}, {1635, 99.0, 16}, {10000, 99.9, 10},
  };
  for (const Case& c : cases) {
    Tail tail = TailPercentile(OneTo(c.n));
    EXPECT_EQ(tail.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(tail.beyond, c.beyond) << "n=" << c.n;
    EXPECT_EQ(tail.samples, c.n);
    // Values are 1..n, so the value is the nearest rank itself.
    EXPECT_EQ(tail.value, static_cast<double>(c.n - c.beyond)) << "n=" << c.n;
  }
}

TEST(TailPercentileTest, FewSamplesFallBackToTheMedianRank) {
  Tail tail = TailPercentile(OneTo(5));
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 3.0);
  EXPECT_EQ(tail.beyond, 2u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
  EXPECT_EQ(TailPercentile({}).value, 0.0);
}

TEST(StatsTest, MedianAndMean) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfOverlappingChildrenOnSeveralLanes) {
  // Children as they would come from three pool lanes: [1,3] and [2,5]
  // overlap, [4,6] overlaps the second, [8,12] runs past the parent.
  Interval parent{0.0, 10.0};
  std::vector<Interval> children = {
      {2.0, 5.0}, {8.0, 12.0}, {1.0, 3.0}, {4.0, 6.0}};
  // Covered inside the parent: [1,6] and [8,10] = 7 seconds.
  EXPECT_DOUBLE_EQ(SelfTime(parent, children), 3.0);
  EXPECT_DOUBLE_EQ(SelfTime(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{-1.0, 4.0}, {3.0, 11.0}}), 0.0);
  // A child entirely outside the parent covers nothing of it.
  EXPECT_DOUBLE_EQ(SelfTime(parent, {{11.0, 12.0}}), 10.0);
}

TEST(SelfTimeTest, UnionCountsOverlapsOnce) {
  EXPECT_DOUBLE_EQ(UnionLength({{0, 2}, {1, 3}, {5, 6}, {5.5, 5.75}}), 4.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 1}, {1, 2}}), 2.0);
  EXPECT_DOUBLE_EQ(UnionLength({{3, 1}}), 0.0);
  EXPECT_DOUBLE_EQ(UnionLength({}), 0.0);
}

bhpo::HpoResult SmallHistory() {
  bhpo::HpoResult result;
  const char* activations[] = {"relu", "tanh", "logistic"};
  for (int rung = 0; rung < 2; ++rung) {
    for (int i = rung; i < 3; ++i) {
      bhpo::EvaluationRecord record;
      record.config.Set("activation", activations[i]);
      record.config.Set("solver", "adam");
      record.budget = 10;  // Clamped budgets repeat across rungs.
      record.score = 0.5 + 0.125 * i + 0.0625 * rung;
      result.history.push_back(record);
    }
  }
  result.best_config = result.history.back().config;
  return result;
}

TEST(DigestTest, IsStableAndSeesEveryBit) {
  bhpo::HpoResult result = SmallHistory();
  uint64_t digest = HistoryDigest(result);
  // Pinned: recorded digests are only comparable while this stays fixed.
  EXPECT_EQ(digest, 0x43b9287383c29c27ull) << std::hex << digest;
  EXPECT_EQ(HistoryDigest(SmallHistory()), digest);

  bhpo::HpoResult score = SmallHistory();
  score.history[1].score = std::nextafter(score.history[1].score, 1.0);
  EXPECT_NE(HistoryDigest(score), digest);

  bhpo::HpoResult budget = SmallHistory();
  budget.history[0].budget = 11;
  EXPECT_NE(HistoryDigest(budget), digest);

  bhpo::HpoResult config = SmallHistory();
  config.history[2].config.Set("solver", "sgd");
  EXPECT_NE(HistoryDigest(config), digest);

  bhpo::HpoResult demoted = SmallHistory();
  demoted.history[0].eval_failed = true;
  EXPECT_NE(HistoryDigest(demoted), digest);

  bhpo::HpoResult winner = SmallHistory();
  winner.best_config = winner.history.front().config;
  EXPECT_NE(HistoryDigest(winner), digest);
}

TEST(DigestTest, IgnoresHyperparameterInsertionOrder) {
  bhpo::HpoResult reordered = SmallHistory();
  for (bhpo::EvaluationRecord& record : reordered.history) {
    bhpo::Configuration swapped;
    swapped.Set("solver", record.config.GetOr("solver", ""));
    swapped.Set("activation", record.config.GetOr("activation", ""));
    record.config = swapped;
  }
  reordered.best_config = reordered.history.back().config;
  EXPECT_EQ(HistoryDigest(reordered), HistoryDigest(SmallHistory()));
}

TEST(CountRungsTest, SplitsOnBudgetChangeAndOnARepeatedConfiguration) {
  EXPECT_EQ(CountRungs(SmallHistory().history), 2u);
  EXPECT_EQ(CountRungs({}), 0u);
}

TEST(PanelTest, FirstSearchUsesTheRunSeed) {
  EXPECT_EQ(PanelSeed(42, 0), 42u);
  EXPECT_NE(PanelSeed(42, 1), PanelSeed(43, 0));
}

TEST(MetricNameTest, Validity) {
  for (const char* good : {"search_s", "ml.fit_ms_p50", "hpo.cache.hit_ratio",
                           "a", "9lives", "x-y"}) {
    EXPECT_TRUE(IsValidMetricName(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "a/b", "é",
                          "quote\"", "colon:x"}) {
    EXPECT_FALSE(IsValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, CatalogueNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(IsValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      std::string better = m.better;
      EXPECT_TRUE(better == "lower" || better == "higher") << m.name;
    }
  }
  for (const WorkloadSpec& w : Workloads()) {
    EXPECT_TRUE(IsValidMetricName(w.name)) << w.name;
  }
}

// The "name" values of one array-valued key of the manifest.
std::vector<std::string> ManifestNames(const std::string& text,
                                       const std::string& key) {
  std::vector<std::string> names;
  size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  size_t open = text.find('[', at);
  size_t close = text.find(']', open);
  std::string section = text.substr(open, close - open);
  const std::string tag = "\"name\"";
  for (size_t p = section.find(tag); p != std::string::npos;
       p = section.find(tag, p + 1)) {
    size_t q1 = section.find('"', section.find(':', p) + 1);
    size_t q2 = section.find('"', q1 + 1);
    names.push_back(section.substr(q1 + 1, q2 - q1 - 1));
  }
  return names;
}

TEST(MetricNameTest, ManifestListsTheCatalogue) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in.good()) << PERFBENCH_MANIFEST;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  auto names = [](const std::vector<MetricSpec>& list) {
    std::vector<std::string> out;
    for (const MetricSpec& m : list) out.push_back(m.name);
    return out;
  };
  EXPECT_EQ(ManifestNames(text, "end_to_end"), names(EndToEndMetrics()));
  EXPECT_EQ(ManifestNames(text, "per_layer"), names(PerLayerMetrics()));
  std::vector<std::string> workloads = ManifestNames(text, "workloads");
  EXPECT_GE(workloads.size(), 2u);
  for (const std::string& name : workloads) {
    EXPECT_NE(FindWorkload(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace perfbench
