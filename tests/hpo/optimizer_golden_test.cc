// Golden digests of complete searches for all nine optimizers: every
// evaluation record (configuration, budget, score bits, demotion flag), the
// incumbent, the counters and every FaultReport field, folded into one
// FNV-1a digest per run. The pins were recorded from the optimizers as they
// stood when this file was added; a changed digest means a search changed
// its results, not just its code.
//
// Three families of runs:
//   - FakeStrategy with noise: pure optimizer logic, no models.
//   - a tiny real MLP search through EnhancedStrategy (explicit, disabled
//     fault injector, so BHPO_FAULT cannot leak in); SHA and Hyperband
//     additionally at ThreadPool(1) and ThreadPool(8), which must reproduce
//     the serial digest.
//   - every real search under an explicit 30% mixed-fault injector; the
//     three full-budget searches also through EvalStormStrategy, which
//     fails whole evaluations so that they are demoted.
// Every pinned run ends with a healthy incumbent: none of them exercises an
// all-failed or demoted-winner fallback.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "data/synthetic.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/dehb.h"
#include "hpo/hyperband.h"
#include "hpo/pasha.h"
#include "hpo/random_search.h"
#include "hpo/sha.h"
#include "hpo/smac.h"
#include "hpo/tpe_search.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

void Mix(uint64_t* h, uint64_t value) {
  for (size_t i = 0; i < sizeof(value); ++i) {
    *h ^= (value >> (8 * i)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

void MixString(uint64_t* h, const std::string& s) {
  Mix(h, s.size());
  for (char c : s) {
    *h ^= static_cast<uint8_t>(c);
    *h *= 1099511628211ull;
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t Digest(const HpoResult& result) {
  uint64_t h = 14695981039346656037ull;
  Mix(&h, result.history.size());
  for (const EvaluationRecord& record : result.history) {
    MixString(&h, record.config.Key());
    Mix(&h, record.budget);
    Mix(&h, Bits(record.score));
    Mix(&h, record.eval_failed ? 1 : 0);
  }
  MixString(&h, result.best_config.Key());
  Mix(&h, Bits(result.best_score));
  Mix(&h, result.num_evaluations);
  Mix(&h, result.total_instances);
  const FaultReport& f = result.faults;
  Mix(&h, f.failed_evals);
  Mix(&h, f.failed_folds);
  Mix(&h, f.quarantined_folds);
  Mix(&h, f.timed_out_folds);
  Mix(&h, f.fold_retries);
  Mix(&h, f.injected_faults);
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// The pinned run must end on a healthy incumbent whose record is in the
// history, and its digest must match.
void ExpectGolden(const Result<HpoResult>& run, uint64_t expected) {
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const HpoResult& result = run.value();
  EXPECT_EQ(result.history.size(), result.num_evaluations);
  EXPECT_TRUE(std::isfinite(result.best_score));
  bool winner_recorded = false;
  for (const EvaluationRecord& record : result.history) {
    if (record.config == result.best_config && !record.eval_failed &&
        record.score == result.best_score) {
      winner_recorded = true;
    }
  }
  EXPECT_TRUE(winner_recorded);
  EXPECT_EQ(Digest(result), expected)
      << "actual digest " << Hex(Digest(result)) << " ("
      << result.num_evaluations << " evaluations, "
      << result.faults.failed_evals << " demoted, "
      << result.faults.injected_faults << " faults injected)";
}

// --- FakeStrategy: optimizer logic only ------------------------------------

constexpr double kNoise = 0.3;
constexpr size_t kFakeN = 810;

struct FakeEnv {
  ConfigSpace space = QualitySpace(8);
  Dataset data = BudgetDataset(kFakeN);
  FakeStrategy strategy{kNoise};
};

TEST(OptimizerGoldenTest, FakeSha) {
  FakeEnv env;
  SuccessiveHalving sha(env.space.EnumerateGrid(), &env.strategy);
  Rng rng(101);
  ExpectGolden(sha.Optimize(env.data, &rng), 0x39c604e85347b1fcull);
}

TEST(OptimizerGoldenTest, FakeHyperband) {
  FakeEnv env;
  RandomConfigSampler sampler(&env.space);
  Hyperband hb(&sampler, &env.strategy);
  Rng rng(102);
  ExpectGolden(hb.Optimize(env.data, &rng), 0x98f4170a2187e1e9ull);
}

TEST(OptimizerGoldenTest, FakeBohb) {
  FakeEnv env;
  TpeOptions tpe;
  tpe.min_points = 4;
  Bohb bohb(&env.space, &env.strategy, HyperbandOptions(), tpe);
  Rng rng(103);
  ExpectGolden(bohb.Optimize(env.data, &rng), 0xa93bc3ce7c5bcf6aull);
}

TEST(OptimizerGoldenTest, FakeDehb) {
  FakeEnv env;
  Dehb dehb(&env.space, &env.strategy);
  Rng rng(104);
  ExpectGolden(dehb.Optimize(env.data, &rng), 0xc389999bd6f5fbdcull);
}

TEST(OptimizerGoldenTest, FakeAsha) {
  FakeEnv env;
  AshaOptions options;
  options.max_jobs = 60;
  options.min_budget = 50;
  Asha asha(&env.space, &env.strategy, options);
  Rng rng(105);
  ExpectGolden(asha.Optimize(env.data, &rng), 0xa556031a9cb31fceull);
}

TEST(OptimizerGoldenTest, FakePasha) {
  FakeEnv env;
  env.strategy.noise_ = 2.0;  // Enough noise to grow the ladder.
  PashaOptions options;
  options.max_jobs = 80;
  options.min_budget = 50;
  Pasha pasha(&env.space, &env.strategy, options);
  Rng rng(106);
  ExpectGolden(pasha.Optimize(env.data, &rng), 0xbdba077476cf4598ull);
}

TEST(OptimizerGoldenTest, FakeRandomSearch) {
  FakeEnv env;
  RandomSearch search(&env.space, &env.strategy, 12);
  Rng rng(107);
  ExpectGolden(search.Optimize(env.data, &rng), 0x7928de3bed3a6b78ull);
}

TEST(OptimizerGoldenTest, FakeSmac) {
  FakeEnv env;
  SmacOptions options;
  options.num_iterations = 14;
  options.initial_random = 5;
  options.candidates_per_iteration = 40;
  options.surrogate_trees = 8;
  Smac smac(&env.space, &env.strategy, options);
  Rng rng(108);
  ExpectGolden(smac.Optimize(env.data, &rng), 0xe056f3e53d2b4904ull);
}

TEST(OptimizerGoldenTest, FakeTpe) {
  FakeEnv env;
  TpeSearchOptions options;
  options.num_iterations = 20;
  options.tpe.min_points = 6;
  TpeSearch tpe(&env.space, &env.strategy, options);
  Rng rng(109);
  ExpectGolden(tpe.Optimize(env.data, &rng), 0xd7d93bcd29f25cfcull);
}

// A second Optimize on the same object must not inherit the first run's
// sampler state: equal seeds give equal searches.
void ExpectRerunMatches(HpoOptimizer* optimizer, const Dataset& data,
                        uint64_t seed) {
  Rng first_rng(seed);
  Result<HpoResult> first = optimizer->Optimize(data, &first_rng);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Rng second_rng(seed);
  Result<HpoResult> second = optimizer->Optimize(data, &second_rng);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(Hex(Digest(second.value())), Hex(Digest(first.value())));
}

TEST(OptimizerGoldenTest, FakeBohbRerunMatchesFirstRun) {
  FakeEnv env;
  TpeOptions tpe;
  tpe.min_points = 4;
  Bohb bohb(&env.space, &env.strategy, HyperbandOptions(), tpe);
  ExpectRerunMatches(&bohb, env.data, 103);
}

TEST(OptimizerGoldenTest, FakeDehbRerunMatchesFirstRun) {
  FakeEnv env;
  Dehb dehb(&env.space, &env.strategy);
  ExpectRerunMatches(&dehb, env.data, 104);
}

TEST(OptimizerGoldenTest, FakeTpeRerunMatchesFirstRun) {
  FakeEnv env;
  TpeSearchOptions options;
  options.num_iterations = 20;
  options.tpe.min_points = 6;
  TpeSearch tpe(&env.space, &env.strategy, options);
  ExpectRerunMatches(&tpe, env.data, 109);
}

// --- A tiny real MLP search through EnhancedStrategy ------------------------

struct RealEnv {
  Dataset train;
  ConfigSpace space;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<EnhancedStrategy> strategy;
};

// `fault_spec` empty = an explicit, disabled injector.
std::unique_ptr<RealEnv> MakeRealEnv(const std::string& fault_spec,
                                     ThreadPool* cv_pool) {
  auto env = std::make_unique<RealEnv>();
  BlobsSpec spec;
  spec.n = 120;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.seed = 17;
  env->train = MakeBlobs(spec).value().Standardized();
  BHPO_CHECK(env->space.Add("hidden_layer_sizes", {"(6)", "(10)"}).ok());
  BHPO_CHECK(env->space.Add("activation", {"relu", "tanh"}).ok());
  BHPO_CHECK(env->space.Add("learning_rate_init", {"0.05", "0.01"}).ok());

  env->faults = std::make_unique<FaultInjector>(
      fault_spec.empty() ? FaultPlan() : ParseFaultSpec(fault_spec).value());
  StrategyOptions options;
  options.factory.max_iter = 8;
  options.factory.seed = 23;
  options.cv_pool = cv_pool;
  options.faults = env->faults.get();
  GroupingOptions grouping;
  grouping.seed = 3;
  ScoringOptions scoring;
  scoring.use_variance = true;
  env->strategy = EnhancedStrategy::Create(env->train, grouping,
                                           GenFoldsOptions(), scoring, options)
                      .value();
  return env;
}

Result<HpoResult> RealSha(const std::string& faults, ThreadPool* pool) {
  auto env = MakeRealEnv(faults, pool);
  ShaOptions options;
  options.pool = pool;
  SuccessiveHalving sha(env->space.EnumerateGrid(), env->strategy.get(),
                        options);
  Rng rng(201);
  return sha.Optimize(env->train, &rng);
}

Result<HpoResult> RealHyperband(const std::string& faults, ThreadPool* pool) {
  auto env = MakeRealEnv(faults, pool);
  RandomConfigSampler sampler(&env->space);
  HyperbandOptions options;
  options.min_budget = 40;
  options.pool = pool;
  Hyperband hb(&sampler, env->strategy.get(), options);
  Rng rng(202);
  return hb.Optimize(env->train, &rng);
}

Result<HpoResult> RealBohb(const std::string& faults) {
  auto env = MakeRealEnv(faults, nullptr);
  HyperbandOptions options;
  options.min_budget = 12;
  TpeOptions tpe;
  tpe.min_points = 3;
  Bohb bohb(&env->space, env->strategy.get(), options, tpe);
  Rng rng(203);
  return bohb.Optimize(env->train, &rng);
}

Result<HpoResult> RealDehb(const std::string& faults) {
  auto env = MakeRealEnv(faults, nullptr);
  HyperbandOptions options;
  options.min_budget = 12;
  Dehb dehb(&env->space, env->strategy.get(), options);
  Rng rng(204);
  return dehb.Optimize(env->train, &rng);
}

Result<HpoResult> RealAsha(const std::string& faults) {
  auto env = MakeRealEnv(faults, nullptr);
  AshaOptions options;
  options.max_jobs = 16;
  options.min_budget = 30;
  Asha asha(&env->space, env->strategy.get(), options);
  Rng rng(205);
  return asha.Optimize(env->train, &rng);
}

Result<HpoResult> RealPasha(const std::string& faults) {
  auto env = MakeRealEnv(faults, nullptr);
  PashaOptions options;
  options.max_jobs = 16;
  options.min_budget = 30;
  Pasha pasha(&env->space, env->strategy.get(), options);
  Rng rng(206);
  return pasha.Optimize(env->train, &rng);
}

TEST(OptimizerGoldenTest, RealShaSerialAndPools) {
  constexpr uint64_t kDigest = 0x9251f5955bad28cdull;
  ExpectGolden(RealSha("", nullptr), kDigest);
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ExpectGolden(RealSha("", &pool), kDigest);
  }
}

TEST(OptimizerGoldenTest, RealHyperbandSerialAndPools) {
  constexpr uint64_t kDigest = 0x171a1adf7e5bd809ull;
  ExpectGolden(RealHyperband("", nullptr), kDigest);
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ExpectGolden(RealHyperband("", &pool), kDigest);
  }
}

TEST(OptimizerGoldenTest, RealBohb) {
  ExpectGolden(RealBohb(""), 0x07e15aff93d0b12eull);
}

TEST(OptimizerGoldenTest, RealDehb) {
  ExpectGolden(RealDehb(""), 0xe7cac9208443a513ull);
}

TEST(OptimizerGoldenTest, RealAsha) {
  ExpectGolden(RealAsha(""), 0x5b888fc2d2c65db6ull);
}

TEST(OptimizerGoldenTest, RealPasha) {
  ExpectGolden(RealPasha(""), 0x4989b9e1e848f1a7ull);
}

TEST(OptimizerGoldenTest, RealRandomSearch) {
  auto env = MakeRealEnv("", nullptr);
  RandomSearch search(&env->space, env->strategy.get(), 5);
  Rng rng(207);
  ExpectGolden(search.Optimize(env->train, &rng), 0x21ba2f5b48d0037full);
}

TEST(OptimizerGoldenTest, RealSmac) {
  auto env = MakeRealEnv("", nullptr);
  SmacOptions options;
  options.num_iterations = 6;
  options.initial_random = 3;
  options.candidates_per_iteration = 20;
  options.surrogate_trees = 5;
  Smac smac(&env->space, env->strategy.get(), options);
  Rng rng(208);
  ExpectGolden(smac.Optimize(env->train, &rng), 0x4082c66af729d836ull);
}

TEST(OptimizerGoldenTest, RealTpe) {
  auto env = MakeRealEnv("", nullptr);
  TpeSearchOptions options;
  options.num_iterations = 6;
  options.tpe.min_points = 3;
  TpeSearch tpe(&env->space, env->strategy.get(), options);
  Rng rng(209);
  ExpectGolden(tpe.Optimize(env->train, &rng), 0x898d2f9bde2045e4ull);
}

// --- Every search under an explicit 30% mixed-fault injector ---------------

constexpr char kStorm[] = "rate=0.3,seed=7";

TEST(OptimizerGoldenTest, FaultStormSha) {
  ExpectGolden(RealSha(kStorm, nullptr), 0x6f39108649d4a815ull);
}

TEST(OptimizerGoldenTest, FaultStormHyperband) {
  ExpectGolden(RealHyperband(kStorm, nullptr), 0xb972bb7f2214f151ull);
}

TEST(OptimizerGoldenTest, FaultStormBohb) {
  ExpectGolden(RealBohb(kStorm), 0x028f35575981d3cdull);
}

TEST(OptimizerGoldenTest, FaultStormDehb) {
  ExpectGolden(RealDehb(kStorm), 0x156332bb1c01ad39ull);
}

TEST(OptimizerGoldenTest, FaultStormAsha) {
  ExpectGolden(RealAsha(kStorm), 0x61e0c55e7db58409ull);
}

TEST(OptimizerGoldenTest, FaultStormPasha) {
  ExpectGolden(RealPasha(kStorm), 0x1246db19a68b6f8dull);
}

// kStorm's faults are fold-level: a fold that exhausts its retries is
// quarantined while the other folds still score, so they never fail a whole
// evaluation and never reach the demotion path. For the full-budget
// searches this decorator adds whole-evaluation failures drawn from the same
// plan: an evaluation fails with the demotable Internal status whenever the
// injector would fire kFitThrow or kFitDiverge at a site derived from its
// configuration and budget.
class EvalStormStrategy : public EvalStrategy {
 public:
  EvalStormStrategy(EvalStrategy* inner, const FaultInjector* faults)
      : inner_(inner), faults_(faults) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    uint64_t site = config.Hash() ^ (budget * 0x9e3779b97f4a7c15ull);
    for (FaultPoint point : {FaultPoint::kFitThrow, FaultPoint::kFitDiverge}) {
      if (faults_->Decide(point, site, 0) != FaultKind::kNone) {
        return Status::Internal("injected fault: evaluation failed");
      }
    }
    return inner_->Evaluate(config, train, budget, rng);
  }

  std::string name() const override { return inner_->name(); }

 private:
  EvalStrategy* inner_;
  const FaultInjector* faults_;
};

struct StormEnv {
  std::unique_ptr<RealEnv> env = MakeRealEnv(kStorm, nullptr);
  EvalStormStrategy strategy{env->strategy.get(), env->faults.get()};
};

TEST(OptimizerGoldenTest, FaultStormRandomSearch) {
  StormEnv storm;
  RandomSearch search(&storm.env->space, &storm.strategy, 8);
  Rng rng(207);
  ExpectGolden(search.Optimize(storm.env->train, &rng),
               0x8255112d944dddccull);
}

// A demoted draw still counts toward initial_random: the warm start spends
// exactly initial_random evaluations whether or not they fail, and this run
// demotes at least one of them.
TEST(OptimizerGoldenTest, FaultStormSmac) {
  StormEnv storm;
  SmacOptions options;
  options.num_iterations = 8;
  options.initial_random = 4;
  options.candidates_per_iteration = 20;
  options.surrogate_trees = 5;
  Smac smac(&storm.env->space, &storm.strategy, options);
  Rng rng(208);
  Result<HpoResult> run = smac.Optimize(storm.env->train, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  size_t warm_failed = 0;
  for (size_t i = 0; i < options.initial_random; ++i) {
    if (run.value().history[i].eval_failed) ++warm_failed;
  }
  EXPECT_GT(warm_failed, 0u);
  ExpectGolden(run, 0x340f07097b407054ull);
}

TEST(OptimizerGoldenTest, FaultStormTpe) {
  StormEnv storm;
  TpeSearchOptions options;
  options.num_iterations = 10;
  options.tpe.min_points = 3;
  TpeSearch tpe(&storm.env->space, &storm.strategy, options);
  Rng rng(209);
  ExpectGolden(tpe.Optimize(storm.env->train, &rng), 0x3632f89aea4419f2ull);
}

}  // namespace
}  // namespace bhpo
