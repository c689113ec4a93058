#ifndef BHPO_HPO_EVAL_CACHE_H_
#define BHPO_HPO_EVAL_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "hpo/eval_strategy.h"

namespace bhpo {

// ---------------------------------------------------------------------------
// EvalCache: a thread-safe memo of configuration-evaluation work.
//
// SHA-family optimizers (SHA, ASHA, Hyperband, BOHB, PASHA, DEHB) re-run a
// surviving configuration's k-fold CV whenever the configuration comes up
// again — a promotion to the clamped top rung, a duplicate sample in a later
// Hyperband bracket, a DE mutant that regenerates its parent. Since PR 2
// every evaluation's randomness is a pure function of
// (run stream root, configuration canonical hash, clamped budget) — see
// PerEvalRng in eval_strategy.h — so the same (config, budget) pair always
// draws the same subset, fold partition and model seeds, and its fold
// scores can be memoized and replayed bit-exactly.
//
// Two entry granularities, one map each:
//  * fold entries, keyed (config hash, subset id, fold index): one CV
//    fold's score (or its deterministic fit failure). Built-in strategies
//    consult these through StrategyOptions::cache and only train the delta
//    folds that are not cached yet.
//  * result entries, keyed (config hash, subset id): a whole EvalResult.
//    CachingStrategy (below) serves these without entering the inner
//    strategy at all.
//
// The subset id is the Rng state fingerprint of the per-evaluation stream
// (mixed with budget and n), NOT a hash of the sampled indices: the stream
// determines the subset, the partition and every model seed, so the
// fingerprint identifies strictly more than the index list — and costs a
// copy of the engine instead of a pass over the subset.
//
// The cache never evicts: a search stores a few thousand entries, and even
// the largest CLI grid about 1e5 small fold entries (DESIGN.md §8). One
// mutex guards both maps and the counters.
//
// A cache must not be shared across datasets, strategies or strategy
// options: those are deliberately not part of the key (the decorator wraps
// exactly one strategy, and a CLI run optimizes exactly one train set).
// ---------------------------------------------------------------------------

// Monotonic counters since construction (or the last Clear).
struct EvalCacheStats {
  size_t fold_hits = 0;
  size_t fold_misses = 0;
  size_t result_hits = 0;
  size_t result_misses = 0;
  size_t entries = 0;  // Fold + result entries currently stored.

  size_t hits() const { return fold_hits + result_hits; }
  size_t misses() const { return fold_misses + result_misses; }
  // Hit fraction over all lookups; 0 when nothing was looked up.
  double hit_rate() const {
    size_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }
};

class EvalCache {
 public:
  // One memoized CV fold: its score, or the fact that its fit failed.
  // Only deterministic outcomes are stored (permanent failures and
  // quarantined NaN scores included); the strategies never insert a
  // transient failure or a timeout, so every stored entry is replayable.
  struct FoldScore {
    double score = 0.0;
    bool failed = false;
  };

  EvalCache() = default;

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  // Fold-granular entries (StrategyOptions::cache path). A discarded
  // lookup is always a bug (it still counts a hit or a miss), hence
  // [[nodiscard]].
  [[nodiscard]] std::optional<FoldScore> LookupFold(uint64_t config_hash,
                                                    uint64_t subset_id,
                                                    uint32_t fold);
  void InsertFold(uint64_t config_hash, uint64_t subset_id, uint32_t fold,
                  const FoldScore& value);

  // Whole-evaluation entries (CachingStrategy path).
  [[nodiscard]] std::optional<EvalResult> LookupResult(uint64_t config_hash,
                                                       uint64_t subset_id);
  void InsertResult(uint64_t config_hash, uint64_t subset_id,
                    const EvalResult& value);

  [[nodiscard]] EvalCacheStats Stats() const;

  // Drops every entry and resets the counters.
  void Clear();

 private:
  struct FoldKey {
    uint64_t config_hash = 0;
    uint64_t subset_id = 0;
    uint32_t fold = 0;

    bool operator==(const FoldKey& other) const {
      return config_hash == other.config_hash &&
             subset_id == other.subset_id && fold == other.fold;
    }
  };

  struct ResultKey {
    uint64_t config_hash = 0;
    uint64_t subset_id = 0;

    bool operator==(const ResultKey& other) const {
      return config_hash == other.config_hash &&
             subset_id == other.subset_id;
    }
  };

  struct KeyHash {
    size_t operator()(const FoldKey& key) const;
    size_t operator()(const ResultKey& key) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<FoldKey, FoldScore, KeyHash> folds_;
  std::unordered_map<ResultKey, EvalResult, KeyHash> results_;
  EvalCacheStats stats_;  // `entries` is derived from the maps in Stats().
};

// ---------------------------------------------------------------------------
// CachingStrategy: EvalStrategy decorator that memoizes whole evaluations.
//
// Works over ANY strategy (vanilla, enhanced, test doubles) without touching
// its internals: the incoming Rng's state fingerprint identifies everything
// the inner evaluation will do, so a stored EvalResult can be replayed
// bit-exactly whenever the same (config, rng state, budget) recurs. On a
// miss the inner strategy runs (its own fold-level cache, if wired through
// StrategyOptions, still saves delta folds) and the result is stored.
//
// Thread-safe for concurrent Evaluate calls iff the inner strategy is.
// ---------------------------------------------------------------------------
class CachingStrategy : public EvalStrategy {
 public:
  // Neither pointer is owned; both must outlive the decorator.
  CachingStrategy(EvalStrategy* inner, EvalCache* cache)
      : inner_(inner), cache_(cache) {
    BHPO_CHECK(inner != nullptr);
    BHPO_CHECK(cache != nullptr);
  }

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override;

  std::string name() const override { return inner_->name() + "+cache"; }

  EvalCache* cache() const { return cache_; }

 private:
  EvalStrategy* inner_;
  EvalCache* cache_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_EVAL_CACHE_H_
