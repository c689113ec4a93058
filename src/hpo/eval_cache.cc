#include "hpo/eval_cache.h"

#include <utility>

#include "common/rng.h"

namespace bhpo {

size_t EvalCache::KeyHash::operator()(const FoldKey& key) const {
  return static_cast<size_t>(
      MixSeed(MixSeed(key.config_hash, key.subset_id), key.fold));
}

size_t EvalCache::KeyHash::operator()(const ResultKey& key) const {
  return static_cast<size_t>(MixSeed(key.config_hash, key.subset_id));
}

std::optional<EvalCache::FoldScore> EvalCache::LookupFold(uint64_t config_hash,
                                                          uint64_t subset_id,
                                                          uint32_t fold) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = folds_.find(FoldKey{config_hash, subset_id, fold});
  if (it == folds_.end()) {
    ++stats_.fold_misses;
    return std::nullopt;
  }
  ++stats_.fold_hits;
  return it->second;
}

void EvalCache::InsertFold(uint64_t config_hash, uint64_t subset_id,
                           uint32_t fold, const FoldScore& value) {
  std::lock_guard<std::mutex> lock(mu_);
  // Same key, deterministic computation: a re-insert carries the same
  // value.
  folds_.insert_or_assign(FoldKey{config_hash, subset_id, fold}, value);
}

std::optional<EvalResult> EvalCache::LookupResult(uint64_t config_hash,
                                                  uint64_t subset_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(ResultKey{config_hash, subset_id});
  if (it == results_.end()) {
    ++stats_.result_misses;
    return std::nullopt;
  }
  ++stats_.result_hits;
  return it->second;
}

void EvalCache::InsertResult(uint64_t config_hash, uint64_t subset_id,
                             const EvalResult& value) {
  std::lock_guard<std::mutex> lock(mu_);
  results_.insert_or_assign(ResultKey{config_hash, subset_id}, value);
}

EvalCacheStats EvalCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EvalCacheStats out = stats_;
  out.entries = folds_.size() + results_.size();
  return out;
}

void EvalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  folds_.clear();
  results_.clear();
  stats_ = EvalCacheStats{};
}

Result<EvalResult> CachingStrategy::Evaluate(const Configuration& config,
                                             const Dataset& train,
                                             size_t budget, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  uint64_t config_hash = config.Hash();
  uint64_t subset_id = EvalSubsetId(*rng, budget, train.n());
  if (std::optional<EvalResult> hit =
          cache_->LookupResult(config_hash, subset_id)) {
    // NOTE: `rng` is NOT advanced on a hit. Callers must hand each
    // evaluation its own stream (PerEvalRng does) so skipping the inner
    // strategy's draws cannot shift any later evaluation.
    hit->cache_result_hit = true;
    return std::move(*hit);
  }
  BHPO_ASSIGN_OR_RETURN(EvalResult result,
                        inner_->Evaluate(config, train, budget, rng));
  // A result containing a transient fold failure is not memoized: serving
  // it later would replay a failure that a fresh evaluation might clear.
  bool has_transient = false;
  for (const FoldOutcome& fold : result.cv.folds) {
    if (fold.transient_failure || fold.status == FoldStatus::kTimedOut) {
      has_transient = true;
      break;
    }
  }
  if (!has_transient) cache_->InsertResult(config_hash, subset_id, result);
  return result;
}

}  // namespace bhpo
