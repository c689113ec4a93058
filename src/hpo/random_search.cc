#include "hpo/random_search.h"

#include "hpo/sha.h"

namespace bhpo {

Result<HpoResult> RandomSearch::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  RunLedger ledger;
  // Per-(config, budget) evaluation streams: a duplicate sample replays
  // (and cache-hits) its earlier evaluation instead of re-rolling it.
  uint64_t eval_root = rng->engine()();
  for (size_t i = 0; i < num_samples_; ++i) {
    // Every draw is a rung step at rung 0. A draw whose evaluation blows up
    // is demoted, not fatal: it is recorded, never observed, and still
    // counts toward num_samples.
    BHPO_RETURN_NOT_OK(EvaluateRung(strategy_, {sampler_->Sample(rng)}, train,
                                    train.n(), 0, eval_root, nullptr,
                                    sampler_, &ledger)
                           .status());
  }
  return std::move(ledger).Finish();
}

}  // namespace bhpo
