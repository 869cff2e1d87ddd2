#include "crowd/crowd_join.h"

#include <cmath>

#include "core/engine.h"
#include "core/oracle.h"
#include "util/logging.h"
#include "util/rng.h"

namespace jim::crowd {

namespace {

/// One majority-voted answer; updates the accounting in `result`.
core::Label AskCrowd(const rel::Tuple& tuple, const core::JoinPredicate& goal,
                     const CrowdOptions& options, util::Rng& rng,
                     CrowdRunResult* result) {
  const bool truth = goal.Selects(tuple);
  size_t wrong_votes = 0;
  for (size_t w = 0; w < options.workers_per_question; ++w) {
    if (rng.Bernoulli(options.worker_error_rate)) ++wrong_votes;
  }
  ++result->questions;
  result->worker_answers += options.workers_per_question;
  result->total_cost += static_cast<double>(options.workers_per_question) *
                        options.price_per_answer;
  const bool majority_wrong = wrong_votes * 2 > options.workers_per_question;
  if (majority_wrong) ++result->majority_errors;
  const bool answer = majority_wrong ? !truth : truth;
  return answer ? core::Label::kPositive : core::Label::kNegative;
}

}  // namespace

double MajorityErrorRate(size_t workers, double error_rate) {
  // P[#wrong > workers/2], #wrong ~ Binomial(workers, error_rate).
  double total = 0;
  for (size_t k = workers / 2 + 1; k <= workers; ++k) {
    // C(workers, k) computed iteratively in doubles (workers is small).
    double binom = 1;
    for (size_t i = 0; i < k; ++i) {
      binom *= static_cast<double>(workers - i) / static_cast<double>(i + 1);
    }
    total += binom * std::pow(error_rate, static_cast<double>(k)) *
             std::pow(1 - error_rate, static_cast<double>(workers - k));
  }
  return total;
}

CrowdRunResult RunCrowdJim(std::shared_ptr<const core::TupleStore> store,
                           const core::JoinPredicate& goal,
                           core::Strategy& strategy,
                           const CrowdOptions& options) {
  JIM_CHECK(options.workers_per_question % 2 == 1)
      << "majority voting needs an odd worker count";
  core::InferenceEngine engine(store);
  util::Rng rng(options.seed);
  CrowdRunResult result;

  while (!engine.IsDone()) {
    const size_t class_id = strategy.PickClass(engine);
    const size_t tuple_index = engine.tuple_class(class_id).tuple_indices[0];
    const core::Label answer = AskCrowd(store->DecodeTuple(tuple_index), goal,
                                        options, rng, &result);
    // An informative class accepts either answer, so this cannot fail.
    JIM_CHECK_OK(engine.SubmitClassLabel(class_id, answer));
  }
  result.correct =
      engine.InstanceEquivalent(engine.state().theta_p(), goal.partition());
  return result;
}

CrowdRunResult RunCrowdJim(std::shared_ptr<const rel::Relation> relation,
                           const core::JoinPredicate& goal,
                           core::Strategy& strategy,
                           const CrowdOptions& options) {
  return RunCrowdJim(core::MakeRelationStore(std::move(relation)), goal,
                     strategy, options);
}

CrowdRunResult RunLabelEverything(
    std::shared_ptr<const rel::Relation> relation,
    const core::JoinPredicate& goal, const CrowdOptions& options) {
  JIM_CHECK(options.workers_per_question % 2 == 1)
      << "majority voting needs an odd worker count";
  util::Rng rng(options.seed);
  CrowdRunResult result;
  bool all_correct = true;
  for (size_t t = 0; t < relation->num_rows(); ++t) {
    const core::Label answer =
        AskCrowd(relation->row(t), goal, options, rng, &result);
    const bool truth = goal.Selects(relation->row(t));
    if ((answer == core::Label::kPositive) != truth) all_correct = false;
  }
  result.correct = all_correct;
  return result;
}

}  // namespace jim::crowd
