#include "workload.h"

#include <algorithm>
#include <cmath>

#include "core/join_predicate.h"
#include "core/strategies.h"
#include "util/string_util.h"
#include "workload/synthetic.h"

namespace jimbench {

namespace core = jim::core;
namespace util = jim::util;

namespace {

// Why each workload exists is written down in jimbench/README.md; the
// numbers here are the ones that text explains.
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* workloads = [] {
    auto* list = new std::vector<Workload>();
    Workload lookahead;
    lookahead.name = "lookahead-100k";
    lookahead.strategies = {"lookahead-entropy"};
    lookahead.effort_sessions = 512;
    list->push_back(lookahead);

    Workload interleaved;
    interleaved.name = "interleaved-10k";
    interleaved.open_loop = true;
    interleaved.strategies = {"random", "local-bottom-up", "local-top-down"};
    interleaved.users = 1000;
    // About half the rate at which the parent commit saturates on a 4-vCPU
    // x86 KVM guest (see README.md, "Offered rate of interleaved-10k").
    interleaved.offered_actions_per_s = 12000;
    list->push_back(interleaved);
    return list;
  }();
  return *workloads;
}

std::string GoalText(const core::TupleStore& store,
                     const jim::lat::Partition& partition) {
  std::vector<std::string> parts;
  for (const auto& [i, j] : partition.GeneratorPairs()) {
    parts.push_back(store.schema().attribute(i).QualifiedName() + "=" +
                    store.schema().attribute(j).QualifiedName());
  }
  return util::Join(parts, " && ");
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

util::StatusOr<Workload> FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return util::NotFoundError("unknown workload '" + name + "' (want one of " +
                             util::Join(WorkloadNames(), ", ") + ")");
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

std::shared_ptr<const core::TupleStore> MakeInstance(const Workload& workload,
                                                     uint64_t seed) {
  util::Rng rng(MixSeed(seed, 0));
  // bench_micro's synthetic generator: 6 attributes over a domain of 6.
  jim::workload::SyntheticSpec spec;
  spec.num_tuples = workload.name == "lookahead-100k" ? 100000 : 10000;
  spec.num_attributes = 6;
  spec.domain_size = 6;
  return jim::workload::MakeSyntheticWorkload(spec, rng).store;
}

SessionSpec MakeSessionSpec(const Workload& workload,
                            const core::TupleStore& store, uint64_t seed,
                            uint64_t index) {
  util::Rng rng(MixSeed(MixSeed(seed, 1), index));
  SessionSpec spec;
  spec.index = index;
  const size_t attributes = store.num_attributes();
  const size_t rank = static_cast<size_t>(rng.UniformInt(1, 3));
  spec.goal = GoalText(store, jim::workload::RandomPartitionWithRank(
                                  attributes, std::min(rank, attributes - 1),
                                  rng));
  spec.strategy = workload.strategies[static_cast<size_t>(rng.UniformInt(
      0, static_cast<int64_t>(workload.strategies.size()) - 1))];
  spec.seed = rng.Next() >> 33;  // the protocol's seed is a JSON integer
  return spec;
}

const util::DynamicBitset& Oracle::Selected(const std::string& goal) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(goal);
  if (it != cache_.end()) return *it->second;
  auto parsed = core::JoinPredicate::Parse(store_->schema(), goal);
  JIM_CHECK_OK(parsed.status());
  auto selected =
      std::make_unique<util::DynamicBitset>(parsed->SelectedRows(*store_));
  return *cache_.emplace(goal, std::move(selected)).first->second;
}

UserSchedule::UserSchedule(uint64_t seed, uint64_t user, double mean_think_s)
    : rng_(MixSeed(MixSeed(seed, 3), user)), mean_think_s_(mean_think_s) {
  Advance();  // the first action is one think time in, so starts spread out
}

void UserSchedule::Advance() {
  // Inverse-CDF exponential draw; 1-U keeps log's argument in (0, 1].
  due_ += -mean_think_s_ * std::log(1.0 - rng_.UniformDouble());
}

size_t LabelsToIdentify(const core::InferenceEngine& prototype,
                        const SessionSpec& spec, Oracle& oracle) {
  core::InferenceEngine engine = prototype;
  auto strategy = core::MakeStrategy(spec.strategy, spec.seed);
  JIM_CHECK_OK(strategy.status());
  if (auto* lookahead =
          dynamic_cast<core::LookaheadStrategy*>(strategy->get())) {
    lookahead->set_thread_pool(nullptr);
  }
  const util::DynamicBitset& selected = oracle.Selected(spec.goal);
  size_t labels = 0;
  while (!engine.IsDone()) {
    const size_t pick = (*strategy)->PickClass(engine);
    const size_t tuple = engine.tuple_class(pick).tuple_indices[0];
    JIM_CHECK_OK(engine.SubmitClassLabel(
        pick, selected.Test(tuple) ? core::Label::kPositive
                                   : core::Label::kNegative));
    ++labels;
  }
  return labels;
}

}  // namespace jimbench
