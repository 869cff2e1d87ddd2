#ifndef JIMBENCH_WORKLOAD_H_
#define JIMBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tuple_store.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/status.h"

namespace jimbench {

/// The traffic mixes. Everything a run sends — instance, goals,
/// strategy assignment, open-loop schedule — derives from (workload, seed).
struct Workload {
  std::string name;
  /// true: ~1,000 users with exponential think time on a fixed schedule;
  /// false: every connection runs sessions back to back.
  bool open_loop = false;
  /// Strategies sessions draw from (uniformly, per session).
  std::vector<std::string> strategies;
  /// Open loop only: users and offered session actions (create or label
  /// step) per second across all of them.
  size_t users = 0;
  double offered_actions_per_s = 0;
  /// Closed loop only: labels_per_session averages over the first this many
  /// sessions, which every run completes whatever its speed.
  size_t effort_sessions = 0;
};

/// The workload called `name`; kNotFound otherwise.
jim::util::StatusOr<Workload> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The workload's instance, generated from the seed.
std::shared_ptr<const jim::core::TupleStore> MakeInstance(
    const Workload& workload, uint64_t seed);

/// One user session: what `create` sends.
struct SessionSpec {
  uint64_t index = 0;
  std::string strategy;
  std::string goal;  ///< protocol text, e.g. "A0=A3 && A1=A2"
  uint64_t seed = 0;  ///< the strategy's seed
};

/// Session `index` of the run: a seeded random goal of rank 1-3 over the
/// instance's attributes and a strategy drawn from the workload's list.
SessionSpec MakeSessionSpec(const Workload& workload,
                            const jim::core::TupleStore& store, uint64_t seed,
                            uint64_t index);

/// The simulated user's answers: goal text → selected rows, computed once
/// per distinct goal and shared by every client thread.
class Oracle {
 public:
  explicit Oracle(std::shared_ptr<const jim::core::TupleStore> store)
      : store_(std::move(store)) {}
  /// The goal's SelectedRows; the reference stays valid for the oracle's
  /// life.
  const jim::util::DynamicBitset& Selected(const std::string& goal);

 private:
  std::shared_ptr<const jim::core::TupleStore> store_;
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<jim::util::DynamicBitset>> cache_;
};

/// One open-loop user's timeline: the due time of its next action, in
/// seconds from the run's start. Times are drawn from the user's own seeded
/// stream (exponential think time), so the whole schedule is fixed by
/// (seed, user) and does not depend on when responses arrive.
class UserSchedule {
 public:
  UserSchedule(uint64_t seed, uint64_t user, double mean_think_s);
  double due() const { return due_; }
  /// Moves to the next action's due time.
  void Advance();

 private:
  jim::util::Rng rng_;
  double mean_think_s_;
  double due_ = 0;
};

/// Accepted labels a session needs to identify its goal when driven
/// in-process (no daemon): the reference for labels_per_session.
size_t LabelsToIdentify(const jim::core::InferenceEngine& prototype,
                        const SessionSpec& spec, Oracle& oracle);

/// 64-bit mix of two values (splitmix64 finalizer), for deriving
/// independent seeded streams.
uint64_t MixSeed(uint64_t a, uint64_t b);

}  // namespace jimbench

#endif  // JIMBENCH_WORKLOAD_H_
