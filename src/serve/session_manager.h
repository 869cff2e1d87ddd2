#ifndef JIM_SERVE_SESSION_MANAGER_H_
#define JIM_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/strategies.h"
#include "lattice/partition.h"
#include "serve/checkpoint.h"
#include "storage/env.h"
#include "util/status.h"

namespace jim::serve {

struct ServeOptions {
  storage::Env* env = nullptr;  ///< nullptr → storage::DefaultEnv()
  /// Directory for session checkpoints; empty disables checkpointing (and
  /// recovery). Created on demand.
  std::string checkpoint_dir;
  /// Admission control: cap on concurrently live sessions. `create` beyond
  /// it is a typed kResourceExhausted rejection.
  size_t max_sessions = 64;
  /// Default per-session accepted-label cap (a `create` may lower-or-raise
  /// it per session); labels past the cap are kResourceExhausted.
  uint64_t default_max_steps = 4096;
  /// Instance used when `create` does not name one ("" = none; `create`
  /// must then always pass an instance).
  std::string default_instance;
  storage::RetryPolicy retry;
};

/// Owns the live sessions of a serving daemon: per-session engines (COW
/// clones of one prototype per instance, labeled in place) over shared
/// read-only stores, strategy state, admission control, and the
/// checkpoint/recovery path. Thread-safe: the registry is guarded by one
/// mutex, each session by its own, so requests for different sessions
/// proceed in parallel on the server's connection handlers — that is where
/// the daemon's throughput comes from (each pick is scored serially).
///
/// Determinism contract: a session is fully determined by (instance,
/// strategy, seed, label transcript). `suggest` computes the strategy's
/// pick at most once per step (repeats return the cached pick, so polling
/// clients never advance a strategy's RNG), and recovery replays the
/// checkpointed transcript — re-driving PickClass exactly where a suggest
/// preceded the label — so a restarted daemon's remaining responses are
/// byte-identical to an uninterrupted run's.
///
/// Shared first picks: every fresh session starts at its instance's
/// prototype state, and a stateless strategy's pick is a function of that
/// state alone. So each (instance, strategy) keeps three shared picks — at
/// the prototype, and after the root pick was labeled negative or positive
/// — and a session that answers its suggestions reads them instead of
/// re-scoring. The slots are relaxed atomics: two sessions that race on an
/// empty slot compute and store the same value, so no lock guards them.
class SessionManager {
 public:
  explicit SessionManager(ServeOptions options);
  ~SessionManager() = default;

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers an in-memory store under `name` so `create` requests (and
  /// recovered checkpoints) can reference it without a file. The CLI
  /// registers its --load-instance store under the path it came from;
  /// tests register synthetic stores directly.
  void RegisterInstance(const std::string& name,
                        std::shared_ptr<const core::TupleStore> store);

  /// Rebuilds every checkpointed session from `checkpoint_dir` (no-op when
  /// checkpointing is off). Call once, before serving. Fails loudly —
  /// kInvalidArgument for a corrupt checkpoint, kInternal for a replay
  /// divergence — rather than silently dropping a user's session.
  util::Status RecoverSessions();

  struct CreateResult {
    std::string session_id;
    size_t num_tuples = 0;
    size_t num_classes = 0;
    bool done = false;  ///< a one-class instance can be born done
  };
  /// Starts a session: `strategy` on `instance` ("" = the default
  /// instance), with an optional `goal` predicate text. Ids are "s<N>" with
  /// N counting up from 1 (past every recovered "s<N>" id).
  util::StatusOr<CreateResult> Create(const std::string& instance,
                                      std::string_view strategy,
                                      const std::string& goal, uint64_t seed,
                                      uint64_t max_steps);

  struct SuggestResult {
    bool done = false;
    size_t step = 0;  ///< accepted labels so far
    // Valid when !done:
    size_t class_id = 0;
    size_t tuple_index = 0;  ///< representative member of the class
    size_t class_size = 0;
    std::vector<std::string> values;  ///< decoded representative tuple
  };
  util::StatusOr<SuggestResult> Suggest(const std::string& session_id);

  struct LabelResult {
    size_t step = 0;  ///< accepted labels after this one
    /// Classes/tuples the label moved out of the informative pool, the
    /// labeled class included.
    size_t pruned_classes = 0;
    size_t pruned_tuples = 0;
    bool wasted = false;  ///< consistent but taught nothing
    bool done = false;
  };
  /// Labels the session's engine in place: validate (the engine's
  /// CheckLabel verdict), persist the extended transcript, then commit. A
  /// rejected label or a failed checkpoint write returns the error with the
  /// session exactly as it was; with checkpoints on, an acknowledged label is
  /// durable.
  util::StatusOr<LabelResult> Label(const std::string& session_id,
                                    size_t class_id, bool positive);

  struct StatusResult {
    size_t steps = 0;
    bool done = false;
    size_t num_tuples = 0;
    size_t num_classes = 0;
    size_t informative_classes = 0;
    size_t informative_tuples = 0;
    std::string strategy;
    std::string instance;
  };
  util::StatusOr<StatusResult> Status(const std::string& session_id);

  struct ResultReply {
    bool done = false;
    std::string predicate;  ///< θ_P so far (canonical once done)
    bool has_goal = false;
    bool identified_goal = false;  ///< instance-equivalent to the goal
  };
  util::StatusOr<ResultReply> Result(const std::string& session_id);

  /// Removes the session and its checkpoint file. Waits for a Label or
  /// Create of the session already persisting, so no checkpoint write can
  /// land after the removal and bring the session back at restart.
  util::Status Close(const std::string& session_id);

  struct Stats {
    size_t live = 0;
    uint64_t created = 0;
    uint64_t recovered = 0;
    uint64_t closed = 0;  ///< sessions removed by Close
    uint64_t rejected = 0;
  };
  Stats GetStats() const;

  const ServeOptions& options() const { return options_; }

 private:
  /// One stateless strategy's first picks on one instance: slot 0 is the
  /// pick at the prototype's state, slot 1 + answer the pick after slot 0's
  /// class was labeled with `answer` (0 negative, 1 positive). −1 = not yet
  /// computed.
  struct FirstPicks {
    std::atomic<int64_t> slots[3] = {-1, -1, -1};
  };

  struct Instance {
    std::shared_ptr<const core::TupleStore> store;
    /// Built once per instance; sessions start as COW clones of it.
    std::shared_ptr<const core::InferenceEngine> prototype;
    /// Keyed by strategy name, filled by Create under mutex_. The name is
    /// the whole key because Create builds every strategy with MakeStrategy's
    /// default α and candidate cap; a `create` parameter that changes a pick
    /// must join it. Sessions hold their own reference, so re-registering
    /// the instance gives new sessions a fresh table and leaves live ones
    /// with theirs.
    std::map<std::string, std::shared_ptr<FirstPicks>, std::less<>>
        first_picks;
  };

  struct Session {
    std::mutex mutex;
    core::InferenceEngine engine;
    std::unique_ptr<core::Strategy> strategy;
    /// The goal's partition (the schema is the instance's): `result`
    /// checks θ_P against it.
    std::optional<lat::Partition> goal;
    /// Mirrors the durable state: config + accepted transcript.
    SessionCheckpoint checkpoint;
    /// The cached current-step pick (engine state already reflects every
    /// accepted label, so the pick is pending until the next label).
    bool has_pending_pick = false;
    size_t pending_pick = 0;
    /// The instance's shared picks for this strategy, and the slot that
    /// holds the pick at the engine's current state: 0 at creation, 1 or 2
    /// after the first label answered the root pick, −1 once the session
    /// left that script (and always for a non-stateless strategy or a
    /// recovered session).
    std::shared_ptr<FirstPicks> first_picks;
    int first_pick_slot = -1;
    /// Set by Close, under `mutex`, before it removes the checkpoint file.
    /// A Label or Create that takes `mutex` afterwards returns kNotFound
    /// instead of writing the file back.
    bool closed = false;

    Session(const core::InferenceEngine& prototype,
            std::unique_ptr<core::Strategy> strategy_in)
        : engine(prototype), strategy(std::move(strategy_in)) {}
  };

  util::Status EnsureCheckpointDir();
  /// kResourceExhausted (counted as a rejection) when max_sessions are
  /// live. Caller holds mutex_.
  util::Status CheckSessionCap();
  /// Looks `name` up, opening (and caching) the JIMC file on miss.
  util::StatusOr<Instance*> GetOrOpenInstance(const std::string& name);
  util::StatusOr<std::shared_ptr<Session>> FindSession(
      const std::string& session_id);
  /// The strategy's pick at the session's state: its shared slot when that
  /// is filled, else PickClass (publishing the result to an empty slot).
  /// Caller holds the session's mutex.
  static size_t NextPick(Session& session);
  /// Builds a session from its checkpoint: clone, replay every step
  /// (re-driving PickClass where one was recorded), verify convergence.
  util::StatusOr<std::shared_ptr<Session>> ReplayCheckpoint(
      const SessionCheckpoint& checkpoint, const Instance& instance) const;
  /// Persists the session's checkpoint (no-op when checkpointing is off).
  /// Caller holds the session's mutex.
  util::Status PersistSession(Session& session);
  void UpdateLiveGauge() const;

  ServeOptions options_;
  storage::Env* env_;

  mutable std::mutex mutex_;
  std::map<std::string, Instance> instances_;
  /// Looked up by id, never iterated: a hash map keeps the insert and find
  /// under mutex_ short.
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// The next minted id's number. Atomic so Create mints (and formats) its
  /// id before taking mutex_.
  std::atomic<uint64_t> next_session_{1};
  /// Atomics, not mutex_-guarded: Label's step-cap rejection bumps
  /// rejected_ while holding only its session's mutex, and the
  /// manager→session lock order must stay one-way.
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace jim::serve

#endif  // JIM_SERVE_SESSION_MANAGER_H_
