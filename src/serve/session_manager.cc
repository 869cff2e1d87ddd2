#include "serve/session_manager.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "core/join_predicate.h"
#include "exec/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/mapped_store.h"
#include "util/check.h"
#include "util/string_util.h"

namespace jim::serve {

namespace {

/// "s<counter>" ids; returns the numeric part, or 0 for foreign ids (a
/// hand-named checkpoint file still recovers, it just never collides with
/// minted ids because the counter only moves up).
uint64_t SessionIdNumber(const std::string& session_id) {
  if (session_id.size() < 2 || session_id[0] != 's') return 0;
  auto parsed = util::ParseInt64(session_id.substr(1));
  if (!parsed.ok() || *parsed < 0) return 0;
  return static_cast<uint64_t>(*parsed);
}

/// "s<number>", formatted without printf.
std::string SessionIdOf(uint64_t number) {
  char buffer[24] = {'s'};
  const auto [end, ec] = std::to_chars(buffer + 1, buffer + sizeof buffer,
                                       number);
  (void)ec;  // 20 digits always fit
  return std::string(buffer, end);
}

/// What Label and Create return for a session Close removed while they
/// waited for its mutex: the same code as a lookup that finds no session.
util::Status ClosedError(const std::string& session_id) {
  return util::NotFoundError(
      util::StrFormat("session '%s' was closed", session_id.c_str()));
}

}  // namespace

SessionManager::SessionManager(ServeOptions options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : storage::DefaultEnv()) {}

void SessionManager::RegisterInstance(
    const std::string& name, std::shared_ptr<const core::TupleStore> store) {
  Instance instance;
  instance.prototype = std::make_shared<core::InferenceEngine>(store);
  instance.store = std::move(store);
  std::lock_guard<std::mutex> lock(mutex_);
  instances_[name] = std::move(instance);
}

util::Status SessionManager::EnsureCheckpointDir() {
  return env_->CreateDirectories(options_.checkpoint_dir);
}

util::StatusOr<SessionManager::Instance*> SessionManager::GetOrOpenInstance(
    const std::string& name) {
  auto it = instances_.find(name);
  if (it != instances_.end()) return &it->second;
  ASSIGN_OR_RETURN(std::shared_ptr<const core::TupleStore> store,
                   storage::OpenStore(name, env_));
  Instance instance;
  instance.prototype = std::make_shared<core::InferenceEngine>(store);
  instance.store = std::move(store);
  auto inserted = instances_.emplace(name, std::move(instance));
  return &inserted.first->second;
}

util::StatusOr<std::shared_ptr<SessionManager::Session>>
SessionManager::FindSession(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return util::NotFoundError(
        util::StrFormat("no session '%s'", session_id.c_str()));
  }
  return it->second;
}

util::Status SessionManager::CheckSessionCap() {
  if (sessions_.size() < options_.max_sessions) return util::OkStatus();
  rejected_.fetch_add(1, std::memory_order_relaxed);
  JIM_COUNT(obs::kCounterServeSessionsRejected);
  return util::ResourceExhaustedError(util::StrFormat(
      "session limit reached (%zu live, max %zu)", sessions_.size(),
      options_.max_sessions));
}

void SessionManager::UpdateLiveGauge() const {
  JIM_GAUGE_SET(obs::kGaugeServeSessionsLive,
                static_cast<int64_t>(sessions_.size()));
}

util::StatusOr<SessionManager::CreateResult> SessionManager::Create(
    const std::string& instance, std::string_view strategy,
    const std::string& goal, uint64_t seed, uint64_t max_steps) {
  JIM_SPAN(obs::kHistServeCreateMicros);
  const std::string& instance_name =
      instance.empty() ? options_.default_instance : instance;
  if (instance_name.empty()) {
    return util::InvalidArgumentError(
        "create: no 'instance' given and the daemon has no default");
  }
  ASSIGN_OR_RETURN(std::unique_ptr<core::Strategy> strategy_impl,
                   core::MakeStrategy(strategy, seed));
  const bool shares_picks = strategy_impl->stateless();

  // Under the manager lock only what needs it: the instance lookup (and its
  // shared first-pick table). The session clone, the goal parse and the id
  // formatting run outside, so concurrent lookups never wait on them. The
  // cap is checked here too, so a create past the limit is refused before
  // any work, and again with the insert.
  std::shared_ptr<const core::InferenceEngine> prototype;
  std::shared_ptr<FirstPicks> first_picks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RETURN_IF_ERROR(CheckSessionCap());
    ASSIGN_OR_RETURN(Instance * inst, GetOrOpenInstance(instance_name));
    prototype = inst->prototype;
    if (shares_picks) {
      auto slot = inst->first_picks.find(strategy);
      if (slot == inst->first_picks.end()) {
        slot = inst->first_picks
                   .emplace(std::string(strategy),
                            std::make_shared<FirstPicks>())
                   .first;
      }
      first_picks = slot->second;
    }
  }
  const size_t informative = prototype->InformativeClasses().size();
  if (strategy == "optimal" &&
      informative > core::OptimalStrategy::kMaxInformativeClasses) {
    return util::FailedPreconditionError(util::StrFormat(
        "strategy 'optimal' is an exact search limited to %zu "
        "informative classes; instance '%s' has %zu",
        core::OptimalStrategy::kMaxInformativeClasses, instance_name.c_str(),
        informative));
  }
  // The goal is parsed before the clone, so a bad goal costs no clone.
  std::optional<lat::Partition> goal_partition;
  if (!goal.empty()) {
    ASSIGN_OR_RETURN(goal_partition, core::JoinPredicate::ParsePartition(
                                         prototype->store().schema(), goal));
  }
  auto session =
      std::make_shared<Session>(*prototype, std::move(strategy_impl));
  if (shares_picks) {
    session->first_picks = std::move(first_picks);
    session->first_pick_slot = 0;
  }
  session->goal = std::move(goal_partition);
  session->checkpoint.instance = instance_name;
  session->checkpoint.strategy = strategy;
  session->checkpoint.goal = goal;
  session->checkpoint.seed = seed;
  session->checkpoint.max_steps =
      max_steps != 0 ? max_steps : options_.default_max_steps;
  // Every create that got this far takes the next number; on one thread
  // that is the same sequence as minting under mutex_ after the cap check.
  const std::string session_id =
      SessionIdOf(next_session_.fetch_add(1, std::memory_order_relaxed));
  session->checkpoint.session_id = session_id;

  CreateResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RETURN_IF_ERROR(CheckSessionCap());
    sessions_.emplace(session_id, session);
    UpdateLiveGauge();
  }

  // Persist the empty transcript so a restart recovers even a session that
  // has not been labeled yet. On failure the session is rolled back — a
  // create either exists durably or not at all.
  {
    std::lock_guard<std::mutex> session_lock(session->mutex);
    if (session->closed) return ClosedError(session_id);
    util::Status persisted = PersistSession(*session);
    if (!persisted.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(session_id);
      UpdateLiveGauge();
      return persisted;
    }
    result.session_id = session_id;
    result.num_tuples = session->engine.num_tuples();
    result.num_classes = session->engine.num_classes();
    result.done = session->engine.IsDone();
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  JIM_COUNT(obs::kCounterServeSessionsCreated);
  return result;
}

util::Status SessionManager::PersistSession(Session& session) {
  if (options_.checkpoint_dir.empty()) return util::OkStatus();
  JIM_SPAN(obs::kHistServeCheckpointMicros);
  RETURN_IF_ERROR(EnsureCheckpointDir());
  return WriteCheckpoint(*env_, options_.checkpoint_dir, session.checkpoint,
                         options_.retry);
}

size_t SessionManager::NextPick(Session& session) {
  if (session.first_pick_slot < 0) {
    return session.strategy->PickClass(session.engine);
  }
  std::atomic<int64_t>& slot =
      session.first_picks->slots[session.first_pick_slot];
  const int64_t shared = slot.load(std::memory_order_relaxed);
  if (shared < 0) {
    const size_t pick = session.strategy->PickClass(session.engine);
    slot.store(static_cast<int64_t>(pick), std::memory_order_relaxed);
    return pick;
  }
  JIM_COUNT(obs::kCounterServePicksShared);
  JIM_AUDIT(JIM_CHECK_EQ(session.strategy->PickClass(session.engine),
                         static_cast<size_t>(shared)));
  return static_cast<size_t>(shared);
}

util::StatusOr<SessionManager::SuggestResult> SessionManager::Suggest(
    const std::string& session_id) {
  JIM_SPAN(obs::kHistServeSuggestMicros);
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  SuggestResult result;
  result.step = session->checkpoint.steps.size();
  if (session->engine.IsDone()) {
    result.done = true;
    return result;
  }
  if (!session->has_pending_pick) {
    // At most one PickClass per step: repeated suggests return the cached
    // pick, so polling never advances a randomized strategy's RNG (and the
    // checkpointed transcript stays replayable).
    session->pending_pick = NextPick(*session);
    session->has_pending_pick = true;
  }
  result.class_id = session->pending_pick;
  const core::TupleClass& tuple_class =
      session->engine.tuple_class(result.class_id);
  result.tuple_index = tuple_class.tuple_indices[0];
  result.class_size = tuple_class.size();
  const core::TupleStore& store = session->engine.store();
  result.values.reserve(store.num_attributes());
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    result.values.push_back(
        store.DecodeValue(result.tuple_index, a).ToString());
  }
  return result;
}

util::StatusOr<SessionManager::LabelResult> SessionManager::Label(
    const std::string& session_id, size_t class_id, bool positive) {
  JIM_SPAN(obs::kHistServeLabelMicros);
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->closed) return ClosedError(session_id);
  if (session->engine.IsDone()) {
    return util::FailedPreconditionError(
        util::StrFormat("session '%s' is done", session_id.c_str()));
  }
  if (session->checkpoint.steps.size() >= session->checkpoint.max_steps) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    JIM_COUNT(obs::kCounterServeSessionsRejected);
    return util::ResourceExhaustedError(util::StrFormat(
        "session '%s' reached its step cap (%llu)", session_id.c_str(),
        static_cast<unsigned long long>(session->checkpoint.max_steps)));
  }
  if (class_id >= session->engine.num_classes()) {
    return util::InvalidArgumentError(util::StrFormat(
        "class %zu out of range (%zu classes)", class_id,
        session->engine.num_classes()));
  }

  // Validate, persist, commit — all on the session's own engine, with no
  // copy of it. CheckLabel gives exactly SubmitClassLabel's verdict, so a
  // contradiction returns before anything is written; a failed checkpoint
  // write returns before the engine is touched, so the in-memory session
  // never runs ahead of its durable transcript and needs no rollback; and
  // once the step is durable the label cannot fail. With checkpoints off,
  // persisting is a no-op and the same path runs.
  const core::Label label =
      positive ? core::Label::kPositive : core::Label::kNegative;
  RETURN_IF_ERROR(session->engine.CheckLabel(class_id, label));

  CheckpointStep step;
  step.suggested_class = session->has_pending_pick
                             ? static_cast<uint32_t>(session->pending_pick)
                             : kNoSuggestion;
  step.class_id = static_cast<uint32_t>(class_id);
  step.tuple_index = static_cast<uint32_t>(
      session->engine.tuple_class(class_id).tuple_indices[0]);
  step.answer = positive ? 1 : 0;
  session->checkpoint.steps.push_back(step);
  util::Status persisted = PersistSession(*session);
  if (!persisted.ok()) {
    session->checkpoint.steps.pop_back();
    return persisted;
  }
  core::InferenceEngine::LabelImpact impact;
  JIM_CHECK_OK(session->engine.SubmitClassLabel(class_id, label, &impact));
  // Only a label that answers the root pick keeps the session on the shared
  // picks; any other label leads to a state no slot describes.
  session->first_pick_slot =
      session->first_pick_slot == 0 && session->has_pending_pick &&
              session->pending_pick == class_id
          ? 1 + step.answer
          : -1;
  session->has_pending_pick = false;

  LabelResult result;
  result.step = session->checkpoint.steps.size();
  result.pruned_classes = impact.pruned_classes;
  result.pruned_tuples = impact.pruned_tuples;
  result.wasted = impact.pruned_classes == 0;
  result.done = session->engine.IsDone();
  return result;
}

util::StatusOr<SessionManager::StatusResult> SessionManager::Status(
    const std::string& session_id) {
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  core::InferenceEngine::Stats stats = session->engine.GetStats();
  StatusResult result;
  result.steps = session->checkpoint.steps.size();
  result.done = session->engine.IsDone();
  result.num_tuples = stats.num_tuples;
  result.num_classes = stats.num_classes;
  result.informative_classes = stats.informative_classes;
  result.informative_tuples = stats.informative_tuples;
  result.strategy = session->checkpoint.strategy;
  result.instance = session->checkpoint.instance;
  return result;
}

util::StatusOr<SessionManager::ResultReply> SessionManager::Result(
    const std::string& session_id) {
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  ResultReply reply;
  reply.done = session->engine.IsDone();
  core::JoinPredicate predicate = session->engine.Result();
  reply.predicate = predicate.ToString();
  if (session->goal.has_value()) {
    reply.has_goal = true;
    reply.identified_goal =
        reply.done && session->engine.InstanceEquivalent(predicate.partition(),
                                                         *session->goal);
  }
  return reply;
}

util::Status SessionManager::Close(const std::string& session_id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return util::NotFoundError(
          util::StrFormat("no session '%s'", session_id.c_str()));
    }
    session = std::move(it->second);
    sessions_.erase(it);
    UpdateLiveGauge();
  }
  closed_.fetch_add(1, std::memory_order_relaxed);
  JIM_COUNT(obs::kCounterServeSessionsClosed);
  // A Label or Create that found the session before the erase may be inside
  // PersistSession; its rename would put the file back after the removal
  // below. Taking the session's mutex waits it out, and the flag turns away
  // any that take the mutex later.
  std::lock_guard<std::mutex> session_lock(session->mutex);
  session->closed = true;
  if (!options_.checkpoint_dir.empty()) {
    std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(session_id);
    util::Status removed = env_->RemoveFile(path);
    if (!removed.ok() && removed.code() != util::StatusCode::kNotFound) {
      return removed;
    }
  }
  return util::OkStatus();
}

SessionManager::Stats SessionManager::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.live = sessions_.size();
  }
  stats.created = created_.load(std::memory_order_relaxed);
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

util::StatusOr<std::shared_ptr<SessionManager::Session>>
SessionManager::ReplayCheckpoint(const SessionCheckpoint& checkpoint,
                                 const Instance& instance) const {
  ASSIGN_OR_RETURN(
      std::unique_ptr<core::Strategy> strategy,
      core::MakeStrategy(checkpoint.strategy, checkpoint.seed));
  auto session =
      std::make_shared<Session>(*instance.prototype, std::move(strategy));
  if (!checkpoint.goal.empty()) {
    ASSIGN_OR_RETURN(session->goal,
                     core::JoinPredicate::ParsePartition(
                         session->engine.store().schema(), checkpoint.goal));
  }
  session->checkpoint = checkpoint;
  for (size_t i = 0; i < checkpoint.steps.size(); ++i) {
    const CheckpointStep& step = checkpoint.steps[i];
    if (session->engine.IsDone()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu recorded "
          "after the session was done",
          checkpoint.session_id.c_str(), i));
    }
    if (step.suggested_class != kNoSuggestion) {
      // Re-drive the strategy exactly where the live daemon drove it, so
      // RNG-bearing strategies land in the same state the crash left them.
      size_t pick = session->strategy->PickClass(session->engine);
      if (pick != step.suggested_class) {
        return util::InternalError(util::StrFormat(
            "checkpoint replay diverged for session '%s': step %zu suggested "
            "class %zu, checkpoint recorded %u",
            checkpoint.session_id.c_str(), i, pick, step.suggested_class));
      }
    }
    if (step.class_id >= session->engine.num_classes()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu labels "
          "class %u of %zu",
          checkpoint.session_id.c_str(), i, step.class_id,
          session->engine.num_classes()));
    }
    util::Status labeled = session->engine.SubmitClassLabel(
        step.class_id,
        step.answer != 0 ? core::Label::kPositive : core::Label::kNegative);
    if (!labeled.ok()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu rejected: "
          "%s",
          checkpoint.session_id.c_str(), i, labeled.ToString().c_str()));
    }
  }
  return session;
}

util::Status SessionManager::RecoverSessions() {
  if (options_.checkpoint_dir.empty()) return util::OkStatus();
  JIM_SPAN(obs::kHistServeRecoverMicros);
  RETURN_IF_ERROR(EnsureCheckpointDir());
  ASSIGN_OR_RETURN(std::vector<std::string> entries,
                   env_->ListDirectory(options_.checkpoint_dir));
  // ListDirectory order is filesystem-dependent; sort so recovery work and
  // any failure it reports are deterministic.
  std::sort(entries.begin(), entries.end());
  std::vector<SessionCheckpoint> checkpoints;
  for (const std::string& entry : entries) {
    std::string path = options_.checkpoint_dir + "/" + entry;
    if (util::EndsWith(entry, ".tmp")) {
      // Stale atomic-write temp from a crash mid-checkpoint; the final file
      // (old or new) is authoritative.
      (void)env_->RemoveFile(path);
      continue;
    }
    if (!util::StartsWith(entry, "session_") ||
        !util::EndsWith(entry, ".jims")) {
      continue;
    }
    ASSIGN_OR_RETURN(SessionCheckpoint checkpoint,
                     ReadCheckpoint(*env_, path));
    checkpoints.push_back(std::move(checkpoint));
  }
  if (checkpoints.empty()) return util::OkStatus();

  // Open every referenced instance once, up front (serial: instance opens
  // share the manager maps), then fan the per-session replays out over a
  // dedicated pool sized to the checkpoint count, so recovery never queues
  // behind (or nests inside) exec::SharedPool()'s class-building work.
  std::vector<const Instance*> instance_of(checkpoints.size(), nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < checkpoints.size(); ++i) {
      ASSIGN_OR_RETURN(Instance * instance,
                       GetOrOpenInstance(checkpoints[i].instance));
      instance_of[i] = instance;
    }
  }
  std::vector<std::shared_ptr<Session>> replayed(checkpoints.size());
  std::vector<util::Status> statuses(checkpoints.size());
  exec::ThreadPool replay_pool(
      std::max<size_t>(1, std::min(checkpoints.size(),
                                   exec::DefaultThreads())));
  replay_pool.ParallelFor(checkpoints.size(), [&](size_t i, size_t) {
    auto session = ReplayCheckpoint(checkpoints[i], *instance_of[i]);
    if (session.ok()) {
      replayed[i] = std::move(session).value();
    } else {
      statuses[i] = session.status();
    }
  });
  for (const util::Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const std::string& session_id = checkpoints[i].session_id;
    if (sessions_.count(session_id) != 0) {
      return util::InternalError(util::StrFormat(
          "duplicate checkpointed session id '%s'", session_id.c_str()));
    }
    sessions_.emplace(session_id, std::move(replayed[i]));
    next_session_.store(std::max(next_session_.load(std::memory_order_relaxed),
                                 SessionIdNumber(session_id) + 1),
                        std::memory_order_relaxed);
  }
  recovered_.fetch_add(checkpoints.size(), std::memory_order_relaxed);
  JIM_COUNT_N(obs::kCounterServeSessionsRecovered, checkpoints.size());
  UpdateLiveGauge();
  return util::OkStatus();
}

}  // namespace jim::serve
