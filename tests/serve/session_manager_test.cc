// SessionManager contract tests: session lifecycle against the paper's
// Figure 1 oracle, admission control (live-session cap, per-session step
// cap, typed RESOURCE_EXHAUSTED), contradiction rejection, suggest
// idempotence (polling never advances a strategy's RNG),
// checkpoint/recovery determinism — a recovered manager's future picks
// equal the uninterrupted manager's, including for RNG-bearing
// strategies — and the in-place label path: one copy-on-write
// detach per session, and a failed checkpoint write that leaves the session
// exactly at its durable transcript. Recovery reopens a file-backed
// instance with full validation, so a corrupt instance file fails the
// restart typed. The shared first picks: every suggest equals a fresh
// strategy's pick on an engine replayed from the session's labels, the hit
// counter counts exactly the scripted reads, off-script sessions, `random`
// and re-registered instances stay off a table that is not theirs, and
// concurrent sessions racing on a slot match a serial run.

#include "serve/session_manager.h"

#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/jim.h"
#include "gtest/gtest.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/format.h"
#include "storage/store_writer.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "session_manager_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A manager over the registered Figure 1 instance.
std::unique_ptr<SessionManager> MakeManager(ServeOptions options = {}) {
  options.default_instance = "figure1";
  auto manager = std::make_unique<SessionManager>(std::move(options));
  manager->RegisterInstance("figure1", workload::Figure1StorePtr());
  return manager;
}

/// Answers `class_id` the way an exact user with `goal` would: by whether
/// the class's representative tuple is selected.
bool OracleAnswer(const core::TupleStore& store,
                  const core::JoinPredicate& goal, size_t tuple_index) {
  return goal.SelectedRows(store).Test(tuple_index);
}

/// Drives the session to completion with an exact oracle; returns the
/// number of labels submitted.
size_t DriveToDone(SessionManager& manager, const std::string& session_id,
                   const core::JoinPredicate& goal,
                   const core::TupleStore& store) {
  size_t labels = 0;
  for (;;) {
    auto suggested = manager.Suggest(session_id);
    EXPECT_TRUE(suggested.ok()) << suggested.status();
    if (!suggested.ok() || suggested->done) return labels;
    auto labeled = manager.Label(
        session_id, suggested->class_id,
        OracleAnswer(store, goal, suggested->tuple_index));
    EXPECT_TRUE(labeled.ok()) << labeled.status();
    if (!labeled.ok()) return labels;
    ++labels;
    EXPECT_LT(labels, 1000u) << "session did not converge";
    if (labels >= 1000u) return labels;
  }
}

TEST(SessionManagerTest, LifecycleIdentifiesTheFigure1Goal) {
  auto manager = MakeManager();
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  auto created = manager->Create("", "lookahead-entropy", workload::kQ2,
                                 /*seed=*/1, /*max_steps=*/0);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->session_id, "s1");
  EXPECT_EQ(created->num_tuples, store->num_tuples());
  EXPECT_FALSE(created->done);

  const size_t labels =
      DriveToDone(*manager, created->session_id, goal, *store);
  EXPECT_GT(labels, 0u);

  auto status = manager->Status(created->session_id);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_TRUE(status->done);
  EXPECT_EQ(status->steps, labels);
  EXPECT_EQ(status->strategy, "lookahead-entropy");
  EXPECT_EQ(status->instance, "figure1");

  auto result = manager->Result(created->session_id);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->done);
  EXPECT_TRUE(result->has_goal);
  EXPECT_TRUE(result->identified_goal);

  // Done sessions reject further labels with a typed error.
  auto late = manager->Label(created->session_id, 0, true);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);

  EXPECT_TRUE(manager->Close(created->session_id).ok());
  EXPECT_EQ(manager->GetStats().live, 0u);
  EXPECT_EQ(manager->GetStats().closed, 1u);
}

TEST(SessionManagerTest, UnknownSessionIsNotFound) {
  auto manager = MakeManager();
  EXPECT_EQ(manager->Suggest("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Label("s99", 0, true).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Status("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Result("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Close("s99").code(), util::StatusCode::kNotFound);
}

TEST(SessionManagerTest, AdmissionCapRejectsTyped) {
  ServeOptions options;
  options.max_sessions = 2;
  auto manager = MakeManager(std::move(options));
  auto first = manager->Create("", "random", "", 1, 0);
  auto second = manager->Create("", "random", "", 2, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto third = manager->Create("", "random", "", 3, 0);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(manager->GetStats().rejected, 1u);
  // Closing frees the slot.
  ASSERT_TRUE(manager->Close(first->session_id).ok());
  EXPECT_TRUE(manager->Create("", "random", "", 3, 0).ok());
}

TEST(SessionManagerTest, StepCapRejectsTyped) {
  auto manager = MakeManager();
  auto created = manager->Create("", "local-bottom-up", "", 1,
                                 /*max_steps=*/1);
  ASSERT_TRUE(created.ok()) << created.status();
  auto first = manager->Suggest(created->session_id);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(
      manager->Label(created->session_id, first->class_id, false).ok());
  auto second = manager->Suggest(created->session_id);
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(second->done);
  auto capped = manager->Label(created->session_id, second->class_id, false);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(manager->GetStats().rejected, 1u);
  // The rejected label did not touch the session.
  EXPECT_EQ(manager->Status(created->session_id)->steps, 1u);
}

TEST(SessionManagerTest, ContradictionLeavesSessionUntouched) {
  auto manager = MakeManager();
  auto created = manager->Create("", "local-bottom-up", "", 1, 0);
  ASSERT_TRUE(created.ok());
  auto suggested = manager->Suggest(created->session_id);
  ASSERT_TRUE(suggested.ok());
  ASSERT_TRUE(
      manager->Label(created->session_id, suggested->class_id, true).ok());
  // Relabeling the same class negatively contradicts the accepted positive.
  auto contradiction =
      manager->Label(created->session_id, suggested->class_id, false);
  ASSERT_FALSE(contradiction.ok());
  EXPECT_EQ(contradiction.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager->Status(created->session_id)->steps, 1u);
}

TEST(SessionManagerTest, ClassOutOfRangeIsInvalidArgument) {
  auto manager = MakeManager();
  auto created = manager->Create("", "random", "", 1, 0);
  ASSERT_TRUE(created.ok());
  auto labeled =
      manager->Label(created->session_id, created->num_classes + 5, true);
  ASSERT_FALSE(labeled.ok());
  EXPECT_EQ(labeled.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, UnknownInstanceAndStrategyFailTyped) {
  ServeOptions options;  // no default instance
  SessionManager manager(std::move(options));
  EXPECT_EQ(manager.Create("", "random", "", 1, 0).status().code(),
            util::StatusCode::kInvalidArgument);
  auto missing = manager.Create("/does/not/exist.jimc", "random", "", 1, 0);
  EXPECT_FALSE(missing.ok());

  auto with_instance = MakeManager();
  EXPECT_FALSE(with_instance->Create("", "no-such-strategy", "", 1, 0).ok());
  EXPECT_FALSE(with_instance->Create("", "random", "NoSuchAttr=X", 1, 0).ok());
}

TEST(SessionManagerTest, SuggestIsIdempotentUntilTheNextLabel) {
  // Random strategy: if polling advanced the RNG, repeated suggests would
  // (with overwhelming probability) disagree somewhere along the session.
  auto manager = MakeManager();
  auto created = manager->Create("", "random", "", /*seed=*/99, 0);
  ASSERT_TRUE(created.ok());
  for (int step = 0; step < 3; ++step) {
    auto first = manager->Suggest(created->session_id);
    ASSERT_TRUE(first.ok());
    if (first->done) break;
    for (int repeat = 0; repeat < 4; ++repeat) {
      auto again = manager->Suggest(created->session_id);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->class_id, first->class_id);
      EXPECT_EQ(again->step, first->step);
    }
    ASSERT_TRUE(
        manager->Label(created->session_id, first->class_id, false).ok());
  }
}

/// Drives session `id` to completion in both managers with an exact
/// oracle, requiring every suggest and label reply of `replica` to equal
/// `original`'s, and both to identify the goal.
void ExpectIdenticalContinuation(SessionManager& original,
                                 SessionManager& replica,
                                 const std::string& id,
                                 const core::TupleStore& store,
                                 const core::JoinPredicate& goal) {
  for (size_t step = 0; step < 1000; ++step) {
    auto expected = original.Suggest(id);
    auto actual = replica.Suggest(id);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(expected->done, actual->done) << id;
    if (expected->done) break;
    ASSERT_EQ(expected->class_id, actual->class_id)
        << id << " step " << step;
    ASSERT_EQ(expected->tuple_index, actual->tuple_index);
    const bool answer = OracleAnswer(store, goal, expected->tuple_index);
    auto labeled_a = original.Label(id, expected->class_id, answer);
    auto labeled_b = replica.Label(id, actual->class_id, answer);
    ASSERT_TRUE(labeled_a.ok()) << labeled_a.status();
    ASSERT_TRUE(labeled_b.ok()) << labeled_b.status();
    ASSERT_EQ(labeled_a->pruned_classes, labeled_b->pruned_classes);
    ASSERT_EQ(labeled_a->done, labeled_b->done);
  }
  EXPECT_TRUE(original.Result(id)->identified_goal) << id;
  EXPECT_TRUE(replica.Result(id)->identified_goal) << id;
}

TEST(SessionManagerTest, RecoveryContinuesEverySessionIdentically) {
  // The determinism gate: for every strategy (RNG-bearing ones included),
  // drive k labels, recover into a fresh manager from the checkpoint dir,
  // and require the recovered manager's entire remaining pick/answer
  // sequence to equal the uninterrupted manager's.
  const std::vector<std::string> strategies = {
      "random", "local-bottom-up", "lookahead-entropy", "lookahead-minmax"};
  const std::string dir = FreshDir("recovery");
  ServeOptions options;
  options.checkpoint_dir = dir;
  auto manager = MakeManager(options);
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  std::vector<std::string> ids;
  for (size_t i = 0; i < strategies.size(); ++i) {
    auto created = manager->Create("", strategies[i], workload::kQ2,
                                   /*seed=*/10 + i, 0);
    ASSERT_TRUE(created.ok()) << created.status();
    ids.push_back(created->session_id);
    // Stagger progress: i labels for session i (session 0 recovers from an
    // empty transcript). An extra un-labeled suggest on even sessions pins
    // that a pending pick is recomputed identically after recovery.
    for (size_t k = 0; k < i; ++k) {
      auto suggested = manager->Suggest(ids[i]);
      ASSERT_TRUE(suggested.ok());
      ASSERT_FALSE(suggested->done);
      ASSERT_TRUE(manager
                      ->Label(ids[i], suggested->class_id,
                              OracleAnswer(*store, goal,
                                           suggested->tuple_index))
                      .ok());
    }
    if (i % 2 == 0) {
      ASSERT_TRUE(manager->Suggest(ids[i]).ok());
    }
  }

  auto recovered = MakeManager(options);
  ASSERT_TRUE(recovered->RecoverSessions().ok());
  EXPECT_EQ(recovered->GetStats().recovered, strategies.size());
  EXPECT_EQ(recovered->GetStats().live, strategies.size());

  for (const std::string& id : ids) {
    ExpectIdenticalContinuation(*manager, *recovered, id, *store, goal);
  }

  // New sessions in the recovered manager never collide with recovered ids.
  auto fresh = recovered->Create("", "random", "", 1, 0);
  ASSERT_TRUE(fresh.ok());
  for (const std::string& id : ids) {
    EXPECT_NE(fresh->session_id, id);
  }
}

TEST(SessionManagerTest, CloseRemovesTheCheckpoint) {
  const std::string dir = FreshDir("close");
  ServeOptions options;
  options.checkpoint_dir = dir;
  auto manager = MakeManager(options);
  auto created = manager->Create("", "random", "", 1, 0);
  ASSERT_TRUE(created.ok());
  const std::string path =
      dir + "/" + CheckpointFileName(created->session_id);
  EXPECT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(manager->Close(created->session_id).ok());
  EXPECT_FALSE(std::filesystem::exists(path));

  auto recovered = MakeManager(options);
  ASSERT_TRUE(recovered->RecoverSessions().ok());
  EXPECT_EQ(recovered->GetStats().live, 0u);
}

/// The default Env, except that once armed, the next RenameReplacing
/// announces itself and then blocks until Release(): a checkpoint write held
/// between its temp file and the rename that publishes it.
class LatchedRenameEnv final : public storage::Env {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void WaitUntilRenaming() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return renaming_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

  util::Status RenameReplacing(const std::string& from,
                               const std::string& to) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_) {
        armed_ = false;
        renaming_ = true;
        changed_.notify_all();
        changed_.wait(lock, [this] { return released_; });
      }
    }
    return base_->RenameReplacing(from, to);
  }
  util::StatusOr<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  util::StatusOr<std::unique_ptr<storage::ReadRegion>> MapReadOnly(
      const std::string& path) override {
    return base_->MapReadOnly(path);
  }
  util::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  util::Status SyncDirectory(const std::string& dir) override {
    return base_->SyncDirectory(dir);
  }
  util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override {
    return base_->ListDirectory(dir);
  }
  util::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  util::Status CreateDirectories(const std::string& dir) override {
    return base_->CreateDirectories(dir);
  }
  void SleepForMicros(uint64_t micros) override {
    base_->SleepForMicros(micros);
  }

 private:
  storage::Env* const base_ = storage::DefaultEnv();
  std::mutex mutex_;
  std::condition_variable changed_;
  bool armed_ = false;
  bool renaming_ = false;
  bool released_ = false;
};

TEST(SessionManagerTest, CloseDuringACheckpointWriteStaysClosedAtRestart) {
  // A label's checkpoint write is held just before its rename while Close
  // runs. Whatever the interleaving, a closed session must not come back:
  // the rename may not land after Close removed the file.
  const std::string dir = FreshDir("close_race");
  LatchedRenameEnv env;
  ServeOptions options;
  options.env = &env;
  options.checkpoint_dir = dir;
  auto manager = MakeManager(options);
  auto created = manager->Create("", "random", "", 1, 0);
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string id = created->session_id;
  auto suggested = manager->Suggest(id);
  ASSERT_TRUE(suggested.ok() && !suggested->done);

  env.Arm();
  util::StatusOr<SessionManager::LabelResult> labeled =
      util::InternalError("label never ran");
  std::thread label_thread(
      [&] { labeled = manager->Label(id, suggested->class_id, false); });
  env.WaitUntilRenaming();
  util::Status closed = util::InternalError("close never ran");
  std::thread close_thread([&] { closed = manager->Close(id); });
  // Close has unlisted the session (it may now wait for the label).
  while (manager->GetStats().live != 0) std::this_thread::yield();
  env.Release();
  label_thread.join();
  close_thread.join();
  // The label was already persisting when Close began, so it completes.
  EXPECT_TRUE(labeled.ok()) << labeled.status();
  EXPECT_TRUE(closed.ok()) << closed;
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + CheckpointFileName(id)));

  ServeOptions reopen_options;
  reopen_options.checkpoint_dir = dir;
  auto recovered = MakeManager(reopen_options);
  ASSERT_TRUE(recovered->RecoverSessions().ok());
  EXPECT_EQ(recovered->GetStats().live, 0u);
  EXPECT_EQ(recovered->GetStats().recovered, 0u);
}

TEST(SessionManagerTest, RecoveryFailsLoudOnCorruptCheckpoint) {
  const std::string dir = FreshDir("corrupt");
  ServeOptions options;
  options.checkpoint_dir = dir;
  {
    auto manager = MakeManager(options);
    ASSERT_TRUE(manager->Create("", "random", "", 1, 0).ok());
  }
  // Flip a byte in the checkpoint body; the checksum must catch it and
  // recovery must surface a typed error, not silently drop the session.
  const std::string path = dir + "/" + CheckpointFileName("s1");
  std::string bytes;
  {
    auto contents = storage::DefaultEnv()->ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    bytes = *contents;
  }
  ASSERT_GT(bytes.size(), 10u);
  bytes[9] ^= 0x40;
  ASSERT_TRUE(
      storage::WriteFileAtomically(*storage::DefaultEnv(), path, bytes).ok());
  auto recovered = MakeManager(options);
  const util::Status status = recovered->RecoverSessions();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, RecoveryRejectsACorruptInstanceFile) {
  // A session over an instance opened by path (a JIMC file, not a
  // registered store): recovery reopens the file with full validation, so
  // one flipped byte in a code array fails the restart typed, naming the
  // section; the intact file recovers the session identically.
  const std::string dir = FreshDir("corrupt_instance");
  const std::string instance_dir = dir + "_instance";
  std::filesystem::remove_all(instance_dir);
  std::filesystem::create_directories(instance_dir);
  const std::string instance = instance_dir + "/figure1.jimc";
  auto store = workload::Figure1StorePtr();
  ASSERT_TRUE(storage::WriteStore(*store, instance).ok());
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  ServeOptions options;
  options.checkpoint_dir = dir;
  SessionManager manager(options);
  auto created =
      manager.Create(instance, "lookahead-entropy", workload::kQ2, 3, 0);
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string id = created->session_id;
  for (size_t k = 0; k < 2; ++k) {
    auto suggested = manager.Suggest(id);
    ASSERT_TRUE(suggested.ok()) << suggested.status();
    ASSERT_FALSE(suggested->done);
    ASSERT_TRUE(manager
                    .Label(id, suggested->class_id,
                           OracleAnswer(*store, goal, suggested->tuple_index))
                    .ok());
  }

  storage::Env& env = *storage::DefaultEnv();
  const std::string intact = env.ReadFileToString(instance).value();
  // The section table entry of column 0's code array: {id, column, offset,
  // length, checksum} (storage/format.h).
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, intact.data() + 20, sizeof(num_sections));
  uint64_t codes_offset = 0;
  for (uint32_t i = 0; i < num_sections; ++i) {
    const char* entry =
        intact.data() + storage::kHeaderBytes + i * storage::kSectionEntryBytes;
    uint32_t section_id = 0;
    uint32_t column = 0;
    std::memcpy(&section_id, entry, sizeof(section_id));
    std::memcpy(&column, entry + 4, sizeof(column));
    if (section_id == static_cast<uint32_t>(storage::SectionId::kCodes) &&
        column == 0) {
      std::memcpy(&codes_offset, entry + 8, sizeof(codes_offset));
    }
  }
  ASSERT_GT(codes_offset, 0u);
  ASSERT_LT(codes_offset, intact.size());
  std::string corrupt = intact;
  corrupt[codes_offset] ^= 0x01;
  ASSERT_TRUE(storage::WriteFileAtomically(env, instance, corrupt).ok());
  {
    SessionManager restarted(options);
    const util::Status status = restarted.RecoverSessions();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("checksum mismatch in section id=4 "
                                    "column=0"),
              std::string::npos)
        << status;
    EXPECT_EQ(restarted.GetStats().live, 0u);
  }

  ASSERT_TRUE(storage::WriteFileAtomically(env, instance, intact).ok());
  SessionManager recovered(options);
  ASSERT_TRUE(recovered.RecoverSessions().ok());
  EXPECT_EQ(recovered.GetStats().recovered, 1u);
  ExpectIdenticalContinuation(manager, recovered, id, *store, goal);
}

/// Every field of a suggest/label/status/result reply, as one line — what
/// the transcript comparisons diff.
std::string Render(const SessionManager::SuggestResult& r) {
  std::string line = util::StrFormat("suggest done=%d step=%zu", r.done,
                                     r.step);
  if (!r.done) {
    line += util::StrFormat(" class=%zu tuple=%zu size=%zu values=", r.class_id,
                            r.tuple_index, r.class_size);
    for (const std::string& value : r.values) line += value + ",";
  }
  return line;
}
std::string Render(const SessionManager::LabelResult& r) {
  return util::StrFormat("label step=%zu pruned=%zu/%zu wasted=%d done=%d",
                         r.step, r.pruned_classes, r.pruned_tuples, r.wasted,
                         r.done);
}
std::string Render(const SessionManager::StatusResult& r) {
  return util::StrFormat(
      "status steps=%zu done=%d tuples=%zu classes=%zu informative=%zu/%zu "
      "%s %s",
      r.steps, r.done, r.num_tuples, r.num_classes, r.informative_classes,
      r.informative_tuples, r.strategy.c_str(), r.instance.c_str());
}
std::string Render(const SessionManager::ResultReply& r) {
  return util::StrFormat("result done=%d predicate=%s goal=%d identified=%d",
                         r.done, r.predicate.c_str(), r.has_goal,
                         r.identified_goal);
}

/// Drives up to `max_labels` oracle labels (suggest, label, status per
/// step) and returns the rendered replies; stops at done.
std::vector<std::string> Transcript(SessionManager& manager,
                                    const std::string& session_id,
                                    size_t max_labels) {
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();
  std::vector<std::string> lines;
  for (size_t labels = 0; labels < max_labels; ++labels) {
    auto suggested = manager.Suggest(session_id);
    EXPECT_TRUE(suggested.ok()) << suggested.status();
    if (!suggested.ok()) break;
    lines.push_back(Render(*suggested));
    if (suggested->done) break;
    auto labeled =
        manager.Label(session_id, suggested->class_id,
                      OracleAnswer(*store, goal, suggested->tuple_index));
    EXPECT_TRUE(labeled.ok()) << labeled.status();
    if (!labeled.ok()) break;
    lines.push_back(Render(*labeled));
    lines.push_back(Render(*manager.Status(session_id)));
  }
  return lines;
}

TEST(SessionManagerTest, SessionDetachesItsEngineArraysOnceNotPerLabel) {
  // Labels commit into the session's own engine, so a session pays one
  // copy-on-write detach of the session arrays (its first label) and at
  // most one of the knowledge cache (its first informative positive label)
  // — with checkpoints on or off, whatever the strategy.
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();
  for (const bool checkpoints : {false, true}) {
    ServeOptions options;
    if (checkpoints) options.checkpoint_dir = FreshDir("detach");
    auto manager = MakeManager(options);
    for (const char* strategy :
         {"lookahead-entropy", "local-bottom-up", "random"}) {
      const uint64_t before =
          registry.CounterValue(obs::kCounterEngineCowDetaches);
      auto created = manager->Create("", strategy, "", /*seed=*/4, 0);
      ASSERT_TRUE(created.ok()) << created.status();
      size_t labels = 0;
      bool any_positive = false;
      for (;;) {
        auto suggested = manager->Suggest(created->session_id);
        ASSERT_TRUE(suggested.ok());
        if (suggested->done) break;
        const bool answer = OracleAnswer(*store, goal, suggested->tuple_index);
        ASSERT_TRUE(
            manager->Label(created->session_id, suggested->class_id, answer)
                .ok());
        ++labels;
        any_positive |= answer;
      }
      const uint64_t detaches =
          registry.CounterValue(obs::kCounterEngineCowDetaches) - before;
      ASSERT_GT(labels, 1u) << strategy;
      EXPECT_EQ(detaches, 1u + (any_positive ? 1u : 0u))
          << strategy << ", " << labels << " labels, checkpoints "
          << checkpoints;
    }
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
}

TEST(SessionManagerTest, FailedCheckpointWriteLeavesTheSessionUntouched) {
  // A checkpoint write that fails (an error, not a crash) at any operation
  // up to and including the rename must return the error and leave the
  // session — and the checkpoint on disk — exactly at the pre-label state;
  // re-sending the label then continues the session byte-identically to an
  // uninterrupted run. Swept over every such operation of one label's
  // write. "random" carries an RNG, so a lost or repeated pick would show.
  constexpr char kDir[] = "vroot/label_fault";
  constexpr size_t kFailingLabel = 1;  // labels acknowledged before it
  const auto start = [&](storage::FaultInjectionEnv& env) {
    ServeOptions options;
    options.env = &env;
    options.checkpoint_dir = kDir;
    auto manager = MakeManager(options);
    auto created = manager->Create("", "random", workload::kQ2, 7, 0);
    EXPECT_TRUE(created.ok() && created->session_id == "s1");
    return manager;
  };

  // The uninterrupted reference, and the failing label's write schedule.
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();
  storage::FaultInjectionEnv reference_env;
  auto reference = start(reference_env);
  // The first label's class: explicitly labeled once the fault strikes, so
  // its opposite answer is a contradiction. (Suggest is idempotent, so
  // peeking here does not change the transcript.)
  auto first = reference->Suggest("s1");
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->done);
  const bool first_answer = OracleAnswer(*store, goal, first->tuple_index);
  std::vector<std::string> expected = Transcript(*reference, "s1",
                                                 kFailingLabel);
  auto pending = reference->Suggest("s1");
  ASSERT_TRUE(pending.ok());
  ASSERT_FALSE(pending->done);
  const uint64_t write_begin = reference_env.op_count();
  const std::vector<std::string> rest = Transcript(*reference, "s1", 1000);
  ASSERT_GE(rest.size(), 6u) << "session too short to continue past the fault";
  expected.insert(expected.end(), rest.begin(), rest.end());
  size_t rename_op = write_begin;
  while (rename_op < reference_env.op_count() &&
         !util::StartsWith(reference_env.schedule()[rename_op], "rename ")) {
    ++rename_op;
  }
  ASSERT_LT(rename_op, reference_env.op_count()) << "label wrote no rename";
  // The sweep covers the tmp file's create, append, fsync and close too.
  ASSERT_GE(rename_op - write_begin, 4u);

  const std::string path = std::string(kDir) + "/" + CheckpointFileName("s1");
  for (uint64_t offset = 0; offset <= rename_op - write_begin; ++offset) {
    SCOPED_TRACE(util::StrFormat("failing operation %llu of the write",
                                 static_cast<unsigned long long>(offset)));
    storage::FaultInjectionEnv env;
    auto manager = start(env);
    std::vector<std::string> lines = Transcript(*manager, "s1", kFailingLabel);
    auto suggested = manager->Suggest("s1");
    ASSERT_TRUE(suggested.ok());
    const std::string status_before = Render(*manager->Status("s1"));
    const std::string result_before = Render(*manager->Result("s1"));
    const std::string image_before = env.ReadFileToString(path).value();
    const bool answer = OracleAnswer(*store, goal, suggested->tuple_index);

    env.FailAtOp(env.op_count() + offset,
                 util::ResourceExhaustedError("injected: no space on device"));
    auto failed = manager->Label("s1", suggested->class_id, answer);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(Render(*manager->Status("s1")), status_before);
    EXPECT_EQ(Render(*manager->Suggest("s1")), Render(*suggested));
    EXPECT_EQ(Render(*manager->Result("s1")), result_before);
    EXPECT_EQ(env.ReadFileToString(path).value(), image_before);

    // A contradictory label is rejected before anything is written, and the
    // next suggest is unchanged too.
    const uint64_t ops_before = env.op_count();
    auto contradiction = manager->Label("s1", first->class_id, !first_answer);
    ASSERT_FALSE(contradiction.ok());
    EXPECT_EQ(contradiction.status().code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_EQ(env.op_count(), ops_before);
    EXPECT_EQ(Render(*manager->Suggest("s1")), Render(*suggested));

    // Re-sending the label succeeds; the rest is byte-identical.
    lines.push_back(Render(*suggested));
    auto resent = manager->Label("s1", suggested->class_id, answer);
    ASSERT_TRUE(resent.ok()) << resent.status();
    lines.push_back(Render(*resent));
    lines.push_back(Render(*manager->Status("s1")));
    const std::vector<std::string> after = Transcript(*manager, "s1", 1000);
    lines.insert(lines.end(), after.begin(), after.end());
    EXPECT_EQ(lines, expected);
  }
}

// --- Shared first picks ---------------------------------------------------

/// Turns metrics on for one test and restores the previous setting.
class ScopedMetrics {
 public:
  ScopedMetrics() : was_enabled_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(true);
  }
  ~ScopedMetrics() { obs::SetMetricsEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

uint64_t SharedPicks() {
  return obs::MetricsRegistry::Instance().CounterValue(
      obs::kCounterServePicksShared);
}

/// One session's accepted labels, in order: (class, positive).
using Labels = std::vector<std::pair<size_t, bool>>;

/// An engine over `store` with `labels` applied.
core::InferenceEngine Replay(std::shared_ptr<const core::TupleStore> store,
                             const Labels& labels) {
  core::InferenceEngine engine(std::move(store));
  for (const auto& [class_id, positive] : labels) {
    JIM_CHECK_OK(engine.SubmitClassLabel(
        class_id, positive ? core::Label::kPositive : core::Label::kNegative));
  }
  return engine;
}

/// What a fresh `strategy` picks on an engine replayed from `labels`: the
/// class every suggest of a stateless strategy must name.
size_t FreshPick(std::shared_ptr<const core::TupleStore> store,
                 const std::string& strategy, const Labels& labels) {
  const core::InferenceEngine engine = Replay(std::move(store), labels);
  return core::MakeStrategy(strategy).value()->PickClass(engine);
}

/// A synthetic instance with many classes (6 attributes over a 4-value
/// domain: 1000 tuples fall into well over a hundred classes).
std::shared_ptr<const core::TupleStore> ManyClassStore(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = 1000;
  spec.domain_size = 4;
  return workload::MakeSyntheticWorkload(spec, rng).store;
}

/// Goals that answer `root_class` both ways, two of each: the empty
/// predicate and Part(root) select it; the top partition and one pair the
/// class splits do not.
std::vector<core::JoinPredicate> GoalsAnsweringBothWays(
    std::shared_ptr<const core::TupleStore> store, size_t root_class) {
  const rel::Schema schema = store->schema();
  const core::InferenceEngine engine(std::move(store));
  const lat::Partition& root = engine.tuple_class(root_class).partition;
  const size_t n = root.num_elements();
  std::vector<core::JoinPredicate> goals = {
      core::JoinPredicate(schema), core::JoinPredicate(schema, root),
      core::JoinPredicate(schema, lat::Partition::Top(n))};
  for (size_t i = 0; i < n && goals.size() < 4; ++i) {
    for (size_t j = i + 1; j < n && goals.size() < 4; ++j) {
      if (root.SameBlock(i, j)) continue;
      goals.emplace_back(schema,
                         lat::Partition::FromPairs(n, {{i, j}}).value());
    }
  }
  return goals;
}

/// Drives `session_id` to done with an exact `goal` user and expects every
/// suggest to equal FreshPick. Returns the accepted labels.
Labels DriveCheckingPicks(SessionManager& manager,
                          const std::string& session_id,
                          std::shared_ptr<const core::TupleStore> store,
                          const std::string& strategy,
                          const core::JoinPredicate& goal) {
  Labels labels;
  for (;;) {
    auto suggested = manager.Suggest(session_id);
    EXPECT_TRUE(suggested.ok()) << suggested.status();
    if (!suggested.ok() || suggested->done) return labels;
    EXPECT_EQ(suggested->class_id, FreshPick(store, strategy, labels))
        << strategy << " step " << labels.size();
    const bool answer = OracleAnswer(*store, goal, suggested->tuple_index);
    auto labeled = manager.Label(session_id, suggested->class_id, answer);
    EXPECT_TRUE(labeled.ok()) << labeled.status();
    if (!labeled.ok()) return labels;
    labels.emplace_back(suggested->class_id, answer);
    EXPECT_LT(labels.size(), 1000u) << "session did not converge";
    if (labels.size() >= 1000u) return labels;
  }
}

TEST(SessionManagerTest, OptimalIsRefusedAboveItsClassLimit) {
  // The exact minimax search cannot finish on the synthetic instance's
  // classes: create refuses it with a typed error instead of letting a
  // suggest stall its handler, and the daemon keeps serving.
  auto store = ManyClassStore(5);
  ASSERT_GT(core::InferenceEngine(store).InformativeClasses().size(),
            core::OptimalStrategy::kMaxInformativeClasses);
  auto manager = MakeManager();
  manager->RegisterInstance("synthetic", store);
  auto refused = manager->Create("synthetic", "optimal", "", 1, 0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager->GetStats().live, 0u);

  auto served = manager->Create("synthetic", "lookahead-entropy", "", 1, 0);
  ASSERT_TRUE(served.ok()) << served.status();
  auto suggested = manager->Suggest(served->session_id);
  ASSERT_TRUE(suggested.ok()) << suggested.status();
  EXPECT_FALSE(suggested->done);

  // Figure 1 is within the limit: accepted, and it identifies its goal.
  ASSERT_LE(core::InferenceEngine(workload::Figure1StorePtr())
                .InformativeClasses()
                .size(),
            core::OptimalStrategy::kMaxInformativeClasses);
  auto optimal = manager->Create("figure1", "optimal", "", 1, 0);
  ASSERT_TRUE(optimal.ok()) << optimal.status();
  const auto goal = core::JoinPredicate::Parse(
                        workload::Figure1StorePtr()->schema(), workload::kQ2)
                        .value();
  DriveToDone(*manager, optimal->session_id, goal,
              *workload::Figure1StorePtr());
  auto status = manager->Status(optimal->session_id);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_TRUE(status->done);
  EXPECT_EQ(manager->GetStats().live, 2u);
}

TEST(SessionManagerTest, SharedFirstPicksEqualFreshPicksForEveryStatelessStrategy) {
  // Every session follows the script (it answers each suggestion), so its
  // root suggest reads slot 0 and its second suggest slot 1 + answer. The
  // first session to reach a slot computes it; every later one is a hit.
  ScopedMetrics metrics;
  const std::pair<std::string, std::shared_ptr<const core::TupleStore>>
      instances[] = {{"figure1", workload::Figure1StorePtr()},
                     {"synthetic", ManyClassStore(7)}};
  for (const auto& [instance, store] : instances) {
    for (const std::string& strategy : core::KnownStrategyNames()) {
      if (!core::MakeStrategy(strategy).value()->stateless()) continue;
      // The exact minimax search exceeds its node budget beyond ~16 classes.
      if (strategy == "optimal" && instance != "figure1") continue;
      SessionManager manager(ServeOptions{});
      manager.RegisterInstance(instance, store);
      const size_t root = FreshPick(store, strategy, {});
      const std::vector<core::JoinPredicate> goals =
          GoalsAnsweringBothWays(store, root);
      const uint64_t before = SharedPicks();
      size_t answered[2] = {0, 0};   // sessions by their root answer
      size_t continued[2] = {0, 0};  // those not done after that label
      for (const core::JoinPredicate& goal : goals) {
        auto created = manager.Create(instance, strategy, "", /*seed=*/3, 0);
        ASSERT_TRUE(created.ok()) << created.status();
        const Labels labels = DriveCheckingPicks(
            manager, created->session_id, store, strategy, goal);
        ASSERT_FALSE(labels.empty());
        ASSERT_EQ(labels[0].first, root);
        ++answered[labels[0].second ? 1 : 0];
        if (labels.size() > 1) ++continued[labels[0].second ? 1 : 0];
      }
      ASSERT_EQ(answered[0], 2u) << instance << " " << strategy;
      ASSERT_EQ(answered[1], 2u) << instance << " " << strategy;
      // On Figure 1 one answer to a local root pick can end the session; on
      // the synthetic instance both slots after the root are read again.
      if (instance != "figure1") {
        ASSERT_EQ(continued[0], 2u) << strategy;
        ASSERT_EQ(continued[1], 2u) << strategy;
      }
      uint64_t expected = goals.size() - 1;
      for (size_t on_slot : continued) {
        if (on_slot > 0) expected += on_slot - 1;
      }
      EXPECT_EQ(SharedPicks() - before, expected)
          << instance << " " << strategy;
    }
  }
}

TEST(SessionManagerTest, OffScriptFirstLabelLeavesTheSharedPicks) {
  // A session whose first label does not answer a pending suggestion is in
  // a state no slot describes: it must never read the table again, and its
  // picks must still equal fresh ones.
  ScopedMetrics metrics;
  const std::string strategy = "lookahead-entropy";
  auto store = ManyClassStore(11);
  SessionManager manager(ServeOptions{});
  manager.RegisterInstance("synthetic", store);
  const size_t root = FreshPick(store, strategy, {});
  const std::vector<core::JoinPredicate> goals =
      GoalsAnsweringBothWays(store, root);
  // Fill all three slots: the empty predicate answers the root pick
  // positive, the top partition negative.
  for (size_t g : {0, 2}) {
    auto created = manager.Create("synthetic", strategy, "", 1, 0);
    ASSERT_TRUE(created.ok()) << created.status();
    DriveCheckingPicks(manager, created->session_id, store, strategy,
                       goals[g]);
  }
  const core::InferenceEngine prototype = Replay(store, {});
  const std::vector<size_t>& informative = prototype.InformativeClasses();
  const size_t other = informative[0] != root ? informative[0]
                                              : informative[1];

  // (1) A suggest (a hit), then a label on another class.
  // (2) No suggest, then a label on another class.
  // (3) No suggest, then a label on the root pick's own class.
  struct Case {
    bool suggest_first;
    size_t first_class;
    uint64_t hits;
  };
  for (const Case& c : {Case{true, other, 1}, Case{false, other, 0},
                        Case{false, root, 0}}) {
    for (bool answer : {false, true}) {
      const uint64_t before = SharedPicks();
      auto created = manager.Create("synthetic", strategy, "", 1, 0);
      ASSERT_TRUE(created.ok()) << created.status();
      if (c.suggest_first) {
        auto suggested = manager.Suggest(created->session_id);
        ASSERT_TRUE(suggested.ok()) << suggested.status();
        EXPECT_EQ(suggested->class_id, root);
      }
      ASSERT_TRUE(
          manager.Label(created->session_id, c.first_class, answer).ok());
      // Keep answering the suggestions with a goal that agrees with the
      // first label: the empty predicate selects every tuple, the top
      // partition no informative one.
      const core::JoinPredicate& goal = goals[answer ? 0 : 2];
      Labels labels = {{c.first_class, answer}};
      for (;;) {
        auto suggested = manager.Suggest(created->session_id);
        ASSERT_TRUE(suggested.ok()) << suggested.status();
        if (suggested->done) break;
        EXPECT_EQ(suggested->class_id, FreshPick(store, strategy, labels));
        const bool next = OracleAnswer(*store, goal, suggested->tuple_index);
        ASSERT_TRUE(
            manager.Label(created->session_id, suggested->class_id, next)
                .ok());
        labels.emplace_back(suggested->class_id, next);
        ASSERT_LT(labels.size(), 1000u);
      }
      EXPECT_GT(labels.size(), 1u);
      EXPECT_EQ(SharedPicks() - before, c.hits)
          << "suggest_first=" << c.suggest_first
          << " class=" << c.first_class << " answer=" << answer;
    }
  }
}

TEST(SessionManagerTest, RandomStrategyNeverReadsTheSharedPicks) {
  // `random` is not stateless: each session keeps its own RNG stream, so
  // its picks equal a strategy driven alongside with the same seed.
  ScopedMetrics metrics;
  auto store = ManyClassStore(13);
  SessionManager manager(ServeOptions{});
  manager.RegisterInstance("synthetic", store);
  const uint64_t before = SharedPicks();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto created = manager.Create("synthetic", "random", "", seed, 0);
    ASSERT_TRUE(created.ok()) << created.status();
    auto reference = core::MakeStrategy("random", seed).value();
    core::InferenceEngine engine(store);
    for (size_t step = 0; step < 1000; ++step) {
      auto suggested = manager.Suggest(created->session_id);
      ASSERT_TRUE(suggested.ok()) << suggested.status();
      if (suggested->done) break;
      ASSERT_EQ(suggested->class_id, reference->PickClass(engine));
      const bool answer = (seed + step) % 2 == 0;
      ASSERT_TRUE(
          manager.Label(created->session_id, suggested->class_id, answer)
              .ok());
      ASSERT_TRUE(engine
                      .SubmitClassLabel(suggested->class_id,
                                        answer ? core::Label::kPositive
                                               : core::Label::kNegative)
                      .ok());
    }
  }
  EXPECT_EQ(SharedPicks() - before, 0u);
}

TEST(SessionManagerTest, ReRegisteringAnInstanceStartsAFreshSharedTable) {
  // Sessions keep the table they were created with: a session made before
  // the name was re-registered reads the old instance's picks, one made
  // after it computes the new instance's own.
  ScopedMetrics metrics;
  const std::string strategy = "lookahead-entropy";
  auto old_store = ManyClassStore(17);
  auto new_store = ManyClassStore(19);
  const size_t old_root = FreshPick(old_store, strategy, {});
  const size_t new_root = FreshPick(new_store, strategy, {});
  ASSERT_NE(old_root, new_root) << "pick seeds whose root picks differ";
  SessionManager manager(ServeOptions{});
  manager.RegisterInstance("inst", old_store);
  auto first = manager.Create("inst", strategy, "", 1, 0);
  auto second = manager.Create("inst", strategy, "", 1, 0);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(manager.Suggest(first->session_id)->class_id, old_root);

  manager.RegisterInstance("inst", new_store);
  uint64_t before = SharedPicks();
  auto fresh = manager.Create("inst", strategy, "", 1, 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(manager.Suggest(fresh->session_id)->class_id, new_root);
  EXPECT_EQ(SharedPicks() - before, 0u);

  before = SharedPicks();
  const core::JoinPredicate goal(old_store->schema());
  const Labels labels =
      DriveCheckingPicks(manager, second->session_id, old_store, strategy,
                         goal);
  ASSERT_GT(labels.size(), 1u);
  EXPECT_EQ(SharedPicks() - before, 1u);  // slot 0 of the old table
  DriveCheckingPicks(manager, first->session_id, old_store, strategy, goal);
  DriveCheckingPicks(manager, fresh->session_id, new_store, strategy,
                     core::JoinPredicate(new_store->schema()));
}

/// Renders one goal-driven session's replies, one line per reply.
std::vector<std::string> GoalTranscript(SessionManager& manager,
                                        const std::string& session_id,
                                        const core::TupleStore& store,
                                        const core::JoinPredicate& goal) {
  std::vector<std::string> lines;
  for (size_t labels = 0; labels < 1000; ++labels) {
    auto suggested = manager.Suggest(session_id);
    if (!suggested.ok()) {
      lines.push_back(suggested.status().ToString());
      break;
    }
    lines.push_back(Render(*suggested));
    if (suggested->done) break;
    auto labeled =
        manager.Label(session_id, suggested->class_id,
                      OracleAnswer(store, goal, suggested->tuple_index));
    if (!labeled.ok()) {
      lines.push_back(labeled.status().ToString());
      break;
    }
    lines.push_back(Render(*labeled));
  }
  return lines;
}

TEST(SessionManagerTest, ConcurrentSessionsShareFirstPicksDeterministically) {
  // 8 threads create and drive lookahead sessions on one instance at once,
  // racing on the shared slots; every transcript must equal a serial run's.
  constexpr size_t kThreads = 8;
  constexpr size_t kSessionsPerThread = 8;
  auto store = ManyClassStore(23);
  ServeOptions options;
  options.max_sessions = kThreads * kSessionsPerThread;
  const size_t root = FreshPick(store, "lookahead-entropy", {});
  const std::vector<core::JoinPredicate> goals =
      GoalsAnsweringBothWays(store, root);
  const char* const strategies[] = {"lookahead-entropy", "lookahead-minmax"};
  auto run = [&](SessionManager& manager, size_t thread) {
    std::vector<std::vector<std::string>> transcripts;
    for (size_t k = 0; k < kSessionsPerThread; ++k) {
      const size_t i = thread * kSessionsPerThread + k;
      auto created =
          manager.Create("synthetic", strategies[i % 2], "", 1, 0);
      EXPECT_TRUE(created.ok()) << created.status();
      if (!created.ok()) break;
      transcripts.push_back(GoalTranscript(manager, created->session_id,
                                           *store,
                                           goals[(i / 2) % goals.size()]));
    }
    return transcripts;
  };

  SessionManager serial(options);
  serial.RegisterInstance("synthetic", store);
  std::vector<std::vector<std::vector<std::string>>> expected;
  for (size_t t = 0; t < kThreads; ++t) expected.push_back(run(serial, t));

  SessionManager concurrent(options);
  concurrent.RegisterInstance("synthetic", store);
  std::vector<std::vector<std::vector<std::string>>> actual(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { actual[t] = run(concurrent, t); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace jim::serve
