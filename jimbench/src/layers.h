#ifndef JIMBENCH_LAYERS_H_
#define JIMBENCH_LAYERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace jimbench {

/// The in-process replay of the traced run's transcripts: every pick and
/// label the daemon made, re-done against a prototype engine built from the
/// same store, timed call by call.
struct ReplayResult {
  Samples pick_us;       ///< Strategy::PickClass, every step
  Samples root_pick_us;  ///< the first pick of each session
  /// Engine copy + SubmitClassLabel, as SessionManager::Label does it, and
  /// SubmitClassLabel on an engine the session already owns. Both from the
  /// second label on: a session's first label detaches from the shared
  /// prototype on either path.
  Samples clone_label_us;
  Samples label_us;
  /// Engine copy + SubmitClassLabel by (session id, step), every step.
  std::map<std::pair<std::string, size_t>, double> clone_label_at;
  size_t picks = 0;
  std::vector<std::string> errors;  ///< picks that differ from the daemon's
};

/// Replays `transcripts` on `threads` threads. Lookahead strategies score
/// serially, as the daemon's default serving mode has them do.
ReplayResult Replay(const jim::core::InferenceEngine& prototype,
                    const std::vector<Transcript>& transcripts,
                    size_t threads);

/// The serve.checkpoint + storage.env layer, driven in-process: the first
/// 256 traced sessions (by session index) have their checkpoint rewritten
/// with serve::WriteCheckpoint at create and after every accepted label,
/// through a TraceEnv, as a durable daemon would. This keeps the storage
/// layer measured on workloads whose daemon runs without checkpoints.
struct CheckpointReplay {
  Samples label_write_us;  ///< WriteCheckpoint after a label
  Samples fsync_us;        ///< every WritableFile::Sync span
  double creates = 0;
  double labels = 0;
  double create_fsyncs = 0;
  double label_fsyncs = 0;
  double label_dir_syncs = 0;
  double label_renames = 0;
  double label_bytes = 0;
};

/// Writes the checkpoints under `dir` through `env` (a TraceEnv), removing
/// each session's file after its last label as `close` does.
CheckpointReplay ReplayCheckpoints(const jim::core::InferenceEngine& prototype,
                                   const std::vector<Transcript>& transcripts,
                                   const std::string& dir,
                                   jim::storage::Env& env);

/// One per-layer metric with the end-to-end metric it should move.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string moves;  ///< "<end-to-end metric> @ <workload>"
  std::string basis;  ///< numerator and base of a ratio, sample counts
};

/// Engine counters read from the obs registry after the traced phase.
struct EngineCounts {
  uint64_t simulations = 0;       ///< engine.simulate_label_both
  uint64_t cutoff_skips = 0;      ///< engine.cutoff_skips
  uint64_t watch_wakes = 0;       ///< engine.watch_wakes
  uint64_t pruned_classes = 0;    ///< engine.propagate.pruned_classes
  uint64_t labels_accepted = 0;   ///< engine.labels.accepted
  uint64_t labels_negative = 0;   ///< engine.labels.negative
};
EngineCounts ReadEngineCounts();

/// Everything the traced run gathered.
struct TracedRun {
  const LoadResult* load = nullptr;
  std::vector<ServerRequest> server_requests;
  std::vector<Span> spans;
  const ReplayResult* replay = nullptr;
  const CheckpointReplay* checkpoints = nullptr;
  EngineCounts counts;
  SetupTimes setup;            ///< medians over the set-up repetitions
  double untraced_labels_per_s = 0;
};

/// Derives every per-layer metric, in BENCHMARK.json's order. Correctness
/// findings (client and server disagreeing on a connection's requests) go
/// to `errors`.
std::vector<LayerMetric> ComputeLayers(const TracedRun& run,
                                       std::vector<std::string>* errors);

}  // namespace jimbench

#endif  // JIMBENCH_LAYERS_H_
