#ifndef JIMBENCH_LOADGEN_H_
#define JIMBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "stats.h"
#include "storage/env.h"
#include "trace.h"
#include "workload.h"

namespace jimbench {

/// The daemon under test: an in-process serve::Server with default options
/// on a localhost TCP transport, serving one instance it opened from a JIMC
/// file. Destruction shuts the server down before the manager goes.
struct Daemon {
  std::string instance;  ///< the JIMC path sessions are created against
  std::shared_ptr<const jim::core::TupleStore> store;
  std::unique_ptr<jim::serve::SessionManager> manager;
  std::unique_ptr<jim::serve::Server> server;
  uint16_t port = 0;

  ~Daemon();
};

/// How the daemon is wired for one load phase.
struct DaemonWiring {
  size_t max_sessions = 0;     ///< 0 = the daemon's default
  jim::storage::Env* env = nullptr;  ///< nullptr = DefaultEnv()
  std::shared_ptr<RequestLog> request_log;  ///< non-null: trace the transport
};

/// Starts a daemon, checkpoints off, over an already-opened store
/// (instance = its path). `build_s`, when
/// non-null, receives the time RegisterInstance took (the prototype engine
/// build).
std::unique_ptr<Daemon> StartDaemon(
    const std::string& instance,
    std::shared_ptr<const jim::core::TupleStore> store,
    const DaemonWiring& wiring, double* build_s);

/// Setup from the in-memory instance to a ready daemon, timed by stage.
struct SetupTimes {
  double total_s = 0;        ///< WriteStore through Server::Start
  double write_store_s = 0;  ///< storage::WriteStore
  double open_s = 0;         ///< storage::OpenStore, full validation
  double build_s = 0;        ///< RegisterInstance: the prototype engine build
};
std::unique_ptr<Daemon> SetUpDaemon(const jim::core::TupleStore& instance,
                                    const std::string& path,
                                    const DaemonWiring& wiring,
                                    SetupTimes* times);

enum class Verb { kCreate, kSuggest, kSuggestCached, kLabel, kStatus, kResult,
                  kClose };
inline constexpr size_t kNumVerbs = 7;
const char* VerbName(Verb verb);

/// One request as the client saw it (kept when tracing).
struct ClientRequest {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  std::string line;
};

/// One session's accepted labels, in order, for the in-process replay.
struct Transcript {
  SessionSpec spec;
  std::string session_id;
  struct Step {
    size_t suggested = 0;
    size_t class_id = 0;
    bool positive = false;
  };
  std::vector<Step> steps;
};

/// Each load phase first runs one second of warm-up traffic, outside the
/// measured interval.
struct LoadOptions {
  double seconds = 10;
  size_t connections = 4;
  /// Keep every request (with its line) and every session's transcript,
  /// for the traced analysis. Off, the client keeps only its samples.
  bool trace = false;
};

/// Everything one load phase measured, plus its correctness findings.
/// Latencies, rates and session times cover the measured interval only
/// (after the warm-up); attempted/failed and the correctness findings cover
/// the whole phase.
struct LoadResult {
  /// Round trip, send to response, per Verb.
  Samples latency_us[kNumVerbs];
  /// Open loop: scheduled send to response, for the request that starts an
  /// action (create, or a step's first suggest); includes queueing behind
  /// other users on the same connection.
  Samples scheduled_us[kNumVerbs];
  Samples session_ms;             ///< create sent → close answered
  Samples lateness_ms;            ///< open loop: generator lateness
  size_t labels = 0;
  size_t sessions = 0;            ///< completed create → close
  size_t attempted = 0;
  size_t failed = 0;              ///< non-ok responses and transport errors
  double elapsed_s = 0;           ///< measure start → last response
  std::vector<double> effort;     ///< labels per session, fixed session set
  std::vector<Transcript> transcripts;  ///< traced phase only
  std::vector<std::vector<ClientRequest>> requests;  ///< traced, per connection
  std::vector<std::string> errors;  ///< failed correctness checks
};

/// Drives the workload's traffic against `daemon` for `options.seconds`.
LoadResult RunLoad(const Workload& workload, uint64_t seed, Daemon& daemon,
                   const LoadOptions& options);

}  // namespace jimbench

#endif  // JIMBENCH_LOADGEN_H_
