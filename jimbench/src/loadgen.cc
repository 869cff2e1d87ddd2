#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <queue>
#include <thread>
#include <utility>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/string_util.h"

namespace jimbench {

namespace core = jim::core;
namespace serve = jim::serve;
namespace util = jim::util;

Daemon::~Daemon() {
  server.reset();  // Server's destructor shuts down and drains handlers
  manager.reset();
}

const char* VerbName(Verb verb) {
  static const char* const kNames[kNumVerbs] = {
      "create", "suggest", "suggest_cached", "label", "status", "result",
      "close"};
  return kNames[static_cast<size_t>(verb)];
}

std::unique_ptr<Daemon> StartDaemon(
    const std::string& instance,
    std::shared_ptr<const core::TupleStore> store,
    const DaemonWiring& wiring, double* build_s) {
  auto daemon = std::make_unique<Daemon>();
  daemon->instance = instance;
  daemon->store = std::move(store);
  serve::ServeOptions options;
  options.env = wiring.env;
  options.default_instance = instance;
  if (wiring.max_sessions != 0) options.max_sessions = wiring.max_sessions;
  daemon->manager = std::make_unique<serve::SessionManager>(options);
  const int64_t build_start = NowNs();
  daemon->manager->RegisterInstance(instance, daemon->store);
  if (build_s != nullptr) {
    *build_s = static_cast<double>(NowNs() - build_start) * 1e-9;
  }
  auto transport = serve::ListenTcp(0);
  JIM_CHECK_OK(transport.status());
  std::unique_ptr<serve::Transport> listening = std::move(transport).value();
  if (wiring.request_log != nullptr) {
    listening = TraceTransport(std::move(listening), wiring.request_log);
  }
  daemon->server = std::make_unique<serve::Server>(daemon->manager.get(),
                                                   std::move(listening));
  daemon->server->Start();
  daemon->port = serve::PortOfAddress(daemon->server->address()).value();
  return daemon;
}

std::unique_ptr<Daemon> SetUpDaemon(const core::TupleStore& instance,
                                    const std::string& path,
                                    const DaemonWiring& wiring,
                                    SetupTimes* times) {
  const int64_t t0 = NowNs();
  JIM_CHECK_OK(jim::storage::WriteStore(instance, path));
  const int64_t t1 = NowNs();
  auto opened = jim::storage::OpenStore(path);
  JIM_CHECK_OK(opened.status());
  const int64_t t2 = NowNs();
  auto daemon =
      StartDaemon(path, std::move(opened).value(), wiring, &times->build_s);
  const int64_t t3 = NowNs();
  times->write_store_s = static_cast<double>(t1 - t0) * 1e-9;
  times->open_s = static_cast<double>(t2 - t1) * 1e-9;
  times->total_s = static_cast<double>(t3 - t0) * 1e-9;
  return daemon;
}

namespace {

/// Traffic runs this long before measuring starts, so connections, the page
/// cache and the daemon's first sessions warm up outside the window.
constexpr double kWarmupSeconds = 1;

/// Per-thread share of a LoadResult, merged when the phase ends.
struct ThreadResult {
  Samples latency_us[kNumVerbs];
  Samples scheduled_us[kNumVerbs];
  Samples session_ms;
  Samples lateness_ms;
  size_t labels = 0;
  size_t sessions = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<uint64_t, double>> effort;  ///< (session index, labels)
  std::vector<Transcript> transcripts;
  std::vector<ClientRequest> requests;
  std::vector<std::string> errors;
};

/// One client connection: sends a request line, waits for its response,
/// and records the round trip.
class Conn {
 public:
  /// Latencies of requests due before `measure_ns` (the warm-up) are not
  /// recorded. With `trace`, every request is also kept, line included.
  Conn(uint16_t port, bool trace, int64_t measure_ns, ThreadResult& out)
      : client_(Connect(port)),
        trace_(trace),
        measure_ns_(measure_ns),
        out_(out) {}

  /// The parsed response, or nullptr (after recording the failure) for a
  /// transport error or a non-ok response.
  const util::JsonValue* Call(Verb verb, const std::string& line,
                              int64_t due_ns) {
    ClientRequest request;
    request.send_ns = NowNs();
    const int64_t due = due_ns == 0 ? request.send_ns : due_ns;
    auto response = client_.CallRaw(line);
    request.recv_ns = NowNs();
    ++out_.attempted;

    if (due >= measure_ns_) {
      out_.latency_us[static_cast<size_t>(verb)].Add(
          static_cast<double>(request.recv_ns - request.send_ns) * 1e-3);
      if (due_ns != 0) {
        out_.scheduled_us[static_cast<size_t>(verb)].Add(
            static_cast<double>(request.recv_ns - due) * 1e-3);
      }
    }
    last_send_ns_ = request.send_ns;
    if (action_send_ns_ == 0) action_send_ns_ = request.send_ns;
    if (trace_) {
      request.line = line;
      out_.requests.push_back(std::move(request));
    }
    if (!response.ok()) {
      return Fail(verb, response.status().ToString());
    }
    auto parsed = util::ParseJson(*response);
    if (!parsed.ok() || !parsed->GetBool("ok", false)) {
      return Fail(verb, *response);
    }
    parsed_ = std::move(parsed).value();
    return &parsed_;
  }

  int64_t last_send_ns() const { return last_send_ns_; }
  /// Send time of the first request since the last StartAction().
  int64_t action_send_ns() const { return action_send_ns_; }
  void StartAction() { action_send_ns_ = 0; }

 private:
  static serve::Client Connect(uint16_t port) {
    auto client = serve::Client::ConnectTcp(port);
    JIM_CHECK_OK(client.status());
    return std::move(client).value();
  }

  const util::JsonValue* Fail(Verb verb, const std::string& what) {
    ++out_.failed;
    out_.errors.push_back(std::string(VerbName(verb)) + " failed: " + what);
    return nullptr;
  }

  serve::Client client_;
  bool trace_;
  int64_t measure_ns_;
  ThreadResult& out_;
  util::JsonValue parsed_;
  int64_t last_send_ns_ = 0;
  int64_t action_send_ns_ = 0;
};

std::string CreateLine(const SessionSpec& spec) {
  serve::Request create;
  create.verb = "create";
  create.strategy = spec.strategy;
  create.goal = spec.goal;
  create.seed = spec.seed;
  return serve::RequestToLine(create);
}

/// Shared, read-only context of one load phase: traffic starts at
/// start_ns, is measured from measure_ns, and no new session (closed loop)
/// or action (open loop) starts at or after end_ns.
struct Phase {
  const Workload& workload;
  uint64_t seed;
  const core::TupleStore& store;
  Oracle& oracle;
  int64_t start_ns;
  int64_t measure_ns;
  int64_t end_ns;
};

/// A live session from the client's side.
struct ClientSession {
  Transcript transcript;  ///< its spec, id and accepted labels
  int64_t create_due_ns = 0;
};

/// Sends `create`; false on failure.
bool Create(Conn& conn, const SessionSpec& spec, int64_t due_ns,
            ClientSession* session) {
  const util::JsonValue* created =
      conn.Call(Verb::kCreate, CreateLine(spec), due_ns);
  if (created == nullptr) return false;
  session->transcript = Transcript();
  session->transcript.spec = spec;
  session->transcript.session_id = created->GetString("session", "");
  session->create_due_ns = due_ns == 0 ? conn.last_send_ns() : due_ns;
  return true;
}

/// One suggest → label step. Sets *done when the label finished the
/// session; false on failure.
bool Step(Conn& conn, const Phase& phase, ClientSession& session,
          int64_t due_ns, bool with_reads, ThreadResult& out, bool* done) {
  const std::string& id = session.transcript.session_id;
  const util::JsonValue* suggested =
      conn.Call(Verb::kSuggest, serve::SuggestLine(id), due_ns);
  if (suggested == nullptr) return false;
  if (suggested->GetBool("done", false)) {
    *done = true;
    return true;
  }
  const auto class_id = static_cast<size_t>(suggested->GetInt("class", 0));
  const auto tuple = static_cast<size_t>(suggested->GetInt("tuple", 0));
  if (with_reads) {
    const util::JsonValue* again =
        conn.Call(Verb::kSuggestCached, serve::SuggestLine(id), 0);
    if (again == nullptr) return false;
    if (static_cast<size_t>(again->GetInt("class", -1)) != class_id) {
      out.errors.push_back("repeated suggest moved the pick of " + id);
      return false;
    }
    if (conn.Call(Verb::kStatus, serve::StatusLine(id), 0) == nullptr) {
      return false;
    }
  }
  const bool positive =
      phase.oracle.Selected(session.transcript.spec.goal).Test(tuple);
  const util::JsonValue* labeled =
      conn.Call(Verb::kLabel, serve::LabelLine(id, class_id, positive), 0);
  if (labeled == nullptr) return false;
  if (NowNs() >= phase.measure_ns) ++out.labels;
  session.transcript.steps.push_back({class_id, class_id, positive});
  *done = labeled->GetBool("done", false);
  return true;
}

/// result (which must report the goal identified) then close.
bool Finish(Conn& conn, const Phase& phase, ClientSession& session,
            ThreadResult& out) {
  const std::string& id = session.transcript.session_id;
  const util::JsonValue* result =
      conn.Call(Verb::kResult, serve::ResultLine(id), 0);
  if (result == nullptr) return false;
  if (!result->GetBool("done", false) ||
      !result->GetBool("identified_goal", false)) {
    const SessionSpec& spec = session.transcript.spec;
    out.errors.push_back(util::StrFormat(
        "session %llu (goal '%s', %s) ended without identifying its goal",
        static_cast<unsigned long long>(spec.index), spec.goal.c_str(),
        spec.strategy.c_str()));
  }
  if (conn.Call(Verb::kClose, serve::CloseLine(id), 0) == nullptr) {
    return false;
  }
  const int64_t now = NowNs();
  if (now >= phase.measure_ns) {
    ++out.sessions;
    out.session_ms.Add(static_cast<double>(now - session.create_due_ns) *
                       1e-6);
  }
  return true;
}

/// Closed loop: sessions back to back, no think time. Sessions below the
/// workload's effort window always run, so labels_per_session averages the
/// same sessions on every run of a seed.
void ClosedLoopThread(const Phase& phase, uint16_t port, bool trace,
                      std::atomic<uint64_t>& next_index, ThreadResult& out) {
  Conn conn(port, trace, phase.measure_ns, out);
  while (true) {
    const uint64_t index = next_index.fetch_add(1);
    if (index >= phase.workload.effort_sessions && NowNs() >= phase.end_ns) {
      break;
    }
    ClientSession session;
    const SessionSpec spec =
        MakeSessionSpec(phase.workload, phase.store, phase.seed, index);
    if (!Create(conn, spec, 0, &session)) continue;
    bool done = false;
    bool ok = true;
    while (ok && !done) {
      ok = Step(conn, phase, session, 0, /*with_reads=*/false, out, &done);
    }
    if (ok) {
      ok = conn.Call(Verb::kStatus,
                     serve::StatusLine(session.transcript.session_id),
                     0) != nullptr &&
           Finish(conn, phase, session, out);
      if (ok && index < phase.workload.effort_sessions) {
        out.effort.emplace_back(
            index, static_cast<double>(session.transcript.steps.size()));
      }
    }
    if (trace) out.transcripts.push_back(std::move(session.transcript));
  }
}

/// Open loop: this connection's share of the users, each acting at its own
/// scheduled times. Every action due before the window closes runs, late or
/// not, so which sessions complete is fixed by the schedule.
void OpenLoopThread(const Phase& phase, uint16_t port, bool trace,
                    size_t thread, size_t threads, ThreadResult& out) {
  const Workload& w = phase.workload;
  const double mean_think_s =
      static_cast<double>(w.users) / w.offered_actions_per_s;
  struct User {
    uint64_t id;
    UserSchedule schedule;
    uint64_t generation = 0;
    bool active = false;
    ClientSession session;
  };
  std::vector<User> users;
  for (uint64_t u = thread; u < w.users; u += threads) {
    users.push_back(
        User{u, UserSchedule(phase.seed, u, mean_think_s), 0, false, {}});
  }
  const auto due_ns = [&](const User& user) {
    return phase.start_ns +
           static_cast<int64_t>(user.schedule.due() * 1e9);
  };
  const auto later = [&](size_t a, size_t b) {
    return due_ns(users[a]) > due_ns(users[b]);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(later)> queue(
      later);
  for (size_t i = 0; i < users.size(); ++i) queue.push(i);

  Conn conn(port, trace, phase.measure_ns, out);
  while (!queue.empty()) {
    User& user = users[queue.top()];
    const int64_t due = due_ns(user);
    if (due >= phase.end_ns) break;
    queue.pop();
    const int64_t free_ns = NowNs();
    if (due > free_ns) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    }
    conn.StartAction();
    bool ok = true;
    bool done = false;
    if (!user.active) {
      const SessionSpec spec =
          MakeSessionSpec(w, phase.store, phase.seed,
                          user.generation * w.users + user.id);
      ok = Create(conn, spec, due, &user.session);
      user.active = ok;
    } else {
      ok = Step(conn, phase, user.session, due, /*with_reads=*/true, out,
                &done);
    }
    if (due >= phase.measure_ns) {
      out.lateness_ms.Add(
          static_cast<double>(conn.action_send_ns() - std::max(due, free_ns)) *
          1e-6);
    }
    if (ok && done) {
      ok = Finish(conn, phase, user.session, out);
      if (ok) {
        out.effort.emplace_back(
            user.session.transcript.spec.index,
            static_cast<double>(user.session.transcript.steps.size()));
      }
    }
    if (!ok || done) {
      if (user.active && trace) {
        out.transcripts.push_back(std::move(user.session.transcript));
      }
      user.active = false;
      ++user.generation;
    }
    if (!ok) continue;  // a failed user stops; the failure is recorded
    user.schedule.Advance();
    queue.push(static_cast<size_t>(&user - users.data()));
  }
  for (User& user : users) {
    if (user.active && trace) {
      out.transcripts.push_back(std::move(user.session.transcript));
    }
  }
}

}  // namespace

LoadResult RunLoad(const Workload& workload, uint64_t seed, Daemon& daemon,
                   const LoadOptions& options) {
  Oracle oracle(daemon.store);
  // Warm the oracle on the goals of the first sessions so the client does
  // not compute selections inside the timed window.
  for (uint64_t i = 0; i < 512; ++i) {
    oracle.Selected(MakeSessionSpec(workload, *daemon.store, seed, i).goal);
  }
  const size_t threads = options.connections;
  std::vector<ThreadResult> parts(threads);
  LoadResult result;
  std::atomic<uint64_t> next_index{0};

  const int64_t start_ns = NowNs();
  const int64_t measure_ns =
      start_ns + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const Phase phase{workload,   seed,
                    *daemon.store, oracle,
                    start_ns,   measure_ns,
                    measure_ns + static_cast<int64_t>(options.seconds * 1e9)};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (workload.open_loop) {
        OpenLoopThread(phase, daemon.port, options.trace, t, threads,
                       parts[t]);
      } else {
        ClosedLoopThread(phase, daemon.port, options.trace, next_index,
                         parts[t]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  result.elapsed_s = static_cast<double>(NowNs() - measure_ns) * 1e-9;
  std::vector<std::pair<uint64_t, double>> effort;
  for (ThreadResult& part : parts) {
    for (size_t v = 0; v < kNumVerbs; ++v) {
      result.latency_us[v].Merge(part.latency_us[v]);
      result.scheduled_us[v].Merge(part.scheduled_us[v]);
    }
    result.session_ms.Merge(part.session_ms);
    result.lateness_ms.Merge(part.lateness_ms);
    result.labels += part.labels;
    result.sessions += part.sessions;
    result.attempted += part.attempted;
    result.failed += part.failed;
    effort.insert(effort.end(), part.effort.begin(), part.effort.end());
    for (Transcript& t : part.transcripts) {
      result.transcripts.push_back(std::move(t));
    }
    result.requests.push_back(std::move(part.requests));
    for (std::string& e : part.errors) result.errors.push_back(std::move(e));
  }
  // Session-index order, so the mean is summed identically on every run.
  std::sort(effort.begin(), effort.end());
  for (const auto& [index, labels] : effort) result.effort.push_back(labels);
  if (!workload.open_loop) {
    const size_t expected = workload.effort_sessions;
    if (result.effort.size() != expected) {
      result.errors.push_back(util::StrFormat(
          "%zu of the %zu fixed effort sessions completed",
          result.effort.size(), expected));
    }
  }
  return result;
}

}  // namespace jimbench
