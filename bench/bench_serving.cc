// Serving-tier benchmark: an in-process daemon (TCP transport, real
// connection handling) under an open-loop session arrival process. Arrivals
// fire on a seeded exponential schedule whether or not a worker is free, so
// queueing delay under saturation shows up in the latencies instead of being
// absorbed by the load generator (closed-loop coordinated omission). Client
// workers drive each session create → (suggest → oracle label)* → result →
// close over its own connection, timing every suggest and label round-trip
// client-side.
//
// Reported: sessions/sec, labels/sec, and p50/p99 of the create / suggest /
// label round-trips, as a table and as BENCH_serving.json (meta block +
// metrics registry snapshot, same shape as the other BENCH_*.json
// trajectories).
//
// --quick drives the 12-tuple Figure 1 instance; the full run drives a
// LargeTravelInstance cross product where each lookahead decision does real
// work. --threads sizes the shared pool the daemon builds its instance's
// class table on.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/travel.h"

namespace {

using namespace jim;

struct BenchConfig {
  size_t sessions = 96;
  size_t workers = 8;
  /// Labels driven per session before the client stops early (sessions that
  /// converge sooner stop at done).
  size_t max_labels = 6;
  /// Mean of the exponential inter-arrival distribution.
  double mean_interarrival_seconds = 0.002;
  uint64_t seed = 2014;
  bool quick = false;
};

/// Latency samples (microseconds) for one verb across the whole run.
struct LatencySeries {
  std::vector<double> micros;

  void Merge(const LatencySeries& other) {
    micros.insert(micros.end(), other.micros.begin(), other.micros.end());
  }
  double Percentile(double p) {
    if (micros.empty()) return 0;
    std::sort(micros.begin(), micros.end());
    const double rank = p * static_cast<double>(micros.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, micros.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return micros[lo] + (micros[hi] - micros[lo]) * frac;
  }
};

struct RunResult {
  size_t sessions = 0;
  size_t labels = 0;
  double wall_seconds = 0;
  LatencySeries create_us;
  LatencySeries suggest_us;
  LatencySeries label_us;
};

/// The open-loop schedule: session i becomes due at offset_seconds[i] after
/// the run's epoch, regardless of how the previous sessions are doing.
std::vector<double> ArrivalOffsets(const BenchConfig& config) {
  util::Rng rng(config.seed);
  std::vector<double> offsets;
  offsets.reserve(config.sessions);
  double t = 0;
  for (size_t i = 0; i < config.sessions; ++i) {
    // Inverse-CDF exponential draw; 1-U keeps log's argument in (0,1].
    t += -config.mean_interarrival_seconds *
         std::log(1.0 - rng.UniformDouble());
    offsets.push_back(t);
  }
  return offsets;
}

/// Drives one full session over `client`, timing each round-trip. Returns
/// the number of labels submitted.
size_t DriveSession(serve::Client& client, const BenchConfig& config,
                    uint64_t seed, const util::DynamicBitset& selected,
                    RunResult& out) {
  serve::Request create;
  create.verb = "create";
  create.strategy = "lookahead-entropy";
  create.seed = seed;
  util::Stopwatch watch;
  auto session = client.Create(create);
  out.create_us.micros.push_back(
      static_cast<double>(watch.ElapsedMicros()));
  JIM_CHECK_OK(session.status());
  size_t labels = 0;
  while (labels < config.max_labels) {
    watch.Reset();
    auto suggested = client.Suggest(*session);
    out.suggest_us.micros.push_back(
        static_cast<double>(watch.ElapsedMicros()));
    JIM_CHECK_OK(suggested.status());
    if (suggested->GetBool("done", false)) break;
    const auto class_id =
        static_cast<uint64_t>(suggested->GetInt("class", 0));
    const auto tuple =
        static_cast<size_t>(suggested->GetInt("tuple", 0));
    watch.Reset();
    auto labeled = client.Label(*session, class_id, selected.Test(tuple));
    out.label_us.micros.push_back(
        static_cast<double>(watch.ElapsedMicros()));
    JIM_CHECK_OK(labeled.status());
    ++labels;
    if (labeled->GetBool("done", false)) break;
  }
  const auto final_result = client.Result(*session);
  JIM_CHECK_OK(final_result.status());
  JIM_CHECK_OK(client.Close(*session));
  return labels;
}

RunResult Run(const BenchConfig& config,
              std::shared_ptr<const core::TupleStore> store,
              const util::DynamicBitset& selected) {
  serve::ServeOptions options;
  options.max_sessions = config.sessions;  // admission never throttles here
  options.default_instance = "bench";
  serve::SessionManager manager(std::move(options));
  manager.RegisterInstance("bench", store);

  auto transport = serve::ListenTcp(0);
  JIM_CHECK_OK(transport.status());
  serve::ServerOptions server_options;
  server_options.max_connections = config.workers + 2;
  serve::Server server(&manager, std::move(*transport), server_options);
  server.Start();
  const uint16_t port = serve::PortOfAddress(server.address()).value();

  const std::vector<double> offsets = ArrivalOffsets(config);

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<size_t> due;  // session indices whose arrival time has passed
  bool arrivals_done = false;

  RunResult result;

  util::Stopwatch wall;
  // The arrival clock: releases session i at offsets[i], busy or not.
  std::thread arrivals([&] {
    for (size_t i = 0; i < config.sessions; ++i) {
      const double wait = offsets[i] - wall.ElapsedSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        due.push_back(i);
      }
      ready.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      arrivals_done = true;
    }
    ready.notify_all();
  });

  std::vector<std::thread> workers;
  std::vector<RunResult> worker_results(config.workers);
  std::vector<size_t> worker_labels(config.workers, 0);
  for (size_t w = 0; w < config.workers; ++w) {
    workers.emplace_back([&, w] {
      auto client = serve::Client::ConnectTcp(port);
      JIM_CHECK_OK(client.status());
      for (;;) {
        size_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return !due.empty() || arrivals_done; });
          if (due.empty()) return;
          index = due.front();
          due.pop_front();
        }
        worker_labels[w] +=
            DriveSession(*client, config, config.seed + 7919 * index,
                         selected, worker_results[w]);
      }
    });
  }

  arrivals.join();
  for (std::thread& worker : workers) worker.join();
  result.wall_seconds = wall.ElapsedSeconds();
  server.Shutdown();

  result.sessions = config.sessions;
  for (size_t w = 0; w < config.workers; ++w) {
    result.labels += worker_labels[w];
    result.create_us.Merge(worker_results[w].create_us);
    result.suggest_us.Merge(worker_results[w].suggest_us);
    result.label_us.Merge(worker_results[w].label_us);
  }
  JIM_CHECK(manager.GetStats().live == 0);
  return result;
}

/// Appends the run's keys to the open top-level object.
void AppendRunJson(util::JsonWriter& json, RunResult& r) {
  json.KeyValue("sessions", r.sessions);
  json.KeyValue("labels", r.labels);
  json.KeyValue("wall_seconds", r.wall_seconds);
  if (r.wall_seconds > 0) {
    json.KeyValue("sessions_per_sec",
                  static_cast<double>(r.sessions) / r.wall_seconds);
    json.KeyValue("labels_per_sec",
                  static_cast<double>(r.labels) / r.wall_seconds);
  }
  json.KeyValue("create_p50_us", r.create_us.Percentile(0.50));
  json.KeyValue("create_p99_us", r.create_us.Percentile(0.99));
  json.KeyValue("suggest_p50_us", r.suggest_us.Percentile(0.50));
  json.KeyValue("suggest_p99_us", r.suggest_us.Percentile(0.99));
  json.KeyValue("label_p50_us", r.label_us.Percentile(0.50));
  json.KeyValue("label_p99_us", r.label_us.Percentile(0.99));
}

bool WriteJson(RunResult& result, const BenchConfig& config,
               const std::string& path) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("benchmark", "serving");
  bench::AppendMetaBlock(json);
  json.KeyValue("quick", config.quick);
  json.KeyValue("workers", config.workers);
  json.KeyValue("max_labels_per_session", config.max_labels);
  json.KeyValue("mean_interarrival_us",
                config.mean_interarrival_seconds * 1e6);
  json.KeyValue("seed", config.seed);
  AppendRunJson(json, result);
  bench::AppendMetricsSnapshot(json);
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseThreadsFlag(argc, argv);
  BenchConfig config;
  std::string json_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "bench_serving: --out requires a path\n";
        return 2;
      }
      json_path = argv[++i];
    } else {
      std::cerr << "bench_serving: unknown argument '" << arg
                << "' (usage: bench_serving [--quick] [--threads N] "
                   "[--out PATH])\n";
      return 2;
    }
  }
  if (config.quick) {
    config.sessions = 48;
    config.workers = 4;
    config.max_labels = 4;
  }

  std::shared_ptr<const core::TupleStore> store;
  if (config.quick) {
    store = workload::Figure1StorePtr();
  } else {
    util::Rng rng(config.seed);
    store = core::MakeRelationStore(
        std::make_shared<rel::Relation>(workload::LargeTravelInstance(
            /*num_flights=*/120, /*num_hotels=*/40, /*num_cities=*/12,
            /*num_airlines=*/6, rng)));
  }
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();
  const util::DynamicBitset selected = goal.SelectedRows(*store);

  RunResult result = Run(config, store, selected);

  jim::util::TablePrinter table({"sessions/s", "labels/s", "suggest p50 µs",
                                 "suggest p99 µs", "label p50 µs",
                                 "label p99 µs"});
  table.SetAlignments({jim::util::Align::kRight, jim::util::Align::kRight,
                       jim::util::Align::kRight, jim::util::Align::kRight,
                       jim::util::Align::kRight, jim::util::Align::kRight});
  table.AddRow(
      {util::StrFormat("%.1f", static_cast<double>(result.sessions) /
                                   std::max(result.wall_seconds, 1e-9)),
       util::StrFormat("%.1f", static_cast<double>(result.labels) /
                                   std::max(result.wall_seconds, 1e-9)),
       util::StrFormat("%.1f", result.suggest_us.Percentile(0.50)),
       util::StrFormat("%.1f", result.suggest_us.Percentile(0.99)),
       util::StrFormat("%.1f", result.label_us.Percentile(0.50)),
       util::StrFormat("%.1f", result.label_us.Percentile(0.99))});
  std::cout << table.ToString();

  if (!WriteJson(result, config, json_path)) {
    std::cerr << "bench_serving: failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
