// jimbench: the JIM serving benchmark. Runs one workload against an
// in-process daemon and prints every metric, then one JSON result line.
//
//   jimbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same load twice, untraced then traced, replays the traced run's
// transcripts in-process, and reports the per-layer metrics. See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "layers.h"
#include "obs/metrics.h"
#include "stats.h"
#include "storage/env.h"
#include "trace.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "workload.h"

namespace {

using namespace jimbench;
namespace util = jim::util;

/// Set-up is repeated and its median reported, so slow fsyncs in WriteStore
/// and vCPU stalls during the build do not move setup_s: within one run,
/// the 90th percentile of set-up time was 40 % above the 10th on the
/// 4-vCPU KVM guest the benchmark was built on.
constexpr int kSetupRepeats = 41;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty();
}

/// CPUs this process may run on (nproc).
size_t Cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Quantile(0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string basis;
};

void PrintMetric(const Metric& m) {
  std::cout << util::StrFormat("  %-36s %14.4f %-6s %s\n", m.name.c_str(),
                               m.value, m.unit.c_str(), m.basis.c_str());
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("correct", correct);
  json.KeyValue("attempted", std::max<size_t>(attempted, 1));
  json.KeyValue("failed", failed);
  json.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name).BeginObject();
    json.KeyValue("value", m.value);
    json.KeyValue("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::vector<Metric> EndToEnd(const Workload& workload, const LoadResult& load,
                             double setup_s) {
  auto verb = [&](Verb v) -> const Samples& {
    return load.latency_us[static_cast<size_t>(v)];
  };
  auto n = [](const Samples& s) {
    return util::StrFormat("n=%zu", s.count());
  };
  auto tail_basis = [](const Samples& s) {
    return util::StrFormat(
        "n=%zu, %s", s.count(),
        QuantileLabel(TailQuantile(s.count())).c_str());
  };
  Samples effort;
  for (double e : load.effort) effort.Add(e);
  return {
      {"labels_per_s", "1/s",
       static_cast<double>(load.labels) / load.elapsed_s,
       util::StrFormat("%zu labels in %.2f s", load.labels, load.elapsed_s)},
      {"sessions_per_s", "1/s",
       static_cast<double>(load.sessions) / load.elapsed_s,
       util::StrFormat("%zu sessions in %.2f s", load.sessions,
                       load.elapsed_s)},
      {"suggest_p50_us", "us", verb(Verb::kSuggest).Quantile(0.5),
       n(verb(Verb::kSuggest))},
      {"suggest_p99_us", "us", TailValue(verb(Verb::kSuggest)),
       tail_basis(verb(Verb::kSuggest))},
      {"label_p50_us", "us", verb(Verb::kLabel).Quantile(0.5),
       n(verb(Verb::kLabel))},
      {"label_p99_us", "us", TailValue(verb(Verb::kLabel)),
       tail_basis(verb(Verb::kLabel))},
      {"create_p50_us", "us", verb(Verb::kCreate).Quantile(0.5),
       n(verb(Verb::kCreate))},
      {"status_p50_us", "us", verb(Verb::kStatus).Quantile(0.5),
       n(verb(Verb::kStatus))},
      {"session_p50_ms", "ms", load.session_ms.Quantile(0.5),
       n(load.session_ms) +
           (workload.open_loop ? ", includes think time" : "")},
      {"labels_per_session", "labels", effort.Mean(),
       util::StrFormat("%zu sessions fixed by the seed", effort.count())},
      {"setup_s", "s", setup_s,
       util::StrFormat("median of %d set-ups", kSetupRepeats)},
      {"peak_rss_mb", "MB", PeakRssMb(), "ru_maxrss"},
  };
}

void PrintLoadExtras(const Workload& workload, const LoadResult& load) {
  const double failed_frac =
      load.attempted == 0 ? 0
                          : static_cast<double>(load.failed) /
                                static_cast<double>(load.attempted);
  std::cout << util::StrFormat(
      "  %-36s %14.4f %-6s %zu of %zu requests\n", "failed_ops_frac",
      failed_frac, "ratio", load.failed, load.attempted);
  for (Verb v : {Verb::kSuggest, Verb::kLabel}) {
    const Samples& s = load.latency_us[static_cast<size_t>(v)];
    std::cout << util::StrFormat(
        "  %-36s p90 %.1f, p95 %.1f, p99 %.1f us; n=%zu\n",
        (std::string(VerbName(v)) + " tail").c_str(), s.Quantile(0.90),
        s.Quantile(0.95), s.Quantile(0.99), s.count());
  }
  for (Verb v : {Verb::kSuggestCached, Verb::kResult, Verb::kClose}) {
    const Samples& s = load.latency_us[static_cast<size_t>(v)];
    if (s.count() == 0) continue;
    std::cout << util::StrFormat("  %-36s %14.4f %-6s n=%zu\n",
                                 (std::string(VerbName(v)) + "_p50_us").c_str(),
                                 s.Quantile(0.5), "us", s.count());
  }
  if (workload.open_loop) {
    std::cout << util::StrFormat(
        "  offered: %zu users, %.0f actions/s (create or suggest+suggest+"
        "status+label step)\n",
        workload.users, workload.offered_actions_per_s);
    for (Verb v : {Verb::kCreate, Verb::kSuggest}) {
      const Samples& s = load.scheduled_us[static_cast<size_t>(v)];
      std::cout << util::StrFormat(
          "  %-36s %14.4f %-6s p50 %.1f; from the scheduled send, n=%zu\n",
          (std::string(VerbName(v)) + "_scheduled_p99_us").c_str(),
          TailValue(s), "us", s.Quantile(0.5), s.count());
    }
  }
}

int Fail(const std::string& message) {
  std::cerr << "jimbench: " << message << "\n";
  return 1;
}

int Run(const Args& args) {
  auto found = FindWorkload(args.workload);
  if (!found.ok()) return Fail(found.status().ToString());
  const Workload workload = *found;
  // One client connection per CPU, at most 8 so memory stays small on
  // large machines.
  const size_t connections = std::min<size_t>(Cpus(), 8);
  const std::filesystem::path work =
      std::filesystem::path(args.work_dir) /
      util::StrFormat("%s-%d", workload.name.c_str(),
                      static_cast<int>(getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  std::cout << util::StrFormat(
      "jimbench %s seed=%llu seconds=%.1f trace=%d connections=%zu\n",
      workload.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, connections);
  auto instance = MakeInstance(workload, args.seed);

  DaemonWiring wiring;
  if (workload.open_loop) wiring.max_sessions = workload.users + connections;

  // Each set-up writes a file of its own, and the old ones are removed only
  // after the last. Replacing one file would free the previous set-up's
  // blocks inside every timed WriteStore, whose directory fsync then also
  // commits that free (and, on a disk mounted with discard, its trim).
  std::vector<double> total, write, open, build;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < kSetupRepeats; ++r) {
    daemon.reset();
    SetupTimes times;
    daemon = SetUpDaemon(
        *instance, (work / util::StrFormat("instance-%d.jimc", r)).string(),
        wiring, &times);
    total.push_back(times.total_s);
    write.push_back(times.write_store_s);
    open.push_back(times.open_s);
    build.push_back(times.build_s);
  }
  SetupTimes setup{Median(total), Median(write), Median(open), Median(build)};
  for (int r = 0; r + 1 < kSetupRepeats; ++r) {
    std::filesystem::remove(work / util::StrFormat("instance-%d.jimc", r));
  }

  LoadOptions options;
  options.seconds = args.seconds;
  options.connections = connections;
  LoadResult load = RunLoad(workload, args.seed, *daemon, options);
  const std::string instance_path = daemon->instance;
  const auto store = daemon->store;
  daemon.reset();

  std::vector<std::string> errors = load.errors;
  size_t attempted = load.attempted;
  size_t failed = load.failed;
  std::vector<Metric> reported;

  if (!args.trace) {
    std::cout << "end-to-end (tracing off):\n";
    reported = EndToEnd(workload, load, setup.total_s);
    for (const Metric& m : reported) PrintMetric(m);
    PrintLoadExtras(workload, load);
  } else {
    // The traced phase: a fresh daemon over the same store, with the
    // Connection and Env decorators installed and obs counters on.
    jim::obs::MetricsRegistry::Instance().ResetForTesting();
    jim::obs::SetMetricsEnabled(true);
    auto request_log = std::make_shared<RequestLog>();
    std::unique_ptr<jim::storage::Env> traced_env =
        TraceEnv(jim::storage::DefaultEnv());
    DaemonWiring traced = wiring;
    traced.env = traced_env.get();
    traced.request_log = request_log;
    auto traced_daemon = StartDaemon(instance_path, store, traced, nullptr);
    LoadOptions traced_options = options;
    traced_options.trace = true;
    LoadResult traced_load =
        RunLoad(workload, args.seed, *traced_daemon, traced_options);
    jim::obs::SetMetricsEnabled(false);
    const EngineCounts counts = ReadEngineCounts();
    traced_daemon.reset();
    attempted += traced_load.attempted;
    failed += traced_load.failed;
    errors.insert(errors.end(), traced_load.errors.begin(),
                  traced_load.errors.end());

    TracedRun run;
    run.load = &traced_load;
    run.server_requests = request_log->Take();
    run.spans = SpanRecorder::Instance().Collect();
    const std::string dump =
        (std::filesystem::path(args.work_dir) /
         util::StrFormat("spans-%s-seed%llu.jsonl", workload.name.c_str(),
                         static_cast<unsigned long long>(args.seed)))
            .string();
    jim::util::Status dumped = SpanRecorder::DumpJsonl(run.spans, dump);
    if (!dumped.ok()) errors.push_back(dumped.ToString());
    const jim::core::InferenceEngine prototype(store);
    const ReplayResult replay =
        Replay(prototype, traced_load.transcripts, connections);
    errors.insert(errors.end(), replay.errors.begin(), replay.errors.end());
    const CheckpointReplay checkpoints = ReplayCheckpoints(
        prototype, traced_load.transcripts, (work / "ckpt-replay").string(),
        *traced_env);
    run.replay = &replay;
    run.checkpoints = &checkpoints;
    run.counts = counts;
    run.setup = setup;
    run.untraced_labels_per_s =
        static_cast<double>(load.labels) / load.elapsed_s;

    const std::vector<LayerMetric> layers = ComputeLayers(run, &errors);
    std::cout << "per-layer (traced run; spans in " << dump << "):\n";
    for (const LayerMetric& m : layers) {
      std::cout << util::StrFormat("  %-36s %14.4f %-6s moves %s; %s\n",
                                   m.name.c_str(), m.value, m.unit.c_str(),
                                   m.moves.c_str(), m.basis.c_str());
      reported.push_back({m.name, m.unit, m.value, m.basis});
    }
    std::cout << "measured shares:\n";
    for (const LayerMetric& m : layers) {
      if (m.name == "core.pick_share_of_suggest" ||
          m.name == "server.share_of_client_rtt") {
        std::cout << util::StrFormat("  %-36s %6.1f %%  (%s)\n",
                                     m.name.c_str(), m.value * 100,
                                     m.basis.c_str());
      }
    }
    PrintLoadExtras(workload, traced_load);
  }

  std::filesystem::remove_all(work);
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::cerr << "jimbench: check failed: " << errors[i] << "\n";
  }
  if (errors.size() > 20) {
    std::cerr << "jimbench: ... and " << errors.size() - 20 << " more\n";
  }
  std::cout << ResultLine(errors.empty(), attempted, failed, reported)
            << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: jimbench --workload {"
              << util::Join(WorkloadNames(), "|")
              << "} --seed N --seconds S --trace 0|1 --work-dir DIR\n";
    return 2;
  }
  return Run(args);
}
