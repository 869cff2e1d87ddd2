#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "core/strategies.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "util/check.h"
#include "util/string_util.h"

namespace jimbench {

namespace core = jim::core;
namespace obs = jim::obs;
namespace serve = jim::serve;
namespace util = jim::util;

namespace {

double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// What the storage metrics should move. No workload runs the daemon with
// checkpoints (README.md, "No durable workload").
constexpr const char* kCheckpointLabel =
    "label_p50_us with checkpoints on (no workload)";
constexpr const char* kCheckpointLabelTail =
    "label_p99_us with checkpoints on (no workload)";
constexpr const char* kCheckpointCreate =
    "create_p50_us with checkpoints on (no workload)";

double Ratio(double numerator, double base) {
  return base == 0 ? 0 : numerator / base;
}

std::string CountBasis(const char* numerator, double n, const char* base,
                       double b) {
  return util::StrFormat("%s=%.0f / %s=%.0f", numerator, n, base, b);
}

std::string SampleBasis(const Samples& samples) {
  return util::StrFormat("n=%zu", samples.count());
}

std::string TailBasis(const Samples& samples) {
  const double q = TailQuantile(samples.count());
  return util::StrFormat("n=%zu, %s", samples.count(),
                         QuantileLabel(q).c_str());
}

void ReplayOne(const core::InferenceEngine& prototype,
               const Transcript& transcript, ReplayResult& out) {
  auto made = core::MakeStrategy(transcript.spec.strategy,
                                 transcript.spec.seed);
  JIM_CHECK_OK(made.status());
  std::unique_ptr<core::Strategy> strategy = std::move(made).value();
  if (auto* lookahead =
          dynamic_cast<core::LookaheadStrategy*>(strategy.get())) {
    lookahead->set_thread_pool(nullptr);
  }
  core::InferenceEngine session = prototype;
  core::InferenceEngine owned = prototype;
  for (size_t k = 0; k < transcript.steps.size(); ++k) {
    const Transcript::Step& step = transcript.steps[k];
    const int64_t t0 = NowNs();
    const size_t pick = strategy->PickClass(session);
    const int64_t t1 = NowNs();
    out.pick_us.Add(Micros(t1 - t0));
    if (k == 0) out.root_pick_us.Add(Micros(t1 - t0));
    ++out.picks;
    if (pick != step.suggested) {
      out.errors.push_back(util::StrFormat(
          "replay of session %s step %zu picked class %zu, the daemon "
          "suggested %zu",
          transcript.session_id.c_str(), k, pick, step.suggested));
      return;
    }
    const core::Label label =
        step.positive ? core::Label::kPositive : core::Label::kNegative;
    const int64_t t2 = NowNs();
    core::InferenceEngine trial = session;
    const util::Status cloned = trial.SubmitClassLabel(step.class_id, label);
    session = std::move(trial);
    const int64_t t3 = NowNs();
    const util::Status labeled = owned.SubmitClassLabel(step.class_id, label);
    const int64_t t4 = NowNs();
    JIM_CHECK_OK(cloned);
    JIM_CHECK_OK(labeled);
    out.clone_label_at[{transcript.session_id, k}] = Micros(t3 - t2);
    if (k >= 1) {
      out.clone_label_us.Add(Micros(t3 - t2));
      out.label_us.Add(Micros(t4 - t3));
    }
  }
}

/// Server-side view of one request after the run: its parsed verb and the
/// storage spans it caused.
struct ServedRequest {
  const ServerRequest* record = nullptr;
  std::string verb;  ///< protocol verb; "suggest_cached" for a repeat
  std::string session;
  size_t label_step = 0;  ///< for labels: index among its session's labels
};

}  // namespace

ReplayResult Replay(const core::InferenceEngine& prototype,
                    const std::vector<Transcript>& transcripts,
                    size_t threads) {
  std::vector<ReplayResult> parts(threads);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < transcripts.size();
           i = next.fetch_add(1)) {
        ReplayOne(prototype, transcripts[i], parts[t]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ReplayResult result;
  for (ReplayResult& part : parts) {
    result.pick_us.Merge(part.pick_us);
    result.root_pick_us.Merge(part.root_pick_us);
    result.clone_label_us.Merge(part.clone_label_us);
    result.label_us.Merge(part.label_us);
    result.clone_label_at.insert(part.clone_label_at.begin(),
                                 part.clone_label_at.end());
    result.picks += part.picks;
    for (std::string& e : part.errors) result.errors.push_back(std::move(e));
  }
  return result;
}

CheckpointReplay ReplayCheckpoints(const core::InferenceEngine& prototype,
                                   const std::vector<Transcript>& transcripts,
                                   const std::string& dir,
                                   jim::storage::Env& env) {
  constexpr size_t kSessions = 256;
  std::vector<const Transcript*> chosen;
  for (const Transcript& t : transcripts) chosen.push_back(&t);
  std::sort(chosen.begin(), chosen.end(),
            [](const Transcript* a, const Transcript* b) {
              return a->spec.index < b->spec.index;
            });
  chosen.resize(std::min(chosen.size(), kSessions));

  JIM_CHECK_OK(env.CreateDirectories(dir));
  std::unordered_map<uint64_t, bool> is_label;  // write span id -> kind
  CheckpointReplay out;
  auto write = [&](const serve::SessionCheckpoint& checkpoint, bool label) {
    Span span;
    span.id = SpanRecorder::Instance().NextId();
    span.request = span.id;
    span.name = "checkpoint.write";
    CurrentRequest() = {span.id, span.id};
    span.start_ns = NowNs();
    JIM_CHECK_OK(serve::WriteCheckpoint(env, dir, checkpoint, {}));
    span.end_ns = NowNs();
    CurrentRequest() = {};
    SpanRecorder::Instance().Record(span);
    is_label[span.id] = label;
    if (label) {
      ++out.labels;
      out.label_write_us.Add(Micros(span.duration_ns()));
    } else {
      ++out.creates;
    }
  };
  for (const Transcript* t : chosen) {
    serve::SessionCheckpoint checkpoint;
    checkpoint.session_id = t->session_id;
    checkpoint.instance = "replay";
    checkpoint.strategy = t->spec.strategy;
    checkpoint.goal = t->spec.goal;
    checkpoint.seed = t->spec.seed;
    checkpoint.max_steps = 4096;
    write(checkpoint, /*label=*/false);
    for (const Transcript::Step& step : t->steps) {
      serve::CheckpointStep s;
      s.suggested_class = static_cast<uint32_t>(step.suggested);
      s.class_id = static_cast<uint32_t>(step.class_id);
      s.tuple_index = static_cast<uint32_t>(
          prototype.tuple_class(step.class_id).tuple_indices[0]);
      s.answer = step.positive ? 1 : 0;
      checkpoint.steps.push_back(s);
      write(checkpoint, /*label=*/true);
    }
    JIM_CHECK_OK(env.RemoveFile(
        dir + "/" + serve::CheckpointFileName(t->session_id)));
  }

  for (const Span& span : SpanRecorder::Instance().Collect()) {
    const bool sync = std::strcmp(span.name, "storage.sync") == 0;
    if (sync) out.fsync_us.Add(Micros(span.duration_ns()));
    auto kind = is_label.find(span.parent);
    if (kind == is_label.end()) continue;  // not inside a checkpoint write
    if (!kind->second) {
      if (sync) ++out.create_fsyncs;
      continue;
    }
    if (sync) ++out.label_fsyncs;
    if (std::strcmp(span.name, "storage.dir_sync") == 0) ++out.label_dir_syncs;
    if (std::strcmp(span.name, "storage.rename") == 0) ++out.label_renames;
    if (std::strcmp(span.name, "storage.append") == 0) {
      out.label_bytes += static_cast<double>(span.bytes);
    }
  }
  return out;
}

EngineCounts ReadEngineCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  EngineCounts counts;
  counts.simulations =
      registry.CounterValue(obs::kCounterEngineSimulateLabelBoth);
  counts.cutoff_skips = registry.CounterValue(obs::kCounterEngineCutoffSkips);
  counts.watch_wakes = registry.CounterValue(obs::kCounterEngineWatchWakes);
  counts.pruned_classes =
      registry.CounterValue(obs::kCounterEnginePrunedClasses);
  counts.labels_accepted =
      registry.CounterValue(obs::kCounterEngineLabelsAccepted);
  counts.labels_negative =
      registry.CounterValue(obs::kCounterEngineLabelsNegative);
  return counts;
}

std::vector<LayerMetric> ComputeLayers(const TracedRun& run,
                                       std::vector<std::string>* errors) {
  const LoadResult& load = *run.load;
  const ReplayResult& replay = *run.replay;
  const CheckpointReplay& cp = *run.checkpoints;

  // --- protocol: re-parse every request line the daemon received ---------
  std::vector<ServedRequest> served;
  served.reserve(run.server_requests.size());
  Samples parse_us;
  std::unordered_map<std::string, size_t> labels_seen;
  for (const ServerRequest& record : run.server_requests) {
    const int64_t t0 = NowNs();
    auto parsed = jim::serve::ParseRequest(record.line);
    parse_us.Add(Micros(NowNs() - t0));
    JIM_CHECK_OK(parsed.status());
    ServedRequest s;
    s.record = &record;
    s.verb = parsed->verb;
    s.session = parsed->session;
    if (s.verb == "suggest" && !served.empty() &&
        served.back().record->connection == record.connection &&
        served.back().verb == "suggest" && served.back().session == s.session) {
      s.verb = "suggest_cached";
    }
    if (s.verb == "label") s.label_step = labels_seen[s.session]++;
    served.push_back(std::move(s));
  }

  // --- storage spans, grouped under the request that caused them ----------
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : run.spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }

  std::map<std::string, Samples> server_us;
  Samples label_self_us;
  double suggest_ns = 0;
  double wire_bytes = 0;
  for (const ServedRequest& s : served) {
    const ServerRequest& r = *s.record;
    const int64_t duration = r.end_ns - r.start_ns;
    server_us[s.verb].Add(Micros(duration));
    wire_bytes += static_cast<double>(r.bytes_in + r.bytes_out);
    std::vector<std::pair<int64_t, int64_t>> intervals;
    auto it = children.find(r.request);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        intervals.emplace_back(child->start_ns, child->end_ns);
      }
    }
    const int64_t storage_ns = CoveredLength(intervals, r.start_ns, r.end_ns);
    if (s.verb == "suggest" || s.verb == "suggest_cached") {
      suggest_ns += static_cast<double>(duration);
    } else if (s.verb == "label") {
      auto clone = replay.clone_label_at.find({s.session, s.label_step});
      if (clone != replay.clone_label_at.end()) {
        label_self_us.Add(Micros(duration - storage_ns) - clone->second);
      }
    }
  }

  // --- transport: match each client connection to the server's record of
  // it (identical request lines in identical order) ---------------------
  std::map<size_t, std::vector<const ServerRequest*>> by_connection;
  for (const ServerRequest& r : run.server_requests) {
    by_connection[r.connection].push_back(&r);
  }
  Samples wire_us;
  double client_rtt_ns = 0, matched_server_ns = 0;
  for (const std::vector<ClientRequest>& client : load.requests) {
    if (client.empty()) continue;
    const std::vector<const ServerRequest*>* match = nullptr;
    for (const auto& [connection, server] : by_connection) {
      if (server.size() != client.size()) continue;
      bool same = true;
      for (size_t i = 0; same && i < client.size(); ++i) {
        same = server[i]->line == client[i].line;
      }
      if (same) {
        match = &server;
        break;
      }
    }
    if (match == nullptr) {
      errors->push_back(
          "a client connection's requests do not match any connection the "
          "daemon served");
      continue;
    }
    for (size_t i = 0; i < client.size(); ++i) {
      const int64_t rtt = client[i].recv_ns - client[i].send_ns;
      const int64_t server = (*match)[i]->end_ns - (*match)[i]->start_ns;
      wire_us.Add(Micros(rtt - server));
      client_rtt_ns += static_cast<double>(rtt);
      matched_server_ns += static_cast<double>(server);
    }
  }

  const EngineCounts& c = run.counts;
  const double picks = static_cast<double>(replay.picks);
  const double attempts =
      static_cast<double>(c.cutoff_skips) + static_cast<double>(c.simulations);
  const Samples& lateness = load.lateness_ms;
  const Samples& scheduled =
      load.scheduled_us[static_cast<size_t>(Verb::kSuggest)];
  const double traced_labels_per_s =
      Ratio(static_cast<double>(load.labels), load.elapsed_s);

  auto server_p50 = [&](const char* verb) {
    return server_us[verb].Quantile(0.5);
  };
  std::vector<LayerMetric> out = {
      {"transport.wire_p50_us", "us", wire_us.Quantile(0.5),
       "suggest_p50_us @ interleaved-10k", SampleBasis(wire_us)},
      {"transport.wire_p99_us", "us", TailValue(wire_us),
       "suggest_p99_us @ interleaved-10k", TailBasis(wire_us)},
      {"transport.bytes_per_request", "bytes",
       Ratio(wire_bytes, static_cast<double>(served.size())),
       "suggest_p50_us @ interleaved-10k",
       CountBasis("bytes", wire_bytes, "requests",
                  static_cast<double>(served.size()))},
      {"protocol.parse_p50_us", "us", parse_us.Quantile(0.5),
       "status_p50_us @ interleaved-10k", SampleBasis(parse_us)},
      {"server.create_p50_us", "us", server_p50("create"),
       "create_p50_us @ all", SampleBasis(server_us["create"])},
      {"server.suggest_p50_us", "us", server_p50("suggest"),
       "suggest_p50_us @ all", SampleBasis(server_us["suggest"])},
      {"server.suggest_p99_us", "us", TailValue(server_us["suggest"]),
       "suggest_p99_us @ all", TailBasis(server_us["suggest"])},
      {"server.label_p50_us", "us", server_p50("label"),
       "label_p50_us @ all", SampleBasis(server_us["label"])},
      {"server.label_p99_us", "us", TailValue(server_us["label"]),
       "label_p99_us @ all", TailBasis(server_us["label"])},
      {"server.status_p50_us", "us", server_p50("status"),
       "status_p50_us @ all", SampleBasis(server_us["status"])},
      {"session_manager.label_self_p50_us", "us",
       label_self_us.Quantile(0.5), "label_p50_us @ interleaved-10k",
       SampleBasis(label_self_us) +
           ", server.label - storage spans - replayed clone+label"},
      {"core.pick_p50_us", "us", replay.pick_us.Quantile(0.5),
       "suggest_p50_us @ lookahead-100k", SampleBasis(replay.pick_us)},
      {"core.pick_p99_us", "us", TailValue(replay.pick_us),
       "suggest_p99_us @ lookahead-100k", TailBasis(replay.pick_us)},
      {"core.root_pick_p50_us", "us", replay.root_pick_us.Quantile(0.5),
       "suggest_p50_us @ lookahead-100k", SampleBasis(replay.root_pick_us)},
      {"engine.simulations_per_pick", "count",
       Ratio(static_cast<double>(c.simulations), picks),
       "suggest_p50_us @ lookahead-100k",
       CountBasis("engine.simulate_label_both",
                  static_cast<double>(c.simulations), "picks", picks)},
      {"engine.cutoff_skips_per_pick", "count",
       Ratio(static_cast<double>(c.cutoff_skips), picks),
       "suggest_p50_us @ lookahead-100k",
       CountBasis("engine.cutoff_skips", static_cast<double>(c.cutoff_skips),
                  "picks", picks)},
      {"engine.cutoff_useful_frac", "ratio",
       Ratio(static_cast<double>(c.cutoff_skips), attempts),
       "suggest_p50_us @ lookahead-100k",
       CountBasis("engine.cutoff_skips", static_cast<double>(c.cutoff_skips),
                  "candidates (skips + simulate_label_both)", attempts)},
      {"core.clone_label_p50_us", "us", replay.clone_label_us.Quantile(0.5),
       "label_p50_us @ interleaved-10k, lookahead-100k",
       SampleBasis(replay.clone_label_us) + ", labels after the first"},
      {"core.label_p50_us", "us", replay.label_us.Quantile(0.5),
       "label_p50_us @ interleaved-10k, lookahead-100k",
       SampleBasis(replay.label_us) + ", labels after the first"},
      {"engine.watch_wakes_per_negative_label", "count",
       Ratio(static_cast<double>(c.watch_wakes),
             static_cast<double>(c.labels_negative)),
       "label_p50_us @ lookahead-100k",
       CountBasis("engine.watch_wakes", static_cast<double>(c.watch_wakes),
                  "engine.labels.negative",
                  static_cast<double>(c.labels_negative))},
      {"engine.pruned_classes_per_label", "count",
       Ratio(static_cast<double>(c.pruned_classes),
             static_cast<double>(c.labels_accepted)),
       "label_p50_us @ lookahead-100k",
       CountBasis("engine.propagate.pruned_classes",
                  static_cast<double>(c.pruned_classes),
                  "engine.labels.accepted",
                  static_cast<double>(c.labels_accepted))},
      {"storage.fsyncs_per_label", "count", Ratio(cp.label_fsyncs, cp.labels),
       kCheckpointLabel,
       CountBasis("storage.sync", cp.label_fsyncs, "label writes", cp.labels)},
      {"storage.dir_syncs_per_label", "count",
       Ratio(cp.label_dir_syncs, cp.labels), kCheckpointLabel,
       CountBasis("storage.dir_sync", cp.label_dir_syncs, "label writes",
                  cp.labels)},
      {"storage.renames_per_label", "count",
       Ratio(cp.label_renames, cp.labels), kCheckpointLabel,
       CountBasis("storage.rename", cp.label_renames, "label writes",
                  cp.labels)},
      {"storage.bytes_per_label", "bytes", Ratio(cp.label_bytes, cp.labels),
       kCheckpointLabel,
       CountBasis("appended bytes", cp.label_bytes, "label writes",
                  cp.labels)},
      {"storage.fsyncs_per_create", "count",
       Ratio(cp.create_fsyncs, cp.creates), kCheckpointCreate,
       CountBasis("storage.sync", cp.create_fsyncs, "create writes",
                  cp.creates)},
      {"storage.checkpoint_write_p50_us", "us",
       cp.label_write_us.Quantile(0.5), kCheckpointLabel,
       SampleBasis(cp.label_write_us) + ", WriteCheckpoint after a label"},
      {"storage.fsync_p50_us", "us", cp.fsync_us.Quantile(0.5),
       kCheckpointLabel, SampleBasis(cp.fsync_us)},
      {"storage.fsync_p99_us", "us", TailValue(cp.fsync_us),
       kCheckpointLabelTail, TailBasis(cp.fsync_us)},
      {"storage.write_store_s", "s", run.setup.write_store_s,
       "setup_s @ lookahead-100k", "median over set-up repetitions"},
      {"storage.open_s", "s", run.setup.open_s, "setup_s @ lookahead-100k",
       "median over set-up repetitions"},
      {"core.build_s", "s", run.setup.build_s, "setup_s @ lookahead-100k",
       "median over set-up repetitions"},
      {"core.pick_share_of_suggest", "ratio",
       Ratio(replay.pick_us.Sum() * 1e3, suggest_ns),
       "suggest_p50_us @ lookahead-100k",
       util::StrFormat("replayed picks %.0f us / server.suggest %.0f us",
                       replay.pick_us.Sum(), suggest_ns * 1e-3)},
      {"server.share_of_client_rtt", "ratio",
       Ratio(matched_server_ns, client_rtt_ns),
       "suggest_p50_us, status_p50_us @ interleaved-10k",
       util::StrFormat("server %.0f us / client round trips %.0f us",
                       matched_server_ns * 1e-3, client_rtt_ns * 1e-3)},
      {"gen.scheduled_suggest_p99_us", "us", TailValue(scheduled),
       "diagnostic for interleaved-10k",
       scheduled.count() == 0
           ? "closed loop: no schedule"
           : TailBasis(scheduled) +
                 ", suggest from its scheduled send: queueing included"},
      {"gen.lateness_p99_ms", "ms", TailValue(lateness),
       "diagnostic for interleaved-10k",
       lateness.count() == 0 ? "closed loop: no schedule"
                             : TailBasis(lateness)},
      {"trace.overhead_frac", "ratio",
       1.0 - Ratio(traced_labels_per_s, run.untraced_labels_per_s),
       "none (diagnostic)",
       util::StrFormat("traced %.1f labels/s vs untraced %.1f labels/s",
                       traced_labels_per_s, run.untraced_labels_per_s)},
  };
  return out;
}

}  // namespace jimbench
