// Experiment M1 (DESIGN.md): engineering microbenchmarks.
// Latency of the primitives everything else is built from: partition
// algebra, tuple-partition extraction, engine construction, label
// propagation, and one full strategy decision.
//
// Self-contained harness (no external benchmark library): each case is
// calibrated to run for a minimum wall time, then reported as ns/op both as
// a human-readable table and as machine-readable BENCH_micro.json written
// via util::JsonWriter — the seed of the perf trajectory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "exec/thread_pool.h"
#include "lattice/enumeration.h"
#include "lattice/partition.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace {

using namespace jim;
using bench::BenchResult;
using bench::DoNotOptimize;
using bench::RunBench;

lat::Partition RandomPartition(size_t n, util::Rng& rng) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) / 2));
  }
  return lat::Partition::FromLabels(labels);
}

workload::SyntheticWorkload MakeSynthetic(size_t tuples, uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = tuples;
  spec.num_attributes = 6;
  spec.domain_size = 6;
  return workload::MakeSyntheticWorkload(spec, rng);
}

void RegisterAll(std::vector<BenchResult>& results) {
  // One size sweep per partition operation. `op` is a generic callable (not
  // std::function) so the benchmarked body still inlines into the timed
  // loop; Refines gets `b` coarsened so the refinement actually holds.
  const auto partition_sweep = [&results](const char* name, uint64_t seed,
                                          bool coarsen_b, const auto& op) {
    for (size_t n : {5, 10, 20, 40}) {
      util::Rng rng(seed);
      const lat::Partition a = RandomPartition(n, rng);
      const lat::Partition b = coarsen_b ? a.Join(RandomPartition(n, rng))
                                         : RandomPartition(n, rng);
      results.push_back(RunBench(name, static_cast<int64_t>(n),
                                 [&] { DoNotOptimize(op(a, b)); }));
    }
  };
  partition_sweep("PartitionMeet", 1, false,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Meet(b);
                  });
  partition_sweep("PartitionJoin", 2, false,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Join(b);
                  });
  partition_sweep("PartitionRefines", 3, true,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Refines(b);
                  });
  for (size_t n : {5, 10, 20}) {
    util::Rng rng(4);
    rel::Tuple tuple;
    for (size_t i = 0; i < n; ++i) {
      // In-place construction: moving a temporary Value trips GCC 12's
      // variant/string -Wmaybe-uninitialized false positive under -Werror.
      tuple.emplace_back(rng.UniformInt(0, 4));
    }
    results.push_back(RunBench("TuplePartition", static_cast<int64_t>(n),
                               [&] { DoNotOptimize(core::TuplePartition(tuple)); }));
  }
  results.push_back(
      RunBench("BellNumber", -1, [] { DoNotOptimize(lat::BellNumber(20)); }));
  for (size_t tuples : {1000, 10000, 100000}) {
    const auto workload = MakeSynthetic(tuples, 5);
    // The historical cross-commit metric: full class construction over a
    // pre-encoded store.
    results.push_back(RunBench("EngineBuild", static_cast<int64_t>(tuples), [&] {
      core::InferenceEngine engine(workload.store);
      DoNotOptimize(engine.num_classes());
    }));
  }
  // The columnar ingest pipeline, measured in its two stages:
  //   IngestEncode      — dictionary-encoding a materialized relation into a
  //                       RelationTupleStore (arg = tuples);
  //   BuildClasses{10k,100k} — the one-pass pair-set class build over the
  //                       encoded store (arg = tuples);
  //   BuildClassesLegacy{10k,100k} — the pre-columnar reference: Part(t) via
  //                       Value::Equals (TuplePartition) per row, classes
  //                       grouped in a Partition-keyed hash map.
  // WriteJson derives tuples/sec and the legacy→codes speedup from these.
  for (size_t tuples : {10000, 100000}) {
    const auto workload = MakeSynthetic(tuples, 9);
    const char* suffix = tuples == 10000 ? "10k" : "100k";
    // Pinned serial (explicit nullptr pool): the historical cross-commit
    // metric — the single-arg MakeRelationStore now auto-dispatches large
    // relations to the shared pool, and IngestEncodeParallel below measures
    // that at controlled thread counts.
    results.push_back(RunBench(std::string("IngestEncode"),
                               static_cast<int64_t>(tuples), [&] {
                                 DoNotOptimize(core::MakeRelationStore(
                                                   workload.instance,
                                                   /*pool=*/nullptr)
                                                   ->num_tuples());
                               }));
    results.push_back(RunBench(std::string("BuildClasses") + suffix,
                               static_cast<int64_t>(tuples), [&] {
                                 core::InferenceEngine engine(workload.store);
                                 DoNotOptimize(engine.num_classes());
                               }));
    for (size_t threads : {1, 4}) {
      exec::ThreadPool pool(threads);
      // The chunked-dictionary parallel ingest (arg = threads; 1 is the
      // serial reference — codes are bitwise-identical at any count).
      results.push_back(RunBench(std::string("IngestEncodeParallel") + suffix,
                                 static_cast<int64_t>(threads), [&] {
                                   DoNotOptimize(
                                       core::MakeRelationStore(
                                           workload.instance,
                                           threads > 1 ? &pool : nullptr)
                                           ->num_tuples());
                                 }));
    }
    results.push_back(RunBench(
        std::string("BuildClassesLegacy") + suffix,
        static_cast<int64_t>(tuples), [&] {
          std::unordered_map<lat::Partition, size_t, lat::PartitionHash> ids;
          for (size_t t = 0; t < workload.instance->num_rows(); ++t) {
            ids.emplace(core::TuplePartition(workload.instance->row(t)),
                        ids.size());
          }
          DoNotOptimize(ids.size());
        }));
  }
  // The persistent tier: writing the 100k instance to a JIMC file (encode,
  // checksums and the durable tmp → fsync → rename → dir-fsync sequence),
  // cold-opening it (mmap + full validation pass) vs re-encoding it in
  // memory (IngestEncode above, same seed), and class construction served
  // zero-copy from the mapping. WriteJson derives
  // write_store_tuples_per_sec, mmap_open_tuples_per_sec,
  // mmap_build_classes_tuples_per_sec, and the cold-open vs
  // in-memory-ingest comparison key from these.
  {
    const auto workload = MakeSynthetic(100000, 9);
    const std::string path = "bench_micro_tmp.jimc";
    results.push_back(RunBench("WriteStore", 100000, [&] {
      JIM_CHECK_OK(storage::WriteStore(*workload.store, path));
    }));
    results.push_back(RunBench("MmapOpen", 100000, [&] {
      DoNotOptimize(storage::OpenStore(path).value()->num_tuples());
    }));
    const auto mapped = storage::OpenStore(path).value();
    results.push_back(RunBench("MmapBuildClasses", 100000, [&] {
      core::InferenceEngine engine(mapped);
      DoNotOptimize(engine.num_classes());
    }));
    std::remove(path.c_str());
  }
  for (size_t tuples : {1000, 10000}) {
    const auto workload = MakeSynthetic(tuples, 6);
    const core::InferenceEngine prototype(workload.instance);
    // The propagation target is chosen once, outside the timed body.
    const auto informative = prototype.InformativeClasses();
    JIM_CHECK(!informative.empty());
    const size_t target = informative[informative.size() / 2];
    // Each iteration needs a fresh engine, so the copy is unavoidably inside
    // the loop; EngineCopy measures it alone so it can be subtracted.
    const BenchResult copy =
        RunBench("EngineCopy", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          DoNotOptimize(engine.num_classes());
        });
    const BenchResult gross =
        RunBench("LabelPropagation", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          (void)engine.SubmitClassLabel(target, core::Label::kPositive);
          DoNotOptimize(engine.NumInformativeTuples());
        });
    // A goal selects few tuples, so most labels of a session are negative,
    // and they take the other propagation branch: one refinement test per
    // worklist class, no knowledge refresh.
    const BenchResult gross_negative = RunBench(
        "LabelPropagationNegative", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          (void)engine.SubmitClassLabel(target, core::Label::kNegative);
          DoNotOptimize(engine.NumInformativeTuples());
        });
    // Copy-corrected propagation costs, so cross-commit comparison tracks
    // SubmitClassLabel itself rather than the engine copy above.
    const auto copy_corrected = [&copy](const BenchResult& timed,
                                        const char* name) {
      BenchResult net = timed;
      net.name = name;
      net.ns_per_op = std::max(0.0, timed.ns_per_op - copy.ns_per_op);
      return net;
    };
    results.push_back(copy);
    results.push_back(gross);
    results.push_back(copy_corrected(gross, "LabelPropagationNet"));
    results.push_back(
        copy_corrected(gross_negative, "LabelPropagationNegative"));
    // A daemon session is a clone labeled in place, and its first positive
    // label usually follows a negative one (goals select few tuples). That
    // label detaches both the session arrays and the knowledge table from
    // the prototype, clips the forbidden zone to the new θ_P and refreshes
    // every K_c. Timed on clones of such a session, net of copying it.
    core::InferenceEngine session = prototype;
    for (size_t c : informative) {
      if (c == target) continue;
      core::InferenceEngine probe = session;
      JIM_CHECK_OK(probe.SubmitClassLabel(c, core::Label::kNegative));
      if (probe.class_status(target) == core::ClassStatus::kInformative) {
        session = std::move(probe);
        break;
      }
    }
    JIM_CHECK_EQ(session.history().size(), size_t{1});
    const BenchResult session_copy =
        RunBench("SessionCopy", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = session;
          DoNotOptimize(engine.num_classes());
        });
    BenchResult first_positive = RunBench(
        "CloneFirstPositiveLabel", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = session;
          (void)engine.SubmitClassLabel(target, core::Label::kPositive);
          DoNotOptimize(engine.NumInformativeTuples());
        });
    first_positive.ns_per_op =
        std::max(0.0, first_positive.ns_per_op - session_copy.ns_per_op);
    results.push_back(first_positive);
  }
  // Both-label impact of one candidate class — the inner loop of every
  // lookahead strategy (per candidate it needs the impact of both answers).
  // Measures the production path: the transposed kernel over a lookahead
  // cache prepared once, as a decision does; the pre-kernel baseline for the
  // same metric was two full-rescan simulations.
  for (size_t tuples : {1000, 10000}) {
    const auto workload = MakeSynthetic(tuples, 6);
    const core::InferenceEngine engine(workload.instance);
    const auto informative = engine.InformativeClasses();
    JIM_CHECK(!informative.empty());
    const size_t target = informative.size() / 2;  // a worklist position
    core::InferenceEngine::LookaheadCache cache;
    engine.PrepareLookahead(cache);
    results.push_back(
        RunBench("EngineSimulateLabel", static_cast<int64_t>(tuples), [&] {
          const core::InferenceEngine::LabelImpactPair both =
              engine.SimulateLabelBoth(target, cache);
          DoNotOptimize(both.positive.pruned_tuples +
                        both.negative.pruned_tuples);
        }));
  }
  // The same kernel where the root row cannot reach: the mean over every
  // candidate of one decision, so the cost of the forbidden-zone terms and
  // of a second pair word shows. "MidSession": the 10k instance once
  // lookahead-entropy picks, each answered negative, have left three
  // forbidden zones (the planted goal ends its session with fewer).
  // "12Attr": the root of a 12-attribute instance, 66 pairs in two pair
  // words.
  const auto kernel_decision = [&results](const char* name, int64_t arg,
                                          const core::InferenceEngine& engine) {
    const std::vector<size_t>& candidates = engine.InformativeClasses();
    JIM_CHECK(!candidates.empty());
    core::InferenceEngine::LookaheadCache cache;
    engine.PrepareLookahead(cache);
    BenchResult result = RunBench(name, arg, [&] {
      size_t pruned = 0;
      for (size_t position = 0; position < candidates.size(); ++position) {
        const core::InferenceEngine::LabelImpactPair both =
            engine.SimulateLabelBoth(position, cache);
        pruned += both.positive.pruned_tuples + both.negative.pruned_tuples;
      }
      DoNotOptimize(pruned);
    });
    result.ns_per_op /= static_cast<double>(candidates.size());
    results.push_back(result);
  };
  {
    const auto workload = MakeSynthetic(10000, 7);
    core::InferenceEngine engine(workload.instance);
    core::LookaheadStrategy strategy(
        core::LookaheadStrategy::Objective::kEntropy);
    while (engine.state().num_negatives() < 3) {
      JIM_CHECK(!engine.IsDone());
      JIM_CHECK_OK(engine.SubmitClassLabel(strategy.PickClass(engine),
                                           core::Label::kNegative));
    }
    JIM_CHECK(!engine.IsDone());
    kernel_decision("EngineSimulateLabelMidSession", 10000, engine);
  }
  {
    util::Rng rng(12);
    workload::SyntheticSpec spec;
    spec.num_tuples = 1000;
    spec.num_attributes = 12;
    spec.domain_size = 6;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    kernel_decision("EngineSimulateLabel12Attr", 1000,
                    core::InferenceEngine(workload.instance));
  }
  const auto strategy_sweep = [&results](const char* name,
                                         const char* strategy_name,
                                         uint64_t seed) {
    for (size_t tuples : {1000, 10000, 100000}) {
      const auto workload = MakeSynthetic(tuples, seed);
      core::InferenceEngine engine(workload.instance);
      auto strategy = core::MakeStrategy(strategy_name).value();
      results.push_back(
          RunBench(name, static_cast<int64_t>(tuples),
                   [&] { DoNotOptimize(strategy->PickClass(engine)); }));
    }
  };
  strategy_sweep("LookaheadPickClass", "lookahead-entropy", 7);
  strategy_sweep("LocalDecision", "local-bottom-up", 8);
  // Full minimax solves on instances small enough for the exponential
  // strategy: exercises the memo-table key path hard.
  {
    auto instance = workload::Figure1InstancePtr();
    const core::InferenceEngine engine(instance);
    results.push_back(RunBench("OptimalSolve", -1, [&] {
      DoNotOptimize(core::OptimalWorstCaseQuestions(engine));
    }));
  }
  for (size_t tuples : {25, 40}) {
    util::Rng rng(static_cast<uint64_t>(44 + tuples));
    workload::SyntheticSpec spec;
    spec.num_tuples = tuples;
    spec.num_attributes = 4;
    spec.domain_size = 3;
    spec.goal_constraints = 2;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const core::InferenceEngine engine(workload.instance);
    results.push_back(
        RunBench("OptimalSolve", static_cast<int64_t>(tuples), [&] {
          DoNotOptimize(core::OptimalWorstCaseQuestions(engine));
        }));
  }
  {
    auto instance = workload::Figure1InstancePtr();
    const auto goal =
        core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
    results.push_back(RunBench("Figure1FullSession", -1, [&] {
      auto strategy = core::MakeStrategy("lookahead-entropy").value();
      DoNotOptimize(core::RunSession(instance, goal, *strategy).interactions);
    }));
  }
  // A daemon's session start, by layer. ParseRequest decodes a `create` and
  // a `label` line shaped like jimbench's; JoinPredicateParse is a rank-3
  // goal in qualified names; SessionManagerCreate@10k starts a session on a
  // registered 10k instance (checkpoints off) and closes it, net of the
  // close, which is timed alone over a batch of sessions. All run warm: a
  // daemon under load runs `create` with cold caches, several times slower.
  {
    const std::string create_line =
        R"({"verb":"create","strategy":"local-bottom-up",)"
        R"("goal":"A0=A3 && A1=A4","seed":1234567890})";
    const std::string label_line =
        R"({"verb":"label","session":"s123","class":17,"answer":false})";
    for (const std::string* line : {&create_line, &label_line}) {
      const auto parsed = serve::ParseRequest(*line);
      JIM_CHECK_OK(parsed.status());
    }
    results.push_back(RunBench("ParseRequestCreate", -1, [&] {
      const auto parsed = serve::ParseRequest(create_line);
      DoNotOptimize(parsed.ok());
    }));
    results.push_back(RunBench("ParseRequestLabel", -1, [&] {
      const auto parsed = serve::ParseRequest(label_line);
      DoNotOptimize(parsed.ok());
    }));
    const rel::Schema side = rel::Schema::FromNames({"A", "B", "C"});
    const rel::Schema joined = rel::Schema::Concat(side, "R", side, "S");
    const std::string goal = "R.A=S.A && R.B=S.B && R.C=S.C";
    {
      const auto parsed = core::JoinPredicate::Parse(joined, goal);
      JIM_CHECK_OK(parsed.status());
      JIM_CHECK_EQ(parsed->NumConstraints(), size_t{3});
    }
    results.push_back(RunBench("JoinPredicateParse", 3, [&] {
      const auto parsed = core::JoinPredicate::Parse(joined, goal);
      DoNotOptimize(parsed.ok());
    }));

    constexpr size_t kCloseBatch = 256;
    serve::ServeOptions options;
    options.max_sessions = kCloseBatch;
    serve::SessionManager manager(options);
    manager.RegisterInstance("synthetic-10k", MakeSynthetic(10000, 11).store);
    const auto create = [&manager] {
      auto created = manager.Create("synthetic-10k", "local-bottom-up",
                                    "A0=A3 && A1=A4", 7, 0);
      JIM_CHECK_OK(created.status());
      return created->session_id;
    };
    BenchResult create_close =
        RunBench("SessionManagerCreate", 10000,
                 [&] { JIM_CHECK_OK(manager.Close(create())); });
    double close_ns = 0;
    for (int round = 0; round < 5; ++round) {
      std::vector<std::string> ids;
      for (size_t i = 0; i < kCloseBatch; ++i) ids.push_back(create());
      util::Stopwatch watch;
      for (const std::string& id : ids) JIM_CHECK_OK(manager.Close(id));
      const double ns = watch.ElapsedSeconds() * 1e9 / kCloseBatch;
      close_ns = round == 0 ? ns : std::min(close_ns, ns);
    }
    create_close.ns_per_op = std::max(0.0, create_close.ns_per_op - close_ns);
    results.push_back(create_close);
  }
}

/// Work counts from the metrics registry (untimed; runs after the
/// calibrated sweeps so their ns/op stay comparable with metrics-off
/// history). The work-count complement of the latency rows above — latency
/// regressions split into "each simulation got slower" vs "we simulate
/// more".
struct WorkCounts {
  /// SimulateLabelBoth evaluations one lookahead-entropy PickClass
  /// costs on the 10k instance: one per scored candidate.
  uint64_t simulate_calls_per_pick = 0;
  /// Classes retested per negative label (engine.watch_wakes, the worklist
  /// each negative label's scan visits) over a full 10k-instance session.
  double woken_classes_per_negative_label = 0;
};

WorkCounts MeasureWorkCounts() {
  obs::SetMetricsEnabled(true);
  WorkCounts counts;
  auto& registry = obs::MetricsRegistry::Instance();
  const auto workload = MakeSynthetic(10000, 7);
  {
    const core::InferenceEngine engine(workload.instance);
    core::LookaheadStrategy strategy(
        core::LookaheadStrategy::Objective::kEntropy);
    const uint64_t sims_before =
        registry.CounterValue(obs::kCounterEngineSimulateLabelBoth);
    DoNotOptimize(strategy.PickClass(engine));
    counts.simulate_calls_per_pick =
        registry.CounterValue(obs::kCounterEngineSimulateLabelBoth) -
        sims_before;
  }
  {
    core::LookaheadStrategy strategy(
        core::LookaheadStrategy::Objective::kEntropy);
    const uint64_t wakes_before =
        registry.CounterValue(obs::kCounterEngineWatchWakes);
    const uint64_t negatives_before =
        registry.CounterValue(obs::kCounterEngineLabelsNegative);
    DoNotOptimize(
        core::RunSession(workload.instance, workload.goal, strategy)
            .interactions);
    const uint64_t wakes =
        registry.CounterValue(obs::kCounterEngineWatchWakes) - wakes_before;
    const uint64_t negatives =
        registry.CounterValue(obs::kCounterEngineLabelsNegative) -
        negatives_before;
    if (negatives > 0) {
      counts.woken_classes_per_negative_label =
          static_cast<double>(wakes) / static_cast<double>(negatives);
    }
  }
  return counts;
}

bool WriteJson(const std::vector<BenchResult>& results,
               const WorkCounts& work, const std::string& path) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("benchmark", "micro");
  bench::AppendMetaBlock(json);
  json.KeyValue("simulate_label_calls_per_pick", work.simulate_calls_per_pick);
  json.KeyValue("propagate_woken_classes_per_label",
                work.woken_classes_per_negative_label);
  // Ingest/BuildClasses throughput + the speedup of the code-kernel class
  // construction over the legacy Value-row path (same instance).
  const auto find_ns = [&results](const std::string& name,
                                  int64_t arg) -> double {
    for (const auto& r : results) {
      if (r.name == name && r.arg == arg) return r.ns_per_op;
    }
    return 0;
  };
  const std::vector<std::pair<std::string, double>> sizes = {
      {"10k", 10000.0}, {"100k", 100000.0}};
  for (const auto& size : sizes) {
    const double encode_ns = find_ns("IngestEncode",
                                     static_cast<int64_t>(size.second));
    if (encode_ns > 0) {
      json.KeyValue("ingest_encode_tuples_per_sec_" + size.first,
                    size.second * 1e9 / encode_ns);
    }
    const double build = find_ns("BuildClasses" + size.first,
                                 static_cast<int64_t>(size.second));
    const double legacy = find_ns("BuildClassesLegacy" + size.first,
                                  static_cast<int64_t>(size.second));
    if (build > 0) {
      json.KeyValue("build_classes_tuples_per_sec_" + size.first,
                    size.second * 1e9 / build);
    }
    if (legacy > 0 && build > 0) {
      json.KeyValue("build_classes_speedup_" + size.first, legacy / build);
    }
    const double parallel_ingest_4t =
        find_ns("IngestEncodeParallel" + size.first, 4);
    if (parallel_ingest_4t > 0) {
      json.KeyValue("ingest_encode_tuples_per_sec_" + size.first + "_4t",
                    size.second * 1e9 / parallel_ingest_4t);
    }
  }
  // The storage tier: cold-open throughput of the mapped 100k instance,
  // class construction over the mapping, and how a cold open compares with
  // re-encoding the same instance in memory (values > 1: reopening the
  // file beats re-ingesting).
  const double write_store_ns = find_ns("WriteStore", 100000);
  if (write_store_ns > 0) {
    json.KeyValue("write_store_tuples_per_sec",
                  100000.0 * 1e9 / write_store_ns);
  }
  const double mmap_open_ns = find_ns("MmapOpen", 100000);
  if (mmap_open_ns > 0) {
    json.KeyValue("mmap_open_tuples_per_sec", 100000.0 * 1e9 / mmap_open_ns);
  }
  const double mmap_build_ns = find_ns("MmapBuildClasses", 100000);
  if (mmap_build_ns > 0) {
    json.KeyValue("mmap_build_classes_tuples_per_sec",
                  100000.0 * 1e9 / mmap_build_ns);
  }
  const double ingest_100k_ns = find_ns("IngestEncode", 100000);
  if (mmap_open_ns > 0 && ingest_100k_ns > 0) {
    json.KeyValue("mmap_cold_open_vs_ingest_speedup",
                  ingest_100k_ns / mmap_open_ns);
  }
  json.Key("results");
  json.BeginArray();
  for (const auto& r : results) {
    json.BeginObject();
    json.KeyValue("name", r.name);
    if (r.arg >= 0) json.KeyValue("arg", r.arg);
    json.KeyValue("iterations", r.iterations);
    json.KeyValue("ns_per_op", r.ns_per_op);
    json.EndObject();
  }
  json.EndArray();
  bench::AppendMetricsSnapshot(json);
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "bench_micro: --out requires a path\n";
        return 2;
      }
      json_path = argv[++i];
    } else {
      std::cerr << "bench_micro: unknown argument '" << arg
                << "' (usage: bench_micro [--out PATH])\n";
      return 2;
    }
  }

  std::vector<BenchResult> results;
  RegisterAll(results);
  const WorkCounts work = MeasureWorkCounts();

  jim::util::TablePrinter table({"benchmark", "arg", "iterations", "ns/op"});
  table.SetAlignments({jim::util::Align::kLeft, jim::util::Align::kRight,
                       jim::util::Align::kRight, jim::util::Align::kRight});
  for (const auto& r : results) {
    table.AddRow({r.name, r.arg >= 0 ? std::to_string(r.arg) : "-",
                  std::to_string(r.iterations),
                  jim::util::StrFormat("%.1f", r.ns_per_op)});
  }
  std::cout << table.ToString();

  if (!WriteJson(results, work, json_path)) {
    std::cerr << "bench_micro: failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
