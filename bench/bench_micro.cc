// google-benchmark micro-suite: throughput of every pipeline stage.
// Not a paper artifact — harness health and regression tracking for the
// substrates (simulator, parser, CFG inference, clustering, SMO).
#include <benchmark/benchmark.h>

#include <sstream>

#include "cfg/alignment.h"
#include "cfg/call_graph.h"
#include "cfg/inference.h"
#include "cfg/weight.h"
#include "core/preprocess.h"
#include "core/persist.h"
#include "ml/dtree.h"
#include "ml/hcluster.h"
#include "ml/hmm.h"
#include "ml/logreg.h"
#include "ml/svm.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "sim/scenario.h"
#include "trace/binary_log.h"
#include "trace/intern.h"
#include "trace/parser.h"
#include "trace/partition.h"
#include "util/rng.h"

namespace {

using namespace leaps;

sim::SimConfig small_config(std::size_t events) {
  sim::SimConfig cfg;
  cfg.benign_events = events;
  cfg.mixed_events = events;
  cfg.malicious_events = events / 2;
  return cfg;
}

const sim::ScenarioLogs& cached_logs(std::size_t events) {
  static std::map<std::size_t, sim::ScenarioLogs> cache;
  auto it = cache.find(events);
  if (it == cache.end()) {
    it = cache
             .emplace(events,
                      sim::generate_scenario(
                          sim::find_scenario("winscp_reverse_tcp"),
                          small_config(events)))
             .first;
  }
  return it->second;
}

void BM_SimulateScenario(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::generate_scenario(
        sim::find_scenario("putty_reverse_tcp"), small_config(events)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events) * 5 / 2);
}
BENCHMARK(BM_SimulateScenario)->Arg(1000)->Arg(4000);

void BM_SerializeRawLog(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  for (auto _ : state) {
    std::ostringstream os;
    trace::write_raw_log(logs.benign, os);
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_SerializeRawLog);

void BM_ParseRawLogText(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  const std::string text = trace::raw_log_to_string(logs.benign);
  for (auto _ : state) {
    std::istringstream is(text);
    benchmark::DoNotOptimize(trace::read_raw_log_any(is));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseRawLogText);

void BM_StackPartition(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  const trace::ParsedTrace t = trace::RawLogParser().parse_raw(logs.mixed);
  const trace::StackPartitioner part(t.log.process_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.partition(t.log));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.log.events.size()));
}
BENCHMARK(BM_StackPartition);

const trace::PartitionedLog& cached_partitioned(std::size_t events) {
  static std::map<std::size_t, trace::PartitionedLog> cache;
  auto it = cache.find(events);
  if (it == cache.end()) {
    it = cache.emplace(events, trace::partition_raw(cached_logs(events).mixed))
             .first;
  }
  return it->second;
}

void BM_CfgInference(benchmark::State& state) {
  const auto& part = cached_partitioned(
      static_cast<std::size_t>(state.range(0)));
  const cfg::CfgInference inference;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inference.infer(part));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.events.size()));
}
BENCHMARK(BM_CfgInference)->Arg(1000)->Arg(4000);

void BM_WeightAssessment(benchmark::State& state) {
  const auto& logs = cached_logs(4000);
  const cfg::CfgInference inference;
  const cfg::InferredCfg bcfg =
      inference.infer(trace::partition_raw(logs.benign));
  const cfg::InferredCfg mcfg =
      inference.infer(trace::partition_raw(logs.mixed));
  for (auto _ : state) {
    const cfg::WeightAssessor assessor(bcfg.graph);
    benchmark::DoNotOptimize(assessor.assess(mcfg));
  }
}
BENCHMARK(BM_WeightAssessment);

void BM_HierarchicalClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::vector<double>> dm(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dm[i][j] = dm[j][i] = rng.next_double();
    }
  }
  const ml::HierarchicalClusterer clusterer({.cut_distance = 0.35});
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.cluster(dm));
  }
}
BENCHMARK(BM_HierarchicalClustering)->Arg(64)->Arg(256);

void BM_SmoTrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  ml::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    ml::FeatureVector x(30);
    for (double& v : x) v = rng.next_gaussian() + 0.4 * label;
    d.add(std::move(x), label, 0.1 + 0.9 * rng.next_double());
  }
  ml::SvmParams params;
  params.lambda = 10.0;
  params.kernel.sigma2 = 8.0;
  const ml::SvmTrainer trainer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SmoTrain)->Arg(128)->Arg(384);

void BM_SvmPredict(benchmark::State& state) {
  util::Rng rng(13);
  ml::Dataset d;
  for (std::size_t i = 0; i < 256; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    ml::FeatureVector x(30);
    for (double& v : x) v = rng.next_gaussian() + 0.4 * label;
    d.add(std::move(x), label);
  }
  const ml::SvmModel model = ml::SvmTrainer({}).train(d);
  ml::FeatureVector probe(30, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.decision_value(probe));
  }
}
BENCHMARK(BM_SvmPredict);

void BM_PreprocessorFitAndWindows(benchmark::State& state) {
  const auto& part = cached_partitioned(2000);
  for (auto _ : state) {
    core::Preprocessor pre;
    pre.fit({&part});
    benchmark::DoNotOptimize(pre.make_windows(part));
  }
}
BENCHMARK(BM_PreprocessorFitAndWindows);

void BM_CallGraphBuild(benchmark::State& state) {
  const auto& part = cached_partitioned(4000);
  for (auto _ : state) {
    cfg::SystemCallGraph g;
    g.add_log(part);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_CallGraphBuild);

void BM_BinaryLogWrite(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  for (auto _ : state) {
    std::ostringstream os(std::ios::binary);
    trace::write_raw_log_binary(logs.benign, os);
    benchmark::DoNotOptimize(os.str());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.benign.events.size()));
}
BENCHMARK(BM_BinaryLogWrite);

void BM_BinaryLogRead(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  std::ostringstream os(std::ios::binary);
  trace::write_raw_log_binary(logs.benign, os);
  const std::string blob = os.str();
  for (auto _ : state) {
    std::istringstream is(blob, std::ios::binary);
    benchmark::DoNotOptimize(trace::read_raw_log_binary(is));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_BinaryLogRead);

void BM_HmmTrain(benchmark::State& state) {
  util::Rng rng(17);
  std::vector<ml::Sequence> seqs;
  for (int i = 0; i < 120; ++i) {
    ml::Sequence s;
    for (int t = 0; t < 10; ++t) {
      s.push_back(static_cast<int>(rng.next_below(24)));
    }
    seqs.push_back(std::move(s));
  }
  const std::vector<double> ones(seqs.size(), 1.0);
  ml::HmmParams params;
  params.states = 5;
  params.max_iterations = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::Hmm::train(seqs, ones, 24, params));
  }
}
BENCHMARK(BM_HmmTrain);

void BM_CfgAlignment(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.benign_events = 4000;
  cfg.mixed_events = 3000;
  cfg.malicious_events = 100;
  const auto logs =
      sim::generate_source_trojan_scenario("winscp", "reverse_tcp", cfg);
  const auto benign = trace::partition_raw(logs.benign);
  const auto mixed = trace::partition_raw(logs.mixed);
  const cfg::CfgInference inference;
  const auto bcfg = inference.infer(benign);
  const auto mcfg = inference.infer(mixed);
  const auto fb = cfg::node_fingerprints(benign);
  const auto fm = cfg::node_fingerprints(mixed);
  const cfg::CfgAligner aligner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.align(bcfg.graph, mcfg.graph, &fb, &fm));
  }
}
BENCHMARK(BM_CfgAlignment);

void BM_LogRegTrain(benchmark::State& state) {
  util::Rng rng(19);
  ml::Dataset d;
  for (int i = 0; i < 360; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    ml::FeatureVector x(30);
    for (double& v : x) v = rng.next_gaussian() + 0.3 * label;
    d.add(std::move(x), label, 0.1 + 0.9 * rng.next_double());
  }
  const ml::LogRegTrainer trainer{ml::LogRegParams{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(d));
  }
}
BENCHMARK(BM_LogRegTrain);

void BM_ForestTrain(benchmark::State& state) {
  util::Rng rng(23);
  ml::Dataset d;
  for (int i = 0; i < 360; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    ml::FeatureVector x(30);
    for (double& v : x) v = rng.next_gaussian() + 0.3 * label;
    d.add(std::move(x), label, 0.1 + 0.9 * rng.next_double());
  }
  const ml::RandomForestTrainer trainer{ml::ForestParams{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(d));
  }
}
BENCHMARK(BM_ForestTrain);

// The observability acceptance case: a disabled span site must cost one
// relaxed atomic load plus a predicted branch (low single-digit ns —
// compare against BM_SpanEnabled to see what turning tracing on buys).
void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer::set_enabled(false);
  obs::Tracer::instance().clear();
  for (auto _ : state) {
    LEAPS_SPAN("bench.disabled");
    benchmark::DoNotOptimize(&state);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::set_enabled(true);
  obs::Tracer::instance().clear();
  // Drain the ring before it saturates so every iteration measures a real
  // record, not the drop path (single-threaded here, so clear() is safe).
  std::size_t since_clear = 0;
  for (auto _ : state) {
    {
      LEAPS_SPAN("bench.enabled");
      benchmark::DoNotOptimize(&state);
    }
    if (++since_clear == obs::Tracer::kCapacity - 1) {
      state.PauseTiming();
      obs::Tracer::instance().clear();
      since_clear = 0;
      state.ResumeTiming();
    }
  }
  obs::Tracer::set_enabled(false);
  obs::Tracer::instance().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

// Decision-value sketch hot path: every scored window pays one insert, so
// this is the per-verdict observability overhead (amortized — most
// inserts land in level 0, the occasional one triggers a compaction
// cascade).
void BM_SketchInsert(benchmark::State& state) {
  obs::QuantileSketch sketch;
  util::Rng rng(29);
  std::size_t i = 0;
  std::vector<double> values(4096);
  for (double& v : values) v = rng.next_gaussian();
  for (auto _ : state) {
    sketch.insert(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(&sketch);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchInsert);

// Quantile queries run on the metrics-export path (Prometheus summary
// lines + status JSON), never per verdict.
void BM_SketchQuantile(benchmark::State& state) {
  obs::QuantileSketch sketch;
  util::Rng rng(31);
  for (int i = 0; i < 100000; ++i) sketch.insert(rng.next_gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchQuantile);

// Merge cost (shard aggregation): fold a 10k-value sketch into a growing
// accumulator each iteration.
void BM_SketchMerge(benchmark::State& state) {
  obs::QuantileSketch shard;
  util::Rng rng(37);
  for (int i = 0; i < 10000; ++i) shard.insert(rng.next_gaussian());
  for (auto _ : state) {
    obs::QuantileSketch merged;
    merged.merge(shard);
    merged.merge(shard);
    benchmark::DoNotOptimize(&merged);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchMerge);

void BM_DetectorPersistRoundTrip(benchmark::State& state) {
  const auto& logs = cached_logs(2000);
  const auto benign = trace::partition_raw(logs.benign);
  const auto mixed = trace::partition_raw(logs.mixed);
  const core::Detector detector = core::fit_detector(benign, mixed).detector;
  for (auto _ : state) {
    std::stringstream buffer;
    core::save_detector(detector, buffer);
    benchmark::DoNotOptimize(core::load_detector(buffer));
  }
}
BENCHMARK(BM_DetectorPersistRoundTrip);

// The per-event fault-point detail on the worker path: rebuilding
// "host:pid" per event (the old behavior) vs the cached key string the
// session now carries. The gap is what caching buys every classified
// event.
void BM_SessionKeyToString(benchmark::State& state) {
  const serve::SessionKey key{"fleet-host-042.prod.example", 48213};
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.to_string());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionKeyToString);

void BM_SessionKeyCachedString(benchmark::State& state) {
  const serve::SessionKey key{"fleet-host-042.prod.example", 48213};
  const std::string cached = key.to_string();  // what Session{} does once
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionKeyCachedString);

// Interning one event at the ingest boundary (steady state: every lookup
// hits). This is the submit()-side cost that buys string-free workers.
void BM_TokenTableCompact(benchmark::State& state) {
  const auto& logs = cached_logs(1000);
  const trace::PartitionedLog log = trace::partition_raw(logs.benign);
  trace::TokenTable table;  // private table: the benchmark stays hermetic
  std::size_t i = 0;
  const std::size_t n = log.events.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.compact(log.events[i]));
    i = (i + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenTableCompact);

}  // namespace

BENCHMARK_MAIN();
