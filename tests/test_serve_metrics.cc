// Golden tests for the serving-metrics expositions. Every counter, gauge,
// histogram and summary of ServerMetrics gets a distinct value; the
// Prometheus text, MetricsSnapshot::to_json() and the serve part of
// --status-json must render exactly what dashboards, CI greps and
// leaps-top have always read (a new table row changes them on purpose:
// add its lines here and its value to fill_golden). A second test walks
// the metric table, so a row added later cannot silently drop out of one
// rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "online/status.h"
#include "serve/metrics.h"
#include "serve/server.h"

namespace leaps::serve {
namespace {

/// Gives every serving counter, gauge, histogram and summary a distinct,
/// recognisable value.
void fill_golden(ServerMetrics& m) {
  m.events_ingested.store(1001);
  m.events_processed.store(1002);
  m.events_dropped.store(1003);
  m.events_rejected.store(1004);
  m.events_quarantined.store(1005);
  m.events_failed.store(1006);
  m.events_shed.store(1007);
  m.windows_scored.store(1008);
  m.verdicts_benign.store(1009);
  m.verdicts_malicious.store(1010);
  m.batches_drained.store(1011);
  m.sessions_opened.store(1012);
  m.sessions_closed.store(1013);
  m.sessions_quarantined.store(1014);
  m.sessions_evicted.store(1015);
  m.shed_activations.store(1017);
  m.note_queue_depth(1018);
  m.session_slabs->in_use.store(1019);
  m.session_slabs->free.store(1020);
  m.session_slabs->chunks.store(1021);
  m.session_slabs->overflow.store(1022);
  for (const std::uint64_t us : {0, 3, 70, 5000, 70}) {
    m.queue_wait.record_us(us);
  }
  for (const std::uint64_t us : {12, 900}) m.classify.record_us(us);
  for (const std::uint64_t us : {6, 40}) m.window_tap.record_us(us);
  for (const double v : {-1.25, 0.5, 2.0, 0.125, 1.0 / 3.0}) {
    m.decision_values.observe(v);
  }
}

const char kPrometheus[] = R"golden(# HELP leaps_serve_events_ingested_total events accepted by submit
# TYPE leaps_serve_events_ingested_total counter
leaps_serve_events_ingested_total 1001
# HELP leaps_serve_events_processed_total events classified
# TYPE leaps_serve_events_processed_total counter
leaps_serve_events_processed_total 1002
# HELP leaps_serve_events_dropped_total events evicted from a queue before feed
# TYPE leaps_serve_events_dropped_total counter
leaps_serve_events_dropped_total 1003
# HELP leaps_serve_events_rejected_total submits refused (unknown session / stopped server)
# TYPE leaps_serve_events_rejected_total counter
leaps_serve_events_rejected_total 1004
# HELP leaps_serve_events_quarantined_total events failed or skipped in feed_run
# TYPE leaps_serve_events_quarantined_total counter
leaps_serve_events_quarantined_total 1005
# HELP leaps_serve_events_failed_total events that threw during classification
# TYPE leaps_serve_events_failed_total counter
leaps_serve_events_failed_total 1006
# HELP leaps_serve_events_shed_total events dropped while shedding engaged
# TYPE leaps_serve_events_shed_total counter
leaps_serve_events_shed_total 1007
# HELP leaps_serve_windows_scored_total windows classified
# TYPE leaps_serve_windows_scored_total counter
leaps_serve_windows_scored_total 1008
# HELP leaps_serve_verdicts_benign_total benign window verdicts
# TYPE leaps_serve_verdicts_benign_total counter
leaps_serve_verdicts_benign_total 1009
# HELP leaps_serve_verdicts_malicious_total malicious window verdicts
# TYPE leaps_serve_verdicts_malicious_total counter
leaps_serve_verdicts_malicious_total 1010
# HELP leaps_serve_batches_drained_total worker batch drains
# TYPE leaps_serve_batches_drained_total counter
leaps_serve_batches_drained_total 1011
# HELP leaps_serve_sessions_opened_total sessions opened
# TYPE leaps_serve_sessions_opened_total counter
leaps_serve_sessions_opened_total 1012
# HELP leaps_serve_sessions_closed_total sessions closed
# TYPE leaps_serve_sessions_closed_total counter
leaps_serve_sessions_closed_total 1013
# HELP leaps_serve_sessions_quarantined_total circuit-breaker trips
# TYPE leaps_serve_sessions_quarantined_total counter
leaps_serve_sessions_quarantined_total 1014
# HELP leaps_serve_sessions_evicted_total sessions removed by the idle sweep
# TYPE leaps_serve_sessions_evicted_total counter
leaps_serve_sessions_evicted_total 1015
# HELP leaps_serve_shed_activations_total times a shard entered shedding
# TYPE leaps_serve_shed_activations_total counter
leaps_serve_shed_activations_total 1017
# HELP leaps_serve_queue_high_water deepest any shard queue got (events)
# TYPE leaps_serve_queue_high_water gauge
leaps_serve_queue_high_water 1018
# HELP leaps_serve_slab_sessions_in_use session slots handed out by the slab pool
# TYPE leaps_serve_slab_sessions_in_use gauge
leaps_serve_slab_sessions_in_use 1019
# HELP leaps_serve_slab_sessions_free recycled session slots on the freelist
# TYPE leaps_serve_slab_sessions_free gauge
leaps_serve_slab_sessions_free 1020
# HELP leaps_serve_slab_chunks slab chunks allocated
# TYPE leaps_serve_slab_chunks gauge
leaps_serve_slab_chunks 1021
# HELP leaps_serve_slab_overflow_total allocations served off-pool (size mismatch)
# TYPE leaps_serve_slab_overflow_total gauge
leaps_serve_slab_overflow_total 1022
# HELP leaps_serve_queue_wait_us enqueue to worker dequeue latency
# TYPE leaps_serve_queue_wait_us histogram
leaps_serve_queue_wait_us_bucket{le="0"} 1
leaps_serve_queue_wait_us_bucket{le="1"} 1
leaps_serve_queue_wait_us_bucket{le="3"} 2
leaps_serve_queue_wait_us_bucket{le="7"} 2
leaps_serve_queue_wait_us_bucket{le="15"} 2
leaps_serve_queue_wait_us_bucket{le="31"} 2
leaps_serve_queue_wait_us_bucket{le="63"} 2
leaps_serve_queue_wait_us_bucket{le="127"} 4
leaps_serve_queue_wait_us_bucket{le="255"} 4
leaps_serve_queue_wait_us_bucket{le="511"} 4
leaps_serve_queue_wait_us_bucket{le="1023"} 4
leaps_serve_queue_wait_us_bucket{le="2047"} 4
leaps_serve_queue_wait_us_bucket{le="4095"} 4
leaps_serve_queue_wait_us_bucket{le="8191"} 5
leaps_serve_queue_wait_us_bucket{le="16383"} 5
leaps_serve_queue_wait_us_bucket{le="32767"} 5
leaps_serve_queue_wait_us_bucket{le="65535"} 5
leaps_serve_queue_wait_us_bucket{le="131071"} 5
leaps_serve_queue_wait_us_bucket{le="262143"} 5
leaps_serve_queue_wait_us_bucket{le="524287"} 5
leaps_serve_queue_wait_us_bucket{le="1048575"} 5
leaps_serve_queue_wait_us_bucket{le="2097151"} 5
leaps_serve_queue_wait_us_bucket{le="4194303"} 5
leaps_serve_queue_wait_us_bucket{le="8388607"} 5
leaps_serve_queue_wait_us_bucket{le="16777215"} 5
leaps_serve_queue_wait_us_bucket{le="33554431"} 5
leaps_serve_queue_wait_us_bucket{le="67108863"} 5
leaps_serve_queue_wait_us_bucket{le="+Inf"} 5
leaps_serve_queue_wait_us_sum 5143
leaps_serve_queue_wait_us_count 5
# HELP leaps_serve_classify_us per drained run of one session
# TYPE leaps_serve_classify_us histogram
leaps_serve_classify_us_bucket{le="0"} 0
leaps_serve_classify_us_bucket{le="1"} 0
leaps_serve_classify_us_bucket{le="3"} 0
leaps_serve_classify_us_bucket{le="7"} 0
leaps_serve_classify_us_bucket{le="15"} 1
leaps_serve_classify_us_bucket{le="31"} 1
leaps_serve_classify_us_bucket{le="63"} 1
leaps_serve_classify_us_bucket{le="127"} 1
leaps_serve_classify_us_bucket{le="255"} 1
leaps_serve_classify_us_bucket{le="511"} 1
leaps_serve_classify_us_bucket{le="1023"} 2
leaps_serve_classify_us_bucket{le="2047"} 2
leaps_serve_classify_us_bucket{le="4095"} 2
leaps_serve_classify_us_bucket{le="8191"} 2
leaps_serve_classify_us_bucket{le="16383"} 2
leaps_serve_classify_us_bucket{le="32767"} 2
leaps_serve_classify_us_bucket{le="65535"} 2
leaps_serve_classify_us_bucket{le="131071"} 2
leaps_serve_classify_us_bucket{le="262143"} 2
leaps_serve_classify_us_bucket{le="524287"} 2
leaps_serve_classify_us_bucket{le="1048575"} 2
leaps_serve_classify_us_bucket{le="2097151"} 2
leaps_serve_classify_us_bucket{le="4194303"} 2
leaps_serve_classify_us_bucket{le="8388607"} 2
leaps_serve_classify_us_bucket{le="16777215"} 2
leaps_serve_classify_us_bucket{le="33554431"} 2
leaps_serve_classify_us_bucket{le="67108863"} 2
leaps_serve_classify_us_bucket{le="+Inf"} 2
leaps_serve_classify_us_sum 912
leaps_serve_classify_us_count 2
# HELP leaps_serve_decision_value SVM decision values over scored windows (quantile sketch)
# TYPE leaps_serve_decision_value summary
leaps_serve_decision_value{quantile="0.5"} 0.333333333
leaps_serve_decision_value{quantile="0.9"} 2
leaps_serve_decision_value{quantile="0.99"} 2
leaps_serve_decision_value_sum 1.70833333
leaps_serve_decision_value_count 5
# HELP leaps_serve_window_tap_us the tap calls of one tapped window, inside classify
# TYPE leaps_serve_window_tap_us histogram
leaps_serve_window_tap_us_bucket{le="0"} 0
leaps_serve_window_tap_us_bucket{le="1"} 0
leaps_serve_window_tap_us_bucket{le="3"} 0
leaps_serve_window_tap_us_bucket{le="7"} 1
leaps_serve_window_tap_us_bucket{le="15"} 1
leaps_serve_window_tap_us_bucket{le="31"} 1
leaps_serve_window_tap_us_bucket{le="63"} 2
leaps_serve_window_tap_us_bucket{le="127"} 2
leaps_serve_window_tap_us_bucket{le="255"} 2
leaps_serve_window_tap_us_bucket{le="511"} 2
leaps_serve_window_tap_us_bucket{le="1023"} 2
leaps_serve_window_tap_us_bucket{le="2047"} 2
leaps_serve_window_tap_us_bucket{le="4095"} 2
leaps_serve_window_tap_us_bucket{le="8191"} 2
leaps_serve_window_tap_us_bucket{le="16383"} 2
leaps_serve_window_tap_us_bucket{le="32767"} 2
leaps_serve_window_tap_us_bucket{le="65535"} 2
leaps_serve_window_tap_us_bucket{le="131071"} 2
leaps_serve_window_tap_us_bucket{le="262143"} 2
leaps_serve_window_tap_us_bucket{le="524287"} 2
leaps_serve_window_tap_us_bucket{le="1048575"} 2
leaps_serve_window_tap_us_bucket{le="2097151"} 2
leaps_serve_window_tap_us_bucket{le="4194303"} 2
leaps_serve_window_tap_us_bucket{le="8388607"} 2
leaps_serve_window_tap_us_bucket{le="16777215"} 2
leaps_serve_window_tap_us_bucket{le="33554431"} 2
leaps_serve_window_tap_us_bucket{le="67108863"} 2
leaps_serve_window_tap_us_bucket{le="+Inf"} 2
leaps_serve_window_tap_us_sum 46
leaps_serve_window_tap_us_count 2
)golden";

const char kJson[] =
    "{\"events\":{\"ingested\":1001,\"processed\":1002,\"dropped\":1003,\"rej"
    "ected\":1004,\"quarantined\":1005,\"failed\":1006,\"shed\":1007},\"windo"
    "ws\":{\"scored\":1008,\"benign\":1009,\"malicious\":1010},\"sessions\":{"
    "\"opened\":1012,\"closed\":1013,\"quarantined\":1014,\"evicted\":1015},"
    "\"queues\":{\"high_water\":1018,\"batches\":1011,\"shed_activations\":10"
    "17},\"slabs\":{\"sessions_in_use\":1019,\"sessions_free\":1020,\"chunks"
    "\":1021,\"overflow\":1022},\"queue_wait\":{\"count\":5,\"tot"
    "al_us\":5143,\"max_us\":5000,\"p50_us\":127,\"p95_us\":8191,\"p99_us\":8"
    "191,\"le_us\":[0,1,3,7,15,31,63,127,255,511,1023,2047,4095,8191,16383,32"
    "767,65535,131071,262143,524287,1048575,2097151,4194303,8388607,16777215,"
    "33554431,67108863,-1],\"buckets\":[1,0,1,0,0,0,0,2,0,0,0,0,0,1,0,0,0,0,0"
    ",0,0,0,0,0,0,0,0,0]},\"classify\":{\"count\":2,\"total_us\":912,\"max_us"
    "\":900,\"p50_us\":1023,\"p95_us\":1023,\"p99_us\":1023,\"le_us\":[0,1,3,"
    "7,15,31,63,127,255,511,1023,2047,4095,8191,16383,32767,65535,131071,2621"
    "43,524287,1048575,2097151,4194303,8388607,16777215,33554431,67108863,-1]"
    ",\"buckets\":[0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"
    "\"window_tap\":{\"count\":2,\"total_us\":46,\"max_us\":40,\"p50_us\":63,"
    "\"p95_us\":63,\"p99_us\":63,\"le_us\":[0,1,3,7,15,31,63,127,255,511,1023,"
    "2047,4095,8191,16383,32767,65535,131071,262143,524287,1048575,2097151,4194"
    "303,8388607,16777215,33554431,67108863,-1],\"buckets\":[0,0,0,1,0,0,1,0,0,"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"
    "\"decision_value\":{\"count\":5,\"sum\":1.70833333,\"min\":-1.25,\"max\""
    ":2,\"q50\":0.333333333,\"q90\":2,\"q99\":2}}";

/// The serve part of --status-json as the hand-written renderer wrote it
/// (sessions.active is 0: the server has no open session).
const char kStatusServePart[] =
    "{\"sessions\":{\"active\":0,\"opened\":1012,\"closed\":1013,\"quarantine"
    "d\":1014,\"evicted\":1015},\"events\":{\"ingested\":1001,\"processed\":1"
    "002,\"dropped\":1003,\"rejected\":1004,\"quarantined\":1005,\"shed\":100"
    "7},\"windows\":{\"scored\":1008,\"benign\":1009,\"malicious\":1010},\"qu"
    "eues\":{\"high_water\":1018,\"batches\":1011,\"shed_activations\":1017,"
    "\"wait_p99_us\":8191},\"decision_value\":{\"count\":5,\"sum\":1.70833333"
    ",\"min\":-1.25,\"max\":2,\"q50\":0.333333333,\"q90\":2,\"q99\":2}}";

std::string prometheus_of(const ServerMetrics& m) {
  obs::MetricRegistry registry;
  const obs::MetricRegistry::Registration reg = m.register_with(registry);
  return obs::samples_to_prometheus(registry.collect());
}

std::string status_of(DetectionServer& server) {
  return online::render_status_json({&server, nullptr, nullptr, nullptr});
}

/// The members of the JSON object `object` (`{...}`), as key -> raw value
/// text. Values may be nested objects or arrays; strings hold no braces.
std::map<std::string, std::string> members(const std::string& object) {
  std::map<std::string, std::string> out;
  std::size_t i = 1;  // past '{'
  while (i < object.size() && object[i] == '"') {
    const std::size_t key_end = object.find('"', i + 1);
    const std::string key = object.substr(i + 1, key_end - i - 1);
    std::size_t j = key_end + 2;  // past '":'
    const std::size_t value_start = j;
    int depth = 0;
    for (; j < object.size(); ++j) {
      const char c = object[j];
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      }
      if (c == ',' && depth == 0) break;
    }
    out[key] = object.substr(value_start, j - value_start);
    i = j + 1;
  }
  return out;
}

TEST(ServeMetricsGolden, ExpositionsMatchTheHandWrittenRenderers) {
  ServerMetrics m;
  fill_golden(m);
  EXPECT_EQ(prometheus_of(m), kPrometheus);
  EXPECT_EQ(m.snapshot().to_json(), kJson);

  // --status-json keeps every member it had, with the same value. The
  // members the shared group renderer adds inside the old groups are
  // listed exactly; the table's other groups join at the top level.
  DetectionServer server;
  fill_golden(server.metrics());
  const std::map<std::string, std::string> now = members(status_of(server));
  const std::map<std::string, std::string> before = members(kStatusServePart);
  const std::map<std::string, std::vector<std::string>> gained = {
      {"events", {"failed"}}};
  for (const auto& [group, value] : before) {
    ASSERT_EQ(now.count(group), 1u) << group;
    std::map<std::string, std::string> fields = members(now.at(group));
    const auto it = gained.find(group);
    if (it != gained.end()) {
      for (const std::string& key : it->second) {
        EXPECT_EQ(fields.erase(key), 1u) << group << "." << key;
      }
    }
    EXPECT_EQ(fields, members(value)) << group;
  }
  for (const char* added : {"slabs", "queue_wait", "classify", "window_tap"}) {
    EXPECT_EQ(now.count(added), 1u) << added;
  }
}

TEST(ServeMetricsGolden, EveryTableRowAppearsInEveryRendering) {
  DetectionServer server;
  fill_golden(server.metrics());
  const MetricsSnapshot snap = server.metrics().snapshot();
  const std::string prometheus = prometheus_of(server.metrics());
  const std::map<std::string, std::string> json = members(snap.to_json());
  const std::map<std::string, std::string> status =
      members(status_of(server));
  const std::string text = snap.to_text();

  const std::vector<MetricField> fields = snap.fields();
  ASSERT_FALSE(fields.empty());
  std::vector<bool> prom_seen(fields.size(), false);
  for (const MetricField& f : fields) {
    SCOPED_TRACE(f.sample.name);
    ASSERT_LT(static_cast<std::size_t>(f.prom), fields.size());
    EXPECT_FALSE(prom_seen[f.prom]) << "duplicate prom position";
    prom_seen[f.prom] = true;
    EXPECT_NE(prometheus.find("# TYPE " + f.sample.name + " "),
              std::string::npos);
    EXPECT_NE(prometheus.find("# HELP " + f.sample.name + " " +
                              f.sample.help + "\n"),
              std::string::npos);
    for (const auto* doc : {&json, &status}) {
      if (*f.group == '\0') {
        EXPECT_EQ(doc->count(f.key), 1u);
      } else {
        ASSERT_EQ(doc->count(f.group), 1u);
        EXPECT_EQ(members(doc->at(f.group)).count(f.key), 1u);
      }
    }
    const std::string line = "\n  " + std::string(*f.group == '\0'
                                                      ? f.key
                                                      : f.group);
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    if (*f.group != '\0') {
      const std::string row = text.substr(at, text.find('\n', at + 1) - at);
      EXPECT_NE(row.find(std::string(" ").append(f.key).append("=")),
                std::string::npos)
          << row;
    }
  }
}

}  // namespace
}  // namespace leaps::serve
