// Tests for the observability subsystem (src/obs/): the log₂ latency
// histogram's edge cases, the metric registry's Prometheus/JSON
// exposition, the lock-free span tracer (including a ≥4-thread
// concurrency test that the tsan CI job runs), and the pipeline
// instrumentation's span tree.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "detector_fixture.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "serve/metrics.h"

namespace leaps::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator — enough grammar to reject anything Perfetto or
// python's json module would reject (unbalanced structure, bare keys,
// trailing garbage). Returns true iff `text` is one complete JSON value.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& text) {
  return JsonChecker(text).valid();
}

TEST(JsonChecker, SanityOnTheCheckerItself) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3],"b":"x\"y","c":null})"));
  EXPECT_TRUE(is_valid_json("[]"));
  EXPECT_FALSE(is_valid_json("{\"a\":}"));
  EXPECT_FALSE(is_valid_json("[1,2"));
  EXPECT_FALSE(is_valid_json("{} trailing"));
}

// ---------------------------------------------------------------------------
// LatencyHistogram edge cases

TEST(Histogram, EmptySnapshotQuantilesAreZero) {
  const LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.quantile_us(0.0), 0u);
  EXPECT_EQ(s.quantile_us(0.5), 0u);
  EXPECT_EQ(s.quantile_us(1.0), 0u);
  EXPECT_DOUBLE_EQ(s.mean_us(), 0.0);
}

TEST(Histogram, QuantileOneFallsThroughToMax) {
  LatencyHistogram h;
  h.record_us(3);
  h.record_us(100);
  h.record_us(5000);
  const auto s = h.snapshot();
  // rank = count at q=1.0, beyond every cumulative bucket count, so the
  // scan falls through and reports the exact observed max.
  EXPECT_EQ(s.quantile_us(1.0), 5000u);
  EXPECT_EQ(s.max_us, 5000u);
}

TEST(Histogram, PowerOfTwoValuesLandInTheRightBucket) {
  // Bucket i covers [2^(i-1), 2^i) µs, so an exact power of two 2^k is the
  // *lowest* value of bucket k+1, not the top of bucket k.
  for (const std::size_t k : {0u, 1u, 5u, 10u, 20u}) {
    LatencyHistogram h;
    const std::uint64_t v = std::uint64_t{1} << k;
    h.record_us(v);
    const auto s = h.snapshot();
    ASSERT_EQ(s.buckets[k + 1], 1u) << "value " << v;
    // And the bucket's inclusive upper bound is consistent with it.
    EXPECT_GE(LatencyHistogram::bucket_upper_us(k + 1), v);
    EXPECT_LT(LatencyHistogram::bucket_upper_us(k), v);
  }
  // One below the power of two stays in bucket k.
  LatencyHistogram h;
  h.record_us((std::uint64_t{1} << 10) - 1);  // 1023 µs
  EXPECT_EQ(h.snapshot().buckets[10], 1u);
}

TEST(Histogram, HugeValuesSaturateIntoTheLastBucket) {
  LatencyHistogram h;
  // ~16 minutes and ~11 days, both far beyond the 2^27 µs (~2 min) range.
  h.record_us(std::uint64_t{1} << 30);
  h.record_us(std::uint64_t{1} << 40);
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[LatencyHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.max_us, std::uint64_t{1} << 40);
}

TEST(Histogram, BucketUpperBoundsAreInclusiveAndMonotonic) {
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(2), 3u);
  for (std::size_t i = 1; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_GT(LatencyHistogram::bucket_upper_us(i),
              LatencyHistogram::bucket_upper_us(i - 1));
  }
}

// ---------------------------------------------------------------------------
// MetricRegistry

TEST(Registry, FindOrCreateReturnsStableReferences) {
  MetricRegistry r;
  Counter& a = r.counter("x_total", "help");
  Counter& b = r.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, TypeMismatchThrows) {
  MetricRegistry r;
  r.counter("thing");
  EXPECT_THROW(r.gauge("thing"), std::logic_error);
  EXPECT_THROW(r.histogram("thing"), std::logic_error);
}

TEST(Registry, PrometheusExposition) {
  MetricRegistry r;
  r.counter("leaps_test_events_total", "events seen").inc(42);
  r.gauge("leaps_test_depth", "queue depth").set(-7);
  LatencyHistogram& h = r.histogram("leaps_test_wait_us", "wait");
  h.record_us(2);
  h.record_us(1000);
  const std::string text = r.to_prometheus();

  EXPECT_NE(text.find("# HELP leaps_test_events_total events seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE leaps_test_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_test_events_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("leaps_test_depth -7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE leaps_test_wait_us histogram\n"),
            std::string::npos);
  // Cumulative buckets: nothing ≤ 1 µs, both ≤ 1023 µs, +Inf == count.
  EXPECT_NE(text.find("leaps_test_wait_us_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_test_wait_us_bucket{le=\"3\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_test_wait_us_bucket{le=\"1023\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_test_wait_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_test_wait_us_sum 1002\n"), std::string::npos);
  EXPECT_NE(text.find("leaps_test_wait_us_count 2\n"), std::string::npos);
}

TEST(Registry, JsonExpositionIsValidJson) {
  MetricRegistry r;
  r.counter("a_total").inc(1);
  r.gauge("b").set(2);
  r.histogram("c_us").record_us(10);
  const std::string json = r.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"le_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Registry, CollectorRegistrationIsRaii) {
  MetricRegistry r;
  {
    const MetricRegistry::Registration reg =
        r.register_collector([](std::vector<MetricSample>& out) {
          MetricSample s;
          s.name = "from_collector_total";
          s.type = MetricType::kCounter;
          s.counter_value = 9;
          out.push_back(std::move(s));
        });
    EXPECT_NE(r.to_prometheus().find("from_collector_total 9"),
              std::string::npos);
  }
  // Handle destroyed → collector gone.
  EXPECT_EQ(r.to_prometheus().find("from_collector_total"),
            std::string::npos);
}

TEST(Registry, ServerMetricsRegisterWithExposesServeCounters) {
  MetricRegistry r;
  serve::ServerMetrics metrics;
  metrics.events_ingested.fetch_add(10);
  metrics.events_processed.fetch_add(8);
  metrics.windows_scored.fetch_add(4);
  metrics.note_queue_depth(17);
  metrics.queue_wait.record_us(50);
  const MetricRegistry::Registration reg = metrics.register_with(r);
  const std::string text = r.to_prometheus();
  EXPECT_NE(text.find("leaps_serve_events_ingested_total 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_serve_events_processed_total 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_serve_windows_scored_total 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_serve_queue_high_water 17\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_serve_queue_wait_us_count 1\n"),
            std::string::npos);
  EXPECT_TRUE(is_valid_json(r.to_json()));
}

TEST(Registry, MetricsSnapshotJsonCarriesFullBucketShape) {
  serve::ServerMetrics metrics;
  metrics.classify.record_us(123);
  const std::string json = metrics.snapshot().to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  // The full bucket arrays (satellite of the registry work): 28 bounds
  // with the saturated last bucket as -1, and 28 per-bucket counts.
  EXPECT_NE(json.find("\"le_us\":[0,1,3,7,15"), std::string::npos);
  EXPECT_NE(json.find(",-1]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer. These tests mutate the global tracer; the fixture quiesces and
// clears it around each one so they compose with any test order.

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  {
    LEAPS_SPAN("nothing.outer");
    LEAPS_SPAN("nothing.inner");
  }
  EXPECT_EQ(Tracer::instance().span_count(), 0u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

TEST_F(TracerTest, NestedSpansRecordDepthAndContainment) {
  Tracer::set_enabled(true);
  {
    LEAPS_SPAN("outer");
    {
      LEAPS_SPAN("inner");
    }
  }
  Tracer::set_enabled(false);

  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans commit on close, so the inner span lands first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  // Containment: inner starts at/after outer and ends at/before it.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
}

TEST_F(TracerTest, ChromeTraceJsonIsAValidEventArray) {
  Tracer::set_enabled(true);
  {
    LEAPS_SPAN("stage.a");
    LEAPS_SPAN("stage.b");
  }
  Tracer::set_enabled(false);

  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage.a\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TracerTest, ProfileTextAggregatesAndIndents) {
  Tracer::set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    LEAPS_SPAN("prof.outer");
    {
      LEAPS_SPAN("prof.inner");
    }
  }
  Tracer::set_enabled(false);

  const std::string text = Tracer::instance().profile_text();
  EXPECT_NE(text.find("prof.outer"), std::string::npos);
  // Depth-1 stages are indented two spaces under their parent.
  EXPECT_NE(text.find("  prof.inner"), std::string::npos);
  // Both aggregated to one line with count 3.
  EXPECT_NE(text.find("3"), std::string::npos);
}

TEST_F(TracerTest, ConcurrentSpansFromManyThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 2000;
  Tracer::set_enabled(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        LEAPS_SPAN("mt.work");
        {
          LEAPS_SPAN("mt.nested");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::set_enabled(false);

  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  EXPECT_EQ(spans.size() + Tracer::instance().dropped(),
            kThreads * kSpansPerThread * 2);
  std::set<std::uint32_t> tids;
  for (const SpanRecord& s : spans) {
    tids.insert(s.tid);
    EXPECT_TRUE(s.depth == 0 || s.depth == 1);
    ASSERT_NE(s.name, nullptr);
  }
  EXPECT_EQ(tids.size(), kThreads);
  // The exports stay well-formed on multi-thread data.
  EXPECT_TRUE(is_valid_json(Tracer::instance().chrome_trace_json()));
}

TEST_F(TracerTest, RingSaturationCountsDrops) {
  Tracer::set_enabled(true);
  for (std::size_t i = 0; i < Tracer::kCapacity + 100; ++i) {
    LEAPS_SPAN("flood");
  }
  Tracer::set_enabled(false);
  EXPECT_EQ(Tracer::instance().span_count(), Tracer::kCapacity);
  EXPECT_GE(Tracer::instance().dropped(), 100u);
  // The profile must still render (and disclose the drop).
  EXPECT_NE(Tracer::instance().profile_text().find("dropped"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline instrumentation: the span tree over a real training run.

TEST_F(TracerTest, PipelinePrepareEmitsANestedStageTree) {
  const testing::TrainedDetector trained = [] {
    Tracer::set_enabled(true);
    testing::TrainedDetector t = testing::train_small_detector(
        "vim_reverse_tcp_online", /*events=*/600, /*seed=*/11);
    Tracer::set_enabled(false);
    return t;
  }();
  ASSERT_NE(trained.detector, nullptr);

  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  std::map<std::string, const SpanRecord*> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = &s;

  for (const char* stage :
       {"pipeline.prepare", "pipeline.preprocess", "pipeline.cfg_infer",
        "pipeline.weight_assess", "pipeline.assemble", "preprocess.fit",
        "cfg.infer", "cfg.assess_weights", "svm.train", "svm.gram",
        "svm.solve"}) {
    EXPECT_NE(by_name.find(stage), by_name.end())
        << "missing span " << stage;
  }

  // The top-level stages partition prepare(): their total is within the
  // parent wall time (never above), and covers most of it.
  const SpanRecord* prepare = by_name.at("pipeline.prepare");
  std::uint64_t child_total = 0;
  for (const SpanRecord& s : spans) {
    if (s.depth == prepare->depth + 1 && s.tid == prepare->tid &&
        s.start_ns >= prepare->start_ns &&
        s.start_ns < prepare->start_ns + prepare->dur_ns) {
      child_total += s.dur_ns;
    }
  }
  EXPECT_LE(child_total, prepare->dur_ns);
  EXPECT_GE(child_total, prepare->dur_ns / 2);
}

// ---------------------------------------------------------------------------
// QuantileSketch / ReservoirWindow (obs/sketch.h)

TEST(Sketch, QuantilesOnAdversarialOrderings) {
  // The alternating-compaction sketch must stay accurate on exactly the
  // inputs that break naive samplers: fully sorted, reverse-sorted, and
  // constant streams. Rank error at k=128 over n=10000 is ~5%, so allow
  // a generous ±8% of the value range.
  constexpr int kN = 10000;
  constexpr double kTol = 0.08 * kN;
  QuantileSketch asc, desc, flat;
  for (int i = 0; i < kN; ++i) {
    asc.insert(static_cast<double>(i));
    desc.insert(static_cast<double>(kN - 1 - i));
    flat.insert(42.0);
  }
  for (const QuantileSketch* s : {&asc, &desc}) {
    EXPECT_EQ(s->count(), static_cast<std::uint64_t>(kN));
    EXPECT_DOUBLE_EQ(s->quantile(0.0), 0.0);          // exact min
    EXPECT_DOUBLE_EQ(s->quantile(1.0), kN - 1.0);     // exact max
    EXPECT_NEAR(s->quantile(0.5), 0.5 * kN, kTol);
    EXPECT_NEAR(s->quantile(0.9), 0.9 * kN, kTol);
    EXPECT_NEAR(s->quantile(0.99), 0.99 * kN, kTol);
  }
  EXPECT_DOUBLE_EQ(flat.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(flat.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(flat.sum(), 42.0 * kN);

  QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(Sketch, MergeIsEquivalentToUnion) {
  QuantileSketch left, right;
  for (int i = 0; i < 5000; ++i) left.insert(static_cast<double>(i));
  for (int i = 5000; i < 10000; ++i) right.insert(static_cast<double>(i));
  left.merge(right);
  EXPECT_EQ(left.count(), 10000u);
  EXPECT_DOUBLE_EQ(left.min(), 0.0);
  EXPECT_DOUBLE_EQ(left.max(), 9999.0);
  EXPECT_DOUBLE_EQ(left.sum(), 10000.0 * 9999.0 / 2.0);
  EXPECT_NEAR(left.quantile(0.5), 5000.0, 0.08 * 10000.0);
  // Merging an empty sketch is a no-op; merging *into* an empty sketch
  // copies the donor's distribution.
  QuantileSketch empty;
  const std::string before = left.serialize();
  left.merge(empty);
  EXPECT_EQ(left.serialize(), before);
  empty.merge(left);
  EXPECT_EQ(empty.count(), left.count());
  EXPECT_DOUBLE_EQ(empty.max(), left.max());
}

TEST(Sketch, StateIsAPureFunctionOfTheInsertionSequence) {
  QuantileSketch a, b;
  for (int i = 0; i < 4096; ++i) {
    const double v = std::sin(i * 0.7) * 100.0;
    a.insert(v);
    b.insert(v);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(Sketch, SerializeRoundTripIsBitExact) {
  QuantileSketch s(64);
  for (int i = 0; i < 3000; ++i) s.insert(std::cos(i) * 1e6);
  const std::string bytes = s.serialize();
  util::StatusOr<QuantileSketch> back = QuantileSketch::deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(*back == s);
  EXPECT_EQ(back->serialize(), bytes);
  EXPECT_EQ(back->k(), s.k());
  // Weighted values (the KS-test view) survive the trip verbatim.
  EXPECT_EQ(back->weighted_values(), s.weighted_values());

  EXPECT_FALSE(QuantileSketch::deserialize("not a sketch").ok());
  EXPECT_FALSE(QuantileSketch::deserialize("").ok());
  EXPECT_FALSE(
      QuantileSketch::deserialize(std::string_view(bytes).substr(
          0, bytes.size() / 2))
          .ok());
}

TEST(Sketch, ReservoirWindowIsAnExactFifo) {
  ReservoirWindow w(4);
  for (int i = 1; i <= 6; ++i) w.insert(static_cast<double>(i));
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.capacity(), 4u);
  EXPECT_EQ(w.total(), 6u);
  EXPECT_EQ(w.values(), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));

  // Serialization is the oldest-first normal form: a rotated ring and its
  // deserialized twin are logically equal (same values(), same bytes) even
  // though the member-wise layout differs.
  const std::string bytes = w.serialize();
  util::StatusOr<ReservoirWindow> back = ReservoirWindow::deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->values(), w.values());
  EXPECT_EQ(back->total(), w.total());
  EXPECT_EQ(back->serialize(), bytes);
  // An unrotated window round-trips to a member-wise identical object.
  ReservoirWindow small(8);
  small.insert(1.0);
  small.insert(2.0);
  util::StatusOr<ReservoirWindow> small_back =
      ReservoirWindow::deserialize(small.serialize());
  ASSERT_TRUE(small_back.ok());
  EXPECT_TRUE(*small_back == small);
  EXPECT_FALSE(ReservoirWindow::deserialize("garbage").ok());

  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.values().empty());
}

TEST(Registry, SummaryPrometheusAndJsonExposition) {
  MetricRegistry r;
  Summary& s = r.summary("leaps_test_decision_value", "decision values");
  for (int i = 0; i < 1000; ++i) s.observe(i * 0.001);
  const std::string text = r.to_prometheus();
  EXPECT_NE(text.find("# HELP leaps_test_decision_value decision values\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE leaps_test_decision_value summary\n"),
            std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    EXPECT_NE(text.find("leaps_test_decision_value{quantile=\"" +
                        std::string(q) + "\"} "),
              std::string::npos)
        << "missing quantile " << q << " in:\n" << text;
  }
  EXPECT_NE(text.find("leaps_test_decision_value_sum "), std::string::npos);
  EXPECT_NE(text.find("leaps_test_decision_value_count 1000\n"),
            std::string::npos);

  const std::string json = r.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"leaps_test_decision_value\""), std::string::npos);

  // Same name must come back as the same Summary; cross-kind lookups throw.
  EXPECT_EQ(&r.summary("leaps_test_decision_value"), &s);
  EXPECT_THROW(r.counter("leaps_test_decision_value"), std::logic_error);
}

TEST(Registry, GlobalRegistryExportsBuildInfoAndTracerDrops) {
  const std::string text = MetricRegistry::global().to_prometheus();
  EXPECT_NE(text.find("# TYPE leaps_build_info gauge\n"), std::string::npos);
  const std::size_t pos = text.find("leaps_build_info{");
  ASSERT_NE(pos, std::string::npos);
  const std::string line = text.substr(pos, text.find('\n', pos) - pos);
  EXPECT_NE(line.find("version="), std::string::npos) << line;
  EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;

  EXPECT_NE(text.find("# TYPE leaps_trace_spans_dropped_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("leaps_trace_spans_dropped_total "), std::string::npos);
  EXPECT_TRUE(is_valid_json(MetricRegistry::global().to_json()));
}

}  // namespace
}  // namespace leaps::obs
