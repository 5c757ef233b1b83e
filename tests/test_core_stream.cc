// Detector::Stream edge cases: the online path must agree exactly with
// batch scan() — same verdicts, same handling of the trailing partial
// window, sane behavior on empty input.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "detector_fixture.h"

namespace leaps::core {
namespace {

using leaps::testing::TrainedDetector;
using leaps::testing::train_small_detector;

const TrainedDetector& fixture() {
  static const TrainedDetector* f =
      new TrainedDetector(train_small_detector());
  return *f;
}

/// Streams the whole log: labels are the verdicts push() returned, counts
/// are the stream's own tally (the stream keeps no per-window state).
Detector::ScanResult stream_all(const Detector& detector,
                                const trace::PartitionedLog& log) {
  Detector::Stream stream = detector.stream();
  Detector::ScanResult out;
  for (const trace::PartitionedEvent& e : log.events) {
    if (const std::optional<int> label = stream.push(e)) {
      out.window_labels.push_back(*label);
    }
  }
  out.benign_windows = stream.tally().benign_windows;
  out.malicious_windows = stream.tally().malicious_windows;
  return out;
}

TEST(DetectorStream, MatchesBatchScanVerdictForVerdict) {
  const TrainedDetector& f = fixture();
  for (const trace::PartitionedLog* log :
       {&f.benign, &f.mixed, &f.malicious}) {
    const Detector::ScanResult batch = f.detector->scan(*log);
    const Detector::ScanResult streamed = stream_all(*f.detector, *log);
    ASSERT_EQ(batch.window_labels.size(), streamed.window_labels.size());
    EXPECT_EQ(batch.window_labels, streamed.window_labels);
    EXPECT_EQ(batch.benign_windows, streamed.benign_windows);
    EXPECT_EQ(batch.malicious_windows, streamed.malicious_windows);
  }
}

TEST(DetectorStream, PartialFinalWindowIsNeverClassified) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  ASSERT_GE(f.benign.events.size(), 3 * window);

  // 2.5 windows of events: exactly two verdicts, half a window pending.
  trace::PartitionedLog truncated;
  truncated.process_name = f.benign.process_name;
  truncated.events.assign(f.benign.events.begin(),
                          f.benign.events.begin() + 2 * window + window / 2);

  Detector::Stream stream = f.detector->stream();
  std::vector<int> verdicts;
  for (const trace::PartitionedEvent& e : truncated.events) {
    if (const std::optional<int> label = stream.push(e)) {
      verdicts.push_back(*label);
    }
  }
  EXPECT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(stream.tally().windows(), 2u);
  EXPECT_EQ(stream.events_seen(), truncated.events.size());
  EXPECT_EQ(stream.pending_events(), window / 2);
  // Batch scan drops the same trailing partial window.
  const Detector::ScanResult batch = f.detector->scan(truncated);
  EXPECT_EQ(batch.window_labels, verdicts);
}

TEST(DetectorStream, ZeroEventLogYieldsEmptyTally) {
  const TrainedDetector& f = fixture();
  trace::PartitionedLog empty;
  empty.process_name = f.benign.process_name;

  const Detector::ScanResult batch = f.detector->scan(empty);
  EXPECT_TRUE(batch.window_labels.empty());
  EXPECT_EQ(batch.malicious_fraction(), 0.0);

  const Detector::Stream stream = f.detector->stream();
  EXPECT_EQ(stream.events_seen(), 0u);
  EXPECT_EQ(stream.pending_events(), 0u);
  EXPECT_EQ(stream.tally().windows(), 0u);
  EXPECT_EQ(stream.tally().malicious_fraction(), 0.0);
}

TEST(DetectorStream, TallyCountsAreConsistentWithLabels) {
  const TrainedDetector& f = fixture();
  const Detector::ScanResult t = stream_all(*f.detector, f.mixed);
  std::size_t benign = 0;
  std::size_t malicious = 0;
  for (const int label : t.window_labels) {
    (label == 1 ? benign : malicious) += 1;
  }
  EXPECT_EQ(t.benign_windows, benign);
  EXPECT_EQ(t.malicious_windows, malicious);
  EXPECT_EQ(t.windows(), t.window_labels.size());
}

}  // namespace
}  // namespace leaps::core
