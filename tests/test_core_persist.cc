// Unit tests for detector persistence: round-trip fidelity and rejection
// of malformed input.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

#include "core/persist.h"
#include "detector_fixture.h"
#include "ml/cross_validation.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/bytes.h"

namespace leaps::core {
namespace {

/// A v2 file for `detector`: its v3 block payloads, concatenated under a
/// v2 header and closed by END. The writer emits v3 only; v2 files (and
/// v1, a v2 without CONTINUAL) must still load.
std::string v2_text(const Detector& detector) {
  std::stringstream v3;
  save_detector(detector, v3);
  std::string line;
  std::getline(v3, line);
  EXPECT_EQ(line, "LEAPS-DETECTOR v3");
  std::string out = "LEAPS-DETECTOR v2\n";
  while (std::getline(v3, line) && line != "END") {
    std::istringstream header(line);  // BLOCK <name> <bytes> <crc32c>
    std::string keyword;
    std::string name;
    std::size_t bytes = 0;
    header >> keyword >> name >> bytes;
    EXPECT_EQ(keyword, "BLOCK");
    std::string payload(bytes, '\0');
    v3.read(payload.data(), static_cast<std::streamsize>(bytes));
    out += payload;
  }
  return out + "END\n";
}

/// `text` (a v3 file) with block `name`'s payload passed through `edit`
/// and reframed with a fresh CRC, so only the edit can be wrong.
std::string with_block_edited(const std::string& text, const std::string& name,
                              const std::function<void(std::string&)>& edit) {
  const std::size_t block = text.find("BLOCK " + name + " ");
  EXPECT_NE(block, std::string::npos) << name;
  const std::size_t payload_start = text.find('\n', block) + 1;
  std::istringstream header(text.substr(block, payload_start - block));
  std::string keyword;
  std::string block_name;
  std::size_t bytes = 0;
  header >> keyword >> block_name >> bytes;
  std::string payload = text.substr(payload_start, bytes);
  edit(payload);
  std::ostringstream crafted;
  crafted << text.substr(0, block);
  util::write_framed(crafted, "BLOCK " + name, payload);
  crafted << text.substr(payload_start + bytes);
  return crafted.str();
}

struct Fixture {
  sim::ScenarioLogs logs;
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;
  Detector detector;

  static Fixture make() {
    sim::SimConfig cfg;
    cfg.benign_events = 2500;
    cfg.mixed_events = 2000;
    cfg.malicious_events = 1000;
    sim::ScenarioLogs logs =
        sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg);
    trace::PartitionedLog benign = trace::partition_raw(logs.benign);
    trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
    trace::PartitionedLog malicious = trace::partition_raw(logs.malicious);

    FitOptions options;
    options.svm.kernel.sigma2 = 8.0;
    const Detector fitted = fit_detector(benign, mixed, options).detector;
    // Without its ContinualState: the shape of a pre-v2 model file.
    Detector detector(fitted.preprocessor(), fitted.scaler(),
                      fitted.model());
    return Fixture{std::move(logs), std::move(benign), std::move(mixed),
                   std::move(malicious), std::move(detector)};
  }
};

TEST(Persist, RoundTripPreservesEveryPrediction) {
  const Fixture f = Fixture::make();
  std::stringstream buffer;
  save_detector(f.detector, buffer);
  const Detector loaded = load_detector(buffer);

  for (const trace::PartitionedLog* log :
       {&f.benign, &f.mixed, &f.malicious}) {
    const auto before = f.detector.scan(*log);
    const auto after = loaded.scan(*log);
    ASSERT_EQ(before.window_labels.size(), after.window_labels.size());
    for (std::size_t w = 0; w < before.window_labels.size(); ++w) {
      EXPECT_EQ(before.window_labels[w], after.window_labels[w])
          << "window " << w;
    }
  }
}

TEST(Persist, RoundTripPreservesModelGeometry) {
  const Fixture f = Fixture::make();
  std::stringstream buffer;
  save_detector(f.detector, buffer);
  const Detector loaded = load_detector(buffer);
  EXPECT_EQ(loaded.model().support_vector_count(),
            f.detector.model().support_vector_count());
  EXPECT_DOUBLE_EQ(loaded.model().bias(), f.detector.model().bias());
  EXPECT_EQ(loaded.preprocessor().window(),
            f.detector.preprocessor().window());
  EXPECT_EQ(loaded.preprocessor().func_clusterer().cluster_count(),
            f.detector.preprocessor().func_clusterer().cluster_count());
}

TEST(Persist, SerializedFormIsStableText) {
  const Fixture f = Fixture::make();
  std::stringstream a;
  std::stringstream b;
  save_detector(f.detector, a);
  save_detector(f.detector, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str().rfind("LEAPS-DETECTOR v3", 0), 0u);  // header
  EXPECT_NE(a.str().find("BLOCK OPTIONS "), std::string::npos);
}

TEST(Persist, V2PlainTokenStreamStillLoads) {
  // Files written by pre-durability builds (no BLOCK framing) still load.
  const Fixture f = Fixture::make();
  std::stringstream buffer(v2_text(f.detector));
  EXPECT_EQ(buffer.str().find("BLOCK"), std::string::npos);
  const Detector loaded = load_detector(buffer);
  EXPECT_EQ(loaded.scan(f.malicious).malicious_windows,
            f.detector.scan(f.malicious).malicious_windows);
}

TEST(Persist, V3ChecksumFlipInEveryBlockIsDetectedWithOffset) {
  // Flip one payload byte inside each BLOCK in turn; every flip must be a
  // typed PersistError naming a byte offset — never a silent mis-parse.
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  std::stringstream buffer;
  save_detector(*t.detector, buffer);
  const std::string text = buffer.str();

  std::size_t blocks = 0;
  std::size_t pos = 0;
  while ((pos = text.find("BLOCK ", pos)) != std::string::npos) {
    const std::size_t payload_start = text.find('\n', pos) + 1;
    ASSERT_NE(payload_start, std::string::npos);
    std::string bad = text;
    bad[payload_start] ^= 0x01;
    std::stringstream is(bad);
    try {
      load_detector(is);
      FAIL() << "flip in block at " << pos << " not detected";
    } catch (const PersistError& e) {
      EXPECT_NE(std::string(e.what()).find("byte offset"),
                std::string::npos)
          << e.what();
    }
    ++blocks;
    pos = payload_start;
  }
  EXPECT_EQ(blocks, 6u);  // OPTIONS LIB FUNC SCALER SVM CONTINUAL
}

TEST(Persist, V3TruncatedTailIsTypedWithOffset) {
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  std::stringstream buffer;
  save_detector(*t.detector, buffer);
  const std::string text = buffer.str();
  // Cut inside the CONTINUAL block payload (the last, largest block).
  const std::size_t continual = text.find("BLOCK CONTINUAL ");
  ASSERT_NE(continual, std::string::npos);
  const std::size_t cut = text.find('\n', continual) + 16;
  ASSERT_LT(cut, text.size());
  std::stringstream truncated(text.substr(0, cut));
  try {
    load_detector(truncated);
    FAIL() << "truncated CONTINUAL block not detected";
  } catch (const PersistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CONTINUAL"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
  // Cutting between blocks (no END) must also be typed.
  const std::size_t header_cut = text.find("BLOCK SCALER ");
  ASSERT_NE(header_cut, std::string::npos);
  std::stringstream headless(text.substr(0, header_cut));
  EXPECT_THROW(load_detector(headless), PersistError);
}

TEST(Persist, FileRoundTrip) {
  const Fixture f = Fixture::make();
  const std::string path = ::testing::TempDir() + "/leaps_detector_test.txt";
  save_detector_file(f.detector, path);
  const Detector loaded = load_detector_file(path);
  EXPECT_EQ(loaded.scan(f.malicious).malicious_windows,
            f.detector.scan(f.malicious).malicious_windows);
  std::remove(path.c_str());
}

TEST(Persist, RejectsMalformedInput) {
  const auto expect_reject = [](const std::string& text) {
    std::stringstream is(text);
    EXPECT_THROW(load_detector(is), PersistError) << text;
  };
  expect_reject("");
  expect_reject("NOT-A-DETECTOR v1");
  expect_reject("LEAPS-DETECTOR v999");
  expect_reject("LEAPS-DETECTOR v1 OPTIONS ten 0.3 10 0.35 10");
  // Truncated mid-stream.
  const Fixture f = Fixture::make();
  std::stringstream full;
  save_detector(f.detector, full);
  const std::string text = full.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_detector(truncated), PersistError);
}

TEST(Persist, RejectsInconsistentDimensions) {
  const Fixture f = Fixture::make();
  std::stringstream buffer;
  save_detector(f.detector, buffer);
  // Corrupt the SCALER dims so they disagree with the window.
  std::string text = buffer.str();
  const auto pos = text.find("SCALER 30");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "SCALER 31");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_detector(corrupted), PersistError);
}

TEST(Persist, RejectsARetiredKernelName) {
  // Gaussian is the only kernel: a well-formed v3 file whose SVM block
  // names the retired linear kernel (CRC recomputed, so only the name is
  // wrong) must be refused, naming the kernel.
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  std::stringstream buffer;
  save_detector(*t.detector, buffer);
  std::stringstream is(
      with_block_edited(buffer.str(), "SVM", [](std::string& payload) {
        ASSERT_EQ(payload.rfind("SVM gaussian ", 0), 0u)
            << payload.substr(0, 40);
        payload.replace(0, std::string("SVM gaussian").size(), "SVM linear");
      }));
  try {
    load_detector(is);
    FAIL() << "a linear-kernel SVM block loaded";
  } catch (const PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("linear"), std::string::npos)
        << e.what();
  }
}

TEST(Persist, MissingFileThrows) {
  EXPECT_THROW(load_detector_file("/nonexistent/detector.txt"),
               PersistError);
}

// --- v2 continual-learning block (src/online/) ----------------------------

TEST(Persist, V1FileLoadsAsColdStartFallback) {
  // A pre-online-learning (v1) model file is exactly a v2 file without the
  // CONTINUAL block. It must still load — predictions intact — and yield a
  // detector with no continual state, which the online path treats as
  // "retrain offline" (online::retrain refuses it).
  const Fixture f = Fixture::make();
  ASSERT_EQ(f.detector.continual(), nullptr);
  std::string text = v2_text(f.detector);
  ASSERT_EQ(text.rfind("LEAPS-DETECTOR v2", 0), 0u);
  text.replace(0, std::string("LEAPS-DETECTOR v2").size(),
               "LEAPS-DETECTOR v1");

  std::stringstream v1(text);
  const Detector loaded = load_detector(v1);
  EXPECT_EQ(loaded.continual(), nullptr);
  EXPECT_EQ(loaded.scan(f.malicious).malicious_windows,
            f.detector.scan(f.malicious).malicious_windows);
}

TEST(Persist, ContinualStateRoundTripsExactly) {
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  const ContinualState* before = t.detector->continual();
  ASSERT_NE(before, nullptr);
  ASSERT_GT(before->benign_cfg.edge_count(), 0u);
  ASSERT_EQ(before->alpha.size(), before->train.size());

  std::stringstream buffer;
  save_detector(*t.detector, buffer);
  const Detector loaded = load_detector(buffer);
  const ContinualState* after = loaded.continual();
  ASSERT_NE(after, nullptr);

  EXPECT_EQ(after->benign_cfg.edge_count(), before->benign_cfg.edge_count());
  EXPECT_EQ(after->benign_cfg.adjacency(), before->benign_cfg.adjacency());
  ASSERT_EQ(after->train.size(), before->train.size());
  ASSERT_EQ(after->alpha.size(), before->alpha.size());
  for (std::size_t i = 0; i < before->train.size(); ++i) {
    EXPECT_EQ(after->train.y[i], before->train.y[i]);
    EXPECT_DOUBLE_EQ(after->train.weight[i], before->train.weight[i]);
    EXPECT_DOUBLE_EQ(after->alpha[i], before->alpha[i]);
    ASSERT_EQ(after->train.X[i].size(), before->train.X[i].size());
    for (std::size_t d = 0; d < before->train.X[i].size(); ++d) {
      EXPECT_DOUBLE_EQ(after->train.X[i][d], before->train.X[i][d]);
    }
  }
  // The reloaded state must be warm-start-able: a seeded re-fit accepts it.
  ml::SvmParams params;
  params.kernel = loaded.model().kernel();
  ml::TrainStats stats;
  ml::SvmTrainer(params).train(after->train, &stats, &after->alpha);
  EXPECT_GT(stats.warm_nonzero, 0u);
}

/// A detector whose ContinualState was solved at λ = 100, not the default.
Detector lambda_100_detector() {
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  FitOptions options;
  options.svm.lambda = 100.0;
  return fit_detector(t.benign, t.mixed, options).detector;
}

TEST(Persist, ContinualLambdaRoundTripsThroughV3) {
  const Detector detector = lambda_100_detector();
  ASSERT_NE(detector.continual(), nullptr);
  ASSERT_EQ(detector.continual()->lambda, 100.0);
  std::stringstream buffer;
  save_detector(detector, buffer);
  EXPECT_NE(buffer.str().find("CONTINUAL\nLAMBDA 100\nCFG "),
            std::string::npos);
  const Detector loaded = load_detector(buffer);
  ASSERT_NE(loaded.continual(), nullptr);
  EXPECT_EQ(loaded.continual()->lambda, 100.0);
}

TEST(Persist, ContinualBlockWithoutLambdaLoadsAsTen) {
  // Every file written before the state recorded its λ: the CONTINUAL
  // block goes straight to CFG, and the refit keeps the λ = 10 it used.
  const Detector detector = lambda_100_detector();
  std::stringstream buffer;
  save_detector(detector, buffer);
  std::stringstream is(with_block_edited(
      buffer.str(), "CONTINUAL", [](std::string& payload) {
        const std::string line = "LAMBDA 100\n";
        const std::size_t at = payload.find(line);
        ASSERT_NE(at, std::string::npos);
        payload.erase(at, line.size());
      }));
  const Detector loaded = load_detector(is);
  ASSERT_NE(loaded.continual(), nullptr);
  EXPECT_EQ(loaded.continual()->lambda, 10.0);
  EXPECT_EQ(loaded.continual()->alpha, detector.continual()->alpha);
}

TEST(Persist, ContinualBlockInV1FileIsRejected) {
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  std::string text = v2_text(*t.detector);
  ASSERT_NE(text.find("CONTINUAL"), std::string::npos);
  text.replace(0, std::string("LEAPS-DETECTOR v2").size(),
               "LEAPS-DETECTOR v1");
  std::stringstream downgraded(text);
  EXPECT_THROW(load_detector(downgraded), PersistError);
}

TEST(Persist, RejectsCorruptContinualRows) {
  const leaps::testing::TrainedDetector t =
      leaps::testing::train_small_detector();
  const std::string text = v2_text(*t.detector);

  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = text;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    std::stringstream is(bad);
    EXPECT_THROW(load_detector(is), PersistError) << from;
  };
  corrupt("ROW 1 ", "ROW 3 ");    // label must be +/-1
  corrupt("ROW -1 ", "ROW -1 7.5 ");  // weight outside [0,1] (extra token)
  corrupt("LAMBDA 10\n", "LAMBDA 0\n");  // no box to solve in
  corrupt("LAMBDA 10\n", "LAMBDA nan\n");
}

}  // namespace
}  // namespace leaps::core
