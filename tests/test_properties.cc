// Property-based test suites (parameterized): structural invariants that
// must hold across all 21 scenarios, random seeds, and parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "cfg/inference.h"
#include "cfg/weight.h"
#include "core/preprocess.h"
#include "ml/hcluster.h"
#include "ml/hmm.h"
#include "ml/logreg.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "sim/address_space.h"
#include "sim/executor.h"
#include "sim/profiles.h"
#include "sim/scenario.h"
#include "trace/binary_log.h"
#include "trace/partition.h"
#include "util/rng.h"
#include "util/stats.h"

namespace leaps {
namespace {

// ================= Property: scenario invariants over all 21 datasets ====

class ScenarioProperty : public ::testing::TestWithParam<sim::ScenarioSpec> {
 protected:
  static sim::SimConfig config() {
    sim::SimConfig cfg;
    cfg.benign_events = 1200;
    cfg.mixed_events = 1000;
    cfg.malicious_events = 600;
    return cfg;
  }
};

TEST_P(ScenarioProperty, LogsParsePartitionAndCover) {
  const sim::ScenarioLogs logs = sim::generate_scenario(GetParam(), config());
  for (const trace::RawLog* raw : {&logs.benign, &logs.mixed,
                                   &logs.malicious}) {
    const trace::PartitionedLog part = trace::partition_raw(*raw);
    ASSERT_EQ(part.events.size(), raw->events.size());
    for (const trace::PartitionedEvent& e : part.events) {
      // Every event has both an application and a system side.
      EXPECT_FALSE(e.app_stack.empty());
      EXPECT_FALSE(e.system_stack.empty());
    }
  }
}

TEST_P(ScenarioProperty, BenignLogNeverTouchesPayloadAddresses) {
  const sim::ScenarioLogs logs = sim::generate_scenario(GetParam(), config());
  // Payload frames live past the original app image (offline) or at the
  // injection base (online); the benign log must contain neither.
  const std::uint64_t app_ceiling = sim::kAppImageBase + 0x10000000ULL;
  for (const trace::RawEvent& e : logs.benign.events) {
    for (const std::uint64_t addr : e.stack) {
      const bool in_injection_region =
          addr >= sim::kInjectionBase && addr < sim::kInjectionBase + 0x100000;
      EXPECT_FALSE(in_injection_region);
      if (addr >= sim::kAppImageBase && addr < app_ceiling) {
        // App frames in the benign log must be inside the *benign* image.
        const auto& mod = logs.benign.modules.front();
        EXPECT_TRUE(addr >= mod.base && addr < mod.base + mod.size);
      }
    }
  }
}

TEST_P(ScenarioProperty, MixedTruthIsConsistentWithPayloadFrames) {
  const sim::ScenarioLogs logs = sim::generate_scenario(GetParam(), config());
  ASSERT_EQ(logs.mixed_truth.size(), logs.mixed.events.size());
  const std::size_t malicious = static_cast<std::size_t>(
      std::count(logs.mixed_truth.begin(), logs.mixed_truth.end(), true));
  // The payload contributes a nontrivial share, below half the events
  // (benign cover-up) at default knobs… here ratio=0.5 gives about half.
  EXPECT_GT(malicious, logs.mixed.events.size() / 10);
  EXPECT_LT(malicious, logs.mixed.events.size() * 8 / 10);
}

TEST_P(ScenarioProperty, WeightAssessmentSeparatesTruth) {
  const sim::ScenarioLogs logs = sim::generate_scenario(GetParam(), config());
  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  const cfg::CfgInference inference;
  const cfg::InferredCfg bcfg = inference.infer(benign);
  const cfg::InferredCfg mcfg = inference.infer(mixed);
  const cfg::WeightAssessor assessor(bcfg.graph);
  const auto benignity = assessor.assess(mcfg);

  util::RunningStats truly_benign;
  util::RunningStats truly_malicious;
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    const auto it = benignity.find(mixed.events[i].seq);
    const double b = it == benignity.end() ? 1.0 : it->second;
    (logs.mixed_truth[i] ? truly_malicious : truly_benign).add(b);
  }
  // The core LEAPS mechanism, as a property across all 21 datasets.
  EXPECT_GT(truly_benign.mean(), truly_malicious.mean() + 0.5)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTable1Scenarios, ScenarioProperty,
    ::testing::ValuesIn(sim::table1_scenarios()),
    [](const ::testing::TestParamInfo<sim::ScenarioSpec>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '+', 'p');
      return name;
    });

// ====== Property: inferred explicit edges are true static call edges =====

class InferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InferenceProperty, ExplicitEdgesAreGroundTruthCallEdges) {
  util::Rng rng(GetParam());
  const sim::Program app =
      sim::build_program(sim::app_spec("putty"), sim::kAppImageBase, rng);
  const sim::LibraryRegistry registry = sim::LibraryRegistry::standard();
  const sim::Executor ex(registry, {});
  const trace::RawLog raw = ex.run_benign(app, 2500, rng.fork(1));
  const trace::PartitionedLog part = trace::partition_raw(raw);

  // Ground-truth static call edges by address.
  std::set<std::pair<std::uint64_t, std::uint64_t>> truth;
  for (const sim::ProgramFunction& f : app.functions) {
    for (const std::size_t callee : f.callees) {
      truth.emplace(f.address, app.functions[callee].address);
    }
  }
  // Every *explicit* path (adjacent frames within one walk) must be a true
  // call edge. We recompute explicit edges directly from the stacks.
  for (const trace::PartitionedEvent& e : part.events) {
    for (std::size_t i = 0; i + 1 < e.app_stack.size(); ++i) {
      EXPECT_TRUE(truth.count({e.app_stack[i], e.app_stack[i + 1]}))
          << "fabricated call edge";
    }
  }
  // And the inferred graph must contain a meaningful share of the truth.
  const cfg::InferredCfg inferred = cfg::CfgInference().infer(part);
  std::size_t hit = 0;
  for (const auto& edge : truth) {
    if (inferred.graph.has_edge(edge.first, edge.second)) ++hit;
  }
  // 2500 sampled events of a ~90-function program recover a sizable share
  // of the static call graph (the inferred CFG is incomplete by design).
  EXPECT_GT(hit, truth.size() / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty,
                         ::testing::Values(1, 2, 3, 42, 1337));

// ============== Property: ESTIMATE_WEIGHT bounds over random arrays ======

class EstimateWeightProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EstimateWeightProperty, InRangeWeightsLieInHalfToOne) {
  util::Rng rng(GetParam());
  std::vector<std::uint64_t> density;
  for (int i = 0; i < 100; ++i) {
    density.push_back(1000 + rng.next_below(100000));
  }
  std::sort(density.begin(), density.end());
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t addr =
        density.front() +
        rng.next_below(density.back() - density.front() + 1);
    const double w = cfg::WeightAssessor::estimate_weight(addr, density);
    // mindiff <= gap/2 → the estimate never drops below 1/2 in range.
    EXPECT_GE(w, 0.5);
    EXPECT_LE(w, 1.0);
  }
  // Exactly on a node → exactly 1.
  for (const std::uint64_t node : density) {
    EXPECT_DOUBLE_EQ(cfg::WeightAssessor::estimate_weight(node, density),
                     1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateWeightProperty,
                         ::testing::Values(7, 8, 9, 10));

// ================= Property: SVM dual feasibility across seeds ============

class SvmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SvmProperty, CoefficientsRespectBoxConstraints) {
  util::Rng rng(GetParam());
  ml::Dataset d;
  for (int i = 0; i < 60; ++i) {
    const int label = rng.next_bool(0.5) ? 1 : -1;
    d.add({rng.next_gaussian(), rng.next_gaussian(),
           static_cast<double>(label) * 0.4},
          label, 0.1 + 0.9 * rng.next_double());
  }
  ml::SvmParams p;
  p.lambda = 5.0;
  const ml::SvmModel m = ml::SvmTrainer(p).train(d);
  // Σ αᵢ yᵢ = 0 (the equality constraint) — coefficients are αy.
  double sum = 0.0;
  for (const double c : m.coefficients()) {
    sum += c;
    EXPECT_LE(std::abs(c), p.lambda + 1e-9);
  }
  EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST_P(SvmProperty, DualityGapCertifiesOptimality) {
  // Strong-duality certificate for the SMO solver: at the optimum the
  // primal objective ½||w||² + Σ λcᵢ ξᵢ and the dual Σαᵢ - ½||w||²
  // coincide; a small relative gap proves (approximate) optimality without
  // trusting any of the solver's internal bookkeeping.
  util::Rng rng(GetParam() + 500);
  ml::Dataset d;
  for (int i = 0; i < 80; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    d.add({rng.next_gaussian() + 0.7 * label, rng.next_gaussian()}, label,
          0.2 + 0.8 * rng.next_double());
  }
  ml::SvmParams p;
  p.lambda = 5.0;
  p.kernel.sigma2 = 2.0;
  p.epsilon = 1e-4;
  const ml::SvmModel m = ml::SvmTrainer(p).train(d);

  // ||w||² from the support-vector expansion.
  double w_norm2 = 0.0;
  for (std::size_t i = 0; i < m.support_vector_count(); ++i) {
    for (std::size_t j = 0; j < m.support_vector_count(); ++j) {
      w_norm2 += m.coefficients()[i] * m.coefficients()[j] *
                 p.kernel(m.support_vectors()[i], m.support_vectors()[j]);
    }
  }
  double hinge = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double margin =
        static_cast<double>(d.y[i]) * m.decision_value(d.X[i]);
    hinge += p.lambda * d.weight[i] * std::max(0.0, 1.0 - margin);
  }
  double alpha_sum = 0.0;
  for (const double c : m.coefficients()) alpha_sum += std::abs(c);

  const double primal = 0.5 * w_norm2 + hinge;
  const double dual = alpha_sum - 0.5 * w_norm2;
  EXPECT_GE(primal, dual - 1e-6);
  EXPECT_LT((primal - dual) / std::max(1.0, std::abs(primal)), 0.02)
      << "primal " << primal << " dual " << dual;
}

TEST_P(SvmProperty, PredictionIsSignOfDecision) {
  util::Rng rng(GetParam() + 100);
  ml::Dataset d;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    d.add({rng.next_gaussian() + label, rng.next_gaussian()}, label);
  }
  const ml::SvmModel m = ml::SvmTrainer({}).train(d);
  for (int i = 0; i < 50; ++i) {
    const ml::FeatureVector x = {rng.next_gaussian() * 2,
                                 rng.next_gaussian() * 2};
    EXPECT_EQ(m.predict(x), m.decision_value(x) >= 0 ? 1 : -1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

// ============ Property: HMM defines a probability distribution ===========

class HmmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HmmProperty, LikelihoodsSumToOneOverAllSequences) {
  // For any parameters, Σ over all |Σ|^L sequences of P(seq) must be 1 —
  // a total-probability check that exercises the forward algorithm's
  // scaling arithmetic end to end.
  util::Rng rng(GetParam());
  std::vector<ml::Sequence> data;
  for (int i = 0; i < 12; ++i) {
    ml::Sequence s;
    for (int t = 0; t < 8; ++t) {
      s.push_back(static_cast<int>(rng.next_below(3)));
    }
    data.push_back(std::move(s));
  }
  ml::HmmParams p;
  p.states = 3;
  p.max_iterations = 5;
  p.seed = GetParam();
  const ml::Hmm m =
      ml::Hmm::train(data, std::vector<double>(data.size(), 1.0), 3, p);

  const std::size_t alphabet = 3;
  const std::size_t length = 4;
  double total = 0.0;
  std::size_t count = 1;
  for (std::size_t i = 0; i < length; ++i) count *= alphabet;
  for (std::size_t code = 0; code < count; ++code) {
    ml::Sequence seq;
    std::size_t c = code;
    for (std::size_t i = 0; i < length; ++i) {
      seq.push_back(static_cast<int>(c % alphabet));
      c /= alphabet;
    }
    total += std::exp(m.log_likelihood(seq));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HmmProperty, ::testing::Values(41, 42, 43));

// ============ Property: logistic regression first-order optimality =======

class LogRegProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogRegProperty, GradientVanishesAtTheSolution) {
  util::Rng rng(GetParam());
  ml::Dataset d;
  for (int i = 0; i < 60; ++i) {
    const int label = rng.next_bool(0.5) ? 1 : -1;
    d.add({rng.next_gaussian() + 0.5 * label, rng.next_gaussian(),
           rng.next_double()},
          label, 0.1 + 0.9 * rng.next_double());
  }
  ml::LogRegParams p;
  p.l2 = 2.0;
  const ml::LogRegModel m = ml::LogRegTrainer(p).train(d);

  // ∇ = l2·w + Σ cᵢ (−yᵢ σ(−yᵢ zᵢ)) xᵢ must vanish (bias row too, without
  // the regularizer).
  const std::size_t dims = d.dims();
  std::vector<double> grad(dims + 1, 0.0);
  for (std::size_t j = 0; j < dims; ++j) grad[j] = p.l2 * m.weights()[j];
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double y = static_cast<double>(d.y[i]);
    const double z = m.decision_value(d.X[i]);
    const double sig = 1.0 / (1.0 + std::exp(y * z));  // σ(−y z)
    for (std::size_t j = 0; j < dims; ++j) {
      grad[j] -= d.weight[i] * y * sig * d.X[i][j];
    }
    grad[dims] -= d.weight[i] * y * sig;
  }
  for (std::size_t j = 0; j <= dims; ++j) {
    EXPECT_NEAR(grad[j], 0.0, 1e-5) << "component " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogRegProperty,
                         ::testing::Values(51, 52, 53, 54));

// ============ Property: binary log round-trips arbitrary content ==========

class BinaryLogProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryLogProperty, RandomLogsRoundTrip) {
  util::Rng rng(GetParam());
  trace::RawLog log;
  log.process_name = "rand.exe";
  const std::size_t modules = 1 + rng.next_below(5);
  std::uint64_t base = 0x1000;
  for (std::size_t i = 0; i < modules; ++i) {
    const std::uint64_t size = 0x1000 + rng.next_below(0x100000);
    log.modules.push_back({base, size, "m" + std::to_string(i)});
    base += size + rng.next_below(0x1000000);
  }
  const std::size_t events = rng.next_below(200);
  for (std::size_t i = 0; i < events; ++i) {
    trace::RawEvent e;
    e.seq = i;
    e.tid = static_cast<std::uint32_t>(rng.next_below(8));
    e.type = static_cast<trace::EventType>(
        rng.next_below(trace::kEventTypeCount));
    const std::size_t frames = rng.next_below(20);
    for (std::size_t f = 0; f < frames; ++f) e.stack.push_back(rng.next_u64());
    log.events.push_back(std::move(e));
  }
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trace::write_raw_log_binary(log, buffer);
  const util::StatusOr<trace::RawLog> got = trace::read_raw_log_binary(buffer);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, log);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryLogProperty,
                         ::testing::Values(61, 62, 63, 64, 65));

// ============ Property: clustering output well-formedness =================

class ClusterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterProperty, AssignmentsAreDenseAndLeafOrderIsPermutation) {
  util::Rng rng(GetParam());
  const std::size_t n = 3 + rng.next_below(40);
  std::vector<std::vector<double>> dm(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dm[i][j] = dm[j][i] = rng.next_double();
    }
  }
  for (const double cut : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    const auto res =
        ml::HierarchicalClusterer({.cut_distance = cut}).cluster(dm);
    ASSERT_EQ(res.assignment.size(), n);
    std::set<int> ids;
    for (const int id : res.assignment) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, res.cluster_count);
      ids.insert(id);
    }
    EXPECT_EQ(static_cast<int>(ids.size()), res.cluster_count);
    auto order = res.leaf_order;
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST_P(ClusterProperty, ClusterCountIsMonotoneInCut) {
  util::Rng rng(GetParam() + 50);
  const std::size_t n = 5 + rng.next_below(25);
  std::vector<std::vector<double>> dm(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dm[i][j] = dm[j][i] = rng.next_double();
    }
  }
  int prev = static_cast<int>(n) + 1;
  for (const double cut : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const int count =
        ml::HierarchicalClusterer({.cut_distance = cut}).cluster(dm)
            .cluster_count;
    EXPECT_LE(count, prev);
    prev = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterProperty,
                         ::testing::Values(21, 22, 23, 24));

// ============ Property: window shapes across window sizes ================

class WindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowProperty, WindowCountAndDims) {
  const std::size_t window = GetParam();
  sim::SimConfig cfg;
  cfg.benign_events = 700;
  cfg.mixed_events = 500;
  cfg.malicious_events = 300;
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg);
  const trace::PartitionedLog part = trace::partition_raw(logs.benign);
  core::PreprocessOptions opt;
  opt.window = window;
  core::Preprocessor pre(opt);
  pre.fit({&part});
  const core::WindowedData wd = pre.make_windows(part);
  EXPECT_EQ(wd.X.size(), 700 / window);
  for (const auto& x : wd.X) EXPECT_EQ(x.size(), 3 * window);
  for (const auto& idx : wd.event_indices) EXPECT_EQ(idx.size(), window);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowProperty,
                         ::testing::Values(1, 2, 5, 10, 25));

// ============ Property: min-max scaling keeps training data in range =====

class ScalerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalerProperty, FittedDataMapsIntoUnitBox) {
  util::Rng rng(GetParam());
  std::vector<ml::FeatureVector> X;
  for (int i = 0; i < 50; ++i) {
    X.push_back({rng.next_gaussian() * 100, rng.next_double() * 5 - 10});
  }
  ml::MinMaxScaler s;
  s.fit(X);
  for (const auto& x : X) {
    for (const double v : s.transform(x)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalerProperty,
                         ::testing::Values(31, 32, 33));

}  // namespace
}  // namespace leaps
