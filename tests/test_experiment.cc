// Integration tests for the evaluation harness: data selection, the
// three-model comparison, averaging, and the headline LEAPS claim
// (WSVM >= SVM and CGraph on accuracy).
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "util/parallel.h"

namespace leaps::core {
namespace {

ExperimentOptions small_options(std::size_t runs = 2) {
  ExperimentOptions opt;
  opt.sim.benign_events = 3000;
  opt.sim.mixed_events = 2400;
  opt.sim.malicious_events = 1500;
  opt.runs = runs;
  opt.cv.folds = 5;
  opt.cv.lambdas = {10.0};
  opt.cv.sigma2s = {8.0};
  return opt;
}

TEST(Experiment, ProducesCompleteResults) {
  const ExperimentRunner runner(small_options());
  const ExperimentResult r =
      runner.run_scenario(sim::find_scenario("vim_reverse_tcp"));
  EXPECT_EQ(r.spec.name, "vim_reverse_tcp");
  EXPECT_EQ(r.runs, 2u);
  for (const ModelOutcome* m : {&r.cgraph, &r.svm, &r.wsvm}) {
    EXPECT_GT(m->pooled.total(), 0u);
    EXPECT_GE(m->mean.acc, 0.0);
    EXPECT_LE(m->mean.acc, 1.0);
    EXPECT_GE(m->mean.tpr, 0.0);
    EXPECT_LE(m->mean.tnr, 1.0);
  }
}

TEST(Experiment, IsDeterministicForFixedOptions) {
  const ExperimentRunner runner(small_options());
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("putty_codeinject"), small_options().sim);
  const ExperimentResult a = runner.run_on_logs(logs);
  const ExperimentResult b = runner.run_on_logs(logs);
  EXPECT_DOUBLE_EQ(a.wsvm.mean.acc, b.wsvm.mean.acc);
  EXPECT_DOUBLE_EQ(a.svm.mean.tpr, b.svm.mean.tpr);
  EXPECT_DOUBLE_EQ(a.cgraph.mean.npv, b.cgraph.mean.npv);
}

TEST(Experiment, SeedChangesResults) {
  ExperimentOptions opt = small_options();
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("putty_codeinject"), opt.sim);
  const ExperimentResult a = ExperimentRunner(opt).run_on_logs(logs);
  opt.seed += 1;
  const ExperimentResult b = ExperimentRunner(opt).run_on_logs(logs);
  EXPECT_NE(a.wsvm.mean.acc, b.wsvm.mean.acc);
}

// The paper's headline: the CFG-guided WSVM beats the plain SVM and the
// call-graph baseline. A small slack absorbs small-sample noise at this
// reduced log size.
TEST(Experiment, WsvmWinsOnAccuracy) {
  ExperimentOptions opt = small_options(3);
  opt.sim.benign_events = 6000;
  opt.sim.mixed_events = 4500;
  opt.sim.malicious_events = 3000;
  const ExperimentRunner runner(opt);
  for (const char* name : {"winscp_reverse_tcp", "vim_reverse_tcp_online"}) {
    const ExperimentResult r =
        runner.run_scenario(sim::find_scenario(name));
    EXPECT_GT(r.wsvm.mean.acc, r.svm.mean.acc - 0.02) << name;
    EXPECT_GT(r.wsvm.mean.acc, r.cgraph.mean.acc - 0.02) << name;
    EXPECT_GT(r.wsvm.mean.acc, 0.75) << name;
  }
}

TEST(Experiment, AucTracksAccuracyOrdering) {
  ExperimentOptions opt = small_options(3);
  opt.sim.benign_events = 6000;
  opt.sim.mixed_events = 4500;
  opt.sim.malicious_events = 3000;
  const ExperimentResult r = ExperimentRunner(opt).run_scenario(
      sim::find_scenario("vim_reverse_tcp_online"));
  // AUC is threshold-free: the WSVM separates nearly perfectly here.
  EXPECT_GT(r.wsvm.auc, 0.95);
  EXPECT_GE(r.wsvm.auc, r.svm.auc - 0.02);
  for (const ModelOutcome* m : {&r.cgraph, &r.svm, &r.wsvm}) {
    EXPECT_GE(m->auc, 0.0);
    EXPECT_LE(m->auc, 1.0);
  }
}

void expect_same_measurements(const ml::Measurements& a,
                              const ml::Measurements& b) {
  EXPECT_EQ(a.acc, b.acc);
  EXPECT_EQ(a.ppv, b.ppv);
  EXPECT_EQ(a.tpr, b.tpr);
  EXPECT_EQ(a.tnr, b.tnr);
  EXPECT_EQ(a.npv, b.npv);
}

void expect_same_outcome(const ModelOutcome& a, const ModelOutcome& b) {
  expect_same_measurements(a.mean, b.mean);
  expect_same_measurements(a.stddev, b.stddev);
  EXPECT_EQ(a.auc, b.auc);
  EXPECT_EQ(a.pooled.tp, b.pooled.tp);
  EXPECT_EQ(a.pooled.tn, b.pooled.tn);
  EXPECT_EQ(a.pooled.fp, b.pooled.fp);
  EXPECT_EQ(a.pooled.fn, b.pooled.fn);
  EXPECT_EQ(a.params.lambda, b.params.lambda);
  EXPECT_EQ(a.params.epsilon, b.params.epsilon);
  EXPECT_EQ(a.params.max_iterations, b.params.max_iterations);
  EXPECT_EQ(a.params.kernel.sigma2, b.params.kernel.sigma2);
}

TEST(Experiment, ParallelAndSequentialRunsAgreeExactly) {
  ExperimentOptions opt = small_options(3);
  opt.extension_models = true;  // every model's outcome, not just the paper's
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("winscp_reverse_https"), opt.sim);
  util::Parallel::set_threads(1);
  const ExperimentResult seq = ExperimentRunner(opt).run_on_logs(logs);
  util::Parallel::set_threads(4);
  const ExperimentResult par = ExperimentRunner(opt).run_on_logs(logs);
  util::Parallel::set_threads(0);
  for (ModelOutcome ExperimentResult::*model :
       {&ExperimentResult::cgraph, &ExperimentResult::svm,
        &ExperimentResult::wsvm, &ExperimentResult::hmm,
        &ExperimentResult::whmm, &ExperimentResult::wlr,
        &ExperimentResult::wtree, &ExperimentResult::wrf}) {
    EXPECT_GT((seq.*model).pooled.total(), 0u);
    expect_same_outcome(seq.*model, par.*model);
  }
}

// The extension models (HMM, WHMM, W-LR, W-Tree, W-RF) are trained beside
// the paper's three, never in their way: with extension_models on, CGraph,
// SVM and WSVM come out bit for bit as with it off (same selections, same
// tuning, same test points), so one extension_models pass serves both the
// extension comparisons and any study that reads the paper's models.
TEST(Experiment, HmmLeavesThePaperModelsUnchanged) {
  ExperimentOptions opt = small_options(3);
  opt.cv.sigma2s = {2.0, 8.0};  // a tuning step with a choice to make
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_codeinject"), opt.sim);
  const ExperimentResult without = ExperimentRunner(opt).run_on_logs(logs);
  opt.extension_models = true;
  const ExperimentResult with = ExperimentRunner(opt).run_on_logs(logs);
  for (ModelOutcome ExperimentResult::*model :
       {&ExperimentResult::hmm, &ExperimentResult::whmm,
        &ExperimentResult::wlr, &ExperimentResult::wtree,
        &ExperimentResult::wrf}) {
    EXPECT_EQ((without.*model).pooled.total(), 0u);
    EXPECT_EQ((with.*model).pooled.total(), with.wsvm.pooled.total());
  }
  for (ModelOutcome ExperimentResult::*model :
       {&ExperimentResult::cgraph, &ExperimentResult::svm,
        &ExperimentResult::wsvm}) {
    expect_same_outcome(without.*model, with.*model);
  }
}

TEST(Experiment, PooledConfusionMatchesRunsTimesSamples) {
  const ExperimentOptions opt = small_options();
  const ExperimentRunner runner(opt);
  const ExperimentResult r =
      runner.run_scenario(sim::find_scenario("notepad++_reverse_https"));
  // All three models saw the same number of test points.
  EXPECT_EQ(r.cgraph.pooled.total(), r.svm.pooled.total());
  EXPECT_EQ(r.svm.pooled.total(), r.wsvm.pooled.total());
  EXPECT_EQ(r.svm.pooled.total() % opt.runs, 0u);
}

TEST(Experiment, FormattersProduceAlignedRows) {
  const ExperimentRunner runner(small_options(1));
  const ExperimentResult r =
      runner.run_scenario(sim::find_scenario("vim_codeinject"));
  const std::string header = format_result_header(true);
  EXPECT_NE(header.find("ACC"), std::string::npos);
  EXPECT_NE(header.find("NPV"), std::string::npos);
  const std::string rows = format_result_row(r, true);
  EXPECT_NE(rows.find("CGraph"), std::string::npos);
  EXPECT_NE(rows.find("WSVM"), std::string::npos);
  const std::string single = format_result_row(r, false);
  EXPECT_EQ(single.find("WSVM"), std::string::npos);
  EXPECT_NE(single.find("vim_codeinject"), std::string::npos);
}

}  // namespace
}  // namespace leaps::core
