// Alternative-classifier study (Section III-D-2 mentions Logistic
// Regression and decision trees as candidate binary classifiers; Section
// VI-B proposes sequence models). Every model receives the *same*
// CFG-derived confidences, isolating the question the paper leaves open:
// how much of LEAPS's power is the weighting versus the SVM itself?
//
// Models compared, all trained on identical samples per run:
//   W-LR    weighted L2 logistic regression (linear)
//   W-Tree  weighted CART decision tree
//   W-RF    weighted bagged random forest
//   WSVM    weighted Gaussian-kernel SVM (the paper's model)
//   W-HMM   weighted HMM log-likelihood ratio (sequence model)
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "ml/dtree.h"
#include "ml/hmm.h"
#include "ml/logreg.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/stats.h"

namespace {

using namespace leaps;

struct Row {
  util::RunningStats lr, tree, forest, svm, hmm;
};

}  // namespace

int main() {
  using namespace leaps;
  core::ExperimentOptions opt = bench::options_from_env();
  const std::size_t runs = std::min<std::size_t>(opt.runs, 5);
  bench::print_banner("classifier comparison under CFG weighting", opt);

  const char* kScenarios[] = {
      "winscp_reverse_tcp", "vim_codeinject", "putty_reverse_https_online",
  };
  std::printf("%-34s%8s%8s%8s%8s%8s   (ACC over %zu runs)\n", "Name",
              "W-LR", "W-Tree", "W-RF", "WSVM", "W-HMM", runs);

  for (const char* name : kScenarios) {
    const sim::ScenarioLogs logs =
        sim::generate_scenario(sim::find_scenario(name), opt.sim);
    const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
    const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
    const trace::PartitionedLog malicious =
        trace::partition_raw(logs.malicious);

    const core::LeapsPipeline pipeline(opt.pipeline);
    const core::TrainingData td = pipeline.prepare(benign, mixed);
    const core::WindowedData mal_windows =
        td.preprocessor.make_windows(malicious);
    core::TupleVocabulary vocabulary;
    vocabulary.fit({&benign, &mixed}, td.preprocessor);

    Row row;
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng(util::hash_string(name) ^ (run + 31));

      // Same data selection scheme as the main experiment harness.
      std::vector<std::size_t> order(td.benign.size());
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      const std::size_t half = order.size() / 2;
      std::vector<std::size_t> b_train(order.begin(),
                                       order.begin() + half / 5);
      std::vector<std::size_t> b_test(order.begin() + half,
                                      order.begin() + half + half / 5);
      std::vector<std::size_t> m_train(td.mixed.size());
      std::iota(m_train.begin(), m_train.end(), 0);
      rng.shuffle(m_train);
      m_train.resize(td.mixed.size() / 5);
      std::vector<std::size_t> x_test(mal_windows.X.size());
      std::iota(x_test.begin(), x_test.end(), 0);
      rng.shuffle(x_test);
      x_test.resize(mal_windows.X.size() / 5);

      ml::Dataset train = td.benign.subset(b_train);
      train.append(td.mixed.subset(m_train));
      ml::MinMaxScaler scaler;
      scaler.fit(train.X);
      ml::Dataset train_scaled = train;
      scaler.transform_in_place(train_scaled);

      ml::SvmParams svm_params;
      svm_params.lambda = 10.0;
      svm_params.kernel.sigma2 = 8.0;
      const ml::SvmModel svm = ml::SvmTrainer(svm_params).train(train_scaled);
      ml::LogRegParams lr_params;
      lr_params.l2 = 1.0;
      const ml::LogRegModel lr =
          ml::LogRegTrainer(lr_params).train(train_scaled);
      const ml::DecisionTreeModel tree =
          ml::DecisionTreeTrainer().train(train_scaled);
      ml::ForestParams forest_params;
      forest_params.seed = run + 1;
      const ml::RandomForestModel forest =
          ml::RandomForestTrainer(forest_params).train(train_scaled);

      std::vector<ml::Sequence> b_seqs, m_seqs;
      std::vector<double> m_weights;
      for (const std::size_t w : b_train) {
        b_seqs.push_back(vocabulary.encode(
            benign, td.benign_windows.event_indices[w], td.preprocessor));
      }
      for (const std::size_t w : m_train) {
        m_seqs.push_back(vocabulary.encode(
            mixed, td.mixed_windows.event_indices[w], td.preprocessor));
        m_weights.push_back(td.mixed.weight[w]);
      }
      ml::HmmClassifier hmm;
      hmm.fit(b_seqs, m_seqs, m_weights, vocabulary.size());

      ml::ConfusionMatrix cm_lr, cm_tree, cm_forest, cm_svm, cm_hmm;
      const auto eval = [&](const trace::PartitionedLog& log,
                            const core::WindowedData& windows,
                            std::size_t w, int actual) {
        const ml::FeatureVector x = scaler.transform(windows.X[w]);
        cm_lr.add(actual, lr.predict(x));
        cm_tree.add(actual, tree.predict(x));
        cm_forest.add(actual, forest.predict(x));
        cm_svm.add(actual, svm.predict(x));
        cm_hmm.add(actual,
                   hmm.predict(vocabulary.encode(
                       log, windows.event_indices[w], td.preprocessor)));
      };
      for (const std::size_t w : b_test) {
        eval(benign, td.benign_windows, w, 1);
      }
      for (const std::size_t w : x_test) {
        eval(malicious, mal_windows, w, -1);
      }
      row.lr.add(cm_lr.accuracy());
      row.tree.add(cm_tree.accuracy());
      row.forest.add(cm_forest.accuracy());
      row.svm.add(cm_svm.accuracy());
      row.hmm.add(cm_hmm.accuracy());
    }
    std::printf("%-34s%8.3f%8.3f%8.3f%8.3f%8.3f\n", name, row.lr.mean(),
                row.tree.mean(), row.forest.mean(), row.svm.mean(),
                row.hmm.mean());
    std::fflush(stdout);
  }
  std::printf(
      "\nreading: W-LR vs WSVM isolates the kernel's share; W-Tree/W-RF "
      "test axis-aligned\npartitioning; WSVM vs W-HMM is what event "
      "ordering adds. All models use identical\nCFG-derived weights.\n");
  return 0;
}
