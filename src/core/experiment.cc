#include "core/experiment.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <sstream>

#include "ml/cgraph_model.h"
#include "ml/dtree.h"
#include "ml/hmm.h"
#include "ml/logreg.h"
#include "trace/partition.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/strings.h"

namespace leaps::core {

namespace {

/// Section V-A-2's protocol: the paper's 20% selection of each window pool,
/// after a 50/50 train/test split of the benign windows.
constexpr double kSampleFraction = 0.20;
constexpr double kBenignTrainFraction = 0.50;
/// The SVMs' base parameters; the tune sets λ and σ².
constexpr ml::SvmParams kSvmBase{};
/// The HMM sequence models' parameters (Section VI-B).
constexpr ml::HmmClassifier::Options kHmm{};

/// Shuffles [0, n) and returns the first ceil(fraction * n) indices
/// (at least 1 when n > 0).
std::vector<std::size_t> sample_indices(std::size_t n, double fraction,
                                        util::Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  const auto take = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5));
  idx.resize(std::min(take, n));
  return idx;
}

struct MetricAccumulator {
  util::RunningStats acc, ppv, tpr, tnr, npv, auc;

  void add(const ml::Measurements& m) {
    acc.add(m.acc);
    ppv.add(m.ppv);
    tpr.add(m.tpr);
    tnr.add(m.tnr);
    npv.add(m.npv);
  }
  ml::Measurements mean() const {
    return {acc.mean(), ppv.mean(), tpr.mean(), tnr.mean(), npv.mean()};
  }
  ml::Measurements stddev() const {
    return {acc.stddev(), ppv.stddev(), tpr.stddev(), tnr.stddev(),
            npv.stddev()};
  }
};

/// Every model in evaluation order: the paper's three, then the five that
/// ExperimentOptions::extension_models adds.
constexpr ModelOutcome ExperimentResult::*kModels[] = {
    &ExperimentResult::cgraph, &ExperimentResult::svm,
    &ExperimentResult::wsvm,   &ExperimentResult::hmm,
    &ExperimentResult::whmm,   &ExperimentResult::wlr,
    &ExperimentResult::wtree,  &ExperimentResult::wrf,
};
constexpr std::size_t kPaperModels = 3;

/// One held-out window as the models see it.
struct TestWindow {
  ml::FeatureVector x;                                  // scaled features
  std::vector<const trace::PartitionedEvent*> events;  // for CGraph
  ml::Sequence sequence;  // tuple symbols (extension models only)
};

/// A model's verdict on one window: its predicted label and its score
/// (larger = more benign, for the threshold-free AUC).
struct Verdict {
  int label;
  double score;
};

}  // namespace

ExperimentResult ExperimentRunner::run_scenario(
    const sim::ScenarioSpec& spec) const {
  return run_on_logs(sim::generate_scenario(spec, options_.sim));
}

ExperimentResult ExperimentRunner::run_on_logs(
    const sim::ScenarioLogs& logs) const {
  ExperimentResult result;
  result.spec = logs.spec;
  const bool extension = options_.extension_models;
  const std::size_t models = extension ? std::size(kModels) : kPaperModels;

  // --- parse + partition (Raw Log Parser, Stack Partition Module) -------
  const trace::PartitionedLog benign_part = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed_part = trace::partition_raw(logs.mixed);
  const trace::PartitionedLog malicious_part =
      trace::partition_raw(logs.malicious);

  // --- pipeline: features + CFG-guided weights (once per scenario) ------
  const LeapsPipeline pipeline(options_.pipeline);
  const TrainingData td = pipeline.prepare(benign_part, mixed_part);
  const WindowedData malicious_windows =
      td.preprocessor.make_windows(malicious_part);

  // Section VI-B extension: tuple alphabet for the sequence models.
  TupleVocabulary vocabulary;
  if (extension) {
    vocabulary.fit({&benign_part, &mixed_part}, td.preprocessor);
  }

  const std::uint64_t scenario_seed =
      options_.seed ^ util::hash_string(logs.spec.name);

  // ---- per-run data selection (Section V-A-2) ---------------------------
  struct Selection {
    std::vector<std::size_t> benign_train, benign_test, mixed_train,
        malicious_test;
    ml::Dataset train_weighted, train_plain;  // scaled
    ml::MinMaxScaler scaler;
  };
  const auto select = [&](std::size_t run) {
    util::Rng rng = util::Rng(scenario_seed).fork(run + 101);
    Selection sel;
    const std::size_t nb = td.benign.size();
    LEAPS_CHECK_MSG(nb >= 4, "too few benign windows");
    std::vector<std::size_t> benign_order(nb);
    std::iota(benign_order.begin(), benign_order.end(), 0);
    rng.shuffle(benign_order);
    const auto split = static_cast<std::size_t>(
        kBenignTrainFraction * static_cast<double>(nb));
    const std::vector<std::size_t> train_pool(benign_order.begin(),
                                              benign_order.begin() + split);
    const std::vector<std::size_t> test_pool(benign_order.begin() + split,
                                             benign_order.end());
    const auto pick = [&rng](const std::vector<std::size_t>& pool) {
      std::vector<std::size_t> local =
          sample_indices(pool.size(), kSampleFraction, rng);
      std::vector<std::size_t> out;
      out.reserve(local.size());
      for (const std::size_t i : local) out.push_back(pool[i]);
      return out;
    };
    sel.benign_train = pick(train_pool);
    sel.benign_test = pick(test_pool);
    sel.mixed_train = sample_indices(td.mixed.size(), kSampleFraction, rng);
    sel.malicious_test =
        sample_indices(malicious_windows.X.size(), kSampleFraction, rng);

    sel.train_weighted = td.benign.subset(sel.benign_train);
    sel.train_weighted.append(td.mixed.subset(sel.mixed_train));
    sel.train_plain = sel.train_weighted;
    std::fill(sel.train_plain.weight.begin(), sel.train_plain.weight.end(),
              1.0);
    sel.scaler.fit(sel.train_weighted.X);
    sel.scaler.transform_in_place(sel.train_weighted);
    sel.scaler.transform_in_place(sel.train_plain);
    return sel;
  };

  // ---- hyper-parameter tuning (once, on run 0's selection) --------------
  ml::SvmParams tuned_svm;
  ml::SvmParams tuned_wsvm;
  {
    const Selection sel = select(0);
    util::Rng tune_rng = util::Rng(scenario_seed).fork(101).fork(0x7E57);
    ml::CrossValidationOptions cv_plain = options_.cv;
    cv_plain.weighted_validation = false;
    // The weighted model is also *validated* with its confidences, else CV
    // optimizes against the very label noise the weights correct.
    ml::CrossValidationOptions cv_weighted = options_.cv;
    cv_weighted.weighted_validation = options_.weighted_cv_for_wsvm;
    tuned_svm =
        ml::tune_svm(sel.train_plain, kSvmBase, cv_plain, tune_rng).best;
    tuned_wsvm =
        ml::tune_svm(sel.train_weighted, kSvmBase, cv_weighted, tune_rng)
            .best;
  }

  // ---- one run: train the competing models, evaluate the shared test ----
  struct RunOutcome {
    std::vector<ml::ConfusionMatrix> cm;  // per model, kModels order
    std::vector<double> auc;
  };
  const auto execute_run = [&](std::size_t run) {
    const Selection sel = select(run);
    const auto sequence = [&](const trace::PartitionedLog& part,
                              const WindowedData& windows, std::size_t w) {
      return vocabulary.encode(part, windows.event_indices[w],
                               td.preprocessor);
    };

    ml::CallGraphModel cgraph;
    {
      trace::PartitionedLog cg_benign;
      for (const std::size_t w : sel.benign_train) {
        for (const std::size_t idx : td.benign_windows.event_indices[w]) {
          cg_benign.events.push_back(benign_part.events[idx]);
        }
      }
      trace::PartitionedLog cg_mixed;
      for (const std::size_t w : sel.mixed_train) {
        for (const std::size_t idx : td.mixed_windows.event_indices[w]) {
          cg_mixed.events.push_back(mixed_part.events[idx]);
        }
      }
      cgraph.train(cg_benign, cg_mixed);
    }
    std::vector<std::function<Verdict(const TestWindow&)>> scorers = {
        [&cgraph](const TestWindow& t) {
          return Verdict{cgraph.predict_window(t.events),
                         static_cast<double>(cgraph.score_window(t.events))};
        },
        [svm = ml::SvmTrainer(tuned_svm).train(sel.train_plain)](
            const TestWindow& t) {
          return Verdict{svm.predict(t.x), svm.decision_value(t.x)};
        },
        [wsvm = ml::SvmTrainer(tuned_wsvm).train(sel.train_weighted)](
            const TestWindow& t) {
          return Verdict{wsvm.predict(t.x), wsvm.decision_value(t.x)};
        },
    };

    // Extension models: the HMM and WHMM on the selection's window
    // sequences, the alternative classifiers on the WSVM's weighted
    // training set. The forest is seeded by the run, not by the selection's
    // stream.
    if (extension) {
      std::vector<ml::Sequence> benign_seqs;
      std::vector<ml::Sequence> mixed_seqs;
      std::vector<double> mixed_seq_weights;
      for (const std::size_t w : sel.benign_train) {
        benign_seqs.push_back(sequence(benign_part, td.benign_windows, w));
      }
      for (const std::size_t w : sel.mixed_train) {
        mixed_seqs.push_back(sequence(mixed_part, td.mixed_windows, w));
        mixed_seq_weights.push_back(td.mixed.weight[w]);
      }
      std::vector<double> ones(mixed_seqs.size(), 1.0);
      for (const auto* weights : {&ones, &mixed_seq_weights}) {
        ml::HmmClassifier hmm(kHmm);
        hmm.fit(benign_seqs, mixed_seqs, *weights, vocabulary.size());
        scorers.push_back([hmm](const TestWindow& t) {
          return Verdict{hmm.predict(t.sequence), -hmm.score(t.sequence)};
        });
      }
      scorers.push_back([lr = ml::LogRegTrainer().train(sel.train_weighted)](
                            const TestWindow& t) {
        return Verdict{lr.predict(t.x), lr.decision_value(t.x)};
      });
      scorers.push_back(
          [tree = ml::DecisionTreeTrainer().train(sel.train_weighted)](
              const TestWindow& t) {
            return Verdict{tree.predict(t.x), tree.score(t.x)};
          });
      ml::ForestParams forest;
      forest.seed = run + 1;
      scorers.push_back(
          [rf = ml::RandomForestTrainer(forest).train(sel.train_weighted)](
              const TestWindow& t) {
            return Verdict{rf.predict(t.x), rf.score(t.x)};
          });
    }

    // Every model scores the same test windows through one loop: its
    // verdicts fill its confusion matrix and its scores give its AUC.
    RunOutcome out{std::vector<ml::ConfusionMatrix>(models), {}};
    std::vector<std::vector<double>> scores(models);
    std::vector<int> labels;
    const auto score = [&](const trace::PartitionedLog& part,
                           const WindowedData& windows,
                           const std::vector<std::size_t>& picked,
                           int actual) {
      for (const std::size_t w : picked) {
        TestWindow t{sel.scaler.transform(windows.X[w]), {}, {}};
        for (const std::size_t idx : windows.event_indices[w]) {
          t.events.push_back(&part.events[idx]);
        }
        if (extension) t.sequence = sequence(part, windows, w);
        labels.push_back(actual);
        for (std::size_t m = 0; m < models; ++m) {
          const Verdict v = scorers[m](t);
          out.cm[m].add(actual, v.label);
          scores[m].push_back(v.score);
        }
      }
    };
    score(benign_part, td.benign_windows, sel.benign_test, /*actual=*/1);
    score(malicious_part, malicious_windows, sel.malicious_test,
          /*actual=*/-1);
    for (const std::vector<double>& s : scores) {
      out.auc.push_back(ml::roc_auc(s, labels));
    }
    return out;
  };

  // ---- runs, on the shared pool (each run is independently seeded and
  // outcomes are aggregated in run order, so the result is identical at
  // any thread count) ------------------------------------------------------
  std::vector<RunOutcome> outcomes(options_.runs);
  util::parallel_for(0, options_.runs, 1,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t run = begin; run < end; ++run) {
                         outcomes[run] = execute_run(run);
                       }
                     });

  result.runs = options_.runs;
  for (std::size_t m = 0; m < models; ++m) {
    ModelOutcome& model = result.*kModels[m];
    MetricAccumulator agg;
    for (const RunOutcome& out : outcomes) {
      agg.add(ml::Measurements::from(out.cm[m]));
      agg.auc.add(out.auc[m]);
      model.pooled.merge(out.cm[m]);
    }
    model.mean = agg.mean();
    model.stddev = agg.stddev();
    model.auc = agg.auc.mean();
  }
  result.svm.params = tuned_svm;
  result.wsvm.params = tuned_wsvm;
  return result;
}

namespace {

void append_measurements(std::ostringstream& os, const ml::Measurements& m) {
  os << util::fixed(m.acc, 3) << "  " << util::fixed(m.ppv, 3) << "  "
     << util::fixed(m.tpr, 3) << "  " << util::fixed(m.tnr, 3) << "  "
     << util::fixed(m.npv, 3);
}

}  // namespace

std::string format_result_header(bool with_models) {
  std::ostringstream os;
  os << std::left;
  os.width(34);
  os << "Name";
  if (with_models) {
    os << "Model   ";
  }
  os << "ACC    PPV    TPR    TNR    NPV";
  return os.str();
}

std::string format_result_row(const ExperimentResult& r, bool with_models) {
  std::ostringstream os;
  auto name_col = [&os, &r](std::string_view model) {
    os << std::left;
    os.width(34);
    os << r.spec.name;
    if (!model.empty()) {
      os << std::left;
      os.width(8);
      os << model;
    }
  };
  if (!with_models) {
    name_col("");
    append_measurements(os, r.wsvm.mean);
    return os.str();
  }
  name_col("CGraph");
  append_measurements(os, r.cgraph.mean);
  os << '\n';
  name_col("SVM");
  append_measurements(os, r.svm.mean);
  os << '\n';
  name_col("WSVM");
  append_measurements(os, r.wsvm.mean);
  return os.str();
}

}  // namespace leaps::core
