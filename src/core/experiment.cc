#include "core/experiment.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "trace/partition.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/strings.h"

namespace leaps::core {

namespace {

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

/// Collects the PartitionedEvent pointers of the given windows.
std::vector<const trace::PartitionedEvent*> window_events(
    const trace::PartitionedLog& log, const WindowedData& windows,
    std::size_t window_index) {
  std::vector<const trace::PartitionedEvent*> out;
  for (const std::size_t idx : windows.event_indices[window_index]) {
    out.push_back(&log.events[idx]);
  }
  return out;
}

}  // namespace

ExperimentResult ExperimentRunner::run_scenario(
    const sim::ScenarioSpec& spec) const {
  return run_on_logs(sim::generate_scenario(spec, options_.sim));
}

ExperimentResult ExperimentRunner::run_on_logs(
    const sim::ScenarioLogs& logs) const {
  ExperimentResult result;
  result.spec = logs.spec;

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
  if (options_.include_hmm) {
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
        options_.benign_train_fraction * static_cast<double>(nb));
    const std::vector<std::size_t> train_pool(benign_order.begin(),
                                              benign_order.begin() + split);
    const std::vector<std::size_t> test_pool(benign_order.begin() + split,
                                             benign_order.end());
    const auto pick = [&rng, this](const std::vector<std::size_t>& pool) {
      std::vector<std::size_t> local =
          sample_indices(pool.size(), options_.sample_fraction, rng);
      std::vector<std::size_t> out;
      out.reserve(local.size());
      for (const std::size_t i : local) out.push_back(pool[i]);
      return out;
    };
    sel.benign_train = pick(train_pool);
    sel.benign_test = pick(test_pool);
    sel.mixed_train =
        sample_indices(td.mixed.size(), options_.sample_fraction, rng);
    sel.malicious_test = sample_indices(malicious_windows.X.size(),
                                        options_.sample_fraction, rng);

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
        ml::tune_svm(sel.train_plain, options_.svm_base, cv_plain, tune_rng)
            .best;
    tuned_wsvm = ml::tune_svm(sel.train_weighted, options_.svm_base,
                              cv_weighted, tune_rng)
                     .best;
  }

  // ---- one run: train the competing models, evaluate the shared test ----
  struct RunOutcome {
    ml::ConfusionMatrix cm_cgraph, cm_svm, cm_wsvm, cm_hmm, cm_whmm;
    double auc_cgraph = 0.5, auc_svm = 0.5, auc_wsvm = 0.5, auc_hmm = 0.5,
           auc_whmm = 0.5;
  };
  const auto execute_run = [&](std::size_t run) {
    const Selection sel = select(run);
    const ml::SvmModel model_svm =
        ml::SvmTrainer(tuned_svm).train(sel.train_plain);
    const ml::SvmModel model_wsvm =
        ml::SvmTrainer(tuned_wsvm).train(sel.train_weighted);

    // HMM sequence models (optional extension).
    ml::HmmClassifier hmm_plain(options_.hmm);
    ml::HmmClassifier hmm_weighted(options_.hmm);
    if (options_.include_hmm) {
      std::vector<ml::Sequence> benign_seqs;
      std::vector<ml::Sequence> mixed_seqs;
      std::vector<double> mixed_seq_weights;
      for (const std::size_t w : sel.benign_train) {
        benign_seqs.push_back(vocabulary.encode(
            benign_part, td.benign_windows.event_indices[w],
            td.preprocessor));
      }
      for (const std::size_t w : sel.mixed_train) {
        mixed_seqs.push_back(vocabulary.encode(
            mixed_part, td.mixed_windows.event_indices[w],
            td.preprocessor));
        mixed_seq_weights.push_back(td.mixed.weight[w]);
      }
      const std::vector<double> ones(mixed_seqs.size(), 1.0);
      hmm_plain.fit(benign_seqs, mixed_seqs, ones, vocabulary.size());
      hmm_weighted.fit(benign_seqs, mixed_seqs, mixed_seq_weights,
                       vocabulary.size());
    }

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

    RunOutcome out;
    // Decision scores for threshold-free (AUC) evaluation; larger = more
    // benign for every model.
    std::vector<int> labels;
    std::vector<double> s_cgraph, s_svm, s_wsvm, s_hmm, s_whmm;
    const auto evaluate_window = [&](const trace::PartitionedLog& part,
                                     const WindowedData& windows,
                                     std::size_t w,
                                     const ml::FeatureVector& raw,
                                     int actual) {
      const ml::FeatureVector x = sel.scaler.transform(raw);
      out.cm_svm.add(actual, model_svm.predict(x));
      out.cm_wsvm.add(actual, model_wsvm.predict(x));
      const auto events = window_events(part, windows, w);
      out.cm_cgraph.add(actual, cgraph.predict_window(events));
      labels.push_back(actual);
      s_svm.push_back(model_svm.decision_value(x));
      s_wsvm.push_back(model_wsvm.decision_value(x));
      s_cgraph.push_back(static_cast<double>(cgraph.score_window(events)));
      if (options_.include_hmm) {
        const ml::Sequence seq = vocabulary.encode(
            part, windows.event_indices[w], td.preprocessor);
        out.cm_hmm.add(actual, hmm_plain.predict(seq));
        out.cm_whmm.add(actual, hmm_weighted.predict(seq));
        s_hmm.push_back(-hmm_plain.score(seq));
        s_whmm.push_back(-hmm_weighted.score(seq));
      }
    };
    for (const std::size_t w : sel.benign_test) {
      evaluate_window(benign_part, td.benign_windows, w,
                      td.benign_windows.X[w], /*actual=*/1);
    }
    for (const std::size_t w : sel.malicious_test) {
      evaluate_window(malicious_part, malicious_windows, w,
                      malicious_windows.X[w], /*actual=*/-1);
    }
    out.auc_cgraph = ml::roc_auc(s_cgraph, labels);
    out.auc_svm = ml::roc_auc(s_svm, labels);
    out.auc_wsvm = ml::roc_auc(s_wsvm, labels);
    if (options_.include_hmm) {
      out.auc_hmm = ml::roc_auc(s_hmm, labels);
      out.auc_whmm = ml::roc_auc(s_whmm, labels);
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

  MetricAccumulator agg_cgraph, agg_svm, agg_wsvm, agg_hmm, agg_whmm;
  for (const RunOutcome& out : outcomes) {
    agg_cgraph.add(ml::Measurements::from(out.cm_cgraph));
    agg_svm.add(ml::Measurements::from(out.cm_svm));
    agg_wsvm.add(ml::Measurements::from(out.cm_wsvm));
    agg_cgraph.auc.add(out.auc_cgraph);
    agg_svm.auc.add(out.auc_svm);
    agg_wsvm.auc.add(out.auc_wsvm);
    result.cgraph.pooled.merge(out.cm_cgraph);
    result.svm.pooled.merge(out.cm_svm);
    result.wsvm.pooled.merge(out.cm_wsvm);
    if (options_.include_hmm) {
      agg_hmm.add(ml::Measurements::from(out.cm_hmm));
      agg_whmm.add(ml::Measurements::from(out.cm_whmm));
      agg_hmm.auc.add(out.auc_hmm);
      agg_whmm.auc.add(out.auc_whmm);
      result.hmm.pooled.merge(out.cm_hmm);
      result.whmm.pooled.merge(out.cm_whmm);
    }
  }

  result.runs = options_.runs;
  result.cgraph.mean = agg_cgraph.mean();
  result.cgraph.stddev = agg_cgraph.stddev();
  result.cgraph.auc = agg_cgraph.auc.mean();
  result.svm.auc = agg_svm.auc.mean();
  result.wsvm.auc = agg_wsvm.auc.mean();
  result.hmm.auc = agg_hmm.auc.mean();
  result.whmm.auc = agg_whmm.auc.mean();
  result.svm.mean = agg_svm.mean();
  result.svm.stddev = agg_svm.stddev();
  result.svm.params = tuned_svm;
  result.wsvm.mean = agg_wsvm.mean();
  result.wsvm.stddev = agg_wsvm.stddev();
  result.wsvm.params = tuned_wsvm;
  if (options_.include_hmm) {
    result.hmm.mean = agg_hmm.mean();
    result.hmm.stddev = agg_hmm.stddev();
    result.whmm.mean = agg_whmm.mean();
    result.whmm.stddev = agg_whmm.stddev();
  }
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
