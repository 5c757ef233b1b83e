// Generates a markdown evaluation report for one scenario: the three-model
// comparison, AUCs, and the WSVM's ROC operating points — the artifact an
// analyst would attach to a deployment decision.
//
// Usage: evaluation_report [scenario] [output.md]
// Defaults: winscp_reverse_tcp, leaps_report.md
#include <cstdio>
#include <fstream>
#include <numeric>

#include "core/experiment.h"
#include "ml/metrics.h"
#include "trace/partition.h"
#include "util/strings.h"

using namespace leaps;

namespace {

void model_row(std::ofstream& os, const char* name,
               const core::ModelOutcome& m) {
  os << "| " << name << " | " << util::fixed(m.mean.acc, 3) << " | "
     << util::fixed(m.mean.ppv, 3) << " | " << util::fixed(m.mean.tpr, 3)
     << " | " << util::fixed(m.mean.tnr, 3) << " | "
     << util::fixed(m.mean.npv, 3) << " | " << util::fixed(m.auc, 3)
     << " | ±" << util::fixed(m.stddev.acc, 3) << " |\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scenario =
      argc > 1 ? argv[1] : std::string("winscp_reverse_tcp");
  const std::string out_path =
      argc > 2 ? argv[2] : std::string("leaps_report.md");

  core::ExperimentOptions opt;
  opt.runs = 5;
  const sim::ScenarioSpec& spec = sim::find_scenario(scenario);
  std::printf("evaluating %s (%zu runs)...\n", spec.name.c_str(), opt.runs);
  const core::ExperimentResult r =
      core::ExperimentRunner(opt).run_scenario(spec);

  // A ROC curve for the WSVM from one extra evaluation pass: train on one
  // split, score the held-out windows.
  const sim::ScenarioLogs logs = sim::generate_scenario(spec, opt.sim);
  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  const trace::PartitionedLog malicious = trace::partition_raw(logs.malicious);
  const core::TrainingData td =
      core::LeapsPipeline(opt.pipeline).prepare(benign, mixed);
  const core::WindowedData mal_windows =
      td.preprocessor.make_windows(malicious);

  std::vector<std::size_t> half(td.benign.size() / 2);
  std::iota(half.begin(), half.end(), 0);
  ml::Dataset train = td.benign.subset(half);
  train.append(td.mixed);
  ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  const ml::SvmModel model = ml::SvmTrainer(r.wsvm.params).train(train);

  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t w = td.benign.size() / 2; w < td.benign.size(); ++w) {
    scores.push_back(model.decision_value(scaler.transform(td.benign.X[w])));
    labels.push_back(1);
  }
  for (const auto& x : mal_windows.X) {
    scores.push_back(model.decision_value(scaler.transform(x)));
    labels.push_back(-1);
  }
  const auto curve = ml::roc_curve(scores, labels);
  const double auc = ml::roc_auc(scores, labels);

  std::ofstream os(out_path);
  os << "# LEAPS evaluation report — " << spec.name << "\n\n";
  os << "* attack method: " << sim::attack_method_name(spec.method) << "\n";
  os << "* application: " << spec.app << ", payload: " << spec.payload
     << "\n";
  os << "* configuration: " << opt.sim.benign_events << "/"
     << opt.sim.mixed_events << "/" << opt.sim.malicious_events
     << " events, " << opt.runs << " runs, " << opt.cv.folds
     << "-fold CV\n\n";
  os << "## Model comparison (mean over runs)\n\n";
  os << "| Model | ACC | PPV | TPR | TNR | NPV | AUC | σ(ACC) |\n";
  os << "|---|---|---|---|---|---|---|---|\n";
  model_row(os, "CGraph", r.cgraph);
  model_row(os, "SVM", r.svm);
  model_row(os, "WSVM", r.wsvm);
  os << "\nWSVM hyper-parameters: λ=" << r.wsvm.params.lambda
     << ", σ²=" << r.wsvm.params.kernel.sigma2 << "\n\n";
  os << "## WSVM ROC (held-out benign vs pure malicious; AUC "
     << util::fixed(auc, 4) << ")\n\n";
  os << "| threshold | FPR (malicious passed) | TPR (benign passed) |\n";
  os << "|---|---|---|\n";
  // Subsample the polyline to ~15 rows.
  const std::size_t step = std::max<std::size_t>(1, curve.size() / 15);
  for (std::size_t i = 0; i < curve.size(); i += step) {
    os << "| " << util::fixed(curve[i].threshold, 3) << " | "
       << util::fixed(curve[i].fpr, 3) << " | "
       << util::fixed(curve[i].tpr, 3) << " |\n";
  }
  os.close();
  std::printf("wrote %s (WSVM AUC %.4f)\n", out_path.c_str(), auc);
  return 0;
}
