// The paper's evaluation in one pass: Table I (WSVM on all 21 datasets),
// Figure 6 (CGraph vs SVM vs WSVM on the 13 offline-infection datasets),
// Figure 7 (the same on the 8 online-injection datasets) and the Figure 5
// illustration. Each scenario runs once; the three tables read the same
// ExperimentResults. The stdout at the default config is pinned by
// tests/expected/paper_artifacts.txt (ctest -R paper_artifacts).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ml/svm.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace leaps;

/// Table I of the paper: the WSVM measurements reported per dataset.
const std::map<std::string, ml::Measurements>& paper_table1() {
  static const std::map<std::string, ml::Measurements> table = {
      {"winscp_reverse_tcp", {0.932, 0.999, 0.865, 0.999, 0.881}},
      {"winscp_reverse_https", {0.927, 0.991, 0.862, 0.992, 0.878}},
      {"chrome_reverse_tcp", {0.877, 0.998, 0.755, 0.999, 0.803}},
      {"chrome_reverse_https", {0.907, 0.998, 0.815, 0.999, 0.844}},
      {"notepad++_reverse_tcp", {0.846, 0.998, 0.693, 0.998, 0.765}},
      {"notepad++_reverse_https", {0.866, 0.998, 0.733, 0.998, 0.789}},
      {"putty_reverse_tcp", {0.886, 0.815, 0.998, 0.774, 0.998}},
      {"putty_reverse_https", {0.869, 0.999, 0.739, 0.999, 0.793}},
      {"vim_reverse_tcp", {0.914, 0.995, 0.832, 0.996, 0.856}},
      {"vim_reverse_https", {0.919, 0.998, 0.839, 0.999, 0.861}},
      {"vim_codeinject", {0.852, 0.985, 0.715, 0.989, 0.776}},
      {"notepad++_codeinject", {0.802, 0.948, 0.639, 0.965, 0.728}},
      {"putty_codeinject", {0.802, 0.919, 0.661, 0.942, 0.736}},
      {"putty_reverse_tcp_online", {0.894, 0.825, 0.999, 0.789, 0.999}},
      {"putty_reverse_https_online", {0.869, 0.999, 0.738, 0.999, 0.792}},
      {"notepad++_reverse_tcp_online", {0.927, 0.991, 0.861, 0.992, 0.877}},
      {"notepad++_reverse_https_online", {0.845, 0.998, 0.690, 0.999, 0.763}},
      {"vim_reverse_tcp_online", {0.963, 0.933, 0.998, 0.928, 0.998}},
      {"vim_reverse_https_online", {0.919, 0.995, 0.842, 0.996, 0.863}},
      {"winscp_reverse_tcp_online", {0.950, 0.996, 0.904, 0.996, 0.912}},
      {"winscp_reverse_https_online", {0.921, 0.998, 0.843, 0.998, 0.864}},
  };
  return table;
}

/// Case-study ACC reference points the paper spells out for CGraph, SVM
/// and WSVM (Section V-C); printed as anchors in the Figure 6/7 sections.
struct CaseStudyRef {
  double cgraph_acc, svm_acc, wsvm_acc;
};

const std::map<std::string, CaseStudyRef>& paper_case_studies() {
  static const std::map<std::string, CaseStudyRef> refs = {
      {"winscp_reverse_tcp", {0.7479, 0.8581, 0.932}},
      {"vim_codeinject", {0.355, 0.725, 0.852}},
      {"putty_reverse_https_online", {0.6922, 0.7825, 0.8686}},
  };
  return refs;
}

void print_table1(const std::vector<core::ExperimentResult>& results) {
  std::printf("== Table I (WSVM on all 21 datasets)\n");
  std::printf("%-34s%-19s%7s%7s%7s%7s%7s\n", "Name", "Attack Method", "ACC",
              "PPV", "TPR", "TNR", "NPV");
  std::FILE* csv = bench::open_csv(
      "table1.csv",
      "scenario,method,acc,ppv,tpr,tnr,npv,auc,"
      "paper_acc,paper_ppv,paper_tpr,paper_tnr,paper_npv");
  util::RunningStats acc_gap;
  for (const core::ExperimentResult& r : results) {
    const std::string& name = r.spec.name;
    const std::string method(sim::attack_method_name(r.spec.method));
    const ml::Measurements& m = r.wsvm.mean;
    std::printf("%-34s%-19s%7.3f%7.3f%7.3f%7.3f%7.3f\n", name.c_str(),
                method.c_str(), m.acc, m.ppv, m.tpr, m.tnr, m.npv);
    const auto it = paper_table1().find(name);
    if (it == paper_table1().end()) continue;
    const ml::Measurements& p = it->second;
    std::printf("%-34s%-19s%7.3f%7.3f%7.3f%7.3f%7.3f\n", "  (paper)", "",
                p.acc, p.ppv, p.tpr, p.tnr, p.npv);
    acc_gap.add(m.acc - p.acc);
    if (csv != nullptr) {
      std::fprintf(csv,
                   "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
                   "%.3f,%.3f,%.3f,%.3f,%.3f\n",
                   name.c_str(), method.c_str(), m.acc, m.ppv, m.tpr, m.tnr,
                   m.npv, r.wsvm.auc, p.acc, p.ppv, p.tpr, p.tnr, p.npv);
    }
  }
  std::printf(
      "\nWSVM ACC deviation vs paper over %zu datasets: mean %+0.3f, "
      "stddev %0.3f, range [%+0.3f, %+0.3f]\n",
      acc_gap.count(), acc_gap.mean(), acc_gap.stddev(), acc_gap.min(),
      acc_gap.max());
  if (csv != nullptr) std::fclose(csv);
}

void csv_model_row(std::FILE* f, const char* scenario, const char* model,
                   const core::ModelOutcome& m) {
  std::fprintf(f, "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", scenario, model,
               m.mean.acc, m.mean.ppv, m.mean.tpr, m.mean.tnr, m.mean.npv,
               m.auc);
}

/// One three-model figure over the datasets of one attack method. The
/// paper's shape claim is WSVM >= SVM and WSVM >= CGraph on every dataset.
void print_figure(const char* title, const char* csv_name,
                  sim::AttackMethod method,
                  const std::vector<core::ExperimentResult>& results) {
  std::printf("\n== %s\n", title);
  std::printf("%s\n", core::format_result_header(true).c_str());
  std::FILE* csv =
      bench::open_csv(csv_name, "scenario,model,acc,ppv,tpr,tnr,npv,auc");
  std::size_t wsvm_wins_svm = 0;
  std::size_t wsvm_wins_cgraph = 0;
  std::size_t total = 0;
  for (const core::ExperimentResult& r : results) {
    if (r.spec.method != method) continue;
    std::printf("%s\n", core::format_result_row(r, true).c_str());
    if (csv != nullptr) {
      csv_model_row(csv, r.spec.name.c_str(), "cgraph", r.cgraph);
      csv_model_row(csv, r.spec.name.c_str(), "svm", r.svm);
      csv_model_row(csv, r.spec.name.c_str(), "wsvm", r.wsvm);
    }
    const auto ref = paper_case_studies().find(r.spec.name);
    if (ref != paper_case_studies().end()) {
      std::printf("  (paper ACC anchors: CGraph %.3f  SVM %.3f  WSVM %.3f)\n",
                  ref->second.cgraph_acc, ref->second.svm_acc,
                  ref->second.wsvm_acc);
    }
    ++total;
    wsvm_wins_svm += r.wsvm.mean.acc >= r.svm.mean.acc ? 1 : 0;
    wsvm_wins_cgraph += r.wsvm.mean.acc >= r.cgraph.mean.acc ? 1 : 0;
  }
  std::printf(
      "\nshape check: WSVM >= SVM on %zu/%zu datasets; WSVM >= CGraph on "
      "%zu/%zu (paper: %zu/%zu and %zu/%zu)\n",
      wsvm_wins_svm, total, wsvm_wins_cgraph, total, total, total, total,
      total);
  if (csv != nullptr) std::fclose(csv);
}

// --- Figure 5: SVM vs WSVM on noisy 2-D data -------------------------------
// Negatives include mislabeled copies of the benign cluster (the "mixed
// data points [that] actually belong to benign events"); the WSVM receives
// CFG-style confidence weights.

constexpr std::uint64_t kFig5Seed = 42;
constexpr int kFig5PerClass = 120;
constexpr int kFig5Mislabeled = kFig5PerClass / 2;

struct Fig5Data {
  ml::Dataset train;        // with confidence weights
  ml::Dataset test_benign;  // pure benign, label +1
  ml::Dataset test_malicious;
};

Fig5Data make_fig5_data(util::Rng& rng) {
  Fig5Data d;
  auto benign_point = [&rng]() {
    return ml::FeatureVector{rng.next_gaussian() * 0.5 - 1.0,
                             rng.next_gaussian() * 0.5 + 1.0};
  };
  auto malicious_point = [&rng]() {
    return ml::FeatureVector{rng.next_gaussian() * 0.5 + 1.0,
                             rng.next_gaussian() * 0.5 - 1.0};
  };
  for (int i = 0; i < kFig5PerClass; ++i) {
    d.train.add(benign_point(), 1, 1.0);
    d.train.add(malicious_point(), -1, 1.0);
    // Mislabeled benign events inside the "mixed" negative set. Their CFG
    // weight is near zero; a plain SVM sees them at full strength.
    if (i < kFig5Mislabeled) {
      d.train.add(benign_point(), -1, 0.05);
    }
    d.test_benign.add(benign_point(), 1, 1.0);
    d.test_malicious.add(malicious_point(), -1, 1.0);
  }
  return d;
}

void evaluate_fig5(const char* name, const ml::SvmModel& model,
                   const Fig5Data& d) {
  ml::ConfusionMatrix cm;
  for (const auto& x : d.test_benign.X) cm.add(1, model.predict(x));
  for (const auto& x : d.test_malicious.X) cm.add(-1, model.predict(x));
  const auto m = ml::Measurements::from(cm);
  std::printf("%-6s %s  (support vectors: %zu)\n", name,
              m.to_string().c_str(), model.support_vector_count());
}

void ascii_boundary(const ml::SvmModel& plain, const ml::SvmModel& weighted) {
  std::printf("\nDecision maps over [-2.5,2.5]^2 (.=benign  #=malicious):\n");
  std::printf("%-28s  %-28s\n", "original SVM", "Weighted SVM");
  for (int row = 0; row < 13; ++row) {
    const double y = 2.5 - row * (5.0 / 12.0);
    std::string left, right;
    for (int col = 0; col < 26; ++col) {
      const double x = -2.5 + col * (5.0 / 25.0);
      left += plain.predict({x, y}) == 1 ? '.' : '#';
      right += weighted.predict({x, y}) == 1 ? '.' : '#';
    }
    std::printf("%s  %s\n", left.c_str(), right.c_str());
  }
}

void print_figure5() {
  std::printf("\n== Figure 5 (SVM vs Weighted SVM on noisy 2-D training "
              "data)\n");
  std::printf("train: %d benign, %d malicious, %d mislabeled-benign "
              "negatives (weight 0.05)\n\n",
              kFig5PerClass, kFig5PerClass, kFig5Mislabeled);
  util::Rng rng(kFig5Seed);
  const Fig5Data d = make_fig5_data(rng);

  ml::SvmParams params;
  params.lambda = 10.0;
  params.kernel.sigma2 = 1.0;

  ml::Dataset plain_train = d.train;
  std::fill(plain_train.weight.begin(), plain_train.weight.end(), 1.0);
  const ml::SvmModel plain = ml::SvmTrainer(params).train(plain_train);
  const ml::SvmModel weighted = ml::SvmTrainer(params).train(d.train);

  evaluate_fig5("SVM", plain, d);
  evaluate_fig5("WSVM", weighted, d);
  ascii_boundary(plain, weighted);
  std::printf(
      "\nexpected shape (paper Fig. 5): the plain SVM concedes part of the "
      "benign\ncluster to the malicious side; the weighted SVM restores the "
      "boundary.\n");
}

}  // namespace

int main() {
  const core::ExperimentOptions opt = bench::options_from_env();
  bench::print_banner("Table I, Figures 6/7 and Figure 5", opt);
  const core::ExperimentRunner runner(opt);

  std::vector<core::ExperimentResult> results;
  for (const sim::ScenarioSpec& spec : sim::table1_scenarios()) {
    results.push_back(runner.run_scenario(spec));
  }

  print_table1(results);
  print_figure("Figure 6 (offline infection: CGraph vs SVM vs WSVM)",
               "fig6.csv", sim::AttackMethod::kOfflineInfection, results);
  print_figure("Figure 7 (online injection: CGraph vs SVM vs WSVM)",
               "fig7.csv", sim::AttackMethod::kOnlineInjection, results);
  print_figure5();
  return 0;
}
