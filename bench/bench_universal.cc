// Universal-classifier study (Section II-B-2): the paper evaluates
// application-wise classifiers "for convenience" but claims a single
// universal classifier works in deployment. This binary tests the claim:
// pool four applications' training data into ONE weighted SVM and compare
// its per-application accuracy against dedicated per-app WSVMs.
#include <cstdio>

#include "bench_common.h"
#include "core/universal.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace {

using namespace leaps;

}  // namespace

int main() {
  using namespace leaps;
  core::ExperimentOptions opt = bench::options_from_env();
  opt.runs = std::min<std::size_t>(opt.runs, 5);
  bench::print_banner("universal classifier (Section II-B-2)", opt);

  const char* kScenarios[] = {
      "winscp_reverse_tcp",
      "vim_codeinject",
      "putty_reverse_https",
      "notepad++_reverse_tcp_online",
  };

  // Dedicated per-application classifiers (the paper's evaluation setup).
  std::printf("dedicated application-wise WSVMs:\n");
  std::map<std::string, double> dedicated;
  for (const char* name : kScenarios) {
    const core::ExperimentResult r =
        core::ExperimentRunner(opt).run_scenario(sim::find_scenario(name));
    dedicated[name] = r.wsvm.mean.acc;
    std::printf("  %-34s ACC %.3f\n", name, r.wsvm.mean.acc);
    std::fflush(stdout);
  }

  // The universal classifier over the pooled data.
  std::vector<core::AppLogs> apps;
  for (const char* name : kScenarios) {
    const sim::ScenarioLogs logs =
        sim::generate_scenario(sim::find_scenario(name), opt.sim);
    apps.push_back({name, trace::partition_raw(logs.benign),
                    trace::partition_raw(logs.mixed),
                    trace::partition_raw(logs.malicious)});
  }
  core::UniversalOptions uopt;
  uopt.svm.kernel.sigma2 = 8.0;
  const core::UniversalEvaluation u = core::train_universal(apps, uopt);

  std::printf("\nuniversal WSVM (one model for all %zu applications):\n",
              apps.size());
  std::size_t within = 0;
  for (const auto& [name, m] : u.per_app) {
    const double gap = m.acc - dedicated[name];
    std::printf("  %-34s ACC %.3f  (dedicated %.3f, gap %+.3f)\n",
                name.c_str(), m.acc, dedicated[name], gap);
    within += gap > -0.10 ? 1 : 0;
  }
  std::printf("  %-34s ACC %.3f\n", "POOLED", u.pooled.acc);
  std::printf(
      "\nshape check: universal within 0.10 ACC of dedicated on %zu/%zu "
      "applications\n(the paper's deployment claim: one classifier "
      "suffices in practice)\n",
      within, apps.size());
  return 0;
}
