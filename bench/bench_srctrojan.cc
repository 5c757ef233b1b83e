// Section VI-A extension: source-level trojans and CFG alignment.
//
// The adversary recompiles the application with the payload's source added,
// shifting every address. Exact-address weight assessment (Algorithm 2)
// collapses — the mixed CFG looks entirely "in range" — so the WSVM loses
// its guidance. The CFG-alignment extension (cfg/alignment.h) restores it
// by aligning pivotal nodes between the clean and trojaned builds.
//
// For each dataset this binary reports all three models with alignment off
// and the WSVM with alignment on. Expected shape: WSVM(no align) degrades
// toward plain SVM; WSVM(aligned) recovers most of the Table-I margin.
#include <cstdio>

#include "bench_common.h"
#include "sim/scenario.h"

int main() {
  using namespace leaps;

  core::ExperimentOptions opt = bench::options_from_env();
  opt.runs = std::min<std::size_t>(opt.runs, 5);
  bench::print_banner("source-level trojans + CFG alignment (Section VI-A)",
                      opt);

  const std::pair<const char*, const char*> kDatasets[] = {
      {"winscp", "reverse_tcp"},
      {"vim", "pwddlg"},
      {"putty", "reverse_https"},
      {"notepad++", "reverse_tcp"},
  };

  std::printf("%s\n", core::format_result_header(true).c_str());
  std::size_t aligned_wins = 0;
  for (const auto& [app, payload] : kDatasets) {
    const sim::ScenarioLogs logs =
        sim::generate_source_trojan_scenario(app, payload, opt.sim);

    core::ExperimentOptions off = opt;
    off.pipeline.align_cfgs = false;
    const core::ExperimentResult r_off =
        core::ExperimentRunner(off).run_on_logs(logs);
    std::printf("%s\n", core::format_result_row(r_off, true).c_str());

    core::ExperimentOptions on = opt;
    on.pipeline.align_cfgs = true;
    const core::ExperimentResult r_on =
        core::ExperimentRunner(on).run_on_logs(logs);
    const ml::Measurements& m = r_on.wsvm.mean;
    std::printf("%-34s%-8s%6.3f %6.3f %6.3f %6.3f %6.3f\n",
                logs.spec.name.c_str(), "WSVM+A", m.acc, m.ppv, m.tpr, m.tnr,
                m.npv);
    if (m.acc >= r_off.wsvm.mean.acc) ++aligned_wins;
    std::fflush(stdout);
  }
  std::printf(
      "\nshape check: aligned WSVM >= unaligned WSVM on %zu/%zu "
      "source-trojan datasets\n",
      aligned_wins, std::size(kDatasets));
  return 0;
}
