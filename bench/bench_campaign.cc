// Campaign-scenario table: WSVM detection quality on the multi-stage APT
// datasets plus the attribution margin — the score gap between the
// campaign's ground-truth signature and its best permuted decoy when the
// pure-attack trace is matched against the three-signature library.
#include <cstdio>
#include <string>
#include <vector>

#include "attrib/matcher.h"
#include "attrib/signature.h"
#include "bench_common.h"
#include "sim/campaign.h"
#include "trace/partition.h"

namespace {

struct AttributionRow {
  std::string rank1;
  double score = 0.0;
  double margin = 0.0;  // rank-1 score minus best decoy score
};

AttributionRow attribution_row(const leaps::sim::CampaignSpec& spec,
                               const leaps::sim::CampaignLogs& logs) {
  using namespace leaps;
  const trace::PartitionedLog mal = trace::partition_raw(logs.malicious);

  std::vector<attrib::WindowEvidence> flagged;
  constexpr std::size_t kWindow = 10;
  for (std::size_t i = 0; i + kWindow <= mal.events.size(); i += kWindow) {
    flagged.push_back(attrib::evidence_from_events(
        flagged.size(), -1.0, mal.events.data() + i, kWindow));
  }

  attrib::SignatureLibrary lib;
  const attrib::CampaignSignature sig = attrib::signature_from_campaign(spec);
  lib.add(sig);
  for (attrib::CampaignSignature& d : attrib::decoy_signatures(sig)) {
    lib.add(std::move(d));
  }
  const std::vector<attrib::AttributionVerdict> ranked =
      attrib::attribute(lib, flagged);

  AttributionRow row;
  if (!ranked.empty()) {
    row.rank1 = ranked[0].signature;
    row.score = ranked[0].score;
    for (const attrib::AttributionVerdict& v : ranked) {
      if (v.signature == spec.name) continue;
      row.margin = ranked[0].score - v.score;
      break;  // ranked descending: the first non-true signature is the
              // best decoy
    }
  }
  return row;
}

}  // namespace

int main() {
  using namespace leaps;

  const core::ExperimentOptions opt = bench::options_from_env();
  bench::print_banner("Campaign scenarios (multi-stage APT + attribution)",
                      opt);
  const core::ExperimentRunner runner(opt);

  std::printf("%-26s%7s%7s%7s%7s  %-26s%8s%8s\n", "Campaign", "ACC", "PPV",
              "TPR", "TNR", "Rank-1 signature", "score", "margin");
  std::FILE* csv = bench::open_csv(
      "campaign.csv",
      "campaign,lotl,acc,ppv,tpr,tnr,npv,auc,rank1,rank1_score,decoy_margin");
  for (const sim::CampaignSpec& spec : sim::campaign_catalog()) {
    const sim::CampaignLogs campaign =
        sim::generate_campaign(spec, opt.sim);
    sim::ScenarioLogs logs;
    logs.spec.name = spec.name;
    logs.spec.app = spec.app;
    logs.benign = campaign.benign;
    logs.mixed = campaign.mixed;
    logs.malicious = campaign.malicious;
    logs.mixed_truth = campaign.mixed_truth;
    const core::ExperimentResult r = runner.run_on_logs(logs);
    const ml::Measurements& m = r.wsvm.mean;

    const AttributionRow a = attribution_row(spec, campaign);
    const bool correct = a.rank1 == spec.name;
    std::printf("%-26s%7.3f%7.3f%7.3f%7.3f  %-26s%8.3f%8.3f%s\n",
                spec.name.c_str(), m.acc, m.ppv, m.tpr, m.tnr,
                a.rank1.c_str(), a.score, a.margin,
                correct ? "" : "  (WRONG)");
    if (csv != nullptr) {
      std::fprintf(csv, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s,%.4f,%.4f\n",
                   spec.name.c_str(), spec.lotl ? 1 : 0, m.acc, m.ppv, m.tpr,
                   m.tnr, m.npv, r.wsvm.auc, a.rank1.c_str(), a.score,
                   a.margin);
    }
    std::fflush(stdout);
  }
  if (csv != nullptr) std::fclose(csv);
  return 0;
}
