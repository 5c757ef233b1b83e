// The serving workloads: serve_fleet and serve_churn.
//
// serve_fleet: 64 long-lived sessions of one putty detector, coalesce 1
//   (leaps-serve's default), 2 workers plus the generator thread. Every
//   token is interned during set-up, so the run pays the per-event shared
//   state of the hit path: the TokenTable's shared lock and counters, the
//   decision-value summary, the drain bookkeeping and one queue hand-off
//   per event.
// serve_churn: sessions of three profiles (putty, vim, winscp) are opened,
//   fed six windows and closed, continuously. Events come from many short
//   simulations with distinct seeds, enough that no event is sent twice,
//   so the token table keeps interning new stacks all through the run;
//   coalesce 8 leaves a partial stage for close_session to flush; a
//   FleetAttributor observes every window. It covers what fleet does not:
//   session open/close and slabs, registry lookups, intern misses, the
//   window-tap path and the memory interning retains.
//
// Both score the verdicts they serve: detect_tpr and detect_tnr count the
// measured windows against the simulator's truth for the log each session
// replays.
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>

#include "attrib/matcher.h"
#include "attrib/signature.h"
#include "bench.h"
#include "replay.h"
#include "sim/campaign.h"
#include "util/parallel.h"

namespace bench {

namespace {

using leaps::trace::PartitionedEvent;
using leaps::trace::PartitionedLog;

constexpr int kSetupReps = 5;
constexpr double kWarmSeconds = 0.5;
// (λ, σ²) the train_putty20k tune selects; serve detectors are fitted
// there directly, skipping the grid.
constexpr double kLambda = 100.0;
constexpr double kSigma2 = 32.0;
/// The measured prefix the interning probe replays.
constexpr std::size_t kProbeEvents = 200'000;

// Well below the capacity of the slowest host phase seen: the run must
// never build a backlog (README.md).
constexpr std::size_t kFleetSlots = 64;
constexpr double kFleetRate = 50'000.0;
constexpr std::size_t kFleetHeldOut = 16;  // instances replayed

constexpr std::size_t kChurnSlots = 64;
constexpr std::size_t kChurnSessionEvents = 60;  // six windows
constexpr std::size_t kChurnCoalesce = 8;
constexpr double kChurnRate = 20'000.0;
// Each pooled log holds this many sessions' events, sent once each.
constexpr std::size_t kChurnSessionsPerLog = 4;

}  // namespace

Report run_fleet(const Args& args) {
  Report report;
  leaps::util::Parallel::set_threads(kServeWorkers);
  struct Inputs {
    PartitionedLog train_benign, train_mixed;
    HeldOut held;
    FitResult fit;
  };
  std::unique_ptr<Inputs> in;
  std::vector<double> fit_s;
  const double setup_s = timed_setups(kSetupReps, [&] {
    in.reset();
    auto next = std::make_unique<Inputs>();
    const EncodedLogs train =
        simulate("putty_reverse_tcp", 20000, 15000, 1000, kTrainingSeed);
    next->train_benign = read_log(train.benign);
    next->train_mixed = read_log(train.mixed);
    next->held = simulate_held_out("putty_reverse_tcp", args.seed,
                                   kFleetHeldOut, 1000, 500);
    next->fit = fit_detector(next->train_benign, next->train_mixed, kLambda,
                             kSigma2);
    fit_s.push_back(next->fit.fit_s);
    warm_serving(*next->fit.detector, next->held);
    in = std::move(next);
  });
  report.e2e("setup_s", setup_s, "s");
  report.e2e("train_s", median(fit_s), "s");
  report.note("detector: " + std::to_string(in->fit.support_vectors) +
              " support vectors at lambda=100 sigma2=32");

  ReplayPlan plan;
  plan.slots = kFleetSlots;
  plan.rate = kFleetRate;
  plan.window = in->fit.detector->preprocessor().window();
  plan.size_phases(kWarmSeconds, args.seconds);
  plan.source = held_out_sessions(in->held, "putty");
  ServeConfig config;
  config.workers = kServeWorkers;
  config.coalesce = 1;
  config.profiles["putty"] = in->fit.detector;

  const ReplayResult r = replay_open_loop(plan, config, args.trace);
  summarize_replay(plan, r, replay_reference(plan, config),
                   stream_reference(plan, config), kServeWorkers, args.trace,
                   report);
  served_detection(plan, r.label).report(report);

  if (args.trace) {
    probe_training_layers(in->train_benign, in->train_mixed, kLambda,
                          kSigma2, report);
    probe_serving_layers(
        *in->fit.detector, in->held.benign[0], events_of(in->held),
        schedule_events(plan, plan.warm_events,
                        plan.warm_events +
                            std::min(plan.measured_events, kProbeEvents)),
        report);
  }
  return report;
}

Report run_churn(const Args& args) {
  Report report;
  leaps::util::Parallel::set_threads(kServeWorkers);
  struct Profile {
    const char* name;
    const char* scenario;
  };
  static constexpr Profile kProfiles[] = {{"putty", "putty_reverse_tcp"},
                                          {"vim", "vim_reverse_tcp"},
                                          {"winscp", "winscp_reverse_tcp"}};
  constexpr std::size_t kApps = std::size(kProfiles);
  struct Inputs {
    PartitionedLog train_benign, train_mixed;  // putty's, for the probes
    std::vector<FitResult> fits;  // per profile
    // Per profile: short runs of many differently seeded processes; each
    // brings new program layouts, hence new stacks to intern.
    std::vector<HeldOut> pool;
  };
  ReplayPlan plan;
  plan.slots = kChurnSlots;
  plan.events_per_session = kChurnSessionEvents;
  plan.rate = kChurnRate;
  plan.size_phases(kWarmSeconds, args.seconds);
  // Session p runs profile p % 3. Each profile's sessions take the pool's
  // logs in turn, benign and malicious alternately, kChurnSessionsPerLog
  // consecutive chunks of each, so every event is sent exactly once.
  const std::size_t log_events = kChurnSessionsPerLog * kChurnSessionEvents;
  const std::size_t per_profile = (plan.sessions() + kApps - 1) / kApps;
  const std::size_t per_instance = 2 * kChurnSessionsPerLog;
  const std::size_t instances =
      (per_profile + per_instance - 1) / per_instance;
  std::unique_ptr<Inputs> in;
  std::vector<double> fit_s;
  const double setup_s = timed_setups(kSetupReps, [&] {
    in.reset();
    auto next = std::make_unique<Inputs>();
    double fit_total = 0.0;
    for (const Profile& profile : kProfiles) {
      const EncodedLogs train =
          simulate(profile.scenario, 12000, 9000, 1000, kTrainingSeed);
      PartitionedLog benign = read_log(train.benign);
      PartitionedLog mixed = read_log(train.mixed);
      next->fits.push_back(fit_detector(benign, mixed, kLambda, kSigma2));
      fit_total += next->fits.back().fit_s;
      if (next->fits.size() == 1) {
        next->train_benign = std::move(benign);
        next->train_mixed = std::move(mixed);
      }
      next->pool.push_back(simulate_held_out(profile.scenario, args.seed,
                                             instances, log_events,
                                             log_events));
      for (const auto* logs :
           {&next->pool.back().benign, &next->pool.back().malicious}) {
        for (const PartitionedLog& log : *logs) {
          if (log.events.size() < log_events) {
            throw std::runtime_error("a pooled log is shorter than its " +
                                     std::to_string(kChurnSessionsPerLog) +
                                     " sessions");
          }
        }
      }
    }
    fit_s.push_back(fit_total);
    in = std::move(next);
  });
  report.e2e("setup_s", setup_s, "s");
  report.e2e("train_s", median(fit_s), "s");

  plan.window = in->fits[0].detector->preprocessor().window();
  plan.source = [&in](std::size_t p) {
    const HeldOut& pool = in->pool[p % kApps];
    const std::size_t q = p / kApps;
    const std::size_t k = q / (2 * kChurnSessionsPerLog);
    const std::size_t r = q % (2 * kChurnSessionsPerLog);
    const bool malicious = r % 2 == 1;
    const auto& events =
        malicious ? pool.malicious[k].events : pool.benign[k].events;
    return Source{kProfiles[p % kApps].name, &events,
                  (r / 2) * kChurnSessionEvents, malicious};
  };

  leaps::attrib::SignatureLibrary library;
  for (const leaps::sim::CampaignSpec& spec :
       leaps::sim::campaign_catalog()) {
    leaps::attrib::CampaignSignature sig =
        leaps::attrib::signature_from_campaign(spec);
    for (auto& decoy : leaps::attrib::decoy_signatures(sig)) {
      library.add(std::move(decoy));
    }
    library.add(std::move(sig));
  }
  leaps::attrib::FleetAttributor attributor(&library);

  ServeConfig config;
  config.workers = kServeWorkers;
  config.coalesce = kChurnCoalesce;
  for (std::size_t a = 0; a < kApps; ++a) {
    config.profiles[kProfiles[a].name] = in->fits[a].detector;
  }
  config.taps.push_back([&attributor](const leaps::serve::SessionKey& key,
                                      std::size_t window, int label,
                                      double decision,
                                      const PartitionedEvent* events,
                                      std::size_t count) {
    attributor.observe(key, window, label, decision, events, count);
  });

  const ReplayResult r = replay_open_loop(plan, config, args.trace);
  summarize_replay(plan, r, replay_reference(plan, config),
                   stream_reference(plan, config), kServeWorkers, args.trace,
                   report);
  report.note("attribution: " + std::to_string(attributor.sessions()) +
              " sessions with flagged windows, " +
              std::to_string(attributor.flagged_total()) + " flagged windows");
  served_detection(plan, r.label).report(report);

  if (args.trace) {
    const std::uint64_t t0 = now_ns();
    const auto snapshot = attributor.snapshot();
    report.layer("attrib.snapshot_ms",
                 static_cast<double>(now_ns() - t0) / 1e6, "ms");
    report.note("attribution snapshot: " + std::to_string(snapshot.size()) +
                " sessions ranked");
    probe_training_layers(in->train_benign, in->train_mixed, kLambda,
                          kSigma2, report);
    probe_serving_layers(
        *in->fits[0].detector, in->pool[0].benign[0],
        schedule_events(plan, 0, plan.warm_events),
        schedule_events(plan, plan.warm_events,
                        plan.warm_events +
                            std::min(plan.measured_events, kProbeEvents)),
        report);
  }
  return report;
}

}  // namespace bench
