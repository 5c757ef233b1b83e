// The stack-walking execution engine (the ETW-logger stand-in).
//
// A Walker simulates one thread: it random-walks a Program's call graph,
// maintaining an explicit call stack, and emits a raw event (with a full
// fabricated stack walk) whenever the current function performs one of its
// system interactions. The Executor composes walkers into whole-process
// traces:
//   * run_benign        — the clean application ("benign raw log"),
//   * run_infected_with_truth — benign + payload in one process context
//                         ("mixed raw log"; interleaving controlled by
//                         payload_ratio), with per-event ground truth,
//   * run_payload_standalone — the recompiled payload alone ("pure
//                         malicious samples", ground truth for testing).
#pragma once

#include <cstdint>

#include "sim/attack.h"
#include "sim/behavior.h"
#include "sim/library.h"
#include "sim/program.h"
#include "trace/raw_log.h"
#include "util/rng.h"

namespace leaps::sim {

struct ExecConfig {
  std::size_t max_stack_depth = 10;
  /// Relative weights of the walker's three moves when all are available.
  double push_weight = 1.0;
  double pop_weight = 0.8;
  double emit_weight = 1.1;
  /// Mixed logs: overall fraction of post-activation events that come from
  /// the payload thread.
  double payload_ratio = 0.50;
  /// Mixed logs: fraction of the trace after which the payload becomes
  /// active (the implant fires / the injection happens).
  double activation_point = 0.05;
  /// Attack traffic is phase-structured, not i.i.d.: the remote adversary
  /// works the backdoor in sessions. While an attack phase is open, this is
  /// the probability each event comes from the payload thread (the benign
  /// thread keeps running in the background); between phases the payload
  /// idles. Phase lengths are geometric; the benign-phase length is derived
  /// from payload_ratio so the overall mix still matches it.
  double attack_intensity = 0.90;
  double attack_phase_mean_events = 40.0;
  /// Offline infection: probability of taking the detour call when the
  /// walker sits in the detoured benign function.
  double detour_prob = 0.25;
  /// Burstiness: after emitting an event, the same action repeats with this
  /// probability (geometric run lengths — programs read/send/paint in
  /// bursts, which is what gives event windows their texture).
  double burst_continue_prob = 0.60;
  /// Hard cap on a burst's extra repetitions.
  std::size_t burst_cap = 8;
};

class Executor {
 public:
  Executor(const LibraryRegistry& registry, ExecConfig config);

  trace::RawLog run_benign(const Program& app, std::size_t num_events,
                           util::Rng rng) const;

  /// Mixed trace plus per-event ground truth (true = the event was emitted
  /// with payload code on the stack). The truth labels are *not* part of the
  /// log — a real tracer cannot know them; they exist for tests and
  /// diagnostics only.
  struct MixedRun {
    trace::RawLog log;
    std::vector<bool> is_malicious;
  };
  MixedRun run_infected_with_truth(const InfectedProcess& proc,
                                   std::size_t num_events,
                                   util::Rng rng) const;

  /// Mixed trace of a source-level trojan (Section VI-A threat): benign and
  /// payload code live in one recompiled image; the payload runs on its
  /// spawned worker thread after a one-shot detour, in attack sessions like
  /// run_infected_with_truth.
  MixedRun run_source_trojan(const SourceTrojan& trojan,
                             std::size_t num_events, util::Rng rng) const;

  /// The payload recompiled as an independent executable.
  trace::RawLog run_payload_standalone(const Program& payload,
                                       std::size_t num_events,
                                       util::Rng rng) const;

  /// One stage of a multi-stage campaign: a payload program (already
  /// relocated to its in-process address) active over the half-open event
  /// range [begin, end) — the stage's dwell window — with its own attack
  /// intensity. Ranges must be non-overlapping and ascending.
  struct CampaignStagePlan {
    const Program* payload = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    double intensity = 0.9;
  };

  /// Multi-stage mixed trace: the benign application runs throughout;
  /// each stage's payload thread (tid 2+stage) wakes only inside its dwell
  /// window, in Markov attack sessions like run_infected_with_truth.
  /// `stage_of_event` is −1 for benign events, else the emitting stage's
  /// index.
  struct CampaignRun {
    trace::RawLog log;
    std::vector<bool> is_malicious;
    std::vector<int> stage_of_event;
  };
  CampaignRun run_campaign(const Program& app,
                           const std::vector<CampaignStagePlan>& stages,
                           std::size_t num_events, util::Rng rng) const;

  const ExecConfig& config() const { return config_; }

 private:
  const LibraryRegistry& registry_;
  ExecConfig config_;
  BehaviorTable behavior_;
  std::uint64_t base_thread_init_;   // kernel32!BaseThreadInitThunk
  std::uint64_t user_thread_start_;  // ntdll!RtlUserThreadStart
};

}  // namespace leaps::sim
