#include "sim/executor.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "util/check.h"

namespace leaps::sim {

namespace {

/// One simulated thread of execution. Frames may span two programs (the
/// offline-infection detour pushes payload frames on top of benign ones).
class Walker {
 public:
  struct FrameRef {
    const Program* prog;
    std::size_t fn;
  };

  struct Detour {
    std::size_t app_function;  // detoured function in the root program
    const Program* target_prog;
    std::size_t target_fn;
    double probability;
  };

  Walker(const Program* root, const BehaviorTable* behavior,
         const ExecConfig* config, std::uint32_t tid,
         std::vector<std::uint64_t> base_frames, util::Rng rng)
      : behavior_(behavior),
        config_(config),
        tid_(tid),
        base_frames_(std::move(base_frames)),
        rng_(rng),
        root_(root) {
    stack_.push_back({root, root->entry});
  }

  void set_detour(Detour d) { detour_ = d; }

  /// Re-roots the walk at `fn` (a thread started at an arbitrary entry).
  void jump_to(std::size_t fn) {
    stack_.clear();
    stack_.push_back({root_, fn});
  }

  /// True if any live frame belongs to `prog` (queried right after
  /// next_event to attribute the event).
  bool stack_contains(const Program* prog) const {
    return std::any_of(stack_.begin(), stack_.end(),
                       [prog](const FrameRef& f) { return f.prog == prog; });
  }

  /// True if any live frame's function index satisfies `mask` (used for
  /// source trojans, where benign and payload code share one program).
  bool stack_matches(const std::vector<bool>& mask) const {
    return std::any_of(stack_.begin(), stack_.end(),
                       [&mask](const FrameRef& f) { return mask[f.fn]; });
  }

  /// Steps the walk until an event fires; returns it (seq left to caller).
  trace::RawEvent next_event() {
    if (burst_remaining_ > 0) {
      --burst_remaining_;
      return burst_event_;
    }
    // The walk always reaches a function with actions: leaves always have
    // actions (see build_program) and pops/pushes keep the walk moving. The
    // iteration bound is a safety net against malformed programs.
    for (int step = 0; step < 100000; ++step) {
      if (auto event = try_step()) return *std::move(event);
    }
    throw std::logic_error("Walker: no event after 100000 steps in " +
                           stack_.front().prog->name);
  }

 private:
  std::optional<trace::RawEvent> try_step() {
    const FrameRef frame = stack_.back();
    const ProgramFunction& fn = frame.prog->functions[frame.fn];

    // Offline-infection detour: hijack control flow into the payload. The
    // implant runs its setup *once* (spawning the persistent backdoor
    // thread) and then "the trojaned program returns back to the normal
    // control flow of the benign application" — so the detour disarms after
    // the first excursion.
    const bool in_detour_target =
        detour_.has_value() &&
        std::any_of(stack_.begin(), stack_.end(), [this](const FrameRef& f) {
          return f.prog == detour_->target_prog &&
                 f.fn == detour_->target_fn;
        });
    if (detour_.has_value() && !in_detour_target &&
        frame.fn == detour_->app_function &&
        stack_.size() < config_->max_stack_depth &&
        rng_.next_bool(detour_->probability)) {
      stack_.push_back({detour_->target_prog, detour_->target_fn});
      detour_.reset();
      return std::nullopt;
    }

    const bool can_push =
        !fn.callees.empty() && stack_.size() < config_->max_stack_depth;
    const bool can_pop = stack_.size() > 1;
    const bool can_emit = !fn.actions.empty();

    double wp = can_push ? config_->push_weight : 0.0;
    double wo = can_pop ? config_->pop_weight : 0.0;
    double we = can_emit ? config_->emit_weight : 0.0;
    if (wp + wo + we == 0.0) {
      // Isolated entry function with no actions: restart the walk.
      stack_.resize(1);
      stack_[0].fn = stack_[0].prog->entry;
      return std::nullopt;
    }
    const double r = rng_.next_double() * (wp + wo + we);
    if (r < wp) {
      const auto idx =
          static_cast<std::size_t>(rng_.next_below(fn.callees.size()));
      stack_.push_back({frame.prog, fn.callees[idx]});
      return std::nullopt;
    }
    if (r < wp + wo) {
      stack_.pop_back();
      return std::nullopt;
    }
    return emit(fn, frame.prog->chain_style);
  }

  trace::RawEvent emit(const ProgramFunction& fn, ChainStyle style) {
    const auto action_idx =
        static_cast<std::size_t>(rng_.next_below(fn.actions.size()));
    const auto& variants =
        behavior_->variants(fn.actions[action_idx], style);
    const auto variant_idx =
        static_cast<std::size_t>(rng_.next_below(variants.size()));
    const ResolvedVariant& v = variants[variant_idx];

    trace::RawEvent e;
    e.tid = tid_;
    e.type = v.event_type;
    // Innermost first: system frames, then app frames (innermost app frame =
    // deepest call), then the thread bootstrap frames.
    e.stack = v.frame_addresses;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      e.stack.push_back(it->prog->functions[it->fn].address);
    }
    e.stack.insert(e.stack.end(), base_frames_.begin(), base_frames_.end());

    // Geometric burst: the same interaction repeats (a read loop, a paint
    // storm, a send of a large buffer) with an identical stack walk.
    burst_remaining_ = 0;
    while (burst_remaining_ < config_->burst_cap &&
           rng_.next_bool(config_->burst_continue_prob)) {
      ++burst_remaining_;
    }
    if (burst_remaining_ > 0) burst_event_ = e;
    return e;
  }

  const BehaviorTable* behavior_;
  const ExecConfig* config_;
  std::uint32_t tid_;
  std::vector<std::uint64_t> base_frames_;
  util::Rng rng_;
  const Program* root_;
  std::vector<FrameRef> stack_;
  std::optional<Detour> detour_;
  trace::RawEvent burst_event_;
  std::size_t burst_remaining_ = 0;
};

/// Fills `out` with `num_events` events of an infected process. From the
/// activation point on, Markov phase switching alternates attack sessions
/// with quiet periods; inside a session each event comes from the payload
/// walker with probability attack_intensity. `in_payload(walker)`, asked
/// right after the walker emitted, marks the other malicious events
/// (detour excursions make some tid-1 events malicious too).
template <typename InPayload>
void run_attack_sessions(const ExecConfig& config, Walker& app_walker,
                         Walker& payload_walker, std::size_t num_events,
                         util::Rng& rng, InPayload in_payload,
                         Executor::MixedRun& out) {
  const auto activation = static_cast<std::size_t>(
      config.activation_point * static_cast<double>(num_events));
  // With attack fraction f = payload_ratio / attack_intensity, the expected
  // benign-phase length that yields that duty cycle is
  // attack_mean * (1 - f) / f.
  const double f_attack =
      std::min(0.95, config.payload_ratio / config.attack_intensity);
  const double attack_mean = std::max(1.0, config.attack_phase_mean_events);
  const double benign_mean =
      std::max(1.0, attack_mean * (1.0 - f_attack) / f_attack);
  const double p_leave_attack = 1.0 / attack_mean;
  const double p_enter_attack = 1.0 / benign_mean;
  bool in_attack = false;

  out.log.events.reserve(num_events);
  out.is_malicious.reserve(num_events);
  for (std::size_t seq = 0; seq < num_events; ++seq) {
    if (seq >= activation) {
      if (in_attack) {
        if (rng.next_bool(p_leave_attack)) in_attack = false;
      } else {
        if (rng.next_bool(p_enter_attack)) in_attack = true;
      }
    }
    const bool from_payload = seq >= activation && in_attack &&
                              rng.next_bool(config.attack_intensity);
    Walker& walker = from_payload ? payload_walker : app_walker;
    trace::RawEvent e = walker.next_event();
    e.seq = seq;
    out.log.events.push_back(std::move(e));
    out.is_malicious.push_back(from_payload || in_payload(walker));
  }
}

}  // namespace

Executor::Executor(const LibraryRegistry& registry, ExecConfig config)
    : registry_(registry),
      config_(config),
      behavior_(registry),
      base_thread_init_(
          registry.address_of("kernel32.dll", "BaseThreadInitThunk")),
      user_thread_start_(
          registry.address_of("ntdll.dll", "RtlUserThreadStart")) {
  LEAPS_CHECK_MSG(config_.max_stack_depth >= 3, "max_stack_depth too small");
  LEAPS_CHECK_MSG(config_.payload_ratio > 0.0 && config_.payload_ratio < 1.0,
                  "payload_ratio must be in (0,1)");
}

trace::RawLog Executor::run_benign(const Program& app, std::size_t num_events,
                                   util::Rng rng) const {
  trace::RawLog log;
  log.process_name = app.name;
  log.modules.push_back({app.image_base, app.image_size, app.name});
  registry_.append_records(log);

  Walker walker(&app, &behavior_, &config_, /*tid=*/1,
                {base_thread_init_, user_thread_start_}, rng.fork(1));
  log.events.reserve(num_events);
  for (std::size_t seq = 0; seq < num_events; ++seq) {
    trace::RawEvent e = walker.next_event();
    e.seq = seq;
    log.events.push_back(std::move(e));
  }
  return log;
}

Executor::MixedRun Executor::run_infected_with_truth(
    const InfectedProcess& proc, std::size_t num_events, util::Rng rng) const {
  MixedRun out;
  trace::RawLog& log = out.log;
  log.process_name = proc.app.name;
  log.modules.push_back(
      {proc.app.image_base, proc.image_record_size, proc.app.name});
  registry_.append_records(log);

  Walker app_walker(&proc.app, &behavior_, &config_, /*tid=*/1,
                    {base_thread_init_, user_thread_start_}, rng.fork(1));
  if (proc.method == AttackMethod::kOfflineInfection) {
    app_walker.set_detour({proc.detour_function, &proc.payload,
                           proc.payload.entry, config_.detour_prob});
  }
  // The persistent backdoor thread: started by the implant (offline) or by
  // the remote CreateRemoteThread (online). Remote threads begin at
  // RtlUserThreadStart directly.
  Walker payload_walker(&proc.payload, &behavior_, &config_, /*tid=*/2,
                        {user_thread_start_}, rng.fork(2));

  run_attack_sessions(config_, app_walker, payload_walker, num_events, rng,
                      [&proc](const Walker& w) {
                        return w.stack_contains(&proc.payload);
                      },
                      out);
  return out;
}

Executor::MixedRun Executor::run_source_trojan(const SourceTrojan& trojan,
                                               std::size_t num_events,
                                               util::Rng rng) const {
  MixedRun out;
  trace::RawLog& log = out.log;
  log.process_name = trojan.merged.name;
  log.modules.push_back(
      {trojan.merged.image_base, trojan.merged.image_size,
       trojan.merged.name});
  registry_.append_records(log);

  Walker app_walker(&trojan.merged, &behavior_, &config_, /*tid=*/1,
                    {base_thread_init_, user_thread_start_}, rng.fork(1));
  app_walker.set_detour({trojan.detour_function, &trojan.merged,
                         trojan.payload_entry, config_.detour_prob});
  Walker payload_walker(&trojan.merged, &behavior_, &config_, /*tid=*/2,
                        {user_thread_start_}, rng.fork(2));
  payload_walker.jump_to(trojan.payload_entry);
  run_attack_sessions(config_, app_walker, payload_walker, num_events, rng,
                      [&trojan](const Walker& w) {
                        return w.stack_matches(trojan.is_payload_fn);
                      },
                      out);
  return out;
}

Executor::CampaignRun Executor::run_campaign(
    const Program& app, const std::vector<CampaignStagePlan>& stages,
    std::size_t num_events, util::Rng rng) const {
  LEAPS_CHECK_MSG(!stages.empty(), "campaign needs at least one stage");
  CampaignRun out;
  trace::RawLog& log = out.log;
  log.process_name = app.name;
  // Stage payloads live in far private allocations with no image record
  // (online-injection style): their frames resolve to no module and land
  // on the application stack trace, visible to CFG inference.
  log.modules.push_back({app.image_base, app.image_size, app.name});
  registry_.append_records(log);

  Walker app_walker(&app, &behavior_, &config_, /*tid=*/1,
                    {base_thread_init_, user_thread_start_}, rng.fork(1));
  std::vector<Walker> stage_walkers;
  stage_walkers.reserve(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    LEAPS_CHECK_MSG(stages[s].payload != nullptr, "stage without payload");
    LEAPS_CHECK_MSG(stages[s].begin <= stages[s].end, "inverted dwell window");
    LEAPS_CHECK_MSG(s == 0 || stages[s - 1].end <= stages[s].begin,
                    "overlapping dwell windows");
    // Remote/implant threads begin at RtlUserThreadStart directly.
    stage_walkers.emplace_back(stages[s].payload, &behavior_, &config_,
                               /*tid=*/static_cast<std::uint32_t>(2 + s),
                               std::vector<std::uint64_t>{user_thread_start_},
                               rng.fork(2 + s));
  }

  // Markov attack sessions, re-armed per stage: the adversary works each
  // stage's tooling in bursts inside its dwell window, then goes quiet
  // until the next stage opens.
  const double attack_mean = std::max(1.0, config_.attack_phase_mean_events);
  bool in_attack = false;
  std::size_t active_stage = stages.size();  // sentinel: none

  log.events.reserve(num_events);
  out.is_malicious.reserve(num_events);
  out.stage_of_event.reserve(num_events);
  for (std::size_t seq = 0; seq < num_events; ++seq) {
    std::size_t stage = stages.size();
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (seq >= stages[s].begin && seq < stages[s].end) {
        stage = s;
        break;
      }
    }
    if (stage != active_stage) {
      in_attack = false;  // dwell boundary closes any open session
      active_stage = stage;
    }
    bool from_payload = false;
    if (stage < stages.size()) {
      const double intensity =
          std::clamp(stages[stage].intensity, 0.05, 1.0);
      const double f_attack =
          std::min(0.95, config_.payload_ratio / intensity);
      const double benign_mean =
          std::max(1.0, attack_mean * (1.0 - f_attack) / f_attack);
      if (in_attack) {
        if (rng.next_bool(1.0 / attack_mean)) in_attack = false;
      } else {
        if (rng.next_bool(1.0 / benign_mean)) in_attack = true;
      }
      from_payload = in_attack && rng.next_bool(intensity);
    }
    Walker& walker =
        from_payload ? stage_walkers[stage] : app_walker;
    trace::RawEvent e = walker.next_event();
    e.seq = seq;
    log.events.push_back(std::move(e));
    out.is_malicious.push_back(from_payload);
    out.stage_of_event.push_back(
        from_payload ? static_cast<int>(stage) : -1);
  }
  return out;
}

trace::RawLog Executor::run_payload_standalone(const Program& payload,
                                               std::size_t num_events,
                                               util::Rng rng) const {
  trace::RawLog log;
  log.process_name = payload.name + ".exe";
  log.modules.push_back(
      {payload.image_base, payload.image_size, log.process_name});
  registry_.append_records(log);

  // The payload's entry thread immediately spawns its worker/communication
  // thread (Meterpreter-style); the traced activity runs there, so its
  // walks unwind to RtlUserThreadStart like the injected backdoor thread.
  Walker walker(&payload, &behavior_, &config_, /*tid=*/2,
                {user_thread_start_}, rng.fork(1));
  log.events.reserve(num_events);
  for (std::size_t seq = 0; seq < num_events; ++seq) {
    trace::RawEvent e = walker.next_event();
    e.seq = seq;
    log.events.push_back(std::move(e));
  }
  return log;
}

}  // namespace leaps::sim
