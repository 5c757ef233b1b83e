#include "online/manager.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/fault.h"

namespace leaps::online {

namespace {

std::shared_ptr<const core::Detector> required_detector(
    serve::DetectionServer* server, const std::string& profile) {
  LEAPS_CHECK_MSG(server != nullptr, "online manager needs a server");
  std::shared_ptr<const core::Detector> d =
      server->registry().find(profile);
  LEAPS_CHECK_MSG(d != nullptr,
                  "online manager: profile not registered: " + profile);
  return d;
}

cfg::AddressGraph seed_cfg(const core::Detector& detector) {
  const core::ContinualState* state = detector.continual();
  return state != nullptr ? state->benign_cfg : cfg::AddressGraph{};
}

}  // namespace

OnlineManager::OnlineManager(serve::DetectionServer* server,
                             OnlineOptions options)
    : server_(server),
      options_(std::move(options)),
      accumulator_(seed_cfg(*required_detector(server, options_.profile)),
                   options_.accumulator),
      drift_(options_.drift) {}

void OnlineManager::install() {
  server_->add_window_tap(
      [this](const serve::SessionKey& key, std::size_t /*window_index*/,
             int label, double decision_value,
             const trace::PartitionedEvent* events, std::size_t count) {
        // Another profile's windows are another model's verdicts: they
        // belong in neither this profile's CFG nor its drift test. A
        // window whose session has already closed is kept.
        if (const std::shared_ptr<serve::Session> session =
                server_->sessions().find(key);
            session != nullptr && session->profile() != options_.profile) {
          return;
        }
        // Drift watches every verdict (the malicious tail is exactly what
        // a shifted distribution moves), so it runs before the learnable
        // filter. The fence keeps the observe and its buffered journal
        // sample one atom against poll flushes and checkpoint captures.
        if (options_.drift.enabled) {
          const std::lock_guard<std::mutex> tap_lock(tap_mu_);
          drift_.observe(decision_value, label);
          if (options_.durable != nullptr) {
            drift_buffer_.push_back(
                durable::DriftSample{decision_value, label});
          }
        }
        if (!learnable(label)) return;
        if (options_.durable == nullptr) {
          accumulator_.observe_window(events, count);
          return;
        }
        // Journal before observing: once the accumulator has the window a
        // crash must be able to get it back. Replay re-runs admission, so
        // journaling pre-admission stays idempotent. The fence makes the
        // pair atomic against checkpoint capture→truncate and the retrain
        // drain — otherwise a window could land in the truncated journal
        // gap, or be cleared by a drain boundary it was never part of.
        const std::lock_guard<std::mutex> tap_lock(tap_mu_);
        const util::Status status =
            options_.durable->journal_window(events, count);
        if (!status.ok()) note_durable_failure(status);
        accumulator_.observe_window(events, count);
      });
}

void OnlineManager::stop() {
  // poll_mu_ makes shutdown wait out any poll_once still in flight — a
  // stop() racing a poll step must not lose admitted windows or
  // double-conclude the shadow.
  const std::lock_guard<std::mutex> poll_lock(poll_mu_);
  // Conclude a shadow still in flight by its evidence so far: promotion
  // still requires an affirmative gate pass, anything else rolls back.
  std::shared_ptr<ShadowEvaluator> evaluator;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    evaluator = evaluator_;
  }
  if (evaluator != nullptr) {
    conclude_shadow(evaluator->decision() == RolloverDecision::kPromote);
  }
  // Clean shutdown leaves nothing for the journal replay to do.
  if (options_.durable != nullptr) do_checkpoint();
}

void OnlineManager::poll_once() {
  const std::lock_guard<std::mutex> poll_lock(poll_mu_);
  if (options_.drift.enabled) poll_drift();

  std::shared_ptr<ShadowEvaluator> evaluator;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    evaluator = evaluator_;
  }
  if (evaluator != nullptr) {
    const RolloverDecision decision = evaluator->decision();
    if (decision != RolloverDecision::kUndecided) {
      conclude_shadow(decision == RolloverDecision::kPromote);
    }
    return;
  }
  maybe_retrain();
  if (options_.durable != nullptr && options_.durable->should_checkpoint()) {
    do_checkpoint();
  }
}

void OnlineManager::poll_drift() {
  // Flush the buffered drift samples as one journal record before
  // evaluating: the trigger decision below must be reproducible from the
  // journal alone (the drill's crash point sits between flush and the
  // trigger append).
  if (options_.durable != nullptr) {
    const std::lock_guard<std::mutex> tap_lock(tap_mu_);
    flush_drift_locked();
  }
  const std::uint64_t triggers_before = drift_.status().triggers;
  drift_.evaluate();
  const DriftStatus ds = drift_.status();
  if (options_.durable != nullptr && ds.triggers > triggers_before) {
    // Fault point for the kill-restart drill: dying here leaves the
    // flushed samples but no trigger record — recovery re-observes them,
    // re-evaluates, and must re-fire at the same LSN.
    LEAPS_FAULT_POINT("online.drift.pre_trigger");
    std::uint64_t lsn = 0;
    const util::Status status = options_.durable->journal_drift_trigger(
        ds.generation, ds.p_value, &lsn);
    if (!status.ok()) {
      note_durable_failure(status);
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      last_drift_trigger_lsn_ = lsn;
    }
  }
}

void OnlineManager::flush_drift_locked() {
  if (drift_buffer_.empty() || options_.durable == nullptr) return;
  const util::Status status = options_.durable->journal_drift_batch(
      drift_buffer_.data(), drift_buffer_.size());
  if (!status.ok()) note_durable_failure(status);
  drift_buffer_.clear();
}

void OnlineManager::maybe_retrain() {
  // The registry's active detector is the incumbent: a promotion publishes
  // the candidate there, so the next cycle grows from it.
  const std::shared_ptr<const core::Detector> incumbent =
      server_->registry().find(options_.profile);
  if (incumbent == nullptr) return;  // the registry never drops a profile
  const bool volume_due =
      incumbent->continual() != nullptr &&
      accumulator_.events_since_drain() >= options_.retrain.min_new_events;
  const bool drift_due = options_.drift.enabled && drift_.trigger_pending();
  if (!volume_due && !drift_due) return;
  if (drift_due) {
    drift_.consume_trigger();
    const std::lock_guard<std::mutex> lock(mu_);
    ++drift_retrains_;
  }
  LEAPS_SPAN("online.cycle");
  // Drain under the tap fence and capture the journal high-water mark at
  // the same instant: every window journaled at or below drain_lsn is
  // provably in `drained` (the fence keeps journal→observe atomic), and
  // every window journaled later is untouched by this cycle. Training
  // runs outside the fence — workers keep serving while the SMO solves.
  std::vector<PendingWindow> drained;
  std::uint64_t drain_lsn = 0;
  {
    const std::lock_guard<std::mutex> tap_lock(tap_mu_);
    drained = accumulator_.drain_windows();
    if (options_.durable != nullptr) {
      drain_lsn = options_.durable->last_lsn();
    }
  }
  const RetrainResult result =
      retrain(*incumbent, std::move(drained), accumulator_, options_.retrain);
  // The retrain consumed every window up to the drain boundary; the
  // journal record makes replay stop treating exactly those as pending.
  // Journaled only now, after the fit: a crash mid-training leaves no
  // drain record, so the drained windows replay as pending and the cycle
  // simply reruns — nothing is lost either way.
  if (options_.durable != nullptr) {
    const util::Status status = options_.durable->journal_retrain(
        drain_lsn, result.candidate != nullptr, result.new_samples,
        result.error);
    if (!status.ok()) note_durable_failure(status);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (result.candidate == nullptr) {
      ++retrain_failures_;
      last_error_ = result.error;
      return;
    }
    ++retrain_cycles_;
  }
  auto evaluator = std::make_shared<ShadowEvaluator>(options_.gates);
  serve::ShadowSink sink =
      [evaluator](const serve::SessionKey& key, int active_label,
                  int shadow_label, std::uint64_t active_ns,
                  std::uint64_t shadow_ns) {
        evaluator->record(key, active_label, shadow_label, active_ns,
                          shadow_ns);
      };
  if (!server_->begin_shadow(options_.profile, result.candidate,
                             std::move(sink))) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++retrain_failures_;
    last_error_ = "begin_shadow refused (profile gone or already shadowing)";
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  warm_saved_ += result.iterations_saved;
  last_warm_ = result.warm_iterations;
  last_cold_ = result.cold_iterations;
  evaluator_ = std::move(evaluator);
}

void OnlineManager::conclude_shadow(bool promote) {
  std::shared_ptr<ShadowEvaluator> evaluator;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    evaluator = evaluator_;
  }
  if (evaluator == nullptr) return;
  // The candidate this evaluator judged: staged by maybe_retrain, and only
  // a poll_mu_ holder ends the shadow.
  const std::shared_ptr<const core::Detector> candidate =
      server_->registry().shadow_candidate(options_.profile);
  // end_shadow retakes every session mutex to detach — this is why the
  // decision is acted on here (a poll step) and never in the sink. A
  // rollback drops the candidate.
  server_->end_shadow(options_.profile, promote);
  // A promoted model has a new "normal": reset the drift reference so the
  // monitor re-learns the new generation's decision-value distribution.
  if (promote && options_.drift.enabled) drift_.advance_generation();
  // Journal a promotion with the candidate's full bytes: a crash after
  // this append recovers the exact promoted detector even if the
  // checkpoint below never lands. A rollback journals nothing — the
  // incumbent is untouched and the retrain record already consumed the
  // drained windows, so recovery has nothing to rebuild.
  if (promote && options_.durable != nullptr && candidate != nullptr) {
    const util::Status status =
        options_.durable->journal_promotion(*candidate);
    if (!status.ok()) note_durable_failure(status);
  }
  {
    // Read after end_shadow detached every sink, and folded in the step
    // that drops the evaluator: report() never counts a pair twice.
    const DiffStats final_stats = evaluator->stats();
    const std::lock_guard<std::mutex> lock(mu_);
    last_shadow_ = final_stats;
    shadow_windows_ += final_stats.compared;
    shadow_disagreements_ += final_stats.disagreements;
    if (promote) {
      ++promotions_;
    } else {
      ++rollbacks_;
    }
    evaluator_.reset();
  }
  // A promotion is the most valuable state there is; fold it immediately.
  if (options_.durable != nullptr && promote) do_checkpoint();
}

void OnlineManager::do_checkpoint() {
  // Block taps for the whole capture→snapshot→truncate sequence: a window
  // journaled and observed after pending_snapshot() but before the store's
  // truncate would end up in neither the snapshot nor the journal. The
  // store's own mutex cannot close that window — it cannot see the
  // accumulator — so the fence lives here.
  const std::lock_guard<std::mutex> tap_lock(tap_mu_);
  // Land the buffered drift samples in the journal first so a failed
  // checkpoint leaves them recoverable; a successful one folds the full
  // monitor state into the DRIFT blob and truncates them away.
  if (options_.drift.enabled) flush_drift_locked();
  durable::CheckpointState state;
  if (options_.drift.enabled) state.drift = drift_.serialize();
  state.detector = server_->registry().find(options_.profile);
  if (state.detector == nullptr) {
    note_durable_failure(util::not_found(
        "checkpoint: profile gone from registry: " + options_.profile));
    return;
  }
  for (PendingWindow& w : accumulator_.pending_snapshot()) {
    state.pending_windows.push_back(durable::DurableWindow{std::move(w.events)});
  }
  // Terminal-state capture: events still in flight at a crash never reach
  // a terminal counter, so ingested is folded as the sum — that keeps the
  // ingested == processed + dropped + quarantined identity true across
  // the restart boundary instead of off by the in-queue count.
  const serve::ServerMetrics& sm = server_->metrics();
  state.accounting.processed =
      sm.events_processed.load(std::memory_order_relaxed);
  state.accounting.dropped = sm.events_dropped.load(std::memory_order_relaxed);
  state.accounting.quarantined =
      sm.events_quarantined.load(std::memory_order_relaxed);
  state.accounting.ingested = state.accounting.processed +
                              state.accounting.dropped +
                              state.accounting.quarantined;
  const util::Status status = options_.durable->checkpoint(state);
  if (!status.ok()) note_durable_failure(status);
}

void OnlineManager::restore(const durable::RecoveredState& recovered) {
  const std::lock_guard<std::mutex> poll_lock(poll_mu_);
  server_->metrics().restore_baseline(
      recovered.accounting.ingested, recovered.accounting.processed,
      recovered.accounting.dropped, recovered.accounting.quarantined);
  for (const durable::DurableWindow& window : recovered.pending_windows) {
    accumulator_.observe_window(window.events.data(), window.events.size());
  }
  if (options_.drift.enabled) {
    // Snapshot state first, then the journaled tail in order: observes
    // rebuild the windows value by value (the monitor is a pure function
    // of its observation sequence), a trigger record re-latches, and a
    // retrain record marks where a pending trigger was consumed.
    if (!recovered.drift.empty()) {
      const util::Status status = drift_.deserialize(recovered.drift);
      if (!status.ok()) note_durable_failure(status);
    }
    for (const durable::DriftReplayOp& op : recovered.drift_ops) {
      switch (op.kind) {
        case durable::DriftReplayOp::Kind::kObserve:
          drift_.observe(op.value, op.label);
          break;
        case durable::DriftReplayOp::Kind::kTrigger:
          drift_.restore_trigger();
          break;
        case durable::DriftReplayOp::Kind::kRetrain:
          if (drift_.trigger_pending()) drift_.consume_trigger();
          break;
      }
    }
  }
  // Fold the replayed state into a fresh snapshot immediately: a crash
  // right after restart must recover to this same point, not re-replay a
  // journal that was just truncated.
  if (options_.durable != nullptr) do_checkpoint();
}

void OnlineManager::note_durable_failure(const util::Status& status) {
  const std::lock_guard<std::mutex> lock(mu_);
  last_error_ = "durable: " + status.to_string();
}

OnlineReport OnlineManager::report() const {
  OnlineReport r;
  r.accumulator = accumulator_.stats();
  r.drift = drift_.status();
  const std::lock_guard<std::mutex> lock(mu_);
  r.retrain_cycles = retrain_cycles_;
  r.last_drift_trigger_lsn = last_drift_trigger_lsn_;
  r.drift_retrains = drift_retrains_;
  r.phase = evaluator_ != nullptr ? "shadowing" : "accumulating";
  r.retrain_failures = retrain_failures_;
  r.warm_iterations_saved = warm_saved_;
  r.last_warm_iterations = last_warm_;
  r.last_cold_iterations = last_cold_;
  r.promotions = promotions_;
  r.rollbacks = rollbacks_;
  r.shadow = evaluator_ != nullptr ? evaluator_->stats() : last_shadow_;
  r.shadow_windows = shadow_windows_;
  r.shadow_disagreements = shadow_disagreements_;
  if (evaluator_ != nullptr) {
    r.shadow_windows += r.shadow.compared;
    r.shadow_disagreements += r.shadow.disagreements;
  }
  r.last_error = last_error_;
  return r;
}

obs::MetricRegistry::Registration OnlineManager::register_with(
    obs::MetricRegistry& registry) const {
  return registry.register_collector(
      [this](std::vector<obs::MetricSample>& out) {
        for (const OnlineScalar& s : report().scalars()) {
          if (s.name == nullptr) continue;
          out.push_back(s.type == obs::MetricType::kCounter
                            ? obs::counter_sample(s.name, s.help, s.value)
                            : obs::gauge_sample(
                                  s.name, s.help,
                                  static_cast<std::int64_t>(s.value)));
        }
      });
}

std::vector<OnlineScalar> OnlineReport::scalars() const {
  const OnlineReport& r = *this;
#define LEAPS_ONLINE_COUNTER(key, name, help, value) \
  {key, name, help, obs::MetricType::kCounter, value},
#define LEAPS_ONLINE_GAUGE(key, name, help, value) \
  {key, name, help, obs::MetricType::kGauge, value},
#define LEAPS_ONLINE_VALUE(key, value) \
  {key, nullptr, "", obs::MetricType::kCounter, value},
  return {LEAPS_ONLINE_METRICS(LEAPS_ONLINE_COUNTER, LEAPS_ONLINE_GAUGE,
                               LEAPS_ONLINE_VALUE)};
#undef LEAPS_ONLINE_COUNTER
#undef LEAPS_ONLINE_GAUGE
#undef LEAPS_ONLINE_VALUE
}

std::string OnlineReport::to_text() const {
  std::string out = "phase=" + phase;
  for (const OnlineScalar& s : scalars()) {
    out += " ";
    out += s.key;
    out += '=';
    out += std::to_string(s.value);
  }
  return out;
}

}  // namespace leaps::online
