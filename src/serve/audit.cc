#include "serve/audit.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>

#include "cfg/weight.h"
#include "ml/svm.h"
#include "obs/registry.h"
#include "trace/intern.h"

namespace leaps::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

AuditLog::AuditLog(AuditOptions options) : options_(std::move(options)) {}

AuditLog::~AuditLog() { stop(); }

util::Status AuditLog::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (started_) return util::ok_status();
  if (options_.path == "-") {
    out_ = &std::cout;
  } else {
    file_.open(options_.path, std::ios::out | std::ios::trunc);
    if (!file_.is_open()) {
      return util::unavailable("audit: cannot open '" + options_.path + "'");
    }
    out_ = &file_;
  }
  stop_ = false;
  started_ = true;
  writer_ = std::thread([this] { writer_loop(); });
  return util::ok_status();
}

void AuditLog::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_.is_open()) file_.close();
  out_ = nullptr;
  started_ = false;
}

obs::MetricRegistry::Registration AuditLog::register_with(
    obs::MetricRegistry& registry) const {
  return registry.register_collector(
      [this](std::vector<obs::MetricSample>& out) {
        out.push_back(obs::counter_sample(
            "leaps_serve_audit_records_total",
            "anomalous-verdict audit records written", written()));
        out.push_back(obs::counter_sample(
            "leaps_serve_audit_dropped_total",
            "audit records dropped because the writer queue was full",
            dropped()));
      });
}

void AuditLog::submit(const SessionKey& key, const std::string& profile,
                      std::size_t window_index, int label,
                      double decision_value,
                      const trace::PartitionedEvent* events,
                      std::size_t count,
                      std::shared_ptr<const core::Detector> detector) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (started_ && !stop_ && queue_.size() < options_.queue_capacity) {
      Record r;
      r.key = key;
      r.profile = profile;
      r.window_index = window_index;
      r.label = label;
      r.decision_value = decision_value;
      r.events.assign(events, events + count);
      r.detector = std::move(detector);
      queue_.push_back(std::move(r));
      cv_.notify_one();
      return;
    }
  }
  dropped_.fetch_add(1, kRelaxed);
}

void AuditLog::writer_loop() {
  for (;;) {
    Record r;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      r = std::move(queue_.front());
      queue_.pop_front();
    }
    const std::string line =
        r.detector == nullptr
            ? std::string()
            : format_record(r.key, r.profile, r.window_index, r.label,
                            r.decision_value, r.events, *r.detector,
                            options_.top_k);
    if (!line.empty()) {
      // out_ is set before the writer spawns and cleared after it joins,
      // so the unguarded use here never races with start()/stop().
      (*out_) << line << "\n";
      out_->flush();
      written_.fetch_add(1, kRelaxed);
    }
  }
}

std::string AuditLog::format_record(
    const SessionKey& key, const std::string& profile,
    std::size_t window_index, int label, double decision_value,
    const std::vector<trace::PartitionedEvent>& events,
    const core::Detector& detector, std::size_t top_k) {
  std::ostringstream os;
  os << "{\"window\":" << window_index
     << ",\"host\":" << obs::json_string(key.host) << ",\"pid\":" << key.pid
     << ",\"profile\":" << obs::json_string(profile)
     << ",\"label\":" << label << ",\"decision_value\":";
  obs::append_json_number(os, decision_value);
  os << ",\"threshold\":";
  obs::append_json_number(os, detector.decision_threshold());
  os << ",\"events\":" << events.size();

  // Top-k support-vector contributions to f(x), against the scaled window
  // features — the same x the model scored.
  os << ",\"sv_contributions\":[";
  const ml::FeatureVector x = detector.scaler().transform(
      detector.preprocessor().window_features(events));
  const auto contributions = detector.model().top_contributions(x, top_k);
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    const auto& c = contributions[i];
    if (i > 0) os << ",";
    os << "{\"sv\":" << c.sv_index << ",\"coefficient\":";
    obs::append_json_number(os, c.coefficient);
    os << ",\"kernel\":";
    obs::append_json_number(os, c.kernel_value);
    os << ",\"contribution\":";
    obs::append_json_number(os, c.contribution);
    os << "}";
  }
  os << "]";

  // The CFG-weight terms that dominated: the k least-benign application
  // addresses in the window, judged against the benign CFG the deployed
  // weights were assessed on. Empty when the detector carries no
  // ContinualState (pre-v2 model file).
  os << ",\"cfg_terms\":[";
  if (detector.continual() != nullptr) {
    const cfg::WeightAssessor assessor(detector.continual()->benign_cfg);
    std::map<std::uint64_t, double> benignity;
    for (const trace::PartitionedEvent& e : events) {
      for (const std::uint64_t addr : e.app_stack) {
        benignity.emplace(addr, assessor.node_benignity(addr));
      }
    }
    std::vector<std::pair<std::uint64_t, double>> terms(benignity.begin(),
                                                        benignity.end());
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    if (terms.size() > top_k) terms.resize(top_k);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) os << ",";
      char addr[32];
      std::snprintf(addr, sizeof addr, "0x%llx",
                    static_cast<unsigned long long>(terms[i].first));
      os << "{\"address\":\"" << addr << "\",\"benignity\":";
      obs::append_json_number(os, terms[i].second);
      os << "}";
    }
  }
  os << "]";

  // The window's {Event_Type, Lib, Func} projections — what the
  // attribution matcher (src/attrib/) consumes when replaying this
  // stream offline via leaps-attrib; the same trace::project_window the
  // online attribution tap builds its evidence with. Event types are
  // written by name, in name order.
  const trace::WindowProjections evidence =
      trace::project_window(events.data(), events.size());
  std::vector<std::string> types;
  types.reserve(evidence.event_types.size());
  for (const trace::EventType type : evidence.event_types) {
    types.emplace_back(trace::event_type_name(type));
  }
  std::sort(types.begin(), types.end());
  const auto emit_set = [&os](const char* name,
                              const std::vector<std::string>& v) {
    os << "\"" << name << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ",";
      os << obs::json_string(v[i]);
    }
    os << "]";
  };
  os << ",\"evidence\":{";
  emit_set("event_types", types);
  os << ",";
  emit_set("libs", evidence.libs);
  os << ",";
  emit_set("funcs", evidence.funcs);
  os << "}}";
  return os.str();
}

WindowTap audit_tap(AuditLog* audit, const SessionManager* sessions) {
  return [audit, sessions](const SessionKey& key, std::size_t window_index,
                           int label, double decision_value,
                           const trace::PartitionedEvent* events,
                           std::size_t count) {
    if (label != -1) return;
    // Anomalous verdicts are the rare path; the session lookup (one
    // shared-lock map find) buys the record the exact detector snapshot
    // that scored the window.
    if (const std::shared_ptr<Session> s = sessions->find(key)) {
      audit->submit(key, s->profile(), window_index, label, decision_value,
                    events, count, s->detector());
    }
  };
}

}  // namespace leaps::serve
