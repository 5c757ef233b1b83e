#include "replay.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.h"

namespace bench {

namespace {

using leaps::serve::DetectionServer;
using leaps::serve::ServerOptions;
using leaps::serve::SessionKey;
using leaps::serve::VerdictRecord;

constexpr char kHost[] = "bench";
/// The generator sends in flush ticks, as a tracing agent flushes its
/// buffer: every event due within a tick goes out at the tick's end.
/// Latency still counts from each event's own due time.
constexpr std::uint64_t kFlushIntervalNs = 1'000'000;

void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

SessionKey key_of(std::size_t p) {
  return SessionKey{kHost, static_cast<std::uint32_t>(p)};
}

ServerOptions options_of(const ServeConfig& config, std::size_t workers) {
  ServerOptions options;
  options.workers = workers;
  options.coalesce = config.coalesce;
  return options;
}

void register_profiles(DetectionServer& server, const ServeConfig& config) {
  for (const auto& [name, detector] : config.profiles) {
    server.registry().add(name, detector);
  }
}

void check_plan(const ReplayPlan& plan) {
  const std::size_t lane = plan.slots * plan.session_length();
  if (plan.slots == 0 || plan.window == 0 || plan.rate <= 0.0 ||
      plan.session_length() % plan.window != 0 ||
      plan.total_events() % lane != 0 || !plan.source) {
    throw std::invalid_argument("replay plan is not aligned to its sessions");
  }
}

/// Walks the plan's events in schedule order: calls `open(p, source)` at
/// each session's first event, `send(i, p, event)` for every event and
/// `close(p)` after each closing session's last one.
template <typename Open, typename Send, typename Close>
void walk(const ReplayPlan& plan, Open&& open, Send&& send, Close&& close) {
  const std::size_t S = plan.slots;
  const std::size_t L = plan.session_length();
  const bool closing = plan.events_per_session != 0;
  std::vector<Source> lanes(S);
  const std::size_t n = plan.total_events();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i % S;
    const std::size_t e = i / S;
    const std::size_t k = e % L;
    const std::size_t p = (e / L) * S + j;
    if (k == 0) {
      lanes[j] = plan.source(p);
      open(p, lanes[j]);
    }
    const Source& src = lanes[j];
    send(i, p, (*src.events)[(src.offset + k) % src.events->size()]);
    if (closing && k + 1 == L) close(p);
  }
}

}  // namespace

std::size_t ReplayPlan::session_length() const {
  if (events_per_session != 0) return events_per_session;
  return slots == 0 ? 0 : total_events() / slots;
}

void ReplayPlan::size_phases(double warm_seconds, double measured_seconds) {
  const std::size_t unit =
      slots * (events_per_session != 0 ? events_per_session : window);
  auto round_up = [&](double seconds) {
    const auto n = static_cast<std::size_t>(rate * seconds);
    return (n + unit - 1) / unit * unit;
  };
  warm_events = round_up(warm_seconds);
  measured_events = round_up(measured_seconds);
}

std::function<Source(std::size_t)> held_out_sessions(
    const HeldOut& held, const std::string& profile) {
  return [&held, profile](std::size_t p) {
    const std::size_t k = (p / 4) % held.benign.size();
    const auto& events =
        p % 4 == 0 ? held.malicious[k].events : held.benign[k].events;
    return Source{profile, &events, (p * 7919) % events.size(), p % 4 == 0};
  };
}

std::size_t ReplayPlan::sessions() const {
  const std::size_t L = session_length();
  return L == 0 ? 0 : total_events() / L;
}

std::size_t window_last_event(const ReplayPlan& plan, std::size_t p,
                              std::size_t w) {
  const std::size_t S = plan.slots;
  const std::size_t e =
      (p / S) * plan.session_length() + (w + 1) * plan.window - 1;
  return e * S + p % S;
}

std::uint64_t due_offset_ns(const ReplayPlan& plan, std::size_t i) {
  return static_cast<std::uint64_t>(static_cast<double>(i) *
                                    (1e9 / plan.rate));
}

std::uint64_t verdict_digest(const std::vector<std::int8_t>& labels,
                             std::size_t windows_per_session) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t s = 0; s < labels.size(); ++s) {
    mix(s / windows_per_session);
    mix(s % windows_per_session);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(labels[s])));
  }
  return h;
}

ReplayResult replay_open_loop(const ReplayPlan& plan,
                              const ServeConfig& config, bool traced) {
  check_plan(plan);
  for (const auto& [name, detector] : config.profiles) {
    if (detector->preprocessor().window() != plan.window) {
      throw std::invalid_argument("profile " + name +
                                  " classifies windows of another length");
    }
  }
  const std::size_t W = plan.windows_per_session();
  const std::size_t P = plan.sessions();
  ReplayResult r;
  r.latency_ns.assign(P * W, -1);
  r.label.assign(P * W, 0);
  std::atomic<std::uint64_t> unexpected{0};
  std::uint64_t t0 = 0;  // written before the first submit

  DetectionServer server(options_of(config, config.workers));
  register_profiles(server, config);
  for (const auto& tap : config.taps) server.add_window_tap(tap);
  // Each (session, window) slot is written by the one worker that owns the
  // session; drain() orders those writes before the reads below.
  server.set_verdict_sink([&](const VerdictRecord& v) {
    const std::uint64_t now = now_ns();
    const std::size_t p = v.key.pid;
    if (p >= P || v.window_index >= W) {
      unexpected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t slot = p * W + v.window_index;
    if (r.label[slot] != 0) {
      unexpected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    r.label[slot] = static_cast<std::int8_t>(v.label);
    const std::uint64_t due =
        t0 + due_offset_ns(plan, window_last_event(plan, p, v.window_index));
    r.latency_ns[slot] = static_cast<std::int64_t>(now - due);
  });
  server.start();

  Span replay_span("serve.replay");
  const std::int64_t parent = replay_span.index();
  if (traced) {
    r.submit_ns.reserve(plan.measured_events);
  }
  // The generator wakes at due times; the default 50 µs timer slack would
  // add that much lateness to every wake-up.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<std::shared_ptr<leaps::serve::Session>> lanes(plan.slots);
  CpuTimes cpu0;
  // Process CPU and intern counts at the start of each second of the
  // measured phase.
  struct Mark {
    std::size_t event;
    std::uint64_t cpu_ns;
    leaps::trace::TokenTable::Stats intern;
  };
  std::vector<Mark> marks;
  leaps::trace::TokenTable& table = leaps::trace::TokenTable::global();
  const auto events_per_second =
      std::max<std::size_t>(1, static_cast<std::size_t>(plan.rate));
  std::uint64_t wall0 = 0;
  double late_sum = 0.0;
  double late_max = 0.0;
  leaps::trace::TokenTable::Stats intern0;
  t0 = now_ns() + 1'000'000;

  walk(
      plan,
      [&](std::size_t p, const Source& src) {
        const std::uint64_t a = traced ? now_ns() : 0;
        lanes[p % plan.slots] = server.open_session(key_of(p), src.profile);
        if (traced) {
          const std::uint64_t b = now_ns();
          r.open_us.push_back(static_cast<double>(b - a) / 1e3);
          spans().add("serve.session_open", a, b, parent, p);
        }
      },
      [&](std::size_t i, std::size_t p,
          const leaps::trace::PartitionedEvent& event) {
        if (i == plan.warm_events) {
          cpu0 = process_cpu_times();
          wall0 = now_ns();
          intern0 = table.stats();
        }
        if (i >= plan.warm_events &&
            (i - plan.warm_events) % events_per_second == 0) {
          marks.push_back({i, process_cpu_times().total(), table.stats()});
        }
        // Sent at the first flush tick at or after the event's due time.
        const std::uint64_t tick = kFlushIntervalNs;
        const std::uint64_t send =
            t0 + (due_offset_ns(plan, i) + tick - 1) / tick * tick;
        std::uint64_t now = now_ns();
        if (now < send) {
          sleep_until_ns(send);
          now = now_ns();
        }
        if (i >= plan.warm_events) {
          const double late = static_cast<double>(now - std::min(now, send));
          late_sum += late;
          late_max = std::max(late_max, late);
        }
        // A submit() that fails is counted as rejected by the server.
        server.submit(lanes[p % plan.slots], event);
        if (traced && i >= plan.warm_events) {
          const std::uint64_t end = now_ns();
          r.submit_ns.push_back(static_cast<double>(end - now));
          if (i % 64 == 0) spans().add("serve.submit", now, end, parent, p);
        }
      },
      [&](std::size_t p) {
        const std::uint64_t a = traced ? now_ns() : 0;
        server.close_session(key_of(p));
        lanes[p % plan.slots].reset();
        if (traced) {
          const std::uint64_t b = now_ns();
          r.close_us.push_back(static_cast<double>(b - a) / 1e3);
          spans().add("serve.session_close", a, b, parent, p);
        }
      });
  {
    Span drain_span("serve.drain");
    server.drain();
  }
  const std::uint64_t wall1 = now_ns();
  const CpuTimes cpu1 = process_cpu_times();
  r.cpu = cpu1 - cpu0;
  const leaps::trace::TokenTable::Stats intern1 = table.stats();
  marks.push_back({plan.total_events(), cpu1.total(), intern1});
  for (std::size_t k = 1; k < marks.size(); ++k) {
    const Mark& a = marks[k - 1];
    const Mark& b = marks[k];
    r.cpu_ns_per_event_by_second.push_back(
        static_cast<double>(b.cpu_ns - a.cpu_ns) /
        static_cast<double>(b.event - a.event));
    const auto hits = static_cast<double>(b.intern.hits - a.intern.hits);
    const auto added =
        static_cast<double>(b.intern.interned - a.intern.interned);
    r.intern_hit_ratio_by_second.push_back(
        hits + added == 0.0 ? 0.0 : hits / (hits + added));
  }
  r.wall_s = static_cast<double>(wall1 - wall0) / 1e9;
  r.total_wall_s = static_cast<double>(wall1 - t0) / 1e9;
  r.intern_hits = intern1.hits - intern0.hits;
  r.intern_added = intern1.interned - intern0.interned;
  r.measured_events = plan.measured_events;
  r.late_ns_mean = plan.measured_events == 0
                       ? 0.0
                       : late_sum / static_cast<double>(plan.measured_events);
  r.late_ns_max = late_max;
  r.metrics = server.metrics().snapshot();
  server.stop();
  r.unexpected_verdicts = unexpected.load();

  if (traced) {
    // One verdict span per 64 windows: due time of the window's last
    // event → sink callback, tagged with the session and window.
    for (std::size_t s = 0; s < r.latency_ns.size(); s += 64) {
      if (r.latency_ns[s] < 0) continue;
      const std::uint64_t due =
          t0 + due_offset_ns(plan, window_last_event(plan, s / W, s % W));
      spans().add("serve.verdict", due,
                  due + static_cast<std::uint64_t>(r.latency_ns[s]), parent,
                  (static_cast<std::uint64_t>(s / W) << 20) | (s % W));
    }
  }
  return r;
}

std::vector<const leaps::trace::PartitionedEvent*> schedule_events(
    const ReplayPlan& plan, std::size_t from, std::size_t to) {
  std::vector<const leaps::trace::PartitionedEvent*> out;
  out.reserve(to - std::min(from, to));
  walk(
      plan, [](std::size_t, const Source&) {},
      [&](std::size_t i, std::size_t,
          const leaps::trace::PartitionedEvent& event) {
        if (i >= from && i < to) out.push_back(&event);
      },
      [](std::size_t) {});
  return out;
}

void summarize_replay(const ReplayPlan& plan, const ReplayResult& r,
                      const std::vector<std::int8_t>& reference,
                      const std::vector<std::int8_t>& streamed,
                      std::size_t workers, bool traced, Report& report) {
  const std::size_t W = plan.windows_per_session();
  const std::size_t P = plan.sessions();
  std::vector<double> latency_ms;
  // Per second of the measured phase, by due time.
  std::vector<std::vector<double>> by_second;
  std::uint64_t missed = 0;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t w = 0; w < W; ++w) {
      const std::size_t s = p * W + w;
      // Measured windows: the last event was due in the measured phase.
      if (window_last_event(plan, p, w) < plan.warm_events) continue;
      if (r.latency_ns[s] < 0 ||
          static_cast<std::uint64_t>(r.latency_ns[s]) > kVerdictDeadlineNs) {
        ++missed;
        continue;
      }
      latency_ms.push_back(static_cast<double>(r.latency_ns[s]) / 1e6);
      const std::size_t second = static_cast<std::size_t>(
          static_cast<double>(window_last_event(plan, p, w) -
                              plan.warm_events) /
          plan.rate);
      if (by_second.size() <= second) by_second.resize(second + 1);
      by_second[second].push_back(latency_ms.back());
    }
  }
  const leaps::serve::MetricsSnapshot& m = r.metrics;
  // Shed events are among the dropped and failed ones among the
  // quarantined; a submit() that returned false counted as rejected.
  const std::uint64_t bad_events =
      m.events_dropped + m.events_rejected + m.events_quarantined;
  const std::uint64_t failed = bad_events + missed + r.unexpected_verdicts;
  report.attempted += r.measured_events;
  report.failed += failed;
  const double failed_ratio =
      r.measured_events == 0
          ? 0.0
          : static_cast<double>(failed) /
                static_cast<double>(r.measured_events);

  const std::size_t samples = latency_ms.size();
  const double p50 = quantile(latency_ms, 0.50);
  const double p99 = quantile(latency_ms, 0.99);
  // The median second: one disturbed second of a noisy host moves it
  // little, a change in the per-event cost moves every second.
  const double cpu_ns_per_event = median(r.cpu_ns_per_event_by_second);
  report.e2e("cpu_ns_per_event", cpu_ns_per_event, "ns");
  // Latency is printed by every run but carries no bound: it moves with
  // the host far more than any bound allows (README.md, "Why these
  // metrics").
  report.layer("serve.verdict_p50_ms", p50, "ms");
  report.layer("serve.verdict_p99_ms", p99, "ms");
  report.layer("serve.verdict_samples", static_cast<double>(samples),
               "count");
  report.layer("serve.failed_ratio", failed_ratio, "ratio");

  char line[320];
  std::snprintf(line, sizeof line,
                "open loop: %.0f ev/s offered, %zu sessions x %zu slots, "
                "%llu measured events over %.3f s wall, %.3f core-s CPU "
                "(%.0f ns/event overall: %.0f user + %.0f sys; %.0f in the "
                "median second)",
                plan.rate, P, plan.slots,
                static_cast<unsigned long long>(r.measured_events), r.wall_s,
                static_cast<double>(r.cpu.total()) / 1e9,
                static_cast<double>(r.cpu.total()) /
                    static_cast<double>(r.measured_events),
                static_cast<double>(r.cpu.user_ns) /
                    static_cast<double>(r.measured_events),
                static_cast<double>(r.cpu.sys_ns) /
                    static_cast<double>(r.measured_events),
                cpu_ns_per_event);
  report.note(line);
  std::snprintf(line, sizeof line,
                "verdicts: %zu measured windows timed from due time "
                "(p50 %.4f ms, p99 %.4f ms); %llu missed the %.0f ms deadline",
                samples, p50, p99, static_cast<unsigned long long>(missed),
                static_cast<double>(kVerdictDeadlineNs) / 1e6);
  report.note(line);
  std::string seconds_line = "per-second p50/p99 ms:";
  for (std::vector<double>& v : by_second) {
    char cell[48];
    const double a = quantile(v, 0.50);
    std::snprintf(cell, sizeof cell, " %.3f/%.3f", a, quantile(v, 0.99));
    seconds_line += cell;
  }
  report.note(seconds_line);
  std::string intern_line = "per-second intern hit ratio:";
  for (const double v : r.intern_hit_ratio_by_second) {
    char cell[24];
    std::snprintf(cell, sizeof cell, " %.4f", v);
    intern_line += cell;
  }
  report.note(intern_line);
  std::snprintf(line, sizeof line,
                "failed_ratio %.6g (%llu failed / %llu submitted: %llu "
                "dropped, %llu rejected, %llu quarantined, %llu failed, %llu "
                "shed, %llu windows missed, %llu unexpected verdicts)",
                failed_ratio, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(r.measured_events),
                static_cast<unsigned long long>(m.events_dropped),
                static_cast<unsigned long long>(m.events_rejected),
                static_cast<unsigned long long>(m.events_quarantined),
                static_cast<unsigned long long>(m.events_failed),
                static_cast<unsigned long long>(m.events_shed),
                static_cast<unsigned long long>(missed),
                static_cast<unsigned long long>(r.unexpected_verdicts));
  report.note(line);

  // Gates.
  if (m.events_ingested !=
      m.events_processed + m.events_dropped + m.events_quarantined) {
    report.gate_failed("accounting: ingested != processed + dropped + "
                       "quarantined", 1);
  }
  const std::uint64_t digest = verdict_digest(r.label, W);
  const std::uint64_t ref_digest = verdict_digest(reference, W);
  std::uint64_t mismatched = 0;
  for (std::size_t s = 0; s < reference.size(); ++s) {
    if (reference[s] != r.label[s]) ++mismatched;
  }
  std::snprintf(line, sizeof line,
                "verdict digest %016llx, 1-worker reference %016llx "
                "(%zu windows, %llu differ)",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(ref_digest), reference.size(),
                static_cast<unsigned long long>(mismatched));
  report.note(line);
  if (digest != ref_digest) {
    report.gate_failed("verdicts differ from the 1-worker reference",
                       mismatched);
  }
  std::uint64_t stream_mismatched = 0;
  for (std::size_t s = 0; s < streamed.size(); ++s) {
    if (streamed[s] != r.label[s]) ++stream_mismatched;
  }
  std::snprintf(line, sizeof line,
                "Stream reference (PartitionedEvent path): %llu of %zu "
                "windows differ from the served verdicts",
                static_cast<unsigned long long>(stream_mismatched),
                streamed.size());
  report.note(line);
  if (streamed.size() != r.label.size() || stream_mismatched != 0) {
    report.gate_failed("served verdicts differ from Detector::Stream over "
                       "the same events",
                       std::max<std::uint64_t>(stream_mismatched, 1));
  }
  if (samples == 0) report.gate_failed("no measured verdicts", 1);

  report.layer("serve.queue_wait_us_p50",
               static_cast<double>(m.queue_wait.quantile_us(0.50)), "us");
  report.layer("serve.queue_wait_us_p99",
               static_cast<double>(m.queue_wait.quantile_us(0.99)), "us");
  report.layer("serve.queue_high_water",
               static_cast<double>(m.queue_high_water), "events");
  report.layer("serve.events_per_run",
               m.classify.count == 0
                   ? 0.0
                   : static_cast<double>(m.events_processed) /
                         static_cast<double>(m.classify.count),
               "events");
  report.layer("serve.classify_us_per_run", m.classify.mean_us(), "us");
  report.layer("serve.worker_busy_share",
               static_cast<double>(m.classify.total_us) /
                   (static_cast<double>(workers) * r.total_wall_s * 1e6),
               "ratio");
  report.layer("serve.slab_overflow", static_cast<double>(m.slab_overflow),
               "count");
  report.layer("gen.late_ms_mean", r.late_ns_mean / 1e6, "ms");
  report.layer("gen.late_ms_max", r.late_ns_max / 1e6, "ms");
  report.layer("trace.intern_hit_ratio",
               r.intern_hits + r.intern_added == 0
                   ? 0.0
                   : static_cast<double>(r.intern_hits) /
                         static_cast<double>(r.intern_hits + r.intern_added),
               "ratio");
  if (!traced) return;
  std::vector<double> submit = r.submit_ns;
  report.layer("serve.submit_ns_p50", quantile(submit, 0.50), "ns");
  report.layer("serve.submit_ns_p99", quantile(submit, 0.99), "ns");
  report.layer("serve.session_open_us", median(r.open_us), "us");
  report.layer("serve.session_close_us", median(r.close_us), "us");
}

std::vector<std::int8_t> replay_reference(const ReplayPlan& plan,
                                          const ServeConfig& config) {
  check_plan(plan);
  Span span("gate.reference");
  const std::size_t W = plan.windows_per_session();
  std::vector<std::int8_t> labels(plan.sessions() * W, 0);
  DetectionServer server(options_of(config, 1));
  register_profiles(server, config);
  server.set_verdict_sink([&](const VerdictRecord& v) {
    const std::size_t slot = v.key.pid * W + v.window_index;
    if (v.window_index < W && slot < labels.size()) {
      labels[slot] = static_cast<std::int8_t>(v.label);
    }
  });
  server.start();
  std::vector<std::shared_ptr<leaps::serve::Session>> lanes(plan.slots);
  walk(
      plan,
      [&](std::size_t p, const Source& src) {
        lanes[p % plan.slots] = server.open_session(key_of(p), src.profile);
      },
      [&](std::size_t, std::size_t p,
          const leaps::trace::PartitionedEvent& event) {
        server.submit(lanes[p % plan.slots], event);
      },
      [&](std::size_t p) {
        server.close_session(key_of(p));
        lanes[p % plan.slots].reset();
      });
  server.drain();
  server.stop();
  return labels;
}

std::vector<std::int8_t> stream_reference(const ReplayPlan& plan,
                                          const ServeConfig& config) {
  check_plan(plan);
  Span span("gate.stream_reference");
  const std::size_t W = plan.windows_per_session();
  std::vector<std::int8_t> labels(plan.sessions() * W, 0);
  std::vector<std::optional<leaps::core::Detector::Stream>> lanes(plan.slots);
  std::vector<std::size_t> windows(plan.slots, 0);
  walk(
      plan,
      [&](std::size_t p, const Source& src) {
        lanes[p % plan.slots].emplace(config.profiles.at(src.profile)->stream());
        windows[p % plan.slots] = 0;
      },
      [&](std::size_t, std::size_t p,
          const leaps::trace::PartitionedEvent& event) {
        const std::optional<int> label = lanes[p % plan.slots]->push(event);
        if (label) {
          std::size_t& w = windows[p % plan.slots];
          labels[p * W + w++] = static_cast<std::int8_t>(*label);
        }
      },
      [](std::size_t) {});
  return labels;
}

Detection served_detection(const ReplayPlan& plan,
                           const std::vector<std::int8_t>& labels) {
  const std::size_t W = plan.windows_per_session();
  Detection d;
  for (std::size_t p = 0; p < plan.sessions(); ++p) {
    const bool malicious = plan.source(p).malicious;
    for (std::size_t w = 0; w < W; ++w) {
      if (window_last_event(plan, p, w) < plan.warm_events) continue;
      // A window without a verdict is already a failed operation.
      if (labels[p * W + w] != 0) d.count(malicious, labels[p * W + w]);
    }
  }
  return d;
}

}  // namespace bench
