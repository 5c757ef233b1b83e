#include "online/accumulator.h"

#include <utility>

#include "cfg/weight.h"
#include "obs/trace.h"

namespace leaps::online {

OnlineCfgAccumulator::OnlineCfgAccumulator(cfg::AddressGraph base_cfg,
                                           AccumulatorOptions options)
    : options_(options), graph_(std::move(base_cfg)) {}

void OnlineCfgAccumulator::observe_window(
    const trace::PartitionedEvent* events, std::size_t count) {
  if (count == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  PendingWindow w;
  w.events.assign(events, events + count);
  batch_.push_back(std::move(w));
  batch_events_ += count;
  events_since_drain_ += count;
  ++stats_.windows_observed;
  if (batch_events_ >= options_.fold_batch_events) fold_locked();
}

cfg::AddressGraph OnlineCfgAccumulator::graph_snapshot() {
  const std::lock_guard<std::mutex> lock(mu_);
  fold_locked();
  return graph_;
}

std::vector<PendingWindow> OnlineCfgAccumulator::drain_windows() {
  const std::lock_guard<std::mutex> lock(mu_);
  fold_locked();
  std::vector<PendingWindow> out(
      std::make_move_iterator(retained_.begin()),
      std::make_move_iterator(retained_.end()));
  retained_.clear();
  events_since_drain_ = 0;
  return out;
}

std::vector<PendingWindow> OnlineCfgAccumulator::pending_snapshot() {
  const std::lock_guard<std::mutex> lock(mu_);
  fold_locked();
  return {retained_.begin(), retained_.end()};
}

std::uint64_t OnlineCfgAccumulator::events_since_drain() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_since_drain_;
}

AccumulatorStats OnlineCfgAccumulator::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OnlineCfgAccumulator::fold_locked() {
  if (batch_.empty()) return;
  LEAPS_SPAN("online.fold");
  ++stats_.folds;
  // Score against the graph as it stood when the fold began: admission is
  // judged by what the system *already* believed benign, never by edges
  // the same batch is about to contribute.
  const cfg::WeightAssessor assessor(graph_);
  const bool graph_empty = graph_.empty();
  const cfg::CfgInference inference(options_.inference);
  for (PendingWindow& w : batch_) {
    // Mean benignity of every application frame in the window — the
    // node form of Algorithm 2, applied as the admission test.
    double sum = 0.0;
    std::size_t frames = 0;
    for (const trace::PartitionedEvent& e : w.events) {
      for (const std::uint64_t addr : e.app_stack) {
        sum += graph_empty ? 1.0 : assessor.node_benignity(addr);
        ++frames;
      }
    }
    w.benignity = frames == 0 ? 1.0 : sum / static_cast<double>(frames);
    if (w.benignity < options_.admit_floor) {
      ++stats_.windows_rejected;
      continue;
    }
    // Merge the window's inferred control flow: a set union edge by edge.
    trace::PartitionedLog log;
    log.events = w.events;
    const cfg::InferredCfg inferred = inference.infer(log);
    for (const auto& [from, tos] : inferred.graph.adjacency()) {
      for (const std::uint64_t to : tos) {
        if (graph_.add_edge(from, to)) ++stats_.edges_added;
      }
    }
    ++stats_.windows_admitted;
    stats_.events_folded += w.events.size();
    retained_.push_back(std::move(w));
    if (retained_.size() > options_.max_pending_windows) {
      retained_.pop_front();
      ++stats_.windows_evicted;
    }
  }
  batch_.clear();
  batch_events_ = 0;
}

}  // namespace leaps::online
