#include "core/preprocess.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace leaps::core {

void SetClusterer::fit(const std::vector<ml::StringSet>& sets) {
  LEAPS_SPAN("preprocess.cluster");
  LEAPS_CHECK_MSG(!sets.empty(), "SetClusterer::fit with no sets");
  // Deduplicate while keeping a stable order.
  std::map<ml::StringSet, int> seen;
  unique_sets_.clear();
  for (const ml::StringSet& s : sets) {
    LEAPS_DCHECK(std::is_sorted(s.begin(), s.end()));
    if (seen.emplace(s, 0).second) unique_sets_.push_back(s);
  }
  // Condensed flat matrix end-to-end: the Jaccard builder fills it in
  // parallel and the clusterer consumes the same allocation as its working
  // buffer (moved, not copied).
  ml::CondensedMatrix dm = ml::jaccard_condensed(unique_sets_);
  const ml::HierarchicalClusterer clusterer(options_);
  result_ = clusterer.cluster(std::move(dm));
  exact_.clear();
  for (std::size_t i = 0; i < unique_sets_.size(); ++i) {
    exact_[unique_sets_[i]] = result_.assignment[i];
  }
}

double SetClusterer::position(int cluster_id) const {
  LEAPS_CHECK_MSG(fitted(), "SetClusterer used before fit()");
  LEAPS_CHECK_MSG(cluster_id >= 0 && cluster_id < result_.cluster_count,
                  "cluster id out of range");
  return result_.positions[static_cast<std::size_t>(cluster_id)];
}

SetClusterer SetClusterer::from_state(ml::ClusterOptions options,
                                      std::vector<ml::StringSet> unique_sets,
                                      ml::ClusterResult result) {
  LEAPS_CHECK_MSG(unique_sets.size() == result.assignment.size(),
                  "clusterer state mismatch");
  SetClusterer c(options);
  c.unique_sets_ = std::move(unique_sets);
  c.result_ = std::move(result);
  for (std::size_t i = 0; i < c.unique_sets_.size(); ++i) {
    c.exact_[c.unique_sets_[i]] = c.result_.assignment[i];
  }
  return c;
}

int SetClusterer::assign(const ml::StringSet& set) const {
  LEAPS_CHECK_MSG(fitted(), "SetClusterer used before fit()");
  const auto it = exact_.find(set);
  if (it != exact_.end()) return it->second;
  // Unseen set: nearest training set's cluster.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < unique_sets_.size(); ++i) {
    const double d = ml::set_dissimilarity(set, unique_sets_[i]);
    if (d < best) {
      best = d;
      best_idx = i;
    }
  }
  return result_.assignment[best_idx];
}

void TupleVocabulary::fit(
    const std::vector<const trace::PartitionedLog*>& logs,
    const Preprocessor& preprocessor) {
  LEAPS_CHECK_MSG(preprocessor.fitted(), "vocabulary needs a fitted preprocessor");
  ids_.clear();
  for (const trace::PartitionedLog* log : logs) {
    LEAPS_CHECK(log != nullptr);
    for (const trace::PartitionedEvent& e : log->events) {
      const EventTuple t = preprocessor.tuple(e);
      const auto key =
          std::make_tuple(t.event_type, t.lib_cluster, t.func_cluster);
      ids_.emplace(key, static_cast<int>(ids_.size()) + 1);
    }
  }
}

int TupleVocabulary::symbol(const EventTuple& tuple) const {
  const auto it = ids_.find(
      std::make_tuple(tuple.event_type, tuple.lib_cluster,
                      tuple.func_cluster));
  return it == ids_.end() ? 0 : it->second;
}

std::vector<int> TupleVocabulary::encode(
    const trace::PartitionedLog& log,
    const std::vector<std::size_t>& event_indices,
    const Preprocessor& preprocessor) const {
  LEAPS_CHECK_MSG(fitted(), "TupleVocabulary used before fit()");
  std::vector<int> out;
  out.reserve(event_indices.size());
  for (const std::size_t idx : event_indices) {
    LEAPS_CHECK(idx < log.events.size());
    out.push_back(symbol(preprocessor.tuple(log.events[idx])));
  }
  return out;
}

ml::StringSet Preprocessor::lib_set(const trace::PartitionedEvent& event) {
  return trace::derive_lib_set(event.system_stack);
}

ml::StringSet Preprocessor::func_set(const trace::PartitionedEvent& event) {
  return trace::derive_func_set(event.system_stack);
}

void Preprocessor::fit(
    const std::vector<const trace::PartitionedLog*>& logs) {
  LEAPS_SPAN("preprocess.fit");
  LEAPS_CHECK_MSG(!logs.empty(), "Preprocessor::fit with no logs");
  std::vector<ml::StringSet> lib_sets;
  std::vector<ml::StringSet> func_sets;
  for (const trace::PartitionedLog* log : logs) {
    LEAPS_CHECK(log != nullptr);
    for (const trace::PartitionedEvent& e : log->events) {
      lib_sets.push_back(lib_set(e));
      func_sets.push_back(func_set(e));
    }
  }
  libs_ = SetClusterer(options_.lib_clustering);
  funcs_ = SetClusterer(options_.func_clustering);
  libs_.fit(lib_sets);
  funcs_.fit(func_sets);
}

Preprocessor Preprocessor::from_state(PreprocessOptions options,
                                      SetClusterer libs, SetClusterer funcs) {
  Preprocessor p(options);
  p.libs_ = std::move(libs);
  p.funcs_ = std::move(funcs);
  return p;
}

EventTuple Preprocessor::tuple(const trace::PartitionedEvent& event) const {
  LEAPS_CHECK_MSG(fitted(), "Preprocessor used before fit()");
  EventTuple t;
  t.event_type = trace::event_type_id(event.type);
  t.lib_cluster = libs_.assign(lib_set(event));
  t.func_cluster = funcs_.assign(func_set(event));
  t.lib_coord = libs_.position(t.lib_cluster);
  t.func_coord = funcs_.position(t.func_cluster);
  return t;
}

EventTuple TupleCodec::tuple(const Preprocessor& preprocessor,
                             const trace::TokenTable& table,
                             const trace::CompactEvent& event) const {
  LEAPS_CHECK_MSG(preprocessor.fitted(), "Preprocessor used before fit()");
  EventTuple t;
  t.event_type = trace::event_type_id(event.type);
  const SetClusterer& libs = preprocessor.lib_clusterer();
  const SetClusterer& funcs = preprocessor.func_clusterer();
  const auto& lib_slot = libs_.get(event.lib_id, [&](Slot& slot) {
    slot.cluster = libs.assign(table.lib_set(event.lib_id));
    slot.coord = libs.position(slot.cluster);
  });
  const auto& func_slot = funcs_.get(event.func_id, [&](Slot& slot) {
    slot.cluster = funcs.assign(table.func_set(event.func_id));
    slot.coord = funcs.position(slot.cluster);
  });
  t.lib_cluster = lib_slot.cluster;
  t.lib_coord = lib_slot.coord;
  t.func_cluster = func_slot.cluster;
  t.func_coord = func_slot.coord;
  return t;
}

ml::FeatureVector Preprocessor::window_features(
    std::span<const trace::PartitionedEvent> events) const {
  ml::FeatureVector x;
  x.reserve(kFeaturesPerEvent * events.size());
  for (const trace::PartitionedEvent& e : events) append_features(tuple(e), x);
  return x;
}

WindowedData Preprocessor::make_windows(
    const trace::PartitionedLog& log) const {
  LEAPS_SPAN("preprocess.windows");
  LEAPS_CHECK_MSG(fitted(), "Preprocessor used before fit()");
  LEAPS_CHECK_MSG(options_.window >= 1, "window must be >= 1");
  WindowedData out;
  const std::size_t w = options_.window;
  const std::size_t count = log.events.size() / w;
  out.X.reserve(count);
  out.event_indices.reserve(count);
  for (std::size_t win = 0; win < count; ++win) {
    out.X.push_back(window_features(
        std::span(log.events).subspan(win * w, w)));
    std::vector<std::size_t> indices(w);
    std::iota(indices.begin(), indices.end(), win * w);
    out.event_indices.push_back(std::move(indices));
  }
  return out;
}

}  // namespace leaps::core
