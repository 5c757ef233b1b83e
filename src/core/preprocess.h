// Data Preprocessing Module (Section III-A, Figure 2).
//
// Turns partitioned events into discretized feature tuples:
//   {Event_Type, Lib, Func}
// where Event_Type maps to its integer id and the Lib/Func *sets* of the
// system stack trace are replaced by hierarchical-cluster numbers (UPGMA,
// Jaccard distance, Eqn. 1). Tuples of `window` consecutive events are then
// coalesced into one (3 × window)-dimensional data point (Section V-A-2:
// 10 events → 30 dimensions).
//
// The clusterers are fit on the training logs; unseen test sets are mapped
// to the nearest training set's cluster.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "ml/dataset.h"
#include "ml/distance.h"
#include "ml/hcluster.h"
#include "trace/intern.h"
#include "trace/partition.h"

namespace leaps::core {

/// Clusters string sets and assigns cluster ids to unseen sets by
/// nearest-neighbor among the training sets.
class SetClusterer {
 public:
  explicit SetClusterer(ml::ClusterOptions options = {})
      : options_(options) {}

  /// Deduplicates, builds the Jaccard matrix, runs UPGMA, numbers clusters
  /// in dendrogram leaf order.
  void fit(const std::vector<ml::StringSet>& sets);

  /// Cluster id for a set: exact training match, else the cluster of the
  /// nearest (Eqn. 1) training set. Must be fitted.
  int assign(const ml::StringSet& set) const;

  /// The cluster's coordinate on the dendrogram axis — the discretized
  /// feature value (similar clusters sit numerically close, dissimilar
  /// clusters far apart).
  double position(int cluster_id) const;

  int cluster_count() const { return result_.cluster_count; }
  bool fitted() const { return !unique_sets_.empty(); }
  const ml::ClusterOptions& options() const { return options_; }
  std::size_t unique_set_count() const { return unique_sets_.size(); }
  const ml::ClusterResult& result() const { return result_; }
  const std::vector<ml::StringSet>& unique_sets() const {
    return unique_sets_;
  }

  /// Reconstructs a fitted clusterer from serialized state (persistence).
  static SetClusterer from_state(ml::ClusterOptions options,
                                 std::vector<ml::StringSet> unique_sets,
                                 ml::ClusterResult result);

 private:
  ml::ClusterOptions options_;
  std::vector<ml::StringSet> unique_sets_;
  std::map<ml::StringSet, int> exact_;  // set -> cluster id
  ml::ClusterResult result_;
};

/// The discretized 3-tuple of one event (Figure 2's "@107 7 2 40" row).
/// The *_cluster fields are the cluster ids; the *_coord fields are the
/// dissimilarity-scaled cluster positions actually used as feature values.
struct EventTuple {
  int event_type = 0;
  int lib_cluster = 0;
  int func_cluster = 0;
  double lib_coord = 0.0;
  double func_coord = 0.0;
};

/// Features per event in a window (Section V-A-2: 10 events → 30 dims).
inline constexpr std::size_t kFeaturesPerEvent = 3;

/// Appends one event's features to a window in the layout
/// {Event_Type, Lib coordinate, Func coordinate}: the one place that layout
/// is written. Inline and allocation-free once `x` has capacity, because the
/// serving stream calls it per event.
inline void append_features(const EventTuple& t, ml::FeatureVector& x) {
  x.push_back(static_cast<double>(t.event_type));
  x.push_back(t.lib_coord);
  x.push_back(t.func_coord);
}

/// Feature windows with provenance back to the source events (needed by the
/// CGraph baseline and by weight aggregation).
struct WindowedData {
  std::vector<ml::FeatureVector> X;
  /// X[w] was built from log.events[event_indices[w][0..window)].
  std::vector<std::vector<std::size_t>> event_indices;
};

struct PreprocessOptions {
  ml::ClusterOptions lib_clustering{.cut_distance = 0.3, .max_clusters = 0};
  ml::ClusterOptions func_clustering{.cut_distance = 0.35, .max_clusters = 0};
  /// Consecutive events per data point (paper: 10 → 30 dimensions).
  std::size_t window = 10;
};

/// Dense symbol ids for discretized event tuples — the observation alphabet
/// of the sequence models (Section VI-B). Symbol 0 is reserved for tuples
/// unseen at fit time.
class TupleVocabulary {
 public:
  /// Collects every distinct tuple the (fitted) preprocessor produces on
  /// the given logs.
  void fit(const std::vector<const trace::PartitionedLog*>& logs,
           const class Preprocessor& preprocessor);

  /// Symbol id of a tuple: [1, size) for known tuples, 0 for unknown.
  int symbol(const EventTuple& tuple) const;

  /// Alphabet size including the unknown symbol.
  std::size_t size() const { return ids_.size() + 1; }
  bool fitted() const { return !ids_.empty(); }

  /// Encodes a window of events (by log indices) into a symbol sequence.
  std::vector<int> encode(const trace::PartitionedLog& log,
                          const std::vector<std::size_t>& event_indices,
                          const Preprocessor& preprocessor) const;

 private:
  std::map<std::tuple<int, int, int>, int> ids_;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessOptions options = {}) : options_(options) {}

  /// Fits the Lib and Func clusterers on the union of the given logs
  /// (training phase: benign + mixed).
  void fit(const std::vector<const trace::PartitionedLog*>& logs);

  /// Lib set (module names) / func set ("module!function") of one event's
  /// system stack trace, sorted and deduplicated.
  static ml::StringSet lib_set(const trace::PartitionedEvent& event);
  static ml::StringSet func_set(const trace::PartitionedEvent& event);

  EventTuple tuple(const trace::PartitionedEvent& event) const;

  /// The unscaled feature window of consecutive events (append_features
  /// over each event's tuple). Must be fitted.
  ml::FeatureVector window_features(
      std::span<const trace::PartitionedEvent> events) const;

  /// Non-overlapping windows over the log. A trailing partial window is
  /// dropped. Must be fitted.
  WindowedData make_windows(const trace::PartitionedLog& log) const;

  const SetClusterer& lib_clusterer() const { return libs_; }
  const SetClusterer& func_clusterer() const { return funcs_; }
  std::size_t window() const { return options_.window; }
  bool fitted() const { return libs_.fitted(); }
  const PreprocessOptions& options() const { return options_; }

  /// Reconstructs a fitted preprocessor from serialized state.
  static Preprocessor from_state(PreprocessOptions options, SetClusterer libs,
                                 SetClusterer funcs);

 private:
  PreprocessOptions options_;
  SetClusterer libs_{};
  SetClusterer funcs_{};
};

/// Concurrent interned-id -> discretized-feature cache: the bridge that
/// lets the serving hot path consume trace::CompactEvent without ever
/// rebuilding the Lib/Func string sets. Each detector owns one codec;
/// the first time a given lib_id/func_id reaches it, the set is fetched
/// from the TokenTable and run through SetClusterer::assign/position
/// exactly once, then every later event carrying that id reads the
/// cached (cluster, coord) pair lock-free. Because assign() is a pure
/// function of the set, and ids map 1:1 to sets, the cached values are
/// byte-identical to what the string path computes per event.
///
/// Thread safety: fully thread-safe. Reads are lock-free (per-entry
/// release/acquire publication in append-only segments); a miss computes
/// under a mutex (one thread computes, others wait briefly).
///
/// Ids are only meaningful relative to the TokenTable that minted them:
/// feed one codec from one table (the serving layer always uses
/// trace::TokenTable::global()).
class TupleCodec {
 public:
  TupleCodec() = default;
  TupleCodec(const TupleCodec&) = delete;
  TupleCodec& operator=(const TupleCodec&) = delete;

  /// The discretized 3-tuple of one compact event; identical to
  /// `preprocessor.tuple(table.materialize(event))`.
  EventTuple tuple(const Preprocessor& preprocessor,
                   const trace::TokenTable& table,
                   const trace::CompactEvent& event) const;

  /// Distinct (lib_id + func_id) entries resolved so far.
  std::size_t cached() const {
    return libs_.size() + funcs_.size();
  }

 private:
  struct Slot {
    std::atomic<int> state{0};  // 0 = empty, 1 = ready
    int cluster = 0;
    double coord = 0.0;
  };

  /// Append-only id-indexed slot table over trace::SegmentArray, the
  /// TokenTable's own geometry: every id the table can mint has a slot,
  /// and an id past the cap throws std::length_error before any write.
  class IdCache {
   public:
    /// Returns the slot for `id`, computing it with `fill` under the
    /// cache mutex when absent. `fill` writes cluster/coord.
    template <typename Fill>
    const Slot& get(std::uint32_t id, Fill&& fill) const {
      const Slot* slot = slots_.find(id);
      if (slot != nullptr &&
          slot->state.load(std::memory_order_acquire) == 1) {
        return *slot;
      }
      const std::lock_guard<std::mutex> lock(mu_);
      Slot& fresh = slots_.ensure(id);
      if (fresh.state.load(std::memory_order_relaxed) != 1) {
        fill(fresh);
        fresh.state.store(1, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
      }
      return fresh;
    }

    std::size_t size() const {
      return size_.load(std::memory_order_relaxed);
    }

   private:
    mutable trace::SegmentArray<Slot> slots_;
    mutable std::atomic<std::size_t> size_{0};
    mutable std::mutex mu_;
  };
  static_assert(trace::SegmentArray<Slot>::kCapacity ==
                    trace::SegmentedStore<trace::StringSet>::kCapacity,
                "the codec must hold a slot for every id a TokenTable mints");

  IdCache libs_;
  IdCache funcs_;
};

}  // namespace leaps::core
