// Ingest-boundary token interning (the serving hot path's event form).
//
// The classification path only ever consumes an event through three
// projections: its EventType id, the *set* of system-stack modules
// (Lib), and the set of "module!function" names (Func). Carrying the
// full string-bearing PartitionedEvent through the queues and workers
// means allocating and hashing those strings once per event per stage.
// TokenTable hoists all of that to the ingest boundary: a producer
// interns each event exactly once into a CompactEvent — six integers —
// and everything downstream (queues, workers, Detector::Stream) works
// with uint32 ids. Strings are touched again only on the cold paths
// (a first-seen set reaching a detector's TupleCodec, a tapped window
// being materialized for the online/audit consumers).
//
// Interning is exact, not lossy: the table stores the first-seen
// system-stack frame sequence (addresses included) and app-stack
// address sequence verbatim, so materialize() reconstructs a
// PartitionedEvent byte-identical to the original. The Lib/Func sets
// derived at intern time come from the same derive_lib_set/func_set
// recipes core::Preprocessor::lib_set/func_set call, which is what makes
// id-keyed feature caching downstream byte-identical to the string path.
//
// Thread safety: fully thread-safe. Lookups by id are lock-free
// (append-only segmented storage, entries never move); interning takes
// a per-domain shared_mutex — shared for the common already-seen case,
// exclusive only for first-seen tokens. Ids are dense per domain and
// stable for the table's lifetime; they are NOT stable across processes
// (never persist them — durability serializes materialized events).
//
// Memory: the table only grows (every distinct stack sequence is kept
// forever). Real deployments recycle stack shapes heavily, so growth
// flattens fast; an adversary can still inflate it with synthetic
// stacks, which stats() exposes for monitoring. Bounded/evicting
// interning is future work (see DESIGN.md §14).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/partition.h"

namespace leaps::trace {

/// Sorted, deduplicated string set — mirrors ml::StringSet (trace sits
/// below ml in the layering, so the alias is restated here).
using StringSet = std::vector<std::string>;

/// The Lib set (module names) / Func set ("module!function") of a system
/// stack, sorted and deduplicated: the one recipe behind both
/// core::Preprocessor::lib_set/func_set and the ids TokenTable derives.
StringSet derive_lib_set(const std::vector<StackFrame>& frames);
StringSet derive_func_set(const std::vector<StackFrame>& frames);

/// A frame's Func-set name, "module!function", built with one
/// allocation. Function names are qualified by module: ReadFile exists in
/// both kernel32 and kernelbase, and those are different functions. The
/// one spelling of a Func name: derive_func_set, project_window and
/// signature derivation all call it.
std::string qualified_function(std::string_view module,
                               std::string_view function);

/// A window's {Event_Type, Lib, Func} projections: its event types and
/// the union of its events' derive_lib_set / derive_func_set, each sorted
/// and unique. Built in one pass over the frames, with each distinct
/// module and (module, function) pair copied out once. The one recipe
/// behind the attribution evidence (attrib::evidence_from_events) and the
/// audit record's "evidence" block.
struct WindowProjections {
  std::vector<EventType> event_types;
  StringSet libs;
  StringSet funcs;
};
WindowProjections project_window(const PartitionedEvent* events,
                                 std::size_t count);

/// The interned hot-path event: what PartitionedEvent becomes at the
/// ingest boundary. Plain integers, no heap state — cheap to copy, to
/// queue in batches, and to keep in pooled buffers.
struct CompactEvent {
  std::uint64_t seq = 0;
  std::uint32_t tid = 0;
  std::uint32_t sys_id = 0;   // system-stack frame sequence
  std::uint32_t app_id = 0;   // app-stack address sequence
  std::uint32_t lib_id = 0;   // derived Lib set (modules)
  std::uint32_t func_id = 0;  // derived Func set ("module!function")
  EventType type = EventType::kSysCallEnter;
};

/// Id-indexed slots in fixed-size heap segments, allocated on first use.
/// Slots never move, so a reference obtained by id stays valid for the
/// array's lifetime. Every id-indexed structure over TokenTable ids (the
/// table's own stores and core::TupleCodec's caches) uses this geometry,
/// so they all share one id cap.
template <typename T>
class SegmentArray {
 public:
  static constexpr std::size_t kSegBits = 12;  // 4096 slots per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kMaxSegments = 4096;
  static constexpr std::size_t kCapacity =
      kSegSize * kMaxSegments;  // ~16.7M ids

  SegmentArray() = default;
  SegmentArray(const SegmentArray&) = delete;
  SegmentArray& operator=(const SegmentArray&) = delete;
  ~SegmentArray() {
    for (auto& s : segments_) delete[] s.load(std::memory_order_relaxed);
  }

  /// Lock-free: the slot for `id`, or nullptr when `id` is past the cap or
  /// its segment has not been allocated yet.
  T* find(std::uint32_t id) const {
    const std::size_t seg_index = id >> kSegBits;
    if (seg_index >= kMaxSegments) return nullptr;
    T* seg = segments_[seg_index].load(std::memory_order_acquire);
    return seg == nullptr ? nullptr : &seg[id & (kSegSize - 1)];
  }

  /// The slot for `id`, allocating its segment on first use. Calls must
  /// be serialized externally. Throws std::length_error, before allocating
  /// or writing anything, when `id` is past the cap.
  T& ensure(std::uint32_t id) {
    const std::size_t seg_index = id >> kSegBits;
    if (seg_index >= kMaxSegments) {
      throw std::length_error("TokenTable id domain exhausted");
    }
    T* seg = segments_[seg_index].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = new T[kSegSize];
      segments_[seg_index].store(seg, std::memory_order_release);
    }
    return seg[id & (kSegSize - 1)];
  }

 private:
  std::array<std::atomic<T*>, kMaxSegments> segments_{};
};

/// Append-only id -> value storage with lock-free reads. append() must be
/// serialized externally (the TokenTable domain mutex); readers need no
/// lock.
template <typename T>
class SegmentedStore {
 public:
  static constexpr std::size_t kCapacity = SegmentArray<T>::kCapacity;

  /// `id` must be below size().
  const T& operator[](std::uint32_t id) const { return *slots_.find(id); }

  /// Caller must hold the owning domain's exclusive lock. Throws
  /// std::length_error, before writing anything, once the store holds
  /// kCapacity values.
  std::uint32_t append(T value) {
    const std::uint32_t id = size_.load(std::memory_order_relaxed);
    slots_.ensure(id) = std::move(value);
    size_.store(id + 1, std::memory_order_release);
    return id;
  }

  std::uint32_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  SegmentArray<T> slots_;
  std::atomic<std::uint32_t> size_{0};
};

class TokenTable {
 public:
  TokenTable() = default;
  TokenTable(const TokenTable&) = delete;
  TokenTable& operator=(const TokenTable&) = delete;

  /// The process-wide table the serving layer interns through.
  static TokenTable& global();

  /// Interns every projection of `event` and returns its compact form.
  CompactEvent compact(const PartitionedEvent& event);

  /// Exact reconstruction: equal to the event compact() consumed, field
  /// for field (first-seen stack sequences are stored verbatim).
  PartitionedEvent materialize(const CompactEvent& event) const;
  /// materialize() into `out`, overwriting every field in place: a reused
  /// `out` keeps its vector and string capacity, so refilling it
  /// allocates only where the new stacks outgrow what `out` held.
  void materialize_into(const CompactEvent& event,
                        PartitionedEvent& out) const;

  /// Id lookups; references stay valid for the table's lifetime.
  const StringSet& lib_set(std::uint32_t lib_id) const;
  const StringSet& func_set(std::uint32_t func_id) const;
  const std::vector<StackFrame>& system_stack(std::uint32_t sys_id) const;
  const std::vector<std::uint64_t>& app_stack(std::uint32_t app_id) const;

  struct Stats {
    std::uint64_t system_stacks = 0;  // distinct frame sequences
    std::uint64_t app_stacks = 0;     // distinct app address sequences
    std::uint64_t lib_sets = 0;       // distinct Lib sets
    std::uint64_t func_sets = 0;      // distinct Func sets
    std::uint64_t hits = 0;           // compact() calls fully cached
    std::uint64_t interned = 0;       // compact() calls that added a token
    /// Approximate heap bytes pinned by interned tokens (string payloads,
    /// stack sequences, and per-entry container headers). The table never
    /// evicts, so this only grows — the leaps_trace_token_table_* gauges
    /// exist to watch it.
    std::uint64_t bytes_retained = 0;
  };
  Stats stats() const;

 private:
  struct SysEntry {
    std::vector<StackFrame> frames;
    std::uint32_t lib_id = 0;
    std::uint32_t func_id = 0;
  };

  struct FrameSeqHash {
    std::size_t operator()(const std::vector<StackFrame>& frames) const;
  };
  struct AddrSeqHash {
    std::size_t operator()(const std::vector<std::uint64_t>& addrs) const;
  };
  struct StringSetHash {
    std::size_t operator()(const StringSet& set) const;
  };

  /// Interns `set` in one of the two string-set domains. Caller must
  /// hold sys_mu_ exclusively (set interning only happens while a new
  /// system stack is being added, so the sys lock covers these maps too).
  std::uint32_t intern_set(
      StringSet set,
      std::unordered_map<StringSet, std::uint32_t, StringSetHash>& ids,
      SegmentedStore<StringSet>& store);

  mutable std::shared_mutex sys_mu_;
  std::unordered_map<std::vector<StackFrame>, std::uint32_t, FrameSeqHash>
      sys_ids_;
  std::unordered_map<StringSet, std::uint32_t, StringSetHash> lib_ids_;
  std::unordered_map<StringSet, std::uint32_t, StringSetHash> func_ids_;
  SegmentedStore<SysEntry> sys_store_;
  SegmentedStore<StringSet> lib_store_;
  SegmentedStore<StringSet> func_store_;

  mutable std::shared_mutex app_mu_;
  std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, AddrSeqHash>
      app_ids_;
  SegmentedStore<std::vector<std::uint64_t>> app_store_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> interned_{0};
  std::atomic<std::uint64_t> bytes_retained_{0};
};

}  // namespace leaps::trace
