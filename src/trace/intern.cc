#include "trace/intern.h"

#include <algorithm>

#include "obs/registry.h"

namespace leaps::trace {

namespace {

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

constexpr std::size_t kHashSeed = 0x9e3779b97f4a7c15ULL;

inline void combine(std::size_t& h, std::size_t v) {
  h ^= v + kHashSeed + (h << 6) + (h >> 2);
}

// Approximate heap footprint of a newly interned token. Counts payload
// bytes plus container headers; deliberately ignores allocator slack and
// the id-map keys (which roughly double it) — the gauge tracks growth, it
// is not an accountant.
std::uint64_t set_bytes(const StringSet& set) {
  std::uint64_t b = sizeof(StringSet) + set.size() * sizeof(std::string);
  for (const std::string& s : set) b += s.size();
  return b;
}

std::uint64_t frames_bytes(const std::vector<StackFrame>& frames) {
  std::uint64_t b = frames.size() * sizeof(StackFrame);
  for (const StackFrame& f : frames) b += f.module.size() + f.function.size();
  return b;
}

}  // namespace

std::size_t TokenTable::FrameSeqHash::operator()(
    const std::vector<StackFrame>& frames) const {
  std::size_t h = frames.size();
  for (const StackFrame& f : frames) {
    combine(h, std::hash<std::uint64_t>{}(f.address));
    combine(h, std::hash<std::string>{}(f.module));
    combine(h, std::hash<std::string>{}(f.function));
  }
  return h;
}

std::size_t TokenTable::AddrSeqHash::operator()(
    const std::vector<std::uint64_t>& addrs) const {
  std::size_t h = addrs.size();
  for (const std::uint64_t a : addrs) {
    combine(h, std::hash<std::uint64_t>{}(a));
  }
  return h;
}

std::size_t TokenTable::StringSetHash::operator()(
    const StringSet& set) const {
  std::size_t h = set.size();
  for (const std::string& s : set) {
    combine(h, std::hash<std::string>{}(s));
  }
  return h;
}

TokenTable& TokenTable::global() {
  static TokenTable* table = [] {
    auto* t = new TokenTable();  // never destroyed
    // The global table is the one the serving hot path interns through,
    // so its growth is fleet-visible state: expose it on the process
    // scrape surface. The registration handle leaks with the table.
    static obs::MetricRegistry::Registration reg =
        obs::MetricRegistry::global().register_collector(
            [t](std::vector<obs::MetricSample>& out) {
              const Stats s = t->stats();
              const auto gauge = [&out](const char* name, const char* help,
                                        std::uint64_t v) {
                out.push_back(obs::gauge_sample(
                    name, help, static_cast<std::int64_t>(v)));
              };
              gauge("leaps_trace_token_table_system_stacks",
                    "distinct system-stack sequences interned",
                    s.system_stacks);
              gauge("leaps_trace_token_table_app_stacks",
                    "distinct app-stack address sequences interned",
                    s.app_stacks);
              gauge("leaps_trace_token_table_lib_sets",
                    "distinct Lib sets interned", s.lib_sets);
              gauge("leaps_trace_token_table_func_sets",
                    "distinct Func sets interned", s.func_sets);
              gauge("leaps_trace_token_table_bytes_retained",
                    "approximate heap bytes pinned by interned tokens",
                    s.bytes_retained);
              out.push_back(obs::counter_sample(
                  "leaps_trace_token_table_hits_total",
                  "compact() calls served fully from cache", s.hits));
              out.push_back(obs::counter_sample(
                  "leaps_trace_token_table_interned_total",
                  "compact() calls that added a token", s.interned));
            });
    return t;
  }();
  return *table;
}

StringSet derive_lib_set(const std::vector<StackFrame>& frames) {
  StringSet out;
  out.reserve(frames.size());
  for (const StackFrame& f : frames) out.push_back(f.module);
  sort_unique(out);
  return out;
}

std::string qualified_function(std::string_view module,
                               std::string_view function) {
  std::string out;
  out.reserve(module.size() + 1 + function.size());
  out.append(module).append(1, '!').append(function);
  return out;
}

StringSet derive_func_set(const std::vector<StackFrame>& frames) {
  StringSet out;
  out.reserve(frames.size());
  for (const StackFrame& f : frames) {
    out.push_back(qualified_function(f.module, f.function));
  }
  sort_unique(out);
  return out;
}

WindowProjections project_window(const PartitionedEvent* events,
                                 std::size_t count) {
  WindowProjections out;
  // One pass over the frames collects views; each distinct module and
  // (module, function) pair is then copied out once.
  std::size_t total_frames = 0;
  for (std::size_t i = 0; i < count; ++i) {
    total_frames += events[i].system_stack.size();
  }
  std::vector<std::string_view> modules;
  std::vector<std::pair<std::string_view, std::string_view>> frames;
  modules.reserve(total_frames);
  frames.reserve(total_frames);
  out.event_types.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const PartitionedEvent& e = events[i];
    out.event_types.push_back(e.type);
    for (const StackFrame& f : e.system_stack) {
      modules.push_back(f.module);
      frames.emplace_back(f.module, f.function);
    }
  }
  sort_unique(out.event_types);
  sort_unique(modules);
  sort_unique(frames);
  out.libs.assign(modules.begin(), modules.end());
  out.funcs.reserve(frames.size());
  for (const auto& [module, function] : frames) {
    out.funcs.push_back(qualified_function(module, function));
  }
  // Pair order is not name order ("a b"/"x" sorts after "a"/"x", but
  // "a b!x" before "a!x"), and two pairs can spell one name ("a!b"/"c"
  // and "a"/"b!c"), so the names take a final sort and dedup.
  sort_unique(out.funcs);
  return out;
}

std::uint32_t TokenTable::intern_set(
    StringSet set,
    std::unordered_map<StringSet, std::uint32_t, StringSetHash>& ids,
    SegmentedStore<StringSet>& store) {
  const auto it = ids.find(set);
  if (it != ids.end()) return it->second;
  StringSet key = set;  // map key and stored value are separate copies
  const std::uint32_t id = store.append(std::move(set));
  ids.emplace(std::move(key), id);
  return id;
}

CompactEvent TokenTable::compact(const PartitionedEvent& event) {
  CompactEvent out;
  out.seq = event.seq;
  out.tid = event.tid;
  out.type = event.type;
  bool missed = false;

  // System-stack domain (carries the derived Lib/Func set ids).
  {
    bool hit = false;
    {
      const std::shared_lock lock(sys_mu_);
      const auto it = sys_ids_.find(event.system_stack);
      if (it != sys_ids_.end()) {
        out.sys_id = it->second;
        hit = true;
      }
    }
    if (!hit) {
      const std::unique_lock lock(sys_mu_);
      const auto it = sys_ids_.find(event.system_stack);
      if (it != sys_ids_.end()) {
        out.sys_id = it->second;
      } else {
        missed = true;
        SysEntry entry;
        entry.frames = event.system_stack;
        const std::uint32_t lib_before = lib_store_.size();
        const std::uint32_t func_before = func_store_.size();
        entry.lib_id = intern_set(derive_lib_set(event.system_stack),
                                  lib_ids_, lib_store_);
        entry.func_id = intern_set(derive_func_set(event.system_stack),
                                   func_ids_, func_store_);
        std::uint64_t bytes =
            sizeof(SysEntry) + frames_bytes(entry.frames);
        if (lib_store_.size() > lib_before) {
          bytes += set_bytes(lib_store_[entry.lib_id]);
        }
        if (func_store_.size() > func_before) {
          bytes += set_bytes(func_store_[entry.func_id]);
        }
        out.sys_id = sys_store_.append(std::move(entry));
        bytes_retained_.fetch_add(bytes, std::memory_order_relaxed);
        sys_ids_.emplace(event.system_stack, out.sys_id);
      }
    }
    const SysEntry& entry = sys_store_[out.sys_id];
    out.lib_id = entry.lib_id;
    out.func_id = entry.func_id;
  }

  // App-stack domain.
  {
    bool hit = false;
    {
      const std::shared_lock lock(app_mu_);
      const auto it = app_ids_.find(event.app_stack);
      if (it != app_ids_.end()) {
        out.app_id = it->second;
        hit = true;
      }
    }
    if (!hit) {
      const std::unique_lock lock(app_mu_);
      const auto it = app_ids_.find(event.app_stack);
      if (it != app_ids_.end()) {
        out.app_id = it->second;
      } else {
        missed = true;
        out.app_id = app_store_.append(event.app_stack);
        bytes_retained_.fetch_add(
            sizeof(std::vector<std::uint64_t>) +
                event.app_stack.size() * sizeof(std::uint64_t),
            std::memory_order_relaxed);
        app_ids_.emplace(event.app_stack, out.app_id);
      }
    }
  }

  (missed ? interned_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return out;
}

PartitionedEvent TokenTable::materialize(const CompactEvent& event) const {
  PartitionedEvent out;
  materialize_into(event, out);
  return out;
}

void TokenTable::materialize_into(const CompactEvent& event,
                                  PartitionedEvent& out) const {
  out.seq = event.seq;
  out.tid = event.tid;
  out.type = event.type;
  // Copy assignment reuses `out`'s buffers: elements already present are
  // assigned (a StackFrame's strings keep their capacity), the rest are
  // constructed, and a longer previous stack is truncated.
  out.app_stack = app_stack(event.app_id);
  out.system_stack = system_stack(event.sys_id);
}

const StringSet& TokenTable::lib_set(std::uint32_t lib_id) const {
  return lib_store_[lib_id];
}

const StringSet& TokenTable::func_set(std::uint32_t func_id) const {
  return func_store_[func_id];
}

const std::vector<StackFrame>& TokenTable::system_stack(
    std::uint32_t sys_id) const {
  return sys_store_[sys_id].frames;
}

const std::vector<std::uint64_t>& TokenTable::app_stack(
    std::uint32_t app_id) const {
  return app_store_[app_id];
}

TokenTable::Stats TokenTable::stats() const {
  Stats s;
  s.system_stacks = sys_store_.size();
  s.app_stacks = app_store_.size();
  s.lib_sets = lib_store_.size();
  s.func_sets = func_store_.size();
  s.hits = hits_.load(std::memory_order_relaxed);
  s.interned = interned_.load(std::memory_order_relaxed);
  s.bytes_retained = bytes_retained_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace leaps::trace
