#include "trace/partition.h"

#include <algorithm>

#include "trace/parser.h"

namespace leaps::trace {

PartitionedEvent StackPartitioner::partition(const Event& event) const {
  PartitionedEvent out;
  out.seq = event.seq;
  out.tid = event.tid;
  out.type = event.type;
  for (const StackFrame& f : event.stack) {
    const bool is_app = f.module.empty() || f.module == app_module_;
    if (is_app) {
      out.app_stack.push_back(f.address);
    } else {
      out.system_stack.push_back(f);
    }
  }
  // Frames arrive innermost-first; Algorithm 1 consumes the application walk
  // outermost-first.
  std::reverse(out.app_stack.begin(), out.app_stack.end());
  return out;
}

PartitionedLog StackPartitioner::partition(const CorrelatedLog& log) const {
  PartitionedLog out;
  out.process_name = log.process_name;
  out.events.reserve(log.events.size());
  for (const Event& e : log.events) out.events.push_back(partition(e));
  return out;
}

PartitionedLog partition_raw(const RawLog& raw) {
  const ParsedTrace t = RawLogParser().parse_raw(raw);
  return StackPartitioner(t.log.process_name).partition(t.log);
}

}  // namespace leaps::trace
