// Stack Partition Module (Section II-B / III-A).
//
// Splits every event's stack walk into:
//  * the application stack trace — frames inside the application image plus
//    frames in unmapped memory (runtime-injected payload pages have no image
//    record, so they land here, which is exactly what makes them visible to
//    CFG inference); stored outermost-first, the orientation Algorithm 1
//    expects ("the application stack trace starts from Addr_1 to Addr_5"),
//  * the system stack trace — frames in shared libraries and the kernel,
//    which feed the {Event_Type, Lib, Func} features.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.h"
#include "trace/module_map.h"
#include "trace/raw_log.h"

namespace leaps::trace {

struct PartitionedEvent {
  std::uint64_t seq = 0;
  std::uint32_t tid = 0;
  EventType type = EventType::kSysCallEnter;
  /// Application-side return addresses, outermost (entry point) first.
  std::vector<std::uint64_t> app_stack;
  /// System-side frames (shared libraries + kernel), innermost first.
  std::vector<StackFrame> system_stack;

  bool operator==(const PartitionedEvent&) const = default;
};

struct PartitionedLog {
  std::string process_name;
  std::vector<PartitionedEvent> events;
};

class StackPartitioner {
 public:
  /// `app_module` is the name of the application image (typically the
  /// process name); every other mapped module is treated as a system module.
  explicit StackPartitioner(std::string app_module)
      : app_module_(std::move(app_module)) {}

  PartitionedEvent partition(const Event& event) const;
  PartitionedLog partition(const CorrelatedLog& log) const;

 private:
  std::string app_module_;
};

/// The paper's front end in one call: RawLogParser::parse_raw, then a
/// StackPartitioner for the log's own process image.
PartitionedLog partition_raw(const RawLog& raw);

}  // namespace leaps::trace
