#include "trace/system_log.h"

#include <stdexcept>

namespace leaps::trace {

std::vector<std::uint32_t> capture_pids(const SystemRawLog& capture) {
  std::vector<std::uint32_t> out;
  out.reserve(capture.process_names.size());
  for (const auto& [pid, name] : capture.process_names) out.push_back(pid);
  return out;
}

RawLog slice_process(const SystemRawLog& capture, std::uint32_t pid) {
  const auto name_it = capture.process_names.find(pid);
  if (name_it == capture.process_names.end()) {
    throw std::invalid_argument("slice_process: unknown pid " +
                                std::to_string(pid));
  }
  RawLog out;
  out.process_name = name_it->second;
  const auto modules_it = capture.process_modules.find(pid);
  if (modules_it != capture.process_modules.end()) {
    out.modules = modules_it->second;
  }
  out.modules.insert(out.modules.end(), capture.shared_modules.begin(),
                     capture.shared_modules.end());
  out.symbols = capture.symbols;
  for (const SystemRawLog::Entry& e : capture.entries) {
    if (e.pid == pid) out.events.push_back(e.event);
  }
  return out;
}

}  // namespace leaps::trace
