#include "trace/parser.h"

namespace leaps::trace {

ParsedTrace RawLogParser::parse_raw(const RawLog& raw) const {
  ParsedTrace out;
  out.log.process_name = raw.process_name;
  for (const RawModule& m : raw.modules) {
    out.modules.add_module({m.name, m.base, m.size});
  }
  for (const RawSymbol& s : raw.symbols) {
    out.modules.add_symbol(s.address, s.function);
  }
  out.log.events.reserve(raw.events.size());
  for (const RawEvent& re : raw.events) {
    Event e;
    e.seq = re.seq;
    e.tid = re.tid;
    e.type = re.type;
    e.stack.reserve(re.stack.size());
    for (std::uint64_t addr : re.stack) {
      StackFrame frame;
      frame.address = addr;
      const Resolution r = out.modules.resolve(addr);
      if (r.module != nullptr) frame.module = r.module->name;
      frame.function = r.function;
      e.stack.push_back(std::move(frame));
    }
    out.log.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace leaps::trace
