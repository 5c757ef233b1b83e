#include "serve/queue.h"

namespace leaps::serve {

std::optional<OverflowPolicy> parse_overflow_policy(std::string_view name) {
  if (name == "block") return OverflowPolicy::kBlock;
  if (name == "drop-oldest") return OverflowPolicy::kDropOldest;
  return std::nullopt;
}

}  // namespace leaps::serve
