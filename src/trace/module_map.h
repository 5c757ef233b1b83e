// Address-space module map and symbol table.
//
// The raw log begins with MODULE records (emitted on image load) and SYMBOL
// records for system modules (standing in for the symbol/PDB information a
// real tracer resolves offline). The application image is registered as a
// module but carries no symbols — LEAPS never needs application symbols; the
// application side of the pipeline works on raw addresses only.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace leaps::trace {

struct ModuleInfo {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  bool contains(std::uint64_t addr) const {
    return addr >= base && addr < base + size;
  }
};

/// Resolution result for one address.
struct Resolution {
  const ModuleInfo* module = nullptr;  // nullptr => unmapped region
  std::string function;                // empty => no symbol
};

class ModuleMap {
 public:
  /// Registers a module. Overlapping ranges are a caller bug and throw.
  void add_module(ModuleInfo info);

  /// Registers a symbol (function entry) at `addr`. The address must fall
  /// inside a registered module.
  void add_symbol(std::uint64_t addr, std::string function);

  /// Finds the module containing `addr`, or nullptr.
  const ModuleInfo* find_module(std::uint64_t addr) const;

  /// Resolves an address to (module, nearest-preceding symbol within the
  /// same module). Unmapped addresses resolve to {nullptr, ""}.
  Resolution resolve(std::uint64_t addr) const;

  const std::vector<ModuleInfo>& modules() const { return modules_list_; }
  /// All registered symbols, ascending by address.
  const std::map<std::uint64_t, std::string>& symbols() const {
    return symbols_;
  }

 private:
  // base -> index into modules_list_; ordered for range lookup.
  std::map<std::uint64_t, std::size_t> by_base_;
  std::vector<ModuleInfo> modules_list_;
  std::map<std::uint64_t, std::string> symbols_;
};

}  // namespace leaps::trace
