// Figure 2: hierarchical clustering inside the Data Preprocessing Module.
//
// Simulates a short Putty trace, fits the Lib/Func clusterers, then walks
// one SysCallEnter-class event through the whole discretization: raw stack
// walk → stack partition → {Event_Type, Lib-set, Func-set} → UPGMA cluster
// numbers → the 3-tuple row the statistical model consumes (the paper's
// "@107 7 2 40" example).
#include <cstdio>

#include "core/preprocess.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/strings.h"

using namespace leaps;

int main() {
  sim::SimConfig cfg;
  cfg.benign_events = 4000;
  cfg.mixed_events = 1000;
  cfg.malicious_events = 100;
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario("putty_reverse_tcp"), cfg);

  const trace::PartitionedLog part = trace::partition_raw(logs.benign);

  core::Preprocessor pre;
  pre.fit({&part});
  std::printf("Fitted clusterers on %zu events:\n", part.events.size());
  std::printf("  Lib sets:  %zu unique -> %d clusters\n",
              pre.lib_clusterer().unique_set_count(),
              pre.lib_clusterer().cluster_count());
  std::printf("  Func sets: %zu unique -> %d clusters\n\n",
              pre.func_clusterer().unique_set_count(),
              pre.func_clusterer().cluster_count());

  // Pick a file-read event to mirror the figure.
  for (const trace::PartitionedEvent& e : part.events) {
    if (e.type != trace::EventType::kFileRead) continue;
    std::printf("Event @%llu (%s):\n",
                static_cast<unsigned long long>(e.seq),
                std::string(trace::event_type_name(e.type)).c_str());
    std::printf("  system stack trace (innermost first):\n");
    for (const trace::StackFrame& f : e.system_stack) {
      std::printf("    %s %s!%s\n", util::hex_addr(f.address).c_str(),
                  f.module.c_str(), f.function.c_str());
    }
    std::printf("  Lib set  = {");
    for (const auto& lib : core::Preprocessor::lib_set(e)) {
      std::printf(" %s", lib.c_str());
    }
    std::printf(" }\n  Func set = {");
    for (const auto& fn : core::Preprocessor::func_set(e)) {
      std::printf(" %s", fn.c_str());
    }
    const core::EventTuple t = pre.tuple(e);
    std::printf(" }\n\n  discretized 3-tuple (Figure 2 format):\n");
    std::printf("  Event_Num  Event_Type  Lib  Func\n");
    std::printf("  @%-9llu %-11d %-4d %d\n",
                static_cast<unsigned long long>(e.seq), t.event_type,
                t.lib_cluster, t.func_cluster);
    std::printf("  feature coordinates: lib=%.1f func=%.1f "
                "(dissimilarity-scaled cluster positions)\n",
                t.lib_coord, t.func_coord);
    break;
  }
  return 0;
}
