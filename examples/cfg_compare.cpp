// Figures 3 & 4: CFG inference from stack walks, and benign-vs-mixed CFG
// comparison for a trojaned Vim (reverse TCP shell payload).
//
// Section 1 replays the paper's Figure-3 micro-example (explicit vs
// implicit paths). Section 2 simulates vim_reverse_tcp, infers both CFGs,
// reports how the payload subgraph separates in the address space, and
// writes Graphviz files:
//   vim_benign_cfg.dot   — Figure 4-(1)
//   vim_mixed_cfg.dot    — Figure 4-(2), payload nodes highlighted
// Render with: dot -Tpng vim_mixed_cfg.dot -o vim_mixed_cfg.png
#include <cstdio>
#include <fstream>

#include "cfg/inference.h"
#include "cfg/weight.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/strings.h"

using namespace leaps;

namespace {

void figure3_micro_example() {
  std::printf("--- Figure 3: explicit and implicit paths ---\n");
  trace::PartitionedLog log;
  trace::PartitionedEvent e1;
  e1.seq = 1;
  e1.app_stack = {0x1, 0x2, 0x3, 0x4, 0x5};
  trace::PartitionedEvent e2;
  e2.seq = 2;
  e2.app_stack = {0x1, 0x2, 0x3, 0x6, 0x7};
  log.events = {e1, e2};

  const cfg::InferredCfg inferred = cfg::CfgInference().infer(log);
  std::printf("event 1 stack: Addr_1..Addr_5; event 2 stack: "
              "Addr_1..Addr_3, Addr_6, Addr_7\n");
  std::printf("inferred edges:\n");
  for (const auto& [from, tos] : inferred.graph.adjacency()) {
    for (const auto to : tos) {
      const bool implicit = from == 0x4 && to == 0x6;
      std::printf("  Addr_%llu -> Addr_%llu%s\n",
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(to),
                  implicit ? "   (implicit path, Fig. 3)" : "");
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  figure3_micro_example();

  std::printf("--- Figure 4: Vim benign CFG vs Vim mixed CFG "
              "(Reverse TCP Shell) ---\n");
  sim::SimConfig cfg;
  cfg.benign_events = 6000;
  cfg.mixed_events = 4500;
  cfg.malicious_events = 100;  // unused here
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg);

  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  const cfg::CfgInference inference;
  const cfg::InferredCfg bcfg = inference.infer(benign);
  const cfg::InferredCfg mcfg = inference.infer(mixed);

  const std::uint64_t benign_max = bcfg.graph.nodes().back();
  std::size_t payload_nodes = 0;
  for (const std::uint64_t node : mcfg.graph.nodes()) {
    if (node > benign_max) ++payload_nodes;
  }
  std::printf("benign CFG: %zu nodes, %zu edges\n",
              bcfg.graph.node_count(), bcfg.graph.edge_count());
  std::printf("mixed  CFG: %zu nodes, %zu edges — %zu nodes beyond the "
              "benign address range (the payload subgraph)\n",
              mcfg.graph.node_count(), mcfg.graph.edge_count(),
              payload_nodes);

  // Weight assessment over the mixed CFG, summarized.
  const cfg::WeightAssessor assessor(bcfg.graph);
  const auto benignity = assessor.assess(mcfg);
  std::size_t low = 0;
  std::size_t high = 0;
  for (const auto& [seq, b] : benignity) {
    (b < 0.5 ? low : high) += 1;
  }
  std::printf("weight assessment: %zu events scored benignity >= 0.5, "
              "%zu scored < 0.5 (payload sessions)\n",
              high, low);

  const auto write_dot = [&](const char* path, const cfg::InferredCfg& g,
                             const char* title) {
    std::ofstream os(path);
    g.graph.to_dot(os, title, [benign_max](std::uint64_t node) {
      return node > benign_max
                 ? std::string("style=filled, fillcolor=\"#e06666\"")
                 : std::string();
    });
    std::printf("wrote %s\n", path);
  };
  write_dot("vim_benign_cfg.dot", bcfg, "Vim Benign CFG");
  write_dot("vim_mixed_cfg.dot", mcfg,
            "Vim Mixed CFG (Reverse TCP Shell payload in red)");
  return 0;
}
