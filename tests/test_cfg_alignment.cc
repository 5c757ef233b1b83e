// Unit tests for the CFG-alignment extension (Section VI-A): pivot
// discovery, address translation, insertion detection, CFG rewriting.
#include <gtest/gtest.h>

#include "cfg/alignment.h"
#include "core/pipeline.h"
#include "sim/address_space.h"
#include "sim/attack.h"
#include "sim/executor.h"
#include "sim/profiles.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/rng.h"

namespace leaps::cfg {
namespace {

/// A chain-with-branches graph over `n` nodes at the given base/stride.
AddressGraph synthetic_graph(std::uint64_t base, std::size_t n,
                             std::uint64_t stride = 0x80) {
  AddressGraph g;
  const auto addr = [base, stride](std::size_t i) {
    return base + i * stride;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_edge(addr(i), addr(i + 1));
    if (i % 3 == 0 && i + 2 < n) g.add_edge(addr(i), addr(i + 2));
    if (i % 5 == 0 && i >= 5) g.add_edge(addr(i), addr(i - 5));
  }
  return g;
}

/// Fingerprints that make node k of any copy identifiable: type k mod N.
NodeFingerprints synthetic_fingerprints(std::uint64_t base, std::size_t n,
                                        std::uint64_t stride = 0x80) {
  NodeFingerprints fp;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> hist(trace::kEventTypeCount, 0.0);
    hist[i % trace::kEventTypeCount] = 10.0;
    hist[(i / trace::kEventTypeCount) % trace::kEventTypeCount] += 3.0;
    fp[base + i * stride] = hist;
  }
  return fp;
}

TEST(CfgAligner, IdenticalGraphsAlignCompletely) {
  const AddressGraph g = synthetic_graph(0x1000, 40);
  const auto fp = synthetic_fingerprints(0x1000, 40);
  const CfgAligner aligner;
  const Alignment a = aligner.align(g, g, &fp, &fp);
  EXPECT_EQ(a.pivots.size(), a.mixed_nodes);
  for (const auto& [m, b] : a.pivots) EXPECT_EQ(m, b);
}

TEST(CfgAligner, ShiftedCopyAlignsToOriginal) {
  const std::size_t n = 40;
  const AddressGraph benign = synthetic_graph(0x1000, n);
  const AddressGraph mixed = synthetic_graph(0x50000, n);  // same structure
  const auto fb = synthetic_fingerprints(0x1000, n);
  const auto fm = synthetic_fingerprints(0x50000, n);
  const CfgAligner aligner;
  const Alignment a = aligner.align(benign, mixed, &fb, &fm);
  EXPECT_GT(a.pivot_fraction(), 0.9);
  for (const auto& [m, b] : a.pivots) {
    EXPECT_EQ(m - 0x50000, b - 0x1000);  // same node index
  }
  // Translation recovers original addresses for all in-envelope nodes.
  const auto t = aligner.translate(a, 0x50000 + 7 * 0x80);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x1000 + 7 * 0x80);
}

TEST(CfgAligner, InsertedBlockIsNotTranslated) {
  // Benign: 30 nodes. Mixed: same 30 with a 6-node foreign block spliced in
  // at index 10 (addresses shift by 6*stride after the block).
  const std::uint64_t stride = 0x80;
  const std::size_t n = 30;
  const std::size_t ins = 6;
  AddressGraph benign = synthetic_graph(0x1000, n, stride);
  AddressGraph mixed;
  NodeFingerprints fb = synthetic_fingerprints(0x1000, n, stride);
  NodeFingerprints fm;
  const auto mixed_addr = [&](std::size_t i) {  // benign index -> new addr
    return 0x1000 + (i < 10 ? i : i + ins) * stride;
  };
  for (const auto& [from, tos] : benign.adjacency()) {
    const std::size_t fi = (from - 0x1000) / stride;
    for (const std::uint64_t to : tos) {
      const std::size_t ti = (to - 0x1000) / stride;
      mixed.add_edge(mixed_addr(fi), mixed_addr(ti));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    fm[mixed_addr(i)] = fb.at(0x1000 + i * stride);
  }
  // The foreign block: a small cycle with alien fingerprints.
  const std::uint64_t block = 0x1000 + 10 * stride;
  for (std::size_t k = 0; k + 1 < ins; ++k) {
    mixed.add_edge(block + k * stride, block + (k + 1) * stride);
  }
  mixed.add_edge(block + (ins - 1) * stride, block);
  for (std::size_t k = 0; k < ins; ++k) {
    std::vector<double> alien(trace::kEventTypeCount, 0.0);
    alien[trace::kEventTypeCount - 1] = 50.0;
    fm[block + k * stride] = alien;
  }

  const CfgAligner aligner;
  const Alignment a = aligner.align(benign, mixed, &fb, &fm);
  EXPECT_GT(a.pivots.size(), n / 2);
  // Benign nodes translate back to their original address.
  std::size_t translated_ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = aligner.translate(a, mixed_addr(i));
    if (t.has_value() && *t == 0x1000 + i * stride) ++translated_ok;
  }
  EXPECT_GT(translated_ok, n * 3 / 4);
  // Inserted nodes must NOT translate (insertion interval detected).
  for (std::size_t k = 0; k < ins; ++k) {
    EXPECT_FALSE(aligner.translate(a, block + k * stride).has_value())
        << "inserted node " << k << " was translated";
  }
}

TEST(CfgAligner, EmptyGraphsYieldEmptyAlignment) {
  const AddressGraph empty;
  const AddressGraph g = synthetic_graph(0x1000, 10);
  const CfgAligner aligner;
  EXPECT_TRUE(aligner.align(empty, g).pivots.empty());
  EXPECT_TRUE(aligner.align(g, empty).pivots.empty());
  EXPECT_DOUBLE_EQ(aligner.align(empty, empty).pivot_fraction(), 0.0);
  EXPECT_FALSE(aligner.translate(Alignment{}, 0x1234).has_value());
}

TEST(CfgAligner, PivotMapIsMonotone) {
  util::Rng rng(3);
  const sim::Program app =
      sim::build_program(sim::app_spec("vim"), sim::kAppImageBase, rng);
  const sim::Program payload =
      sim::build_program(sim::payload_spec("pwddlg"), sim::kAppImageBase,
                         rng);
  const sim::SourceTrojan trojan =
      sim::make_source_trojan(app, payload, rng);
  const sim::LibraryRegistry registry = sim::LibraryRegistry::standard();
  const sim::Executor ex(registry, {});
  const auto benign_part =
      trace::partition_raw(ex.run_benign(app, 4000, util::Rng(1)));
  const auto mixed_part = trace::partition_raw(
      ex.run_source_trojan(trojan, 3000, util::Rng(2)).log);
  const CfgInference inference;
  const auto bcfg = inference.infer(benign_part);
  const auto mcfg = inference.infer(mixed_part);
  const auto fb = node_fingerprints(benign_part);
  const auto fm = node_fingerprints(mixed_part);
  const Alignment a = CfgAligner().align(bcfg.graph, mcfg.graph, &fb, &fm);
  ASSERT_GT(a.pivots.size(), 10u);
  std::uint64_t prev_b = 0;
  for (const auto& [m, b] : a.pivots) {
    EXPECT_GT(b, prev_b);  // strictly increasing in both coordinates
    prev_b = b;
  }
}

TEST(CfgAligner, TranslateCfgSendsUnknownAddressesToSentinels) {
  AddressGraph benign;
  benign.add_edge(0x1000, 0x1080);
  InferredCfg mixed;
  mixed.graph.add_edge(0x5000, 0x5080);
  mixed.edge_events[{0x5000, 0x5080}] = {3};
  Alignment a;
  a.pivots = {{0x5000, 0x1000}};  // only one endpoint known
  const CfgAligner aligner;
  const InferredCfg out = aligner.translate_cfg(a, mixed);
  EXPECT_EQ(out.graph.edge_count(), 1u);
  // 0x5000 translated; 0x5080 beyond the single pivot -> sentinel.
  const auto& adj = out.graph.adjacency();
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_EQ(adj.begin()->first, 0x1000u);
  EXPECT_GE(*adj.begin()->second.begin(), aligner.options().sentinel_base);
  // Events follow the translated edge.
  EXPECT_EQ(out.edge_events.begin()->second,
            (std::vector<std::uint64_t>{3}));
}

TEST(NodeFingerprints, CountEventTypesPerNode) {
  trace::PartitionedLog log;
  trace::PartitionedEvent e1;
  e1.type = trace::EventType::kFileRead;
  e1.app_stack = {0x10, 0x20};
  trace::PartitionedEvent e2;
  e2.type = trace::EventType::kNetworkSend;
  e2.app_stack = {0x10};
  log.events = {e1, e2};
  const NodeFingerprints fp = node_fingerprints(log);
  ASSERT_EQ(fp.size(), 2u);
  const auto read_id =
      static_cast<std::size_t>(trace::event_type_id(trace::EventType::kFileRead));
  const auto send_id = static_cast<std::size_t>(
      trace::event_type_id(trace::EventType::kNetworkSend));
  EXPECT_DOUBLE_EQ(fp.at(0x10)[read_id], 1.0);
  EXPECT_DOUBLE_EQ(fp.at(0x10)[send_id], 1.0);
  EXPECT_DOUBLE_EQ(fp.at(0x20)[read_id], 1.0);
  EXPECT_DOUBLE_EQ(fp.at(0x20)[send_id], 0.0);
}

// Integration: the full pipeline with alignment separates ground truth on a
// source trojan where exact-address assessment fails.
TEST(CfgAligner, PipelineAlignmentSeparatesSourceTrojanTruth) {
  sim::SimConfig cfg;
  cfg.benign_events = 4000;
  cfg.mixed_events = 3000;
  cfg.malicious_events = 500;
  const sim::ScenarioLogs logs =
      sim::generate_source_trojan_scenario("winscp", "reverse_tcp", cfg);
  const auto benign = trace::partition_raw(logs.benign);
  const auto mixed = trace::partition_raw(logs.mixed);

  core::PipelineOptions opt;
  opt.align_cfgs = true;
  const core::TrainingData td = core::LeapsPipeline(opt).prepare(benign,
                                                                 mixed);
  double sum_b = 0.0, sum_m = 0.0;
  std::size_t n_b = 0, n_m = 0;
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    const auto it = td.event_benignity.find(mixed.events[i].seq);
    const double b = it == td.event_benignity.end() ? 1.0 : it->second;
    if (logs.mixed_truth[i]) {
      sum_m += b;
      ++n_m;
    } else {
      sum_b += b;
      ++n_b;
    }
  }
  ASSERT_GT(n_b, 0u);
  ASSERT_GT(n_m, 0u);
  EXPECT_GT(sum_b / n_b, 0.8);
  EXPECT_LT(sum_m / n_m, 0.2);
}

}  // namespace
}  // namespace leaps::cfg
