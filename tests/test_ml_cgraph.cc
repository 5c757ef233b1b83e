// Unit tests for the system-level call-graph decision model (CGraph).
#include <gtest/gtest.h>

#include "ml/cgraph_model.h"

namespace leaps::ml {
namespace {

trace::PartitionedEvent sys_event(std::uint64_t seq,
                                  std::vector<std::uint64_t> addrs) {
  trace::PartitionedEvent e;
  e.seq = seq;
  for (const std::uint64_t a : addrs) {
    e.system_stack.push_back({a, "m.dll", "f"});
  }
  return e;
}

trace::PartitionedLog log_of(std::vector<trace::PartitionedEvent> events) {
  trace::PartitionedLog l;
  l.events = std::move(events);
  return l;
}

class CGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // BCG learns the edge 20→10 (stack [10,20]); MCG learns 40→30.
    // The shared edge 60→50 appears in both.
    model_.train(log_of({sys_event(0, {10, 20}), sys_event(1, {50, 60})}),
                 log_of({sys_event(0, {30, 40}), sys_event(1, {50, 60})}));
  }
  CallGraphModel model_;
};

TEST_F(CGraphTest, BcgOnlyEdgeVotesBenign) {
  EXPECT_EQ(model_.predict_event(sys_event(9, {10, 20})), 1);
}

TEST_F(CGraphTest, McgOnlyEdgeVotesMalicious) {
  EXPECT_EQ(model_.predict_event(sys_event(9, {30, 40})), -1);
}

TEST_F(CGraphTest, SharedEdgeIsUndecidable) {
  // Edge in both graphs → score 0 → deterministic coin. Whatever the
  // outcome, it must be stable across calls.
  const int a = model_.predict_event(sys_event(9, {50, 60}));
  const int b = model_.predict_event(sys_event(9, {50, 60}));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a == 1 || a == -1);
}

TEST_F(CGraphTest, UnseenEdgeIsUndecidable) {
  const auto e = sys_event(9, {70, 80});
  EXPECT_EQ(model_.predict_event(e), model_.predict_event(e));
}

TEST_F(CGraphTest, TieBreakIsRoughlyBalanced) {
  int benign = 0;
  for (std::uint64_t seq = 0; seq < 400; ++seq) {
    if (model_.predict_event(sys_event(seq, {70 + seq * 2, 71 + seq * 2})) ==
        1) {
      ++benign;
    }
  }
  EXPECT_GT(benign, 120);
  EXPECT_LT(benign, 280);
}

TEST_F(CGraphTest, MixedVotesResolveByMajority) {
  // One BCG edge + two MCG-flavored frames: [30,40] gives one MCG vote,
  // combined stack [10,20] one BCG vote -> build a window to combine.
  const auto benign_ev = sys_event(1, {10, 20});
  const auto mal_ev1 = sys_event(2, {30, 40});
  const auto mal_ev2 = sys_event(3, {30, 40});
  const std::vector<const trace::PartitionedEvent*> window = {
      &benign_ev, &mal_ev1, &mal_ev2};
  EXPECT_EQ(model_.score_window(window), -1);
  EXPECT_EQ(model_.predict_window(window), -1);
}

TEST_F(CGraphTest, WindowOfBenignEdgesPredictsBenign) {
  const auto e1 = sys_event(1, {10, 20});
  const auto e2 = sys_event(2, {10, 20});
  const std::vector<const trace::PartitionedEvent*> window = {&e1, &e2};
  EXPECT_EQ(model_.score_window(window), 2);
  EXPECT_EQ(model_.predict_window(window), 1);
}

TEST(CallGraphModel, UseBeforeTrainThrows) {
  CallGraphModel m;
  const auto e = sys_event(0, {1, 2});
  EXPECT_THROW(m.predict_event(e), std::logic_error);
  EXPECT_FALSE(m.trained());
}

TEST(CallGraphModel, RetrainReplacesGraphs) {
  CallGraphModel m;
  m.train(log_of({sys_event(0, {10, 20})}), log_of({sys_event(0, {30, 40})}));
  EXPECT_EQ(m.predict_event(sys_event(1, {10, 20})), 1);
  // Swap the roles.
  m.train(log_of({sys_event(0, {30, 40})}), log_of({sys_event(0, {10, 20})}));
  EXPECT_EQ(m.predict_event(sys_event(1, {10, 20})), -1);
  EXPECT_EQ(m.predict_event(sys_event(1, {30, 40})), 1);
}

}  // namespace
}  // namespace leaps::ml
