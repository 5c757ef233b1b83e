// Unit tests for the SMO-based weighted SVM (Eqns. 2-5).
#include <gtest/gtest.h>

#include <cmath>

#include "ml/svm.h"
#include "util/rng.h"

namespace leaps::ml {
namespace {

Dataset blobs(std::size_t per_class, util::Rng& rng, double separation) {
  Dataset d;
  for (std::size_t i = 0; i < per_class; ++i) {
    d.add({rng.next_gaussian() * 0.3, rng.next_gaussian() * 0.3 + separation},
          1, 1.0);
    d.add({rng.next_gaussian() * 0.3, rng.next_gaussian() * 0.3 - separation},
          -1, 1.0);
  }
  return d;
}

TEST(Svm, SeparatesTwoBlobs) {
  util::Rng rng(1);
  const Dataset d = blobs(40, rng, 2.0);
  TrainStats stats;
  const SvmModel m = SvmTrainer({}).train(d, &stats);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.support_vectors, 0u);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (m.predict(d.X[i]) == d.y[i]) ++correct;
  }
  EXPECT_GE(correct, d.size() - 2);
  // Held-out points on each side.
  EXPECT_EQ(m.predict({0.0, 2.0}), 1);
  EXPECT_EQ(m.predict({0.0, -2.0}), -1);
}

TEST(Svm, GaussianKernelSolvesXor) {
  Dataset d;
  util::Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const double n1 = rng.next_gaussian() * 0.1;
    const double n2 = rng.next_gaussian() * 0.1;
    d.add({0.0 + n1, 0.0 + n2}, 1);
    d.add({1.0 + n1, 1.0 + n2}, 1);
    d.add({0.0 + n1, 1.0 + n2}, -1);
    d.add({1.0 + n1, 0.0 + n2}, -1);
  }
  SvmParams p;
  p.kernel.sigma2 = 0.5;
  p.lambda = 10.0;
  const SvmModel m = SvmTrainer(p).train(d);
  EXPECT_EQ(m.predict({0.0, 0.0}), 1);
  EXPECT_EQ(m.predict({1.0, 1.0}), 1);
  EXPECT_EQ(m.predict({0.0, 1.0}), -1);
  EXPECT_EQ(m.predict({1.0, 0.0}), -1);
}

TEST(Svm, DecisionValueMatchesEqnFive) {
  util::Rng rng(3);
  const Dataset d = blobs(20, rng, 1.5);
  const SvmModel m = SvmTrainer({}).train(d);
  // f(x) = Σ αᵢ yᵢ k(svᵢ, x) + b, recomputed by hand from the model dump.
  const FeatureVector x = {0.3, 0.7};
  double f = m.bias();
  for (std::size_t i = 0; i < m.support_vector_count(); ++i) {
    f += m.coefficients()[i] * m.kernel()(m.support_vectors()[i], x);
  }
  EXPECT_NEAR(f, m.decision_value(x), 1e-9);
  EXPECT_EQ(m.predict(x), f >= 0 ? 1 : -1);
}

TEST(Svm, AlphaRespectsPerSampleBound) {
  // λ·cᵢ caps every dual coefficient: |coef| = αᵢ ≤ λ·cᵢ.
  util::Rng rng(4);
  Dataset d = blobs(30, rng, 0.3);  // heavy overlap → saturated alphas
  for (std::size_t i = 0; i < d.size(); ++i) {
    d.weight[i] = (i % 3 == 0) ? 0.25 : 1.0;
  }
  SvmParams p;
  p.lambda = 4.0;
  const SvmModel m = SvmTrainer(p).train(d);
  for (const double coef : m.coefficients()) {
    EXPECT_LE(std::abs(coef), 4.0 + 1e-9);  // λ · max cᵢ
  }
}

TEST(Svm, ZeroWeightSamplesArePinnedOut) {
  // Mislabeled positives inside the negative blob, weight 0: the model must
  // ignore them entirely (no support vector can sit on them).
  util::Rng rng(5);
  Dataset d = blobs(30, rng, 2.0);
  const std::size_t poisoned_start = d.size();
  for (int i = 0; i < 10; ++i) {
    d.add({0.0, 2.0}, -1, 0.0);  // "malicious" label planted in benign blob
  }
  const SvmModel m = SvmTrainer({}).train(d);
  EXPECT_EQ(m.predict({0.0, 2.0}), 1);  // unharmed by the poison
  (void)poisoned_start;
}

TEST(Svm, WeightingChangesTheBoundaryUnderLabelNoise) {
  // The Figure-5 situation: negatives include mislabeled copies of the
  // positive blob. Plain SVM concedes part of the benign region; WSVM with
  // near-zero weights on the mislabeled points recovers it.
  util::Rng rng(6);
  Dataset d;
  for (int i = 0; i < 40; ++i) {
    const double n1 = rng.next_gaussian() * 0.2;
    const double n2 = rng.next_gaussian() * 0.2;
    d.add({n1, 1.0 + n2}, 1, 1.0);    // benign blob
    d.add({n1, -1.0 + n2}, -1, 1.0);  // true malicious blob
    // Mislabeled benign, outnumbering the true positives in the blob.
    d.add({n1 + 0.05, 1.0 + n2 - 0.05}, -1, 1.0);
    if (i < 20) d.add({n1 - 0.05, 1.0 + n2 + 0.05}, -1, 1.0);
  }
  SvmParams p;
  p.lambda = 10.0;
  p.kernel.sigma2 = 1.0;
  const SvmModel plain = SvmTrainer(p).train(d);

  Dataset weighted = d;
  std::size_t k = 0;
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    if (weighted.y[i] == -1 && weighted.X[i][1] > 0.0) {
      weighted.weight[i] = 0.02;  // CFG says: benign
      ++k;
    }
  }
  ASSERT_GT(k, 0u);
  const SvmModel wsvm = SvmTrainer(p).train(weighted);

  // Probe the benign region.
  int plain_benign = 0;
  int wsvm_benign = 0;
  for (double x = -0.5; x <= 0.5; x += 0.1) {
    plain_benign += plain.predict({x, 1.0}) == 1 ? 1 : 0;
    wsvm_benign += wsvm.predict({x, 1.0}) == 1 ? 1 : 0;
  }
  EXPECT_GT(wsvm_benign, plain_benign);
  EXPECT_EQ(wsvm.predict({0.0, -1.0}), -1);  // malicious region intact
}

TEST(Svm, RequiresBothClassesWithPositiveWeight) {
  Dataset d;
  d.add({0.0}, 1, 1.0);
  d.add({1.0}, 1, 1.0);
  EXPECT_THROW(SvmTrainer({}).train(d), std::invalid_argument);
  d.add({2.0}, -1, 0.0);  // negative class present but weightless
  EXPECT_THROW(SvmTrainer({}).train(d), std::invalid_argument);
  d.weight[2] = 1.0;
  EXPECT_NO_THROW(SvmTrainer({}).train(d));
}

TEST(Svm, RejectsInvalidDatasets) {
  Dataset d;
  d.add({0.0}, 1);
  EXPECT_THROW(SvmTrainer({}).train(d), std::logic_error);  // n < 2
  d.add({1.0}, 2);  // invalid label
  EXPECT_THROW(SvmTrainer({}).train(d), std::logic_error);
  Dataset e;
  e.add({0.0}, 1, 1.0);
  e.add({1.0, 2.0}, -1, 1.0);  // ragged dims
  EXPECT_THROW(SvmTrainer({}).train(e), std::logic_error);
}

TEST(Svm, DuplicateOppositePointsDoNotHangTheSolver) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.add({0.5, 0.5}, 1, 1.0);
    d.add({0.5, 0.5}, -1, 1.0);  // exactly conflicting evidence
  }
  d.add({0.0, 0.0}, 1, 1.0);
  d.add({1.0, 1.0}, -1, 1.0);
  TrainStats stats;
  EXPECT_NO_THROW(SvmTrainer({}).train(d, &stats));
}

TEST(Svm, StatsReportObjectiveAndIterations) {
  util::Rng rng(8);
  const Dataset d = blobs(20, rng, 1.0);
  TrainStats stats;
  SvmTrainer({}).train(d, &stats);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_LT(stats.objective, 0.0);  // dual optimum of a non-trivial problem
}

TEST(Svm, TrainingIsDeterministic) {
  util::Rng rng(9);
  const Dataset d = blobs(25, rng, 1.0);
  const SvmModel a = SvmTrainer({}).train(d);
  const SvmModel b = SvmTrainer({}).train(d);
  ASSERT_EQ(a.support_vector_count(), b.support_vector_count());
  EXPECT_EQ(a.bias(), b.bias());
  EXPECT_EQ(a.coefficients(), b.coefficients());
}

}  // namespace
}  // namespace leaps::ml
