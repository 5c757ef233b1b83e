// Tests for the parallel training substrate (util/parallel.h) and the
// fast paths built on it: flat Gram matrix, interned condensed Jaccard,
// cached-NN UPGMA, and parallel cross-validation. The contract under test
// throughout: results are bit-identical for every thread count, and the
// fast paths agree with the straightforward reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ml/cross_validation.h"
#include "ml/distance.h"
#include "ml/hcluster.h"
#include "ml/kernel.h"
#include "ml/svm.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace leaps {
namespace {

// ========================= parallel_for mechanics ========================

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::Parallel::set_threads(threads);
    std::vector<std::atomic<int>> hits(1001);
    for (auto& h : hits) h.store(0);
    util::parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, EmptyAndSingleChunkRangesRunInline) {
  util::Parallel::set_threads(4);
  int calls = 0;
  util::parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for(0, 3, 8, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ChunkLayoutIndependentOfThreadCount) {
  // The (begin, end) pairs handed to the body depend only on the grain —
  // never on how many workers happen to exist.
  const auto layout = [](std::size_t threads) {
    util::Parallel::set_threads(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    util::parallel_for(3, 100, 9, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  EXPECT_EQ(layout(1), layout(8));
}

TEST(ParallelFor, RethrowsFirstFailingChunk) {
  util::Parallel::set_threads(4);
  try {
    util::parallel_for(0, 100, 10, [&](std::size_t b, std::size_t) {
      throw std::runtime_error("boom@" + std::to_string(b));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    // Every chunk throws; the lowest-indexed chunk's exception wins,
    // regardless of scheduling.
    EXPECT_STREQ(e.what(), "boom@0");
  }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  util::Parallel::set_threads(4);
  std::vector<int> out(20 * 20, 0);
  util::parallel_for(0, 20, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t i = ob; i < oe; ++i) {
      util::parallel_for(0, 20, 1, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j) {
          out[i * 20 + j] = static_cast<int>(i + j);
        }
      });
    }
  });
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      ASSERT_EQ(out[i * 20 + j], static_cast<int>(i + j));
    }
  }
}

TEST(ParallelFor, SetThreadsZeroResolvesAutomaticDefault) {
  util::Parallel::set_threads(0);
  EXPECT_GE(util::Parallel::threads(), 1u);
}

// ========================= CondensedMatrix layout ========================

TEST(CondensedMatrix, IndexMatchesRowMajorUpperTriangle) {
  const std::size_t n = 7;
  ml::CondensedMatrix dm(n);
  std::size_t flat = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(dm.index(i, j), flat);
      ASSERT_EQ(dm.index(j, i), flat);  // unordered pair
      ++flat;
    }
  }
  EXPECT_EQ(flat, n * (n - 1) / 2);
  EXPECT_EQ(dm.data().size(), flat);

  // row(i) points at the i/(i+1) entry; the row is contiguous.
  dm.ref(2, 3) = 0.25;
  dm.ref(2, 6) = 0.75;
  EXPECT_EQ(dm.row(2)[0], 0.25);
  EXPECT_EQ(dm.row(2)[3], 0.75);
  EXPECT_EQ(dm.at(3, 2), 0.25);
  EXPECT_EQ(dm.at(4, 4), 0.0);  // diagonal
}

// ===================== GramMatrix vs direct evaluation ===================

std::vector<std::vector<double>> random_rows(std::size_t n, std::size_t d,
                                             util::Rng& rng) {
  std::vector<std::vector<double>> X(n, std::vector<double>(d));
  for (auto& row : X) {
    for (double& v : row) v = 4.0 * rng.next_double() - 2.0;
  }
  return X;
}

TEST(GramMatrix, AgreesWithKernelParamsToTwelveDecimals) {
  util::Rng rng(1234);
  const auto X = random_rows(31, 5, rng);
  for (const double sigma2 : {0.5, 3.0, 32.0}) {
    const ml::KernelParams kernel{.sigma2 = sigma2};
    const ml::GramMatrix K(X, kernel);
    ASSERT_EQ(K.size(), X.size());
    for (std::size_t i = 0; i < X.size(); ++i) {
      for (std::size_t j = 0; j < X.size(); ++j) {
        const double ref = kernel(X[i], X[j]);
        const double tol = 1e-12 * std::max(1.0, std::fabs(ref));
        ASSERT_NEAR(K(i, j), ref, tol)
            << "sigma2 " << sigma2 << " at (" << i << "," << j << ")";
        ASSERT_EQ(K(i, j), K(j, i));  // exactly symmetric
      }
    }
  }
}

// The Gram build and the scorer share one Gaussian fast form, so a Gram
// entry K(i, j) is, bit for bit, the decision value at X[i] of the model
// whose only support vector is X[j] (coefficient 1, bias 0).
TEST(GramMatrix, EntryEqualsOneSupportVectorDecisionValueBitForBit) {
  util::Rng rng(4321);
  const auto X = random_rows(60, 30, rng);
  for (const double sigma2 : {2.0, 8.0, 32.0}) {
    const ml::KernelParams kernel{.sigma2 = sigma2};
    const ml::GramMatrix K(X, kernel);
    for (std::size_t j = 0; j < X.size(); ++j) {
      const ml::SvmModel one_sv({X[j]}, {1.0}, 0.0, kernel);
      for (std::size_t i = 0; i < X.size(); ++i) {
        ASSERT_EQ(K(i, j), one_sv.decision_value(X[i]))
            << "sigma2 " << sigma2 << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GramMatrix, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(99);
  const auto X = random_rows(64, 6, rng);
  ml::KernelParams kernel;  // Gaussian
  kernel.sigma2 = 8.0;
  util::Parallel::set_threads(1);
  const ml::GramMatrix k1(X, kernel);
  util::Parallel::set_threads(8);
  const ml::GramMatrix k8(X, kernel);
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (std::size_t j = 0; j < X.size(); ++j) {
      ASSERT_EQ(k1(i, j), k8(i, j));
    }
  }
  EXPECT_EQ(k1(0, 0), 1.0);  // Gaussian diagonal is exact
}

// ================== condensed Jaccard vs per-pair Eqn. 1 =================

std::vector<ml::StringSet> random_string_sets(std::size_t n,
                                              util::Rng& rng) {
  // A small token alphabet on purpose: identical sets and tied distances
  // are common, like real lib/func sets.
  const std::vector<std::string> alphabet = {
      "ntdll", "kernel32", "kernelbase", "user32", "advapi32",
      "ws2_32", "crypt32", "gdi32"};
  std::vector<ml::StringSet> sets(n);
  for (auto& s : sets) {
    for (const std::string& tok : alphabet) {
      if (rng.next_bool(0.4)) s.push_back(tok);
    }
    if (s.empty()) s.push_back(alphabet[rng.next_below(alphabet.size())]);
    std::sort(s.begin(), s.end());
  }
  return sets;
}

TEST(JaccardCondensed, MatchesSetDissimilarityBitwise) {
  util::Rng rng(7);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    util::Parallel::set_threads(threads);
    const auto sets = random_string_sets(40, rng);
    const ml::CondensedMatrix dm = ml::jaccard_condensed(sets);
    ASSERT_EQ(dm.n(), sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (std::size_t j = 0; j < sets.size(); ++j) {
        ASSERT_EQ(dm.at(i, j), ml::set_dissimilarity(sets[i], sets[j]))
            << "pair (" << i << "," << j << ")";
      }
    }
  }
}

// ==================== NN-chain UPGMA vs the reference ====================

void expect_same_result(const ml::ClusterResult& a,
                        const ml::ClusterResult& b, const char* what) {
  EXPECT_EQ(a.cluster_count, b.cluster_count) << what;
  EXPECT_EQ(a.assignment, b.assignment) << what;
  EXPECT_EQ(a.leaf_order, b.leaf_order) << what;
  ASSERT_EQ(a.positions.size(), b.positions.size()) << what;
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]) << what << " position " << i;
  }
}

class ClusterEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ClusterEquivalence, FastPathMatchesReferenceOnContinuousDistances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.next_below(60);
  std::vector<std::vector<double>> dm(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dm[i][j] = dm[j][i] = 0.05 + 0.95 * rng.next_double();
    }
  }
  for (const double cut : {0.2, 0.5, 2.0}) {
    const ml::HierarchicalClusterer c({.cut_distance = cut});
    expect_same_result(c.cluster(dm), c.cluster_reference(dm), "random dm");
  }
  // max_clusters bound instead of the cut.
  const ml::HierarchicalClusterer c(
      {.cut_distance = 0.0, .max_clusters = 1 + n / 3});
  expect_same_result(c.cluster(dm), c.cluster_reference(dm), "max_clusters");
}

TEST_P(ClusterEquivalence, FastPathMatchesReferenceOnTieRichJaccard) {
  // Jaccard distances over a tiny alphabet are full of exact ties and
  // duplicate values — the adversarial case for merge-order equivalence,
  // and exactly what the production pipeline feeds the clusterer.
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  auto sets = random_string_sets(6 + rng.next_below(40), rng);
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  const auto dm = ml::jaccard_distance_matrix(sets);
  for (const double cut : {0.3, 0.5, 0.8}) {
    const ml::HierarchicalClusterer c({.cut_distance = cut});
    expect_same_result(c.cluster(dm), c.cluster_reference(dm), "jaccard dm");
  }
}

TEST_P(ClusterEquivalence, CondensedPathBitIdenticalAcrossThreadCounts) {
  util::Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
  const auto sets = random_string_sets(30, rng);
  const ml::HierarchicalClusterer c({.cut_distance = 0.5});
  util::Parallel::set_threads(1);
  const ml::ClusterResult r1 = c.cluster(ml::jaccard_condensed(sets));
  util::Parallel::set_threads(8);
  const ml::ClusterResult r8 = c.cluster(ml::jaccard_condensed(sets));
  expect_same_result(r1, r8, "thread counts");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterEquivalence,
                         ::testing::Range(21, 37));

// ============== SvmModel scoring with cached SV norms ====================

TEST(SvmModel, CachedNormScoringMatchesDirectKernelSum) {
  util::Rng rng(4242);
  const auto svs = random_rows(25, 4, rng);
  std::vector<double> coef(svs.size());
  for (double& c : coef) c = 2.0 * rng.next_double() - 1.0;
  ml::KernelParams kernel;  // Gaussian
  kernel.sigma2 = 5.0;
  const ml::SvmModel model(svs, coef, 0.125, kernel);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = random_rows(1, 4, rng)[0];
    double ref = 0.125;
    for (std::size_t i = 0; i < svs.size(); ++i) {
      ref += coef[i] * kernel(svs[i], x);
    }
    ASSERT_NEAR(model.decision_value(x), ref,
                1e-9 * std::max(1.0, std::fabs(ref)));
  }
}

// ============ cross-validation: byte-identical across threads ============

ml::Dataset blob_dataset(std::size_t per_class, util::Rng& rng) {
  ml::Dataset data;
  for (std::size_t i = 0; i < per_class; ++i) {
    data.add({rng.next_gaussian(), rng.next_gaussian()}, +1, 1.0);
    data.add({3.0 + rng.next_gaussian(), 3.0 + rng.next_gaussian()}, -1,
             0.25 + 0.75 * rng.next_double());
  }
  return data;
}

ml::GridSearchResult tune_with_threads(std::size_t threads,
                                       bool weighted) {
  util::Parallel::set_threads(threads);
  util::Rng data_rng(31337);
  const ml::Dataset data = blob_dataset(24, data_rng);
  ml::CrossValidationOptions options;
  options.lambdas = {1.0, 10.0};
  options.sigma2s = {2.0, 8.0};
  options.folds = 4;
  options.weighted_validation = weighted;
  util::Rng rng(7);
  return ml::tune_svm(data, {}, options, rng);
}

TEST(CrossValidation, TuneSvmByteIdenticalAcrossThreadCounts) {
  for (const bool weighted : {false, true}) {
    const ml::GridSearchResult serial = tune_with_threads(1, weighted);
    const ml::GridSearchResult parallel = tune_with_threads(8, weighted);
    EXPECT_EQ(serial.best.lambda, parallel.best.lambda);
    EXPECT_EQ(serial.best.kernel.sigma2, parallel.best.kernel.sigma2);
    EXPECT_EQ(serial.best_accuracy, parallel.best_accuracy);
    ASSERT_EQ(serial.trials.size(), parallel.trials.size());
    for (std::size_t i = 0; i < serial.trials.size(); ++i) {
      EXPECT_EQ(serial.trials[i].lambda, parallel.trials[i].lambda);
      EXPECT_EQ(serial.trials[i].sigma2, parallel.trials[i].sigma2);
      EXPECT_EQ(serial.trials[i].accuracy, parallel.trials[i].accuracy);
    }
    // The grid preserves trial order: λ outer, σ² inner.
    EXPECT_EQ(serial.trials.size(), 4u);
    EXPECT_EQ(serial.trials[0].lambda, 1.0);
    EXPECT_EQ(serial.trials[1].lambda, 1.0);
    EXPECT_EQ(serial.trials[0].sigma2, 2.0);
    EXPECT_EQ(serial.trials[1].sigma2, 8.0);
  }
}

// =============== end-to-end: SMO training across threads =================

TEST(SvmTrainer, TrainedModelBitIdenticalAcrossThreadCounts) {
  util::Rng data_rng(777);
  const ml::Dataset data = blob_dataset(30, data_rng);
  ml::SvmParams params;
  params.kernel.sigma2 = 4.0;
  params.lambda = 10.0;

  const auto train_with = [&](std::size_t threads) {
    util::Parallel::set_threads(threads);
    return ml::SvmTrainer(params).train(data);
  };
  const ml::SvmModel m1 = train_with(1);
  const ml::SvmModel m8 = train_with(8);
  EXPECT_EQ(m1.bias(), m8.bias());
  ASSERT_EQ(m1.support_vector_count(), m8.support_vector_count());
  EXPECT_EQ(m1.coefficients(), m8.coefficients());
  EXPECT_EQ(m1.support_vectors(), m8.support_vectors());
}

}  // namespace
}  // namespace leaps
