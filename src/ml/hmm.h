// Discrete hidden Markov model — the paper's Section VI-B future work.
//
// "LEAPS only takes the order of adjacent events into account … we plan to
// explore more machine learning techniques, such as conditional random
// field model and hidden Markov model, to reveal such hidden relationships
// between events." This module provides that exploration:
//
//  * Hmm — a discrete-observation HMM trained with (scaled) Baum-Welch.
//    Training accepts a *weight per sequence*, so the same CFG-derived
//    confidences that drive the Weighted SVM can discount mislabeled
//    mixed-log sequences — a weighted-HMM analogue of Eqn. 2.
//  * HmmClassifier — benign/malicious log-likelihood-ratio classifier: one
//    HMM per class; a sequence is malicious when the malicious model
//    explains it better (per-symbol LLR above a threshold tuned on the
//    training data).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace leaps::ml {

struct HmmParams {
  std::size_t states = 5;
  std::size_t max_iterations = 30;
  /// Stop when the total log-likelihood improves by less than this.
  double tolerance = 1e-3;
  /// Additive smoothing applied to all probability re-estimates.
  double smoothing = 1e-3;
  std::uint64_t seed = 1;
};

/// Observation sequences are vectors of symbol ids in [0, num_symbols).
using Sequence = std::vector<int>;

class Hmm {
 public:
  /// Trains with Baum-Welch. `weights` (same length as `sequences`, values
  /// in [0, 1]) scale each sequence's contribution to the re-estimation;
  /// pass all-ones for classic maximum likelihood. Zero-weight and empty
  /// sequences are ignored. Throws std::invalid_argument when no sequence
  /// has positive weight or a symbol is out of range.
  static Hmm train(const std::vector<Sequence>& sequences,
                   const std::vector<double>& weights,
                   std::size_t num_symbols, const HmmParams& params);

  /// Natural-log likelihood of the sequence (scaled forward algorithm).
  /// Returns -inf for sequences the model gives zero probability
  /// (prevented in practice by smoothing). Empty sequences score 0.
  double log_likelihood(const Sequence& sequence) const;

  std::size_t states() const { return transition_.size(); }
  std::size_t symbols() const { return num_symbols_; }
  const std::vector<double>& initial() const { return initial_; }
  const std::vector<std::vector<double>>& transition() const {
    return transition_;
  }
  const std::vector<std::vector<double>>& emission() const {
    return emission_;
  }

 private:
  Hmm() = default;

  std::size_t num_symbols_ = 0;
  std::vector<double> initial_;                  // π[s]
  std::vector<std::vector<double>> transition_;  // A[s][s']
  std::vector<std::vector<double>> emission_;    // B[s][symbol]
};

/// Benign/malicious classifier from two HMMs (Section VI-B model).
class HmmClassifier {
 public:
  struct Options {
    HmmParams hmm;
    /// Threshold search grid granularity for tuning the LLR cut.
    std::size_t threshold_grid = 41;
  };

  HmmClassifier() = default;
  explicit HmmClassifier(Options options) : options_(options) {}

  /// `benign` sequences are positives (weight 1); `mixed` sequences are
  /// negatives whose weights come from the CFG weight assessment (pass
  /// all-ones for the unweighted baseline). The decision threshold is
  /// tuned to maximize confidence-weighted accuracy on the training data.
  void fit(const std::vector<Sequence>& benign,
           const std::vector<Sequence>& mixed,
           const std::vector<double>& mixed_weights,
           std::size_t num_symbols);

  /// Per-symbol log-likelihood ratio (malicious minus benign); greater
  /// means more malicious.
  double score(const Sequence& sequence) const;

  /// +1 benign / -1 malicious.
  int predict(const Sequence& sequence) const;

  bool fitted() const { return fitted_; }
  double threshold() const { return threshold_; }
  const Hmm& benign_model() const;

 private:
  Options options_;
  bool fitted_ = false;
  double threshold_ = 0.0;
  std::vector<Hmm> models_;  // [0] benign, [1] malicious (filled by fit)
};

}  // namespace leaps::ml
