// Dataset container for the statistical-learning layer.
//
// Labels follow the paper's convention: +1 = benign (positive), -1 =
// malicious/mixed (negative). `weight` is the per-sample confidence c_i of
// Eqn. 2 (1 for benign training data; CFG-derived for mixed data).
#pragma once

#include <cstddef>
#include <vector>

namespace leaps::ml {

using FeatureVector = std::vector<double>;

struct Dataset {
  std::vector<FeatureVector> X;
  std::vector<int> y;            // +1 or -1
  std::vector<double> weight;    // c_i in [0, 1]

  std::size_t size() const { return X.size(); }
  bool empty() const { return X.empty(); }

  void add(FeatureVector x, int label, double w = 1.0);
  void append(const Dataset& other);

  /// Number of feature dimensions (0 for an empty dataset).
  std::size_t dims() const { return X.empty() ? 0 : X.front().size(); }

  /// Throws std::logic_error if sizes disagree, labels are not ±1, weights
  /// fall outside [0,1], or rows have inconsistent dimensionality.
  void validate() const;

  /// Indices of the rows with weight > 0, ascending: the rows a weighted
  /// SVM can move, and so the rows its Gram covers.
  std::vector<std::size_t> positive_rows() const;

  /// Sub-dataset at the given row indices.
  Dataset subset(const std::vector<std::size_t>& indices) const;
};

}  // namespace leaps::ml
