#include "ml/dataset.h"

#include "util/check.h"

namespace leaps::ml {

void Dataset::add(FeatureVector x, int label, double w) {
  X.push_back(std::move(x));
  y.push_back(label);
  weight.push_back(w);
}

void Dataset::append(const Dataset& other) {
  X.insert(X.end(), other.X.begin(), other.X.end());
  y.insert(y.end(), other.y.begin(), other.y.end());
  weight.insert(weight.end(), other.weight.begin(), other.weight.end());
}

void Dataset::validate() const {
  LEAPS_CHECK(X.size() == y.size());
  LEAPS_CHECK(X.size() == weight.size());
  const std::size_t d = dims();
  for (std::size_t i = 0; i < X.size(); ++i) {
    LEAPS_CHECK_MSG(X[i].size() == d, "inconsistent feature dimensions");
    LEAPS_CHECK_MSG(y[i] == 1 || y[i] == -1, "label must be +1 or -1");
    LEAPS_CHECK_MSG(weight[i] >= 0.0 && weight[i] <= 1.0,
                    "weight must be in [0,1]");
  }
}

std::vector<std::size_t> Dataset::positive_rows() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < weight.size(); ++i) {
    if (weight[i] > 0.0) out.push_back(i);
  }
  return out;
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out;
  out.X.reserve(indices.size());
  for (const std::size_t i : indices) {
    LEAPS_CHECK(i < X.size());
    out.add(X[i], y[i], weight[i]);
  }
  return out;
}

}  // namespace leaps::ml
