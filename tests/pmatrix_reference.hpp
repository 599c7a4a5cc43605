// Reference P(t) reconstruction for the kernel oracle tests: the scalar
// triple loop SubstitutionModel::transition_matrix ran before the
// reconstruction moved into the KernelOps table, kept line for line (its
// zero-skip included) so every tier's blocked kernel is held to it bit for
// bit — as rf_reference.hpp holds the flat forest to the per-node trainer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace lattice::phylo::reference {

/// out = left · diag(exp_lt) · right, the old loop's product, unclamped.
inline void pmatrix_product(std::span<const double> left,
                            std::span<const double> right,
                            std::span<const double> exp_lt, std::size_t n,
                            std::span<double> out) {
  std::vector<double> scaled(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    const double e = exp_lt[k];
    for (std::size_t j = 0; j < n; ++j) {
      scaled[k * n + j] = e * right[k * n + j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[i * n + j] = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double lik = left[i * n + k];
      if (lik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out[i * n + j] += lik * scaled[k * n + j];
      }
    }
  }
}

/// The old SubstitutionModel::transition_matrix body: identity at t <= 0,
/// else the product above with entries clamped to [0, 1].
inline void transition_matrix(std::span<const double> eigenvalues,
                              std::span<const double> left,
                              std::span<const double> right,
                              double branch_length, double rate,
                              std::span<double> out) {
  const std::size_t n = eigenvalues.size();
  const double t = branch_length * rate;
  if (t <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) out[i * n + i] = 1.0;
    return;
  }
  std::vector<double> exp_lt(n);
  for (std::size_t k = 0; k < n; ++k) {
    exp_lt[k] = std::exp(eigenvalues[k] * t);
  }
  pmatrix_product(left, right, exp_lt, n, out);
  for (double& value : out) value = std::clamp(value, 0.0, 1.0);
}

}  // namespace lattice::phylo::reference
