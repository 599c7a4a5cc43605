// A priori GARLI runtime estimation with random forests (paper §VI), plus
// the continuous-update loop of §VI.E: completed jobs (and fork-off runs on
// the homogeneous reference cluster) are appended to the training matrix
// and the model is periodically rebuilt, "immediately available for use
// with incoming jobs".
//
// The forest regresses log-runtime: GARLI runtimes span five orders of
// magnitude, and relative error is what scheduling decisions care about.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "rf/forest.hpp"
#include "util/threadpool.hpp"

namespace lattice::core {

class RuntimeEstimator {
 public:
  struct Config {
    rf::ForestParams forest;
    /// Rebuild the model after this many new observations (0 = never).
    std::size_t retrain_every = 25;
    bool log_space = true;

    Config() {
      // The paper grows 1e4 trees; 500 reaches the same plateau at a
      // fraction of the cost (bench_rf_accuracy sweeps this). mtry is
      // raised above the p/3 regression default and leaves kept small:
      // the log-runtime surface is smooth and additive, which rewards
      // deeper, less decorrelated trees.
      forest.n_trees = 500;
      forest.tree.mtry = 5;
      forest.tree.min_leaf = 2;
      forest.seed = 17;
    }
  };

  explicit RuntimeEstimator(Config config = {});

  /// Train from scratch on a corpus. A thread pool parallelizes tree
  /// growth.
  void train(const std::vector<TrainingExample>& corpus,
             util::ThreadPool* pool = nullptr);

  bool trained() const { return forest_.trained(); }
  /// Identity of the fitted model: a fresh process-unique id on every fit
  /// (train(), or a rebuild triggered by observe()), 0 before the first.
  /// Equal ids mean predict() is the same function, so callers may cache
  /// estimates keyed on it.
  std::uint64_t model_id() const { return model_id_; }
  /// Examples the model is refitted from: the training corpus plus every
  /// observation since. With retrain_every == 0 observations are not kept
  /// (nothing would read them), so this stays at the training size.
  std::size_t corpus_size() const { return corpus_.size(); }

  /// Predicted runtime in reference seconds. Returns nullopt before the
  /// first training.
  std::optional<double> predict(const GarliFeatures& features) const;

  /// Record a completed job's observed reference runtime (§VI.E). Triggers
  /// a retrain when `retrain_every` observations have accumulated; a no-op
  /// when `retrain_every` is 0.
  void observe(const GarliFeatures& features, double runtime,
               util::ThreadPool* pool = nullptr);

  /// OOB percent variance explained, the figure the paper reports as ~93%.
  double variance_explained() const;

  /// Permutation importance of the nine predictors (Figure 2).
  std::vector<rf::ImportanceEntry> importance(util::Rng& rng,
                                              std::size_t repeats = 3) const;

  const Config& config() const { return config_; }

 private:
  void rebuild(util::ThreadPool* pool);

  Config config_;
  std::vector<TrainingExample> corpus_;
  rf::RandomForest forest_;
  std::optional<rf::Dataset> dataset_;
  std::size_t observations_since_train_ = 0;
  std::uint64_t model_id_ = 0;
};

}  // namespace lattice::core
