#include "core/estimator.hpp"

#include <atomic>
#include <cmath>

namespace lattice::core {

namespace {

/// Process-wide, not per object: an estimator assigned over another one
/// must not reuse an id the old model held.
std::uint64_t next_model_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

RuntimeEstimator::RuntimeEstimator(Config config)
    : config_(std::move(config)) {}

void RuntimeEstimator::train(const std::vector<TrainingExample>& corpus,
                             util::ThreadPool* pool) {
  corpus_ = corpus;
  rebuild(pool);
}

void RuntimeEstimator::rebuild(util::ThreadPool* pool) {
  if (corpus_.size() < 2) return;
  dataset_ = corpus_to_dataset(corpus_, config_.log_space);
  forest_.fit(*dataset_, config_.forest, pool);
  model_id_ = next_model_id();
  observations_since_train_ = 0;
}

std::optional<double> RuntimeEstimator::predict(
    const GarliFeatures& features) const {
  if (!forest_.trained()) return std::nullopt;
  const double raw = forest_.predict(to_feature_vector(features));
  return config_.log_space ? std::exp(raw) : raw;
}

void RuntimeEstimator::observe(const GarliFeatures& features, double runtime,
                               util::ThreadPool* pool) {
  // Only rebuild() reads the corpus, and with retraining off it never
  // runs again, so the example would be kept for nothing.
  if (config_.retrain_every == 0) return;
  corpus_.push_back(TrainingExample{features, runtime});
  ++observations_since_train_;
  if (observations_since_train_ >= config_.retrain_every) rebuild(pool);
}

double RuntimeEstimator::variance_explained() const {
  if (!forest_.trained()) return 0.0;
  return forest_.variance_explained();
}

std::vector<rf::ImportanceEntry> RuntimeEstimator::importance(
    util::Rng& rng, std::size_t repeats) const {
  return forest_.importance(rng, repeats);
}

}  // namespace lattice::core
