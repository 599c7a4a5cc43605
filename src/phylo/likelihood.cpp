#include "phylo/likelihood.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lattice::phylo {

namespace {
// The block kernels themselves live in src/phylo/kernels/ (scalar oracle
// plus AVX2/AVX-512 tiers, selected through kernel_ops_); this TU keeps
// only the orchestration around them.
constexpr std::size_t kB = LikelihoodEngine::kPatternBlock;
static_assert(kB == kernels::kPatternBlock,
              "engine block size must match the kernel block size");
}  // namespace

LikelihoodEngine::LikelihoodEngine(const PatternizedAlignment& data)
    : data_(&data) {
  n_leaves_ = data.n_taxa();
  const std::size_t n_patterns = data.n_patterns();
  n_blocks_ = (n_patterns + kB - 1) / kB;
  n_pad_ = n_blocks_ * kB;
  // Transpose the pattern-major alignment into taxon-major tip rows so the
  // leaf kernel streams contiguous states; pad lanes replicate the last
  // real pattern so they follow the same scaling dynamics as real data.
  tips_.resize(n_leaves_ * n_pad_);
  for (std::size_t taxon = 0; taxon < n_leaves_; ++taxon) {
    State* row = tips_.data() + taxon * n_pad_;
    for (std::size_t pat = 0; pat < n_patterns; ++pat) {
      row[pat] = data.state(taxon, pat);
    }
    const State last = n_patterns > 0 ? row[n_patterns - 1] : kMissing;
    for (std::size_t pat = n_patterns; pat < n_pad_; ++pat) row[pat] = last;
  }
  set_observability(obs::MetricsRegistry::null(), obs::Tracer::null());
}

void LikelihoodEngine::set_observability(obs::MetricsRegistry& metrics,
                                         obs::Tracer& tracer) {
  obs_tracer_ = &tracer;
  obs_wall_track_ = tracer.wall_track("phylo.likelihood");
  obs_evaluations_ = &metrics.counter("phylo.evaluations", "calls",
                                      "log_likelihood calls served");
  obs_partials_reused_ = &metrics.counter(
      "phylo.partials_reused", "partials",
      "(node, category) partials served from the dirty-partial cache");
  obs_partials_recomputed_ = &metrics.counter(
      "phylo.partials_recomputed", "partials",
      "(node, category) partials recomputed by the pruning kernel");
  obs_cache_hits_ = &metrics.counter(
      "phylo.matrix_cache_hits", "lookups",
      "transition matrices served from the P(t) cache");
  obs_cache_misses_ = &metrics.counter(
      "phylo.matrix_cache_misses", "lookups",
      "transition matrices rebuilt on a P(t) cache miss");
  // Publish only activity after binding: snapshot the current totals.
  pub_evaluations_ = evaluations_;
  pub_partials_reused_ = partials_reused_;
  pub_partials_recomputed_ = partials_recomputed_;
  pub_cache_hits_ = cache_hits_;
  pub_cache_misses_ = cache_misses_;
}

void LikelihoodEngine::publish_observability() {
  obs_evaluations_->inc(evaluations_ - pub_evaluations_);
  obs_partials_reused_->inc(partials_reused_ - pub_partials_reused_);
  obs_partials_recomputed_->inc(partials_recomputed_ -
                                pub_partials_recomputed_);
  obs_cache_hits_->inc(cache_hits_ - pub_cache_hits_);
  obs_cache_misses_->inc(cache_misses_ - pub_cache_misses_);
  pub_evaluations_ = evaluations_;
  pub_partials_reused_ = partials_reused_;
  pub_partials_recomputed_ = partials_recomputed_;
  pub_cache_hits_ = cache_hits_;
  pub_cache_misses_ = cache_misses_;
}

const double* LikelihoodEngine::transition(const SubstitutionModel& model,
                                           double branch_length,
                                           double rate) {
  if (!cache_enabled_) {
    model.transition_matrix(branch_length, rate, p_matrix_, *kernel_ops_);
    return p_matrix_.data();
  }
  const MatrixKey key{model.serial(),
                      std::bit_cast<std::uint64_t>(branch_length),
                      std::bit_cast<std::uint64_t>(rate)};
  const auto it = slot_of_.find(key);
  if (it != slot_of_.end()) {
    ++cache_hits_;
    MatrixSlot& slot = slots_[it->second];
    slot.referenced = true;
    return slot.matrix.data();
  }
  ++cache_misses_;
  std::size_t index = slots_.size();
  if (index < cache_capacity_) {
    slots_.push_back(MatrixSlot{key, false, {}});
    slots_.back().matrix.resize(n_states_ * n_states_);
  } else {
    // CLOCK: the hand clears referenced bits until it reaches an entry not
    // hit since it was stored or since the hand last passed it. Slots are
    // visited in a fixed order, so the victim (and every exported counter)
    // is the same on any platform. The victim's bit is already clear.
    while (slots_[clock_hand_].referenced) {
      slots_[clock_hand_].referenced = false;
      clock_hand_ = (clock_hand_ + 1) % slots_.size();
    }
    index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % slots_.size();
    slot_of_.erase(slots_[index].key);
    slots_[index].key = key;
    ++cache_evictions_;
  }
  MatrixSlot& slot = slots_[index];
  model.transition_matrix(branch_length, rate, slot.matrix, *kernel_ops_);
  slot_of_.emplace(key, static_cast<std::uint32_t>(index));
  return slot.matrix.data();
}

void LikelihoodEngine::resize_workspace(const Tree& tree,
                                        const SubstitutionModel& model) {
  n_states_ = model.n_states();
  n_cat_ = model.categories().size();
  slab_ = n_pad_ * n_states_;
  const std::size_t n_internal = tree.n_nodes() - n_leaves_;
  partials_.assign(n_internal * n_cat_ * slab_, 0.0);
  scales_.assign(n_internal * n_cat_ * n_pad_, 0.0);
  cached_n_nodes_ = tree.n_nodes();
  p_matrix_.resize(n_states_ * n_states_);
  // Cached matrices are sized for the old shape: start the cache over.
  cache_capacity_ = kResidentTrees * (tree.n_nodes() - 1) * n_cat_;
  slots_.clear();
  slot_of_.clear();
  clock_hand_ = 0;
}

void LikelihoodEngine::collect_dirty(const Tree& tree, bool full) {
  dirty_nodes_.clear();
  for (const int index : tree.postorder()) {
    if (tree.is_leaf(index)) continue;
    if (!full &&
        cached_revision_[static_cast<std::size_t>(index)] ==
            tree.revision(index)) {
      partials_reused_ += n_cat_;
      continue;
    }
    const Tree::Node& n = tree.node(index);
    dirty_nodes_.push_back(DirtyNode{index, n.left, n.right,
                                     tree.is_leaf(n.left),
                                     tree.is_leaf(n.right)});
    partials_recomputed_ += n_cat_;
  }
}

void LikelihoodEngine::gather_matrices(const Tree& tree,
                                       const SubstitutionModel& model) {
  // One serial pass out of the P(t) cache: matrices are resolved here and
  // copied into a dense per-evaluation buffer, so the kernels never hold a
  // pointer to a cache entry that a later miss may evict mid-gather.
  const auto categories = model.categories();
  const std::size_t nn = n_states_ * n_states_;
  edge_mats_.resize(dirty_nodes_.size() * 2 * n_cat_ * nn);
  for (std::size_t k = 0; k < dirty_nodes_.size(); ++k) {
    const DirtyNode& dn = dirty_nodes_[k];
    const int children[2] = {dn.left, dn.right};
    for (int side = 0; side < 2; ++side) {
      const double length = tree.branch_length(children[side]);
      for (std::size_t cat = 0; cat < n_cat_; ++cat) {
        const double* m = transition(model, length, categories[cat].rate);
        std::memcpy(
            edge_mats_.data() + ((2 * k + static_cast<std::size_t>(side)) *
                                     n_cat_ +
                                 cat) *
                                    nn,
            m, nn * sizeof(double));
      }
    }
  }
}

void LikelihoodEngine::compute_partials(std::size_t cat) {
  const std::size_t ns = n_states_;
  const std::size_t nn = ns * ns;
  const std::size_t n_patterns = data_->n_patterns();
  const kernels::KernelOps& ops = *kernel_ops_;
  for (std::size_t k = 0; k < dirty_nodes_.size(); ++k) {
    const DirtyNode& dn = dirty_nodes_[k];
    double* partial = partial_ptr(dn.node, cat);
    double* scale = scale_ptr(dn.node, cat);
    const double* left_mat =
        edge_mats_.data() + ((2 * k + 0) * n_cat_ + cat) * nn;
    const double* right_mat =
        edge_mats_.data() + ((2 * k + 1) * n_cat_ + cat) * nn;
    const double* left_partial =
        dn.left_leaf ? nullptr : partial_ptr(dn.left, cat);
    const double* right_partial =
        dn.right_leaf ? nullptr : partial_ptr(dn.right, cat);
    const double* left_scale =
        dn.left_leaf ? nullptr : scale_ptr(dn.left, cat);
    const double* right_scale =
        dn.right_leaf ? nullptr : scale_ptr(dn.right, cat);
    const State* left_states =
        dn.left_leaf
            ? tips_.data() + static_cast<std::size_t>(dn.left) * n_pad_
            : nullptr;
    const State* right_states =
        dn.right_leaf
            ? tips_.data() + static_cast<std::size_t>(dn.right) * n_pad_
            : nullptr;

    for (std::size_t b = 0; b < n_blocks_; ++b) {
      double* block = partial + b * ns * kB;
      ops.apply_child_assign(
          block, left_partial ? left_partial + b * ns * kB : nullptr,
          left_states ? left_states + b * kB : nullptr, left_mat, ns);
      ops.apply_child_mul(
          block, right_partial ? right_partial + b * ns * kB : nullptr,
          right_states ? right_states + b * kB : nullptr, right_mat, ns);

      // Cumulative subtree scale (children first, then this node's own
      // per-block rescale) fused with the max scan in the kernel
      // epilogue. `lanes` masks the pad lanes of the final block out of
      // the rescale decision.
      const std::size_t lanes =
          std::min<std::size_t>(kB, n_patterns - b * kB);
      ops.block_epilogue(block, scale + b * kB,
                         left_scale ? left_scale + b * kB : nullptr,
                         right_scale ? right_scale + b * kB : nullptr, ns,
                         lanes);
    }
  }
}

double LikelihoodEngine::log_likelihood(const Tree& tree,
                                        const SubstitutionModel& model) {
  if (!obs_tracer_->enabled()) {
    // publish_observability against the null sinks is a handful of sink
    // increments; the un-instrumented hot loop stays free of clock reads.
    const double result = evaluate(tree, model);
    publish_observability();
    return result;
  }
  // lattice-lint: allow(wall-clock) — pure observation: opens the wall-clock likelihood span (pid 2 in the trace), never read back into results
  const double t0 = obs::Tracer::wall_now_us();
  const double result = evaluate(tree, model);
  obs_tracer_->complete_wall(obs_wall_track_, "log_likelihood",
                             "phylo.likelihood", t0,
                             // lattice-lint: allow(wall-clock) — pure observation: closes the wall-clock likelihood span
                             obs::Tracer::wall_now_us(),
                             {{"dirty", std::to_string(dirty_nodes_.size())}});
  publish_observability();
  return result;
}

double LikelihoodEngine::evaluate(const Tree& tree,
                                  const SubstitutionModel& model) {
  if (tree.n_leaves() != data_->n_taxa()) {
    throw std::invalid_argument("likelihood: tree/alignment taxon mismatch");
  }
  if (model.data_type() != data_->data_type()) {
    throw std::invalid_argument("likelihood: model/alignment type mismatch");
  }
  ++evaluations_;

  const std::size_t n_patterns = data_->n_patterns();
  const auto categories = model.categories();

  const bool shape_changed = n_states_ != model.n_states() ||
                             n_cat_ != categories.size() ||
                             cached_n_nodes_ != tree.n_nodes() ||
                             partials_.empty();
  if (shape_changed) resize_workspace(tree, model);
  const bool full = !incremental_enabled_ || shape_changed ||
                    cached_tree_uid_ != tree.uid() ||
                    cached_model_serial_ != model.serial();
  if (full) {
    cached_revision_.assign(tree.n_nodes(),
                            std::numeric_limits<std::uint64_t>::max());
  }

  collect_dirty(tree, full);
  if (!dirty_nodes_.empty()) {
    gather_matrices(tree, model);

    for (std::size_t cat = 0; cat < n_cat_; ++cat) compute_partials(cat);

    for (const DirtyNode& dn : dirty_nodes_) {
      cached_revision_[static_cast<std::size_t>(dn.node)] =
          tree.revision(dn.node);
    }
  }
  cached_tree_uid_ = tree.uid();
  cached_model_serial_ = model.serial();

  // Root summation and category mixing, fused in linear space: per pattern
  // the mix is sum_c w_c * site_c * exp(scale_c - max_scale), needing one
  // log (plus an exp only when categories rescaled differently) instead of
  // a log-sum-exp over per-category log-likelihoods. Serial, in pattern
  // order: the deterministic reduction.
  const auto freqs = model.frequencies();
  root_partials_.resize(n_cat_);
  root_scales_.resize(n_cat_);
  for (std::size_t cat = 0; cat < n_cat_; ++cat) {
    root_partials_[cat] = partial_ptr(tree.root(), cat);
    root_scales_[cat] = scale_ptr(tree.root(), cat);
  }
  // Per block: the kernel reduces each category's state rows to per-lane
  // site products (same ascending-state association as the old per-lane
  // loop), then the lanes are mixed serially in pattern order — the
  // deterministic reduction is untouched.
  root_site_buf_.resize(n_cat_ * kB);
  double total = 0.0;
  for (std::size_t b = 0; b < n_blocks_; ++b) {
    const std::size_t pat_lo = b * kB;
    const std::size_t pat_hi = std::min(n_patterns, pat_lo + kB);
    for (std::size_t cat = 0; cat < n_cat_; ++cat) {
      if (categories[cat].weight <= 0.0) continue;
      kernel_ops_->root_sites(root_partials_[cat] + b * n_states_ * kB,
                              freqs.data(), n_states_,
                              root_site_buf_.data() + cat * kB);
    }
    for (std::size_t pat = pat_lo; pat < pat_hi; ++pat) {
      const std::size_t lane = pat - pat_lo;
      double max_scale = root_scales_[0][pat];
      for (std::size_t cat = 1; cat < n_cat_; ++cat) {
        max_scale = std::max(max_scale, root_scales_[cat][pat]);
      }
      double mix = 0.0;
      for (std::size_t cat = 0; cat < n_cat_; ++cat) {
        const double weight = categories[cat].weight;
        if (weight <= 0.0) continue;
        const double site = root_site_buf_[cat * kB + lane];
        const double scale = root_scales_[cat][pat];
        mix += weight * site *
               (scale == max_scale ? 1.0 : std::exp(scale - max_scale));
      }
      if (!(mix > 0.0)) {
        return -std::numeric_limits<double>::infinity();
      }
      total += data_->weight(pat) * (std::log(mix) + max_scale);
    }
  }
  return total;
}

}  // namespace lattice::phylo
