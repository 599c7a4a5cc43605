// Felsenstein pruning over pattern-compressed data with per-block
// rescaling — the likelihood kernel at the heart of GARLI (and of BEAGLE,
// the GPU library the paper's group built; here it is a portable CPU
// implementation).
//
// Two stacked optimizations make the GA's hot loop cheap:
//   1. Dirty-partial caching: per-(node, category) conditional likelihoods
//      are kept across calls, tagged with the tree's per-node revision;
//      only nodes on the path from a mutated edge to the root recompute.
//   2. Blocked structure-of-arrays kernel: patterns are processed in
//      fixed-size blocks laid out state-major over 64-byte-aligned
//      storage, dispatched at runtime to the best ISA tier the host
//      supports (scalar / AVX2 / AVX-512, src/phylo/kernels/) — every
//      tier bit-identical by construction (DESIGN.md §14).
// Evaluation is serial: a search's parallelism lives in its islands
// (phylo/island.hpp), never inside one evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/kernels/kernels.hpp"
#include "phylo/model.hpp"
#include "phylo/tree.hpp"
#include "util/aligned.hpp"

namespace lattice::obs {
class Counter;
class MetricsRegistry;
class Tracer;
}

namespace lattice::phylo {

/// Evaluates log-likelihoods of trees for one alignment. The engine owns
/// the conditional-likelihood workspace so repeated evaluations (the GA's
/// hot loop) allocate nothing; the model is passed per call because the GA
/// mutates model parameters alongside topology.
class LikelihoodEngine {
 public:
  /// Patterns per SoA block. Each block stores n_states contiguous rows of
  /// kPatternBlock doubles; rescaling decisions are made per block.
  static constexpr std::size_t kPatternBlock = kernels::kPatternBlock;

  explicit LikelihoodEngine(const PatternizedAlignment& data);

  const PatternizedAlignment& data() const { return *data_; }

  /// Full-tree log-likelihood under `model`. Requirements: the tree's leaf
  /// count equals the alignment's taxon count and the model's data type
  /// matches the alignment. Incremental by default: when called again with
  /// the same tree object (same uid) and same compiled model, only nodes
  /// whose subtree revision changed are recomputed; anything else (new
  /// tree object, new model instance, shape change) falls back to a full
  /// recompute.
  double log_likelihood(const Tree& tree, const SubstitutionModel& model);

  /// Number of log_likelihood calls served (used by runtime calibration).
  std::uint64_t evaluations() const { return evaluations_; }

  /// Toggle dirty-partial reuse (on by default). Disabling forces every
  /// evaluation to recompute all internal nodes — the benchmark baseline.
  void enable_incremental(bool on) { incremental_enabled_ = on; }
  /// Per-(node, category) partials served from cache / recomputed.
  std::uint64_t partials_reused() const { return partials_reused_; }
  std::uint64_t partials_recomputed() const { return partials_recomputed_; }

  /// Pin this engine to one ISA kernel tier (clamped to what the host
  /// supports). The process-wide default is kernels::active_tier() — the
  /// best supported tier unless LATTICE_FORCE_ISA overrides it; this
  /// per-instance hook exists so tests and benches can compare tiers
  /// side by side. Safe to call between evaluations: all tiers are
  /// bit-identical, so switching never invalidates cached partials.
  void force_isa(kernels::IsaTier tier) {
    kernel_ops_ = &kernels::ops_for(tier);
  }
  /// Name of the kernel tier this engine dispatches to.
  const char* isa_name() const { return kernel_ops_->name; }

  /// Matrices of this many whole trees fit in the P(t) cache at once: a
  /// GA population (4) plus the children of one generation.
  static constexpr std::size_t kResidentTrees = 8;

  /// Enable the BEAGLE-style transition-matrix cache: P(t) matrices are
  /// memoized by (compiled model instance, branch length, rate). A GA
  /// child shares its parent's compiled model and differs from it in at
  /// most one branch length or model parameter, so most of its matrices
  /// hit: 0.86-0.89 of lookups in the garli_search benchmark's DNA,
  /// amino-acid and codon island searches at seeds 1 and 3 (0.07-0.21
  /// when every evaluation compiled a model of its own, whose new serial
  /// matched no entry). A miss is a dense reconstruction, 61x61 for
  /// codons. The cache holds kResidentTrees trees' matrices,
  /// kResidentTrees x (nodes - 1) x categories entries, fixed (and
  /// emptied) whenever the workspace shape changes. A new entry starts
  /// unmarked and a hit marks it. When the cache is full, a CLOCK hand
  /// walks the slots in order, clearing marks, and evicts the first
  /// unmarked entry; the new matrix is written into that slot's block, so
  /// a miss on a full cache allocates nothing.
  void enable_matrix_cache() { cache_enabled_ = true; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  std::uint64_t cache_evictions() const { return cache_evictions_; }
  /// Matrices resident in the cache (at most its capacity).
  std::size_t cache_entries() const { return slots_.size(); }

  /// Mirror the engine's statistics into obs instruments: counter deltas
  /// are published at the end of every log_likelihood call, and when the
  /// tracer is enabled each evaluation also emits a wall-clock span
  /// (likelihood evaluation is real compute, not simulated time). Defaults
  /// to the null sinks.
  void set_observability(obs::MetricsRegistry& metrics, obs::Tracer& tracer);

 private:
  struct DirtyNode {
    int node;
    int left;
    int right;
    bool left_leaf;
    bool right_leaf;
  };

  double evaluate(const Tree& tree, const SubstitutionModel& model);
  /// Push counter deltas since the previous publish into the bound sinks.
  void publish_observability();
  /// Returns the transition matrix for (branch_length, rate), through the
  /// cache when enabled. The pointer is valid only until the next call.
  const double* transition(const SubstitutionModel& model,
                           double branch_length, double rate);
  void resize_workspace(const Tree& tree, const SubstitutionModel& model);
  void collect_dirty(const Tree& tree, bool full);
  void gather_matrices(const Tree& tree, const SubstitutionModel& model);
  /// Recompute the partials of every dirty node for one category, block
  /// by block: the only code path for partials.
  void compute_partials(std::size_t cat);

  double* partial_ptr(int node, std::size_t cat) {
    return partials_.data() +
           ((static_cast<std::size_t>(node) - n_leaves_) * n_cat_ + cat) *
               slab_;
  }
  double* scale_ptr(int node, std::size_t cat) {
    return scales_.data() +
           ((static_cast<std::size_t>(node) - n_leaves_) * n_cat_ + cat) *
               n_pad_;
  }

  struct MatrixKey {
    std::uint64_t model_serial;
    std::uint64_t length_bits;
    std::uint64_t rate_bits;
    bool operator==(const MatrixKey&) const = default;
  };
  struct MatrixKeyHash {
    std::size_t operator()(const MatrixKey& key) const {
      std::uint64_t h = key.model_serial * 0x9e3779b97f4a7c15ULL;
      h ^= key.length_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= key.rate_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct MatrixSlot {
    MatrixKey key;
    bool referenced;  // CLOCK mark: set by a hit, cleared as the hand passes
    util::aligned_vector<double> matrix;
  };

  const PatternizedAlignment* data_;
  std::uint64_t evaluations_ = 0;
  bool incremental_enabled_ = true;
  std::uint64_t partials_reused_ = 0;
  std::uint64_t partials_recomputed_ = 0;

  bool cache_enabled_ = false;
  std::size_t cache_capacity_ = 0;  // set by resize_workspace
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  // Each slot owns one matrix block for the engine's life (until a shape
  // change); eviction walks the slots with clock_hand_, so the map is
  // only ever probed by exact key, never iterated.
  std::vector<MatrixSlot> slots_;
  std::size_t clock_hand_ = 0;
  // lattice-lint: allow(unordered-member) — keyed lookups only; eviction order is slot order (see transition())
  std::unordered_map<MatrixKey, std::uint32_t, MatrixKeyHash> slot_of_;

  // Cache identity: which (tree, model, shape) the stored partials belong
  // to. cached_revision_[node] mirrors Tree::revision at the time the
  // node's partial was computed.
  std::uint64_t cached_tree_uid_ = 0;
  std::uint64_t cached_model_serial_ = 0;
  std::size_t cached_n_nodes_ = 0;
  std::vector<std::uint64_t> cached_revision_;

  // Workspace geometry, fixed per (alignment, model-shape).
  std::size_t n_leaves_ = 0;
  std::size_t n_states_ = 0;
  std::size_t n_cat_ = 0;
  std::size_t n_pad_ = 0;    // n_patterns rounded up to kPatternBlock
  std::size_t n_blocks_ = 0;
  std::size_t slab_ = 0;     // n_pad_ * n_states_: one (node, cat) partial

  // Kernel tier this engine dispatches to (never null; defaults to the
  // process-wide active tier, overridable per instance via force_isa).
  const kernels::KernelOps* kernel_ops_ = &kernels::active_ops();

  // partials_: per (internal node, category) SoA blocks — block-major,
  // then state-major rows of kPatternBlock, 64-byte aligned so every
  // state row is an aligned vector load on every ISA tier. scales_: per
  // (internal node, category, pattern) *cumulative* log scaling of the
  // subtree, so a node's scale is its own rescale plus its children's,
  // and incremental recomputes stay local.
  util::aligned_vector<double> partials_;
  util::aligned_vector<double> scales_;
  // Taxon-major padded tip states; pad lanes replicate the last real
  // pattern so block rescaling sees no artificial outliers (and the
  // kernel epilogue additionally masks pads out of the rescale decision).
  util::aligned_vector<State> tips_;
  // Transition matrices for the current dirty set, copied out of the
  // cache: [(dirty_index * 2 + side) * n_cat + cat] * n_states^2.
  util::aligned_vector<double> edge_mats_;
  std::vector<DirtyNode> dirty_nodes_;
  util::aligned_vector<double> p_matrix_;  // uncached transition() scratch
  // Per-category root pointers, cached across the mixing loop.
  std::vector<const double*> root_partials_;
  std::vector<const double*> root_scales_;
  // Per-(category, block) root site products from the kernel, consumed
  // lane by lane by the serial pattern-order mixing loop.
  util::aligned_vector<double> root_site_buf_;

  // Observability (bound to the null sinks by the constructor). pub_* hold
  // the totals already published, so each publish is a cheap delta.
  obs::Tracer* obs_tracer_ = nullptr;
  int obs_wall_track_ = 0;
  obs::Counter* obs_evaluations_ = nullptr;
  obs::Counter* obs_partials_reused_ = nullptr;
  obs::Counter* obs_partials_recomputed_ = nullptr;
  obs::Counter* obs_cache_hits_ = nullptr;
  obs::Counter* obs_cache_misses_ = nullptr;
  std::uint64_t pub_evaluations_ = 0;
  std::uint64_t pub_partials_reused_ = 0;
  std::uint64_t pub_partials_recomputed_ = 0;
  std::uint64_t pub_cache_hits_ = 0;
  std::uint64_t pub_cache_misses_ = 0;
};

}  // namespace lattice::phylo
