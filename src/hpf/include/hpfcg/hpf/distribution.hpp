#pragma once
// HPF data distributions.
//
// Implements the mappings behind the paper's directives:
//
//   !HPF$ DISTRIBUTE p(BLOCK)              -> Distribution::block
//   !HPF$ DISTRIBUTE row(BLOCK((n+NP-1)/NP)) -> Distribution::block_size
//   !HPF$ DISTRIBUTE row(CYCLIC)           -> Distribution::cyclic
//   !HPF$ DISTRIBUTE row(CYCLIC(k))        -> Distribution::cyclic_size
//
// plus two forms HPF-1 lacks and the paper's Section 5 proposes:
//
//   cut-point distributions (the ATOM: BLOCK result — "a small array in the
//   size of the number of processors keeps the cut-off points") ->
//   Distribution::from_cuts, and
//   fully indirect ownership maps (Vienna-Fortran style)        ->
//   Distribution::indirect.
//
// A Distribution answers the three questions owner-computes code generation
// needs: who owns global index i, what is its local index there, and what
// does rank r own.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hpfcg::hpf {

/// Immutable mapping of a 1-D global index space [0, n) onto NP processors.
class Distribution {
 public:
  enum class Kind {
    kBlock,     ///< HPF BLOCK: contiguous blocks of ceil(n/NP)
    kBlockK,    ///< HPF BLOCK(k): contiguous blocks of exactly k
    kCyclic,    ///< HPF CYCLIC: round-robin single elements
    kCyclicK,   ///< HPF CYCLIC(k): round-robin blocks of k
    kCuts,      ///< contiguous with explicit cut points (atom/balanced)
    kIndirect,  ///< arbitrary per-element owner map
  };

  /// HPF BLOCK over n elements and np processors.
  static Distribution block(std::size_t n, int np);

  /// HPF BLOCK(k).  Requires k*np >= n (at most one block per processor),
  /// which is what the paper's `BLOCK((n+NP-1)/NP)` guarantees.
  static Distribution block_size(std::size_t n, int np, std::size_t k);

  /// HPF CYCLIC.
  static Distribution cyclic(std::size_t n, int np);

  /// HPF CYCLIC(k) block-cyclic.
  static Distribution cyclic_size(std::size_t n, int np, std::size_t k);

  /// Contiguous distribution given np+1 nondecreasing cut points with
  /// cuts.front()==0 and cuts.back()==n.  Rank r owns [cuts[r], cuts[r+1]).
  static Distribution from_cuts(std::size_t n, std::vector<std::size_t> cuts);

  /// Arbitrary ownership: owner[i] in [0, np).  Local numbering is by
  /// ascending global index within each rank.
  static Distribution indirect(int np, std::vector<int> owner);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] int nprocs() const { return np_; }
  [[nodiscard]] Kind kind() const { return kind_; }

  /// Rank owning global index i.
  [[nodiscard]] int owner(std::size_t i) const;

  /// Position of global index i within its owner's local storage.
  [[nodiscard]] std::size_t local_index(std::size_t i) const;

  /// Number of elements rank r owns.
  [[nodiscard]] std::size_t local_count(int r) const;

  /// Global index of rank r's li-th local element.
  [[nodiscard]] std::size_t global_index(int r, std::size_t li) const;

  /// True when each rank's elements form one contiguous global range.
  [[nodiscard]] bool contiguous() const;

  /// For contiguous distributions: the global [lo, hi) range of rank r.
  [[nodiscard]] std::pair<std::size_t, std::size_t> local_range(int r) const;

  /// Per-rank element counts (index = rank).
  [[nodiscard]] const std::vector<std::size_t>& counts() const {
    return counts_;
  }

  /// For kCuts: the replicated cut-point array (np+1 entries).
  [[nodiscard]] const std::vector<std::size_t>& cuts() const;

  /// Human-readable name ("BLOCK", "CYCLIC(4)", ...) for tables.
  [[nodiscard]] std::string name() const;

  /// Two distributions are equal iff they map every index identically
  /// (same owner and local index).  O(NP) unless one side is an INDIRECT
  /// map that is not rank-ordered, which walks the owners — see the rules
  /// in distribution.cpp.
  bool operator==(const Distribution& o) const;

 private:
  Distribution(Kind kind, std::size_t n, int np, std::size_t k);

  void build_counts();

  Kind kind_;
  std::size_t n_;
  int np_;
  std::size_t k_ = 0;  ///< block size for kBlock/kBlockK/kCyclic(K)
  /// Rank r owns the r-th run of counts_ in global order, so counts_ alone
  /// fixes every (owner, local index).  Set by build_counts().
  bool rank_ordered_ = false;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> cuts_;       ///< kCuts only
  std::vector<int> owner_map_;          ///< kIndirect only
  std::vector<std::size_t> local_map_;  ///< kIndirect: global -> local index
  std::vector<std::vector<std::size_t>> rank_globals_;  ///< kIndirect
};

/// Shared immutable distribution handle; aligned arrays share one instance,
/// mirroring `!HPF$ ALIGN (:) WITH p(:)` — see dist_vector.hpp.
using DistPtr = std::shared_ptr<const Distribution>;

/// Convenience wrapper producing a shared handle.
template <class... Args>
DistPtr make_block(Args&&... args) {
  return std::make_shared<const Distribution>(
      Distribution::block(std::forward<Args>(args)...));
}

}  // namespace hpfcg::hpf
