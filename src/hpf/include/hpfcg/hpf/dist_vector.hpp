#pragma once
// Distributed 1-D arrays — the vectors of the CG algorithm.
//
// A DistributedVector is the lowered form of an HPF array with a DISTRIBUTE
// directive: each SPMD rank holds only its local shard.  Alignment
// (`!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b`) is expressed by sharing one
// Distribution instance: vectors aligned this way agree on the owner of
// every index, so element-wise operations between them are purely local —
// exactly the property the paper exploits for the SAXPY updates.

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::hpf {

/// SPMD-local handle to a distributed vector.  Constructed collectively:
/// every rank builds one with the same distribution.
template <class T>
class DistributedVector {
 public:
  DistributedVector(msg::Process& proc, DistPtr dist)
      : proc_(&proc), dist_(std::move(dist)) {
    HPFCG_REQUIRE(dist_ != nullptr, "DistributedVector needs a distribution");
    HPFCG_REQUIRE(dist_->nprocs() == proc.nprocs(),
                  "distribution processor count must match the machine");
    local_.assign(dist_->local_count(proc.rank()), T{});
  }

  /// `!HPF$ ALIGN new WITH other`: share the target's distribution.
  [[nodiscard]] static DistributedVector aligned_like(
      const DistributedVector& other) {
    return DistributedVector(*other.proc_, other.dist_);
  }

  [[nodiscard]] msg::Process& proc() const { return *proc_; }
  [[nodiscard]] const Distribution& dist() const { return *dist_; }
  [[nodiscard]] const DistPtr& dist_ptr() const { return dist_; }
  [[nodiscard]] std::size_t size() const { return dist_->size(); }

  [[nodiscard]] std::span<T> local() { return {local_.data(), local_.size()}; }
  [[nodiscard]] std::span<const T> local() const {
    return {local_.data(), local_.size()};
  }

  /// True if the calling rank owns global index g.
  [[nodiscard]] bool owns(std::size_t g) const {
    return dist_->owner(g) == proc_->rank();
  }

  /// Owner-side access to a global element (caller must own it).  An
  /// out-of-shard access is the paper's silent-corruption hazard: with
  /// checking enabled the trap names both the offending and the owning
  /// rank.
  [[nodiscard]] T& at_global(std::size_t g) {
    if (!owns(g)) ownership_fail(g, /*write=*/true);
    return local_[dist_->local_index(g)];
  }
  [[nodiscard]] const T& at_global(std::size_t g) const {
    if (!owns(g)) ownership_fail(g, /*write=*/false);
    return local_[dist_->local_index(g)];
  }

  /// Global index of the l-th local element on this rank.
  [[nodiscard]] std::size_t global_of(std::size_t l) const {
    return dist_->global_index(proc_->rank(), l);
  }

  /// Fill every owned element from a pure function of the global index.
  /// No communication (owner computes).
  void set_from(const std::function<T(std::size_t)>& f) {
    for (std::size_t l = 0; l < local_.size(); ++l) local_[l] = f(global_of(l));
  }

  /// Copy the owned slice out of a replicated full-length array.
  void from_global(std::span<const T> full) {
    HPFCG_REQUIRE(full.size() == size(), "from_global: length mismatch");
    for (std::size_t l = 0; l < local_.size(); ++l) {
      local_[l] = full[global_of(l)];
    }
  }

  /// Collective: materialize the whole vector on every rank, in global
  /// index order.  This is the all-to-all broadcast of Section 4 whose cost
  /// the paper analyses; the caller pays `allgather` communication.
  [[nodiscard]] std::vector<T> to_global() const {
    // The legacy/naive O(n) materialization (Scenario 1 as HPF-1 lowers
    // it).  The explicit span and gather_bytes counter keep the
    // gathered-vs-halo byte comparison honest in the bench tables: every
    // call delivers the whole vector minus this rank's block, regardless
    // of how few entries the caller actually reads.
    trace::SpanScope span(proc_->tracer_rank(), trace::SpanKind::kGatherFull,
                          0, size() * sizeof(T), proc_->tree_depth());
    proc_->stats().gather_bytes +=
        (size() - local().size()) * sizeof(T);
    std::vector<T> gathered;
    proc_->allgatherv<T>(local(), gathered, dist_->counts());
    if (dist_->contiguous()) return gathered;  // already in global order
    // Non-contiguous distributions: permute rank-concatenated order into
    // global order.
    std::vector<T> full(size());
    std::size_t pos = 0;
    for (int r = 0; r < proc_->nprocs(); ++r) {
      const std::size_t cnt = dist_->local_count(r);
      for (std::size_t l = 0; l < cnt; ++l) {
        full[dist_->global_index(r, l)] = gathered[pos++];
      }
    }
    return full;
  }

 private:
  [[noreturn]] void ownership_fail(std::size_t g, bool write) const {
    if (check::kCompiled && check::enabled()) {
      throw util::Error(
          "hpfcg::check: ownership violation: rank " +
          std::to_string(proc_->rank()) + " attempted an out-of-shard " +
          (write ? "write to" : "read of") + " global index " +
          std::to_string(g) + ", which is owned by rank " +
          std::to_string(dist_->owner(g)));
    }
    HPFCG_REQUIRE(false, "at_global: element not owned by this rank");
  }

  msg::Process* proc_;
  DistPtr dist_;
  std::vector<T> local_;
};

/// True when two vectors share an identical element→rank mapping (the HPF
/// alignment property that makes element-wise ops communication-free).
template <class T>
bool is_aligned(const DistributedVector<T>& a, const DistributedVector<T>& b) {
  return a.dist() == b.dist();
}

}  // namespace hpfcg::hpf
