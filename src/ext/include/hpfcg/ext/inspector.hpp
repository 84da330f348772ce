#pragma once
// Inspector/executor schedules for irregular array accesses.
//
// Section 5.1: "As the array q is accessed through a level of indirection,
// the value of its index (i.e. row(k)) can be known only at run-time.
// Inspector-executor mechanisms [15] which are costly in nature should be
// employed for the determination of the owner" — and the paper cites
// Ponnusamy/Saltz/Choudhary's *communication schedule reuse* as the
// mitigation.  These classes implement exactly that machinery:
//
//   GatherSchedule      result(i) = x(idx(i))        (vector subscript read)
//   ScatterAddSchedule  y(idx(i)) += x(i)            (many-to-one update)
//
// The *inspector* (constructor) orders the local index slots by owner and
// builds one sparse::ExchangePlan over them, which exchanges the index
// lists once; every *executor* run (execute()) then moves only values,
// one message per nonempty rank pair.  Reusing a schedule across sweeps
// amortizes the inspector — the measured subject of bench_inspector.

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/exchange_plan.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::ext {

namespace detail {

/// The inspector both schedules share: the local slots of `idx` ordered
/// by the owner of the element each names, stable within an owner (one
/// counting pass over the NP owners, O(m + NP)), and the exchange plan
/// whose wanted list is those elements in that order.  The executors
/// stage values in plan order.
template <class T>
class OwnerOrderedPlan {
 public:
  OwnerOrderedPlan(msg::Process& proc, std::span<const std::size_t> idx,
                   const hpf::Distribution& owners, const char* range_error)
      : proc_(&proc), n_(owners.size()), slot_(idx.size()),
        stage_(idx.size()) {
    std::vector<std::size_t> start(static_cast<std::size_t>(proc.nprocs()) +
                                   1);
    std::vector<int> owner(idx.size());
    for (std::size_t l = 0; l < idx.size(); ++l) {
      HPFCG_REQUIRE(idx[l] < n_, range_error);
      owner[l] = owners.owner(idx[l]);
      ++start[static_cast<std::size_t>(owner[l]) + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::size_t> wanted(idx.size());
    for (std::size_t l = 0; l < idx.size(); ++l) {
      const std::size_t k = start[static_cast<std::size_t>(owner[l])]++;
      slot_[k] = l;
      wanted[k] = idx[l];
    }
    plan_.build(proc, wanted, owners);
  }

  /// out[l] = the element idx[l] names, with `owned` this rank's block of
  /// the owners' vector.
  void gather(std::span<const T> owned, std::span<T> out) const {
    auto span = replay(0);
    span.set_bytes(
        plan_.gather<T>(*proc_, kGatherTag, owned, stage_, pack_).bytes);
    for (std::size_t k = 0; k < slot_.size(); ++k) out[slot_[k]] = stage_[k];
  }

  /// The element idx[l] names gets in[l] added, in ascending source rank.
  void scatter_add(std::span<const T> in, std::span<T> owned) const {
    auto span = replay(1);
    for (std::size_t k = 0; k < slot_.size(); ++k) stage_[k] = in[slot_[k]];
    span.set_bytes(
        plan_.scatter_add<T>(*proc_, kScatterTag, stage_, owned, pack_)
            .bytes);
  }

 private:
  static constexpr int kGatherTag = 0x2601;
  static constexpr int kScatterTag = 0x2602;

  /// Opening of every execute: post the ledger record (the owners'
  /// global length is the replicated fingerprint) and open the kHalo
  /// span (aux: 0 gather, 1 scatter-add).
  [[nodiscard]] trace::SpanScope replay(std::uint8_t aux) const {
    proc_->conform_halo(sizeof(T), n_);
    return trace::SpanScope(
        proc_->tracer_rank(), trace::SpanKind::kHalo,
        static_cast<std::uint32_t>(plan_.send_peers() + plan_.recv_peers()),
        0, 0, aux);
  }

  msg::Process* proc_;
  std::size_t n_;                  ///< global length of the owners' vector
  std::vector<std::size_t> slot_;  ///< local idx slot of plan position k
  sparse::ExchangePlan plan_;
  mutable std::vector<T> stage_;  ///< values in plan order
  mutable std::vector<T> pack_;   ///< executor pack/unpack scratch
};

}  // namespace detail

/// Schedule for result(i) = x(idx(i)): `idx` is distributed like `result`,
/// x like `src_dist`.  Built collectively; reusable for any x/result with
/// the same distributions and the same index values.
template <class T>
class GatherSchedule {
 public:
  GatherSchedule(msg::Process& proc,
                 const hpf::DistributedVector<std::size_t>& idx,
                 hpf::DistPtr src_dist)
      : src_dist_(std::move(src_dist)), result_dist_(idx.dist_ptr()),
        plan_(proc, idx.local(), *src_dist_, "gather: index out of range") {}

  /// Executor: moves values only.  `x` must use the schedule's source
  /// distribution, `result` the index vector's distribution.
  void execute(const hpf::DistributedVector<T>& x,
               hpf::DistributedVector<T>& result) const {
    HPFCG_REQUIRE(x.dist() == *src_dist_,
                  "gather: x distribution differs from the schedule");
    HPFCG_REQUIRE(result.dist() == *result_dist_,
                  "gather: result distribution differs from the schedule");
    plan_.gather(x.local(), result.local());
  }

 private:
  hpf::DistPtr src_dist_;
  hpf::DistPtr result_dist_;
  detail::OwnerOrderedPlan<T> plan_;
};

/// Schedule for y(idx(i)) += x(i): the many-to-one accumulation of the
/// paper's Scenario 2 inner loop, as a first-class schedule.  `idx` and
/// `x` share a distribution; `y` uses `target_dist`.  Contributions to the
/// same element (from any rank) sum in ascending source rank, each rank's
/// in its local order.
template <class T>
class ScatterAddSchedule {
 public:
  ScatterAddSchedule(msg::Process& proc,
                     const hpf::DistributedVector<std::size_t>& idx,
                     hpf::DistPtr target_dist)
      : src_dist_(idx.dist_ptr()), target_dist_(std::move(target_dist)),
        plan_(proc, idx.local(), *target_dist_,
              "scatter_add: index out of range") {}

  /// Executor: y(idx(i)) += x(i) for every i, across all ranks.
  void execute(const hpf::DistributedVector<T>& x,
               hpf::DistributedVector<T>& y) const {
    HPFCG_REQUIRE(x.dist() == *src_dist_,
                  "scatter_add: x distribution differs from the schedule");
    HPFCG_REQUIRE(y.dist() == *target_dist_,
                  "scatter_add: y distribution differs from the schedule");
    plan_.scatter_add(x.local(), y.local());
  }

 private:
  hpf::DistPtr src_dist_;
  hpf::DistPtr target_dist_;
  detail::OwnerOrderedPlan<T> plan_;
};

}  // namespace hpfcg::ext
