#pragma once
// REDISTRIBUTE: move a distributed vector onto a new distribution.
//
// HPF's DYNAMIC/REDISTRIBUTE directives (Section 5.2 of the paper) let the
// program adopt a data layout only known at run time — here, typically the
// atom-aligned or load-balanced cut-point distributions produced by the
// ext:: partitioners.  The exchange is a single personalized all-to-all.

#include <utility>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"

namespace hpfcg::hpf {

/// Collective: returns a copy of `src` distributed according to `target`.
/// Both distributions must describe the same global size and machine.
///
/// Only elements whose owner actually changes travel: keepers are copied
/// locally, and a pair of ranks exchanging nothing posts no message (the
/// all-to-all's sparsity pattern is derived on every rank from the two
/// replicated distributions).  A target equal to the source degenerates to
/// a pure local copy with no communication at all — the O(NP) comparison
/// takes the same branch on every rank, so the check ledger stays aligned.
template <class T>
DistributedVector<T> redistribute(const DistributedVector<T>& src,
                                  DistPtr target) {
  HPFCG_REQUIRE(target != nullptr, "redistribute: target required");
  HPFCG_REQUIRE(target->size() == src.size(),
                "redistribute: sizes must match");
  HPFCG_REQUIRE(target->nprocs() == src.dist().nprocs(),
                "redistribute: machine sizes must match");
  msg::Process& proc = src.proc();
  const int np = proc.nprocs();
  const int me = proc.rank();
  const Distribution& from = src.dist();
  const Distribution& to = *target;

  if (from == to) {
    DistributedVector<T> dst(proc, std::move(target));
    std::copy(src.local().begin(), src.local().end(), dst.local().begin());
    return dst;
  }

  // Build per-destination blocks: my elements that rank r owns under the
  // new distribution, in ascending global order (both sides enumerate the
  // same order, so no index metadata travels).  Keepers (new owner == me)
  // skip the buffers entirely.
  std::vector<std::vector<T>> send_blocks(static_cast<std::size_t>(np));
  const std::size_t mine = from.local_count(me);
  for (std::size_t l = 0; l < mine; ++l) {
    const std::size_t g = from.global_index(me, l);
    const int o = to.owner(g);
    if (o != me) send_blocks[static_cast<std::size_t>(o)].push_back(
        src.local()[l]);
  }
  std::vector<std::uint8_t> recv_mask(static_cast<std::size_t>(np), 0);
  const std::size_t new_mine = to.local_count(me);
  for (std::size_t l = 0; l < new_mine; ++l) {
    const int s = from.owner(to.global_index(me, l));
    if (s != me) recv_mask[static_cast<std::size_t>(s)] = 1;
  }

  const auto recv_blocks = proc.alltoallv_masked<T>(send_blocks, recv_mask);

  DistributedVector<T> dst(proc, std::move(target));
  std::vector<std::size_t> cursor(static_cast<std::size_t>(np), 0);
  for (std::size_t l = 0; l < new_mine; ++l) {
    const std::size_t g = to.global_index(me, l);
    const auto s = static_cast<std::size_t>(from.owner(g));
    dst.local()[l] = static_cast<int>(s) == me
                         ? src.local()[from.local_index(g)]
                         : recv_blocks[s][cursor[s]++];
  }
  return dst;
}

}  // namespace hpfcg::hpf
