#pragma once
// Inspector/executor schedule for fetching scattered entries of a
// contiguously distributed vector — the communication-schedule reuse of
// Ponnusamy, Saltz and Choudhary that Section 5.1 of the paper builds on.
//
// Each rank names, once, the global indices it wants, in ascending order;
// position i of its destination buffer stands for source entry wanted[i].
// Contiguous ownership makes each owner's share one run of that list, so
// a peer's run lands in place and the rank copies its own run locally.
// Receives are posted per source in ascending rank order, which fixes the
// reverse summation order and keeps replays deterministic.  HaloPlan and
// solvers::GridTransfer are both this plan; stats, spans and ledger
// records stay with the callers.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

class ExchangePlan {
 public:
  /// Messages and payload bytes one executor phase sent from this rank.
  struct Traffic {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// Collective inspector (one neighbor_alltoallv): every rank calls it
  /// together.  `wanted` lists ascending global indices of a vector
  /// distributed by the contiguous `owners`.
  void build(msg::Process& proc, std::span<const std::size_t> wanted,
             const hpf::Distribution& owners) {
    HPFCG_REQUIRE(owners.contiguous(),
                  "ExchangePlan: owner distribution must be contiguous");
    HPFCG_REQUIRE(std::is_sorted(wanted.begin(), wanted.end()),
                  "ExchangePlan: wanted indices must ascend");
    const int np = proc.nprocs();
    const int me = proc.rank();
    const auto [lo, hi] = owners.local_range(me);
    *this = ExchangePlan{};

    std::vector<std::vector<std::size_t>> requests(
        static_cast<std::size_t>(np));
    std::size_t i = 0;
    for (int r = 0; r < np && i < wanted.size(); ++r) {
      const std::size_t rhi = owners.local_range(r).second;
      const std::size_t begin = i;
      while (i < wanted.size() && wanted[i] < rhi) ++i;
      if (i == begin) continue;
      if (r == me) {
        self_begin_ = begin;
        for (std::size_t j = begin; j < i; ++j) {
          self_idx_.push_back(wanted[j] - lo);
        }
        continue;
      }
      recv_peers_.push_back(Peer{r, begin, i - begin});
      requests[static_cast<std::size_t>(r)].assign(
          wanted.begin() + static_cast<std::ptrdiff_t>(begin),
          wanted.begin() + static_cast<std::ptrdiff_t>(i));
    }
    HPFCG_REQUIRE(i == wanted.size(),
                  "ExchangePlan: index outside every rank's range");

    // The replies tell this rank which of its owned entries each peer
    // wants, in the order the peer's run expects them.
    const auto replies = proc.neighbor_alltoallv<std::size_t>(requests);
    for (int r = 0; r < np; ++r) {
      if (r == me) continue;
      const auto& want = replies[static_cast<std::size_t>(r)];
      if (want.empty()) continue;
      send_peers_.push_back(Peer{r, send_idx_.size(), want.size()});
      for (const std::size_t g : want) {
        HPFCG_REQUIRE(g >= lo && g < hi,
                      "ExchangePlan: peer requested an entry this rank does "
                      "not own — ownership maps diverged");
        send_idx_.push_back(g - lo);
      }
    }
  }

  [[nodiscard]] std::size_t send_peers() const { return send_peers_.size(); }
  [[nodiscard]] std::size_t recv_peers() const { return recv_peers_.size(); }
  /// Owned entries shipped per forward replay, summed over peers.
  [[nodiscard]] std::size_t send_entries() const { return send_idx_.size(); }

  /// Pack `owned` at each selected peer's send list and send it; `to(rank)`
  /// selects the peers.  `pack` is caller-owned scratch.
  template <class T, class Select>
  Traffic send(msg::Process& proc, int tag, std::span<const T> owned,
               std::vector<T>& pack, Select to) const {
    Traffic t;
    for (const Peer& pe : send_peers_) {
      if (!to(pe.rank)) continue;
      if (pack.size() < pe.count) pack.resize(pe.count);
      for (std::size_t j = 0; j < pe.count; ++j) {
        pack[j] = owned[send_idx_[pe.offset + j]];
      }
      proc.send<T>(pe.rank, tag, std::span<const T>(pack.data(), pe.count));
      t.bytes += pe.count * sizeof(T);
      ++t.msgs;
    }
    return t;
  }

  /// Receive each peer's run in place into `dst`, ascending peer rank.
  template <class T>
  void recv(msg::Process& proc, int tag, std::span<T> dst) const {
    for (const Peer& pe : recv_peers_) {
      proc.recv_into<T>(pe.rank, tag, dst.subspan(pe.offset, pe.count));
    }
  }

  /// Forward executor: dst[i] = the entry wanted[i] names, with `owned`
  /// this rank's block of the source vector.
  template <class T>
  Traffic gather(msg::Process& proc, int tag, std::span<const T> owned,
                 std::span<T> dst, std::vector<T>& pack) const {
    const Traffic t =
        send<T>(proc, tag, owned, pack, [](int) { return true; });
    for (std::size_t k = 0; k < self_idx_.size(); ++k) {
      dst[self_begin_ + k] = owned[self_idx_[k]];
    }
    recv<T>(proc, tag, dst);
    return t;
  }

  /// Reverse executor, the transpose of gather: the entry wanted[i] names
  /// gets `partials[i]` added.  Runs travel back to their owners, which
  /// add their own entries first, then each peer's in ascending rank.
  template <class T>
  Traffic scatter_add(msg::Process& proc, int tag,
                      std::span<const T> partials, std::span<T> owned,
                      std::vector<T>& pack) const {
    Traffic t;
    for (const Peer& pe : recv_peers_) {
      proc.send<T>(pe.rank, tag, partials.subspan(pe.offset, pe.count));
      t.bytes += pe.count * sizeof(T);
      ++t.msgs;
    }
    std::uint64_t adds = self_idx_.size();
    for (std::size_t k = 0; k < self_idx_.size(); ++k) {
      owned[self_idx_[k]] += partials[self_begin_ + k];
    }
    for (const Peer& pe : send_peers_) {
      if (pack.size() < pe.count) pack.resize(pe.count);
      proc.recv_into<T>(pe.rank, tag, std::span<T>(pack.data(), pe.count));
      for (std::size_t j = 0; j < pe.count; ++j) {
        owned[send_idx_[pe.offset + j]] += pack[j];
      }
      adds += pe.count;
    }
    proc.add_flops(adds);
    return t;
  }

 private:
  /// One peer's slice: `offset`/`count` index the wanted list (recv peers)
  /// or send_idx_ (send peers).
  struct Peer {
    int rank = 0;
    std::size_t offset = 0;
    std::size_t count = 0;
  };

  std::vector<Peer> recv_peers_;       ///< owners of my wanted runs
  std::vector<Peer> send_peers_;       ///< ranks wanting my entries
  std::vector<std::size_t> send_idx_;  ///< owned offsets to pack, per peer
  std::size_t self_begin_ = 0;         ///< first wanted position I own
  std::vector<std::size_t> self_idx_;  ///< owned offsets of my own run
};

}  // namespace hpfcg::sparse
