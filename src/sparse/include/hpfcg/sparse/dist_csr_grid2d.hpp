#pragma once
// Sparse CSR matrix on a 2-D processor grid — the sparse counterpart of
// hpf::DenseGrid2DMatrix (ablation B1 extended to the paper's own setting).
//
// Rank (i, j) stores the tile rows(i) × cols(j) of A as a local CSR with
// columns rebased to the tile; the matvec gathers p only within grid
// columns (n/pc elements) and reduce-scatters partials within grid rows
// (n/pr) — O(n/sqrt(P)) communication per sweep where the paper's 1-D
// stripes move O(n).  For very sparse tiles the win shrinks (tiles hold
// ~nnz/P entries but the vector traffic still scales with n), which is
// exactly the regular-vs-irregular trade-off the bench quantifies.

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/grid2d.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

template <class T>
class DistCsrGrid2D {
 public:
  /// Collective build from a replicated matrix: each rank keeps its tile.
  DistCsrGrid2D(msg::Process& proc, const Csr<T>& a, hpf::Grid2D grid)
      : proc_(&proc), grid_(grid), n_(a.n_rows()) {
    HPFCG_REQUIRE(a.n_rows() == a.n_cols(),
                  "DistCsrGrid2D: square matrices only");
    HPFCG_REQUIRE(grid.np() == proc.nprocs(),
                  "DistCsrGrid2D: grid must cover the machine");
    const auto row_blocks = hpf::Distribution::block(n_, grid.pr());
    const auto col_blocks = hpf::Distribution::block(n_, grid.pc());
    std::tie(rlo_, rhi_) = row_blocks.local_range(grid.row_of(proc.rank()));
    std::tie(clo_, chi_) = col_blocks.local_range(grid.col_of(proc.rank()));

    // Extract the tile: my rows restricted to my column range, columns
    // rebased to the tile.
    tile_ptr_.assign(rhi_ - rlo_ + 1, 0);
    for (std::size_t i = rlo_; i < rhi_; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] >= clo_ && cols[k] < chi_) {
          tile_col_.push_back(cols[k] - clo_);
          tile_val_.push_back(vals[k]);
        }
      }
      tile_ptr_[i - rlo_ + 1] = tile_col_.size();
    }
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const hpf::Grid2D& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_nnz() const { return tile_val_.size(); }

  /// Vector distributions (see DenseGrid2DMatrix for the layout logic).
  [[nodiscard]] hpf::DistPtr vector_dist() const {
    const auto col_blocks = hpf::Distribution::block(n_, grid_.pc());
    std::vector<int> owner(n_);
    for (int j = 0; j < grid_.pc(); ++j) {
      const auto [lo, hi] = col_blocks.local_range(j);
      const auto piece = hpf::Distribution::block(hi - lo, grid_.pr());
      for (std::size_t g = lo; g < hi; ++g) {
        owner[g] = grid_.rank_of(piece.owner(g - lo), j);
      }
    }
    return std::make_shared<const hpf::Distribution>(
        hpf::Distribution::indirect(grid_.np(), std::move(owner)));
  }

  [[nodiscard]] hpf::DistPtr result_dist() const {
    const auto row_blocks = hpf::Distribution::block(n_, grid_.pr());
    std::vector<int> owner(n_);
    for (int i = 0; i < grid_.pr(); ++i) {
      const auto [lo, hi] = row_blocks.local_range(i);
      const auto piece = hpf::Distribution::block(hi - lo, grid_.pc());
      for (std::size_t g = lo; g < hi; ++g) {
        owner[g] = grid_.rank_of(i, piece.owner(g - lo));
      }
    }
    return std::make_shared<const hpf::Distribution>(
        hpf::Distribution::indirect(grid_.np(), std::move(owner)));
  }

  /// q = A p: p in vector_dist(), q in result_dist().
  void matvec(const hpf::DistributedVector<T>& p,
              hpf::DistributedVector<T>& q) {
    HPFCG_REQUIRE(p.size() == n_ && q.size() == n_,
                  "grid2d sparse matvec: dimension mismatch");
    msg::Process& proc = *proc_;
    const int gr = grid_.row_of(proc.rank());
    const int gc = grid_.col_of(proc.rank());

    // (1) gather my column segment of p within the grid column: the
    // group plan moves only the positions its ghost set names
    // (ensure_group_halo), into their places in the full-size segment.
    const auto col_members = grid_.col_group(gc);
    std::vector<std::size_t> piece_counts(col_members.size());
    {
      const auto piece = hpf::Distribution::block(chi_ - clo_, grid_.pr());
      for (int i = 0; i < grid_.pr(); ++i) {
        piece_counts[static_cast<std::size_t>(i)] = piece.local_count(i);
      }
    }
    ensure_group_halo(proc, col_members, piece_counts);
    x_seg_.assign(chi_ - clo_, T{});
    std::copy(p.local().begin(), p.local().end(),
              x_seg_.begin() + static_cast<std::ptrdiff_t>(my_piece_lo_));
    {
      trace::SpanScope span(proc.tracer_rank(), trace::SpanKind::kHalo,
                            static_cast<std::uint32_t>(peers_.size()));
      std::uint64_t bytes = 0;
      std::uint64_t msgs = 0;
      for (const GroupPeer& pe : peers_) {
        if (pe.send_idx.empty()) continue;
        if (pack_.size() < pe.send_idx.size()) pack_.resize(pe.send_idx.size());
        for (std::size_t j = 0; j < pe.send_idx.size(); ++j) {
          pack_[j] = p.local()[pe.send_idx[j]];
        }
        proc.send<T>(pe.rank, kExchangeTag,
                     std::span<const T>(pack_.data(), pe.send_idx.size()));
        bytes += pe.send_idx.size() * sizeof(T);
        ++msgs;
      }
      for (const GroupPeer& pe : peers_) {
        if (pe.recv_pos.empty()) continue;
        if (pack_.size() < pe.recv_pos.size()) pack_.resize(pe.recv_pos.size());
        proc.recv_into<T>(pe.rank, kExchangeTag,
                          std::span<T>(pack_.data(), pe.recv_pos.size()));
        for (std::size_t j = 0; j < pe.recv_pos.size(); ++j) {
          x_seg_[pe.recv_pos[j]] = pack_[j];
        }
      }
      span.set_bytes(bytes);
      auto& s = proc.stats();
      s.halo_msgs += msgs;
      s.halo_bytes += bytes;
    }

    // (2) local sparse tile SpMV.
    const std::size_t tr = rhi_ - rlo_;
    std::vector<T> partial(tr, T{});
    std::size_t flops = 0;
    for (std::size_t i = 0; i < tr; ++i) {
      T acc{};
      for (std::size_t k = tile_ptr_[i]; k < tile_ptr_[i + 1]; ++k) {
        acc += tile_val_[k] * x_seg_[tile_col_[k]];
      }
      partial[i] = acc;
      flops += 2 * (tile_ptr_[i + 1] - tile_ptr_[i]);
    }
    proc.add_flops(flops);

    // (3) reduce-scatter within the grid row.
    const auto row_members = grid_.row_group(gr);
    std::vector<std::size_t> out_counts(row_members.size());
    {
      const auto piece = hpf::Distribution::block(tr, grid_.pc());
      for (int j = 0; j < grid_.pc(); ++j) {
        out_counts[static_cast<std::size_t>(j)] = piece.local_count(j);
      }
    }
    HPFCG_REQUIRE(q.local().size() ==
                      out_counts[static_cast<std::size_t>(gc)],
                  "grid2d sparse matvec: q not distributed by result_dist()");
    hpf::group_reduce_scatter<T>(proc, row_members, partial, q.local(),
                                 out_counts, 0x3600);
  }

  /// Segment entries the inspector found touched but foreign (0 until the
  /// first halo sweep; used by tests and the bench table).
  [[nodiscard]] std::size_t ghost_entries() const { return ghost_entries_; }

 private:
  /// One column-group member's slice of the exchange schedule.
  struct GroupPeer {
    int rank = 0;  ///< machine rank
    std::vector<std::size_t> send_idx;  ///< my-piece-local offsets to pack
    std::vector<std::size_t> recv_pos;  ///< segment positions they fill
  };

  /// Group-scoped exchange tags, following the 0x3400/0x3600 group-op
  /// idiom (fixed user tags, no ledger conformance — group membership
  /// itself keeps the streams paired).
  static constexpr int kSetupTag = 0x3500;
  static constexpr int kExchangeTag = 0x3501;

  /// Group-collective inspector, run lazily at the first sweep: scan the
  /// tile's (rebased) columns for touched segment positions — or, with
  /// HPFCG_HALO off, take every position, the volume of the column-group
  /// gather — exchange the request lists pairwise within the grid column,
  /// and cache who needs which of my piece entries.  Eager sends make the
  /// send-all-then-recv-all pairwise pass deadlock-free; empty lists still
  /// travel once here so both sides learn the (possibly empty) pattern.
  void ensure_group_halo(msg::Process& proc,
                         const std::vector<int>& col_members,
                         const std::vector<std::size_t>& piece_counts) {
    if (gplan_built_) return;
    const int g = static_cast<int>(col_members.size());
    const int me_g = grid_.row_of(proc.rank());
    std::vector<std::size_t> off(static_cast<std::size_t>(g) + 1, 0);
    std::partial_sum(piece_counts.begin(), piece_counts.end(),
                     off.begin() + 1);
    my_piece_lo_ = off[static_cast<std::size_t>(me_g)];

    std::vector<std::size_t> touched(tile_col_);
    if (!halo::enabled()) {
      touched.resize(chi_ - clo_);
      std::iota(touched.begin(), touched.end(), std::size_t{0});
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    std::vector<std::vector<std::size_t>> req(static_cast<std::size_t>(g));
    for (const std::size_t pos : touched) {
      const auto it = std::upper_bound(off.begin(), off.end(), pos);
      const auto owner = static_cast<std::size_t>(it - off.begin()) - 1;
      if (static_cast<int>(owner) != me_g) req[owner].push_back(pos);
    }

    peers_.clear();
    for (int i = 0; i < g; ++i) {
      if (i == me_g) continue;
      const auto& r = req[static_cast<std::size_t>(i)];
      proc.send<std::size_t>(col_members[static_cast<std::size_t>(i)],
                             kSetupTag,
                             std::span<const std::size_t>(r.data(), r.size()));
    }
    for (int i = 0; i < g; ++i) {
      if (i == me_g) continue;
      GroupPeer pe;
      pe.rank = col_members[static_cast<std::size_t>(i)];
      const auto want = proc.recv<std::size_t>(pe.rank, kSetupTag);
      pe.send_idx.reserve(want.size());
      const std::size_t mine =
          piece_counts[static_cast<std::size_t>(me_g)];
      for (const std::size_t w : want) {
        HPFCG_REQUIRE(w >= my_piece_lo_ && w - my_piece_lo_ < mine,
                      "grid2d halo: peer requested a position outside this "
                      "rank's piece");
        pe.send_idx.push_back(w - my_piece_lo_);
      }
      pe.recv_pos = req[static_cast<std::size_t>(i)];
      ghost_entries_ += pe.recv_pos.size();
      peers_.push_back(std::move(pe));
    }
    proc.stats().ghost_entries += ghost_entries_;
    gplan_built_ = true;
  }

  msg::Process* proc_;
  hpf::Grid2D grid_;
  std::size_t n_;
  std::size_t rlo_ = 0, rhi_ = 0, clo_ = 0, chi_ = 0;
  std::vector<std::size_t> tile_ptr_;  ///< local CSR over tile rows
  std::vector<std::size_t> tile_col_;  ///< rebased to [0, chi-clo)
  std::vector<T> tile_val_;

  // Column-group halo state (lazy; see ensure_group_halo).
  bool gplan_built_ = false;
  std::size_t my_piece_lo_ = 0;  ///< my piece's offset within the segment
  std::size_t ghost_entries_ = 0;
  std::vector<GroupPeer> peers_;  ///< other members, ascending group index
  std::vector<T> x_seg_;          ///< column-segment sweep buffer
  std::vector<T> pack_;           ///< executor pack/unpack scratch
};

}  // namespace hpfcg::sparse
