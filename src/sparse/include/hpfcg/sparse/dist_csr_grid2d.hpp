#pragma once
// Sparse CSR matrix on a 2-D processor grid — the sparse counterpart of
// hpf::DenseGrid2DMatrix (ablation B1 extended to the paper's own setting).
//
// Rank (i, j) stores the tile rows(i) × cols(j) of A as a local CSR; the
// matvec gathers the entries of p the tile reads from its grid column (at
// most n/pc elements, through a sparse::ExchangePlan) and reduce-scatters
// partials within grid rows (n/pr) — O(n/sqrt(P)) communication per sweep
// where the paper's 1-D stripes move O(n).  For very sparse tiles the win
// shrinks (tiles hold ~nnz/P entries but the vector traffic still scales
// with n), which is exactly the regular-vs-irregular trade-off the bench
// quantifies.

#include <algorithm>
#include <numeric>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/grid2d.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/exchange_plan.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::sparse {

template <class T>
class DistCsrGrid2D {
 public:
  /// Collective build from a replicated matrix: each rank keeps its tile.
  DistCsrGrid2D(msg::Process& proc, const Csr<T>& a, hpf::Grid2D grid)
      : proc_(&proc), grid_(grid), n_(a.n_rows()),
        vdist_(grid.vector_dist(n_)), rdist_(grid.result_dist(n_)) {
    HPFCG_REQUIRE(a.n_rows() == a.n_cols(),
                  "DistCsrGrid2D: square matrices only");
    HPFCG_REQUIRE(grid.np() == proc.nprocs(),
                  "DistCsrGrid2D: grid must cover the machine");
    const auto row_blocks = hpf::Distribution::block(n_, grid.pr());
    const auto col_blocks = hpf::Distribution::block(n_, grid.pc());
    std::tie(rlo_, rhi_) = row_blocks.local_range(grid.row_of(proc.rank()));
    std::tie(clo_, chi_) = col_blocks.local_range(grid.col_of(proc.rank()));

    // Extract the tile: my rows restricted to my column range (global
    // column numbers until the plan renumbers them).
    tile_ptr_.assign(rhi_ - rlo_ + 1, 0);
    for (std::size_t i = rlo_; i < rhi_; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] >= clo_ && cols[k] < chi_) {
          tile_col_.push_back(cols[k]);
          tile_val_.push_back(vals[k]);
        }
      }
      tile_ptr_[i - rlo_ + 1] = tile_col_.size();
    }
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const hpf::Grid2D& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_nnz() const { return tile_val_.size(); }

  /// Vector distributions (Grid2D::vector_dist and result_dist), built
  /// once: callers holding these handles pass matvec's O(1) identity check.
  [[nodiscard]] hpf::DistPtr vector_dist() const { return vdist_; }
  [[nodiscard]] hpf::DistPtr result_dist() const { return rdist_; }

  /// q = A p: p in vector_dist(), q in result_dist().
  void matvec(const hpf::DistributedVector<T>& p,
              hpf::DistributedVector<T>& q) {
    HPFCG_REQUIRE(p.dist() == *vdist_,
                  "grid2d sparse matvec: p not distributed by vector_dist()");
    HPFCG_REQUIRE(q.dist() == *rdist_,
                  "grid2d sparse matvec: q not distributed by result_dist()");
    msg::Process& proc = *proc_;
    ensure_plan(proc);

    // (1) gather the segment columns my tile reads, in plan order: the
    // plan's owners are the other members of my grid column.
    {
      trace::SpanScope span(proc.tracer_rank(), trace::SpanKind::kHalo,
                            static_cast<std::uint32_t>(grid_.pr() - 1));
      const auto t =
          plan_.gather<T>(proc, kExchangeTag, p.local(), x_, pack_);
      span.set_bytes(t.bytes);
      auto& s = proc.stats();
      s.halo_msgs += t.msgs;
      s.halo_bytes += t.bytes;
    }

    // (2) local sparse tile SpMV.
    const std::size_t tr = rhi_ - rlo_;
    std::vector<T> partial(tr, T{});
    std::size_t flops = 0;
    for (std::size_t i = 0; i < tr; ++i) {
      T acc{};
      for (std::size_t k = tile_ptr_[i]; k < tile_ptr_[i + 1]; ++k) {
        acc += tile_val_[k] * x_[tile_col_[k]];
      }
      partial[i] = acc;
      flops += 2 * (tile_ptr_[i + 1] - tile_ptr_[i]);
    }
    proc.add_flops(flops);

    // (3) reduce-scatter within the grid row.
    const auto row_members = grid_.row_group(grid_.row_of(proc.rank()));
    std::vector<std::size_t> out_counts;
    for (const int r : row_members) {
      out_counts.push_back(rdist_->local_count(r));
    }
    hpf::group_reduce_scatter<T>(proc, row_members, partial, q.local(),
                                 out_counts, 0x3600);
  }

  /// Segment entries the inspector found touched but foreign (0 until the
  /// first halo sweep; used by tests and the bench table).
  [[nodiscard]] std::size_t ghost_entries() const { return ghost_entries_; }

 private:
  /// Executor tag, following the 0x3400/0x3600 group-op idiom.
  static constexpr int kExchangeTag = 0x3501;

  /// Collective inspector, run lazily at the first sweep: the wanted list
  /// is the segment columns the tile touches — or, with HPFCG_HALO off,
  /// every segment column, the volume of the column-group gather — and
  /// the tile's columns are renumbered into positions of that list.
  void ensure_plan(msg::Process& proc) {
    if (plan_built_) return;
    std::vector<std::size_t> wanted(tile_col_);
    if (halo::enabled()) {
      std::sort(wanted.begin(), wanted.end());
      wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    } else {
      wanted.resize(chi_ - clo_);
      std::iota(wanted.begin(), wanted.end(), clo_);
    }
    // Ascending segment columns are grouped by ascending owner: piece i
    // of segment j belongs to rank (i, j).
    plan_.build(proc, wanted, *vdist_);
    for (std::size_t& c : tile_col_) {
      c = static_cast<std::size_t>(
          std::lower_bound(wanted.begin(), wanted.end(), c) - wanted.begin());
    }
    x_.resize(wanted.size());
    ghost_entries_ = static_cast<std::size_t>(
        std::count_if(wanted.begin(), wanted.end(), [&](std::size_t g) {
          return vdist_->owner(g) != proc.rank();
        }));
    proc.stats().ghost_entries += ghost_entries_;
    plan_built_ = true;
  }

  msg::Process* proc_;
  hpf::Grid2D grid_;
  std::size_t n_;
  hpf::DistPtr vdist_;
  hpf::DistPtr rdist_;
  std::size_t rlo_ = 0, rhi_ = 0, clo_ = 0, chi_ = 0;
  std::vector<std::size_t> tile_ptr_;  ///< local CSR over tile rows
  std::vector<std::size_t> tile_col_;  ///< positions in the plan's list
  std::vector<T> tile_val_;

  // Halo state (lazy; see ensure_plan).
  bool plan_built_ = false;
  std::size_t ghost_entries_ = 0;
  ExchangePlan plan_;
  std::vector<T> x_;     ///< the tile's columns of p, in plan order
  std::vector<T> pack_;  ///< executor pack scratch
};

}  // namespace hpfcg::sparse
