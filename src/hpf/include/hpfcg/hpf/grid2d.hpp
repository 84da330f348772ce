#pragma once
// 2-D processor grids and block-block dense matrices — beyond the paper.
//
// Section 4 concludes that with 1-D stripes "it is not possible to reduce
// the communication time ... either in a row-wise or column-wise fashion":
// both move O(n) data per sweep.  The classical escape (Kumar et al.,
// which the paper cites) is a 2-D pr×pc block decomposition: the vector is
// gathered only within grid columns (n/pc per rank) and partial results
// reduce-scattered only within grid rows (n/pr per rank), for O(n/sqrt(P))
// total volume.  This header provides that decomposition as an ablation:
//
//   Grid2D               — rank <-> (row, col) coordinates, group lists,
//                          the operand and result vector maps
//   group_allgatherv     — allgather among an explicit rank list
//   group_reduce_scatter — ring reduce-scatter among an explicit rank list
//   DenseGrid2DMatrix    — the (BLOCK, BLOCK) dense matrix
//
// Subgroup collectives use fixed tags: within one call each (src, dst,
// tag) pair carries exactly one message and SPMD programs order calls
// identically on every rank, so FIFO matching keeps back-to-back calls
// aligned.

#include <memory>
#include <numeric>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::hpf {

/// A pr×pc arrangement of the machine's np = pr*pc processors.
/// Rank r sits at (row, col) = (r / pc, r % pc).
class Grid2D {
 public:
  /// Most-square factorization of np.
  static Grid2D squarest(int np) {
    int pc = 1;
    for (int c = 1; c * c <= np; ++c) {
      if (np % c == 0) pc = c;
    }
    return Grid2D(np / pc, pc);
  }

  Grid2D(int pr, int pc) : pr_(pr), pc_(pc) {
    HPFCG_REQUIRE(pr >= 1 && pc >= 1, "Grid2D: empty grid");
  }

  [[nodiscard]] int pr() const { return pr_; }
  [[nodiscard]] int pc() const { return pc_; }
  [[nodiscard]] int np() const { return pr_ * pc_; }

  [[nodiscard]] int row_of(int rank) const { return rank / pc_; }
  [[nodiscard]] int col_of(int rank) const { return rank % pc_; }
  [[nodiscard]] int rank_of(int row, int col) const {
    return row * pc_ + col;
  }

  /// Ranks sharing grid row `row`, ordered by column.
  [[nodiscard]] std::vector<int> row_group(int row) const {
    std::vector<int> out(static_cast<std::size_t>(pc_));
    for (int c = 0; c < pc_; ++c) out[static_cast<std::size_t>(c)] =
        rank_of(row, c);
    return out;
  }

  /// Ranks sharing grid column `col`, ordered by row.
  [[nodiscard]] std::vector<int> col_group(int col) const {
    std::vector<int> out(static_cast<std::size_t>(pr_));
    for (int r = 0; r < pr_; ++r) out[static_cast<std::size_t>(r)] =
        rank_of(r, col);
    return out;
  }

  /// The distribution a length-n operand vector must have so that grid
  /// column j's group collectively owns column segment j of BLOCK(n, pc):
  /// rank (i, j) owns the i-th BLOCK sub-piece of segment j.
  [[nodiscard]] DistPtr vector_dist(std::size_t n) const {
    return piece_dist(n, true);
  }

  /// The distribution a 2-D matvec's result comes out in: rank (i, j) owns
  /// the j-th sub-piece of row segment i — the transpose of vector_dist().
  /// (The classical 2-D matvec asymmetry; redistribute() maps between the
  /// two at O(n/NP) per-rank cost when iterating.)
  [[nodiscard]] DistPtr result_dist(std::size_t n) const {
    return piece_dist(n, false);
  }

 private:
  /// Segment s of BLOCK(n, pc) (by_col) or BLOCK(n, pr) split BLOCK-wise
  /// over the members of grid column s or grid row s.
  [[nodiscard]] DistPtr piece_dist(std::size_t n, bool by_col) const {
    const int segs = by_col ? pc_ : pr_;
    const int pieces = by_col ? pr_ : pc_;
    const auto seg_blocks = Distribution::block(n, segs);
    std::vector<int> owner(n);
    for (int s = 0; s < segs; ++s) {
      const auto [lo, hi] = seg_blocks.local_range(s);
      const auto piece = Distribution::block(hi - lo, pieces);
      for (std::size_t g = lo; g < hi; ++g) {
        const int k = piece.owner(g - lo);
        owner[g] = by_col ? rank_of(k, s) : rank_of(s, k);
      }
    }
    return std::make_shared<const Distribution>(
        Distribution::indirect(np(), std::move(owner)));
  }

  int pr_;
  int pc_;
};

/// Ring allgather among `members` (this rank must be one of them).
/// `counts[i]` is member i's block length; `out` receives the ordered
/// concatenation on every member.
template <class T>
void group_allgatherv(msg::Process& proc, const std::vector<int>& members,
                      std::span<const T> local, std::vector<T>& out,
                      const std::vector<std::size_t>& counts, int tag) {
  const int g = static_cast<int>(members.size());
  HPFCG_REQUIRE(counts.size() == members.size(),
                "group_allgatherv: one count per member");
  int me = -1;
  for (int i = 0; i < g; ++i) {
    if (members[static_cast<std::size_t>(i)] == proc.rank()) me = i;
  }
  HPFCG_REQUIRE(me >= 0, "group_allgatherv: caller not in the group");
  HPFCG_REQUIRE(local.size() == counts[static_cast<std::size_t>(me)],
                "group_allgatherv: local size disagrees with counts");

  std::vector<std::size_t> offset(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offset.begin() + 1);
  out.assign(offset.back(), T{});
  std::copy(local.begin(), local.end(),
            out.begin() +
                static_cast<std::ptrdiff_t>(offset[static_cast<std::size_t>(me)]));
  if (g == 1) return;

  const int right = members[static_cast<std::size_t>((me + 1) % g)];
  const int left = members[static_cast<std::size_t>((me - 1 + g) % g)];
  for (int step = 0; step < g - 1; ++step) {
    const auto sb = static_cast<std::size_t>((me - step + g) % g);
    const auto rb = static_cast<std::size_t>((me - step - 1 + g) % g);
    proc.send<T>(right, tag + step,
                 std::span<const T>(out.data() + offset[sb], counts[sb]));
    proc.recv_into<T>(left, tag + step,
                      std::span<T>(out.data() + offset[rb], counts[rb]));
  }
}

/// Ring reduce-scatter among `members`: every member holds a full group
/// vector `buf` (concatenation of per-member chunks sized by `counts`);
/// on return `mine` holds the element-wise sum of member chunk `me`.
template <class T>
void group_reduce_scatter(msg::Process& proc, const std::vector<int>& members,
                          std::vector<T>& buf, std::span<T> mine,
                          const std::vector<std::size_t>& counts, int tag) {
  const int g = static_cast<int>(members.size());
  HPFCG_REQUIRE(counts.size() == members.size(),
                "group_reduce_scatter: one count per member");
  int me = -1;
  for (int i = 0; i < g; ++i) {
    if (members[static_cast<std::size_t>(i)] == proc.rank()) me = i;
  }
  HPFCG_REQUIRE(me >= 0, "group_reduce_scatter: caller not in the group");
  std::vector<std::size_t> offset(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offset.begin() + 1);
  HPFCG_REQUIRE(buf.size() == offset.back(),
                "group_reduce_scatter: buffer length disagrees with counts");
  HPFCG_REQUIRE(mine.size() == counts[static_cast<std::size_t>(me)],
                "group_reduce_scatter: result length disagrees with counts");

  if (g == 1) {
    std::copy_n(buf.data() + offset[static_cast<std::size_t>(me)],
                mine.size(), mine.data());
    return;
  }
  const int right = members[static_cast<std::size_t>((me + 1) % g)];
  const int left = members[static_cast<std::size_t>((me - 1 + g) % g)];
  // Step s: send chunk (me - s) and fold the received chunk (me - s - 1)
  // into our running buffer; after g-1 steps chunk `me+1-g == me+1 mod g`…
  // the standard ring ends with chunk (me+1)%g fully reduced at this rank —
  // so we walk the ring so that chunk `me` lands here instead.
  for (int step = 0; step < g - 1; ++step) {
    const auto sb = static_cast<std::size_t>((me - step + g) % g);
    const auto rb = static_cast<std::size_t>((me - step - 1 + g) % g);
    proc.send<T>(right, tag + step,
                 std::span<const T>(buf.data() + offset[sb], counts[sb]));
    std::vector<T> incoming(counts[rb]);
    proc.recv_into<T>(left, tag + step,
                      std::span<T>(incoming.data(), incoming.size()));
    T* dst = buf.data() + offset[rb];
    for (std::size_t i = 0; i < incoming.size(); ++i) dst[i] += incoming[i];
    proc.add_flops(incoming.size());
  }
  // After the loop the fully reduced chunk at this rank is (me + 1) % g…
  // no: we folded rb = me-1, me-2, …, me-(g-1); the last fold was into
  // chunk (me - (g-1)) % g == (me + 1) % g.  One extra hop brings chunk
  // `me` home from the right neighbour, which finished reducing it.
  {
    const auto final_here = static_cast<std::size_t>((me + 1) % g);
    proc.send<T>(right, tag + g,
                 std::span<const T>(buf.data() + offset[final_here],
                                    counts[final_here]));
    proc.recv_into<T>(left, tag + g, mine);
  }
}

/// Dense n×n matrix on a 2-D grid: rank (i, j) stores the (BLOCK, BLOCK)
/// tile rows(i) × cols(j), with rows = BLOCK(n, pr), cols = BLOCK(n, pc).
template <class T>
class DenseGrid2DMatrix {
 public:
  DenseGrid2DMatrix(msg::Process& proc, Grid2D grid, std::size_t n)
      : proc_(&proc), grid_(grid), n_(n), vdist_(grid.vector_dist(n)),
        rdist_(grid.result_dist(n)) {
    HPFCG_REQUIRE(grid.np() == proc.nprocs(),
                  "DenseGrid2DMatrix: grid must cover the machine");
    std::tie(rlo_, rhi_) = Distribution::block(n, grid.pr())
                               .local_range(grid.row_of(proc.rank()));
    std::tie(clo_, chi_) = Distribution::block(n, grid.pc())
                               .local_range(grid.col_of(proc.rank()));
    tile_.assign((rhi_ - rlo_) * (chi_ - clo_), T{});
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const Grid2D& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_rows() const { return rhi_ - rlo_; }
  [[nodiscard]] std::size_t tile_cols() const { return chi_ - clo_; }

  /// Fill the owned tile from a function of global (i, j).
  void set_from(const std::function<T(std::size_t, std::size_t)>& f) {
    for (std::size_t i = rlo_; i < rhi_; ++i) {
      for (std::size_t j = clo_; j < chi_; ++j) {
        tile_[(i - rlo_) * tile_cols() + (j - clo_)] = f(i, j);
      }
    }
  }

  /// The operand and result distributions (Grid2D::vector_dist and
  /// result_dist), built once: callers holding these handles pass the
  /// O(1) identity check of matvec.
  [[nodiscard]] DistPtr vector_dist() const { return vdist_; }
  [[nodiscard]] DistPtr result_dist() const { return rdist_; }

  /// q = A p.  `p` must use vector_dist(), `q` result_dist().
  /// Communication per rank: column-group allgather of n/pc + row-group
  /// reduce-scatter of n/pr — O(n/sqrt(P)) instead of the stripes' O(n).
  void matvec(const DistributedVector<T>& p, DistributedVector<T>& q) {
    HPFCG_REQUIRE(p.dist() == *vdist_,
                  "grid2d matvec: p not distributed by vector_dist()");
    HPFCG_REQUIRE(q.dist() == *rdist_,
                  "grid2d matvec: q not distributed by result_dist()");
    msg::Process& proc = *proc_;
    const int gr = grid_.row_of(proc.rank());
    const int gc = grid_.col_of(proc.rank());

    // (1) allgather p's column segment within my grid column.
    const auto col_members = grid_.col_group(gc);
    std::vector<std::size_t> piece_counts;
    for (const int r : col_members) {
      piece_counts.push_back(vdist_->local_count(r));
    }
    std::vector<T> p_seg;
    group_allgatherv<T>(proc, col_members, p.local(), p_seg, piece_counts,
                        0x3000);
    HPFCG_REQUIRE(p_seg.size() == chi_ - clo_,
                  "grid2d matvec: gathered segment has wrong length");

    // (2) local GEMV over the tile -> partial result for rows [rlo, rhi).
    const std::size_t tr = tile_rows();
    const std::size_t tc = tile_cols();
    std::vector<T> partial(tr, T{});
    for (std::size_t i = 0; i < tr; ++i) {
      T acc{};
      const T* row = tile_.data() + i * tc;
      for (std::size_t j = 0; j < tc; ++j) acc += row[j] * p_seg[j];
      partial[i] = acc;
    }
    proc.add_flops(2 * tr * tc);

    // (3) reduce-scatter the partials within my grid row; my piece of the
    // row segment is the gc-th sub-block.
    const auto row_members = grid_.row_group(gr);
    std::vector<std::size_t> out_counts;
    for (const int r : row_members) {
      out_counts.push_back(rdist_->local_count(r));
    }
    group_reduce_scatter<T>(proc, row_members, partial, q.local(), out_counts,
                            0x3200);
  }

 private:
  msg::Process* proc_;
  Grid2D grid_;
  std::size_t n_;
  DistPtr vdist_;
  DistPtr rdist_;
  std::size_t rlo_ = 0, rhi_ = 0, clo_ = 0, chi_ = 0;
  std::vector<T> tile_;  // tile_rows × tile_cols, row-major
};

}  // namespace hpfcg::hpf
