#include "hpfcg/solvers/multigrid.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "hpfcg/repro/repro.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::solvers {

namespace {

/// Fine gid co-located with coarse point (xc, yc, zc): every extent doubles.
std::size_t fine_gid_of(std::array<std::size_t, 3> fine_dims, std::size_t xc,
                        std::size_t yc, std::size_t zc) {
  return (2 * zc * fine_dims[1] + 2 * yc) * fine_dims[0] + 2 * xc;
}

}  // namespace

void GridTransfer::build(msg::Process& proc,
                         std::array<std::size_t, 3> fine_dims,
                         const hpf::Distribution& fine_dist,
                         std::array<std::size_t, 3> coarse_dims,
                         const hpf::Distribution& coarse_dist) {
  HPFCG_REQUIRE(fine_dist.contiguous() && coarse_dist.contiguous(),
                "GridTransfer: contiguous distributions required");
  HPFCG_REQUIRE(fine_dims[0] * fine_dims[1] * fine_dims[2] ==
                        fine_dist.size() &&
                    coarse_dims[0] * coarse_dims[1] * coarse_dims[2] ==
                        coarse_dist.size(),
                "GridTransfer: grid extents disagree with the distributions");
  for (std::size_t d = 0; d < 3; ++d) {
    HPFCG_REQUIRE(fine_dims[d] == 2 * coarse_dims[d],
                  "GridTransfer: every fine extent must be twice the coarse "
                  "extent");
  }
  // Coarse row i wants its co-located fine point.  Both orderings are
  // lexicographic in (z, y, x), so the wanted fine gids ascend.
  const auto [clo, chi] = coarse_dist.local_range(proc.rank());
  std::vector<std::size_t> wanted;
  wanted.reserve(chi - clo);
  for (std::size_t ic = clo; ic < chi; ++ic) {
    const std::size_t zc = ic / (coarse_dims[0] * coarse_dims[1]);
    const std::size_t rem = ic % (coarse_dims[0] * coarse_dims[1]);
    const std::size_t yc = rem / coarse_dims[0];
    const std::size_t xc = rem % coarse_dims[0];
    wanted.push_back(fine_gid_of(fine_dims, xc, yc, zc));
  }
  plan_.build(proc, wanted, fine_dist);
  built_ = true;
}

void GridTransfer::restrict_to(msg::Process& proc,
                               std::span<const double> fine,
                               std::span<double> coarse) const {
  HPFCG_REQUIRE(built_, "GridTransfer::restrict_to before build");
  plan_.gather<double>(proc, kRestrictTag, fine, coarse, pack_);
}

void GridTransfer::prolong_add(msg::Process& proc,
                               std::span<const double> coarse,
                               std::span<double> fine) const {
  HPFCG_REQUIRE(built_, "GridTransfer::prolong_add before build");
  plan_.scatter_add<double>(proc, kProlongTag, coarse, fine, pack_);
}

MgPreconditioner::MgPreconditioner(msg::Process& proc,
                                   sparse::DistCsr<double>& fine,
                                   std::array<std::size_t, 3> fine_dims,
                                   const MgOptions& opts)
    : proc_(&proc), fine_(&fine), opts_(opts) {
  HPFCG_REQUIRE(fine.n() == fine_dims[0] * fine_dims[1] * fine_dims[2],
                "MgPreconditioner: grid dims disagree with the fine matrix");
  HPFCG_REQUIRE(fine.row_dist().contiguous(),
                "MgPreconditioner: contiguous fine distribution required");
  HPFCG_REQUIRE(opts.max_levels >= 1 && opts.pre_sweeps >= 1 &&
                    opts.post_sweeps >= 1 && opts.coarse_sweeps >= 1,
                "MgPreconditioner: sweeps and levels must be >= 1");
  exact_ = opts_.smoother == MgSmoother::kExactSymGs ||
           (opts_.smoother == MgSmoother::kAuto && repro::kCompiled &&
            repro::enabled());

  Level l0;
  l0.dims = fine_dims;
  l0.dist = fine.row_dist_ptr();
  l0.op = &fine;
  levels_.push_back(std::move(l0));

  while (levels_.size() < opts_.max_levels) {
    const auto d = levels_.back().dims;
    if (d[0] % 2 != 0 || d[1] % 2 != 0 || d[2] % 2 != 0) break;
    const std::array<std::size_t, 3> cd = {d[0] / 2, d[1] / 2, d[2] / 2};
    const std::size_t cn = cd[0] * cd[1] * cd[2];
    if (cn < opts_.min_coarse_rows) break;
    Level lc;
    lc.dims = cd;
    lc.dist = std::make_shared<const hpf::Distribution>(
        hpf::Distribution::block(cn, proc.nprocs()));
    // Geometric coarse operator: the same 27-point stencil on the halved
    // grid, built replicated (the DistCsr constructor conforms a content
    // fingerprint under checking) and cached — the descriptor trio of a
    // level never changes.
    const sparse::Csr<double> ac = sparse::stencil27_3d(cd[0], cd[1], cd[2]);
    lc.owned_op = std::make_unique<sparse::DistCsr<double>>(
        sparse::DistCsr<double>::row_aligned(proc, ac, lc.dist));
    lc.owned_op->enable_caching();
    lc.owned_op->prepare_halo();
    lc.op = lc.owned_op.get();
    lc.r = std::make_unique<hpf::DistributedVector<double>>(proc, lc.dist);
    lc.z = std::make_unique<hpf::DistributedVector<double>>(proc, lc.dist);
    lc.scratch =
        std::make_unique<hpf::DistributedVector<double>>(proc, lc.dist);
    levels_.push_back(std::move(lc));
  }

  levels_[0].scratch = std::make_unique<hpf::DistributedVector<double>>(
      proc, levels_[0].dist);
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    levels_[l].to_coarse.build(proc, levels_[l].dims, *levels_[l].dist,
                               levels_[l + 1].dims, *levels_[l + 1].dist);
  }
}

void MgPreconditioner::apply(const hpf::DistributedVector<double>& r,
                             hpf::DistributedVector<double>& z) {
  ++proc_->stats().mg_vcycles;
  vcycle(0, r, z);
}

DistPrec<double> MgPreconditioner::prec() {
  return [this](const hpf::DistributedVector<double>& r,
                hpf::DistributedVector<double>& z) { apply(r, z); };
}

void MgPreconditioner::migrate_fine(const hpf::DistPtr& new_dist) {
  HPFCG_REQUIRE(new_dist != nullptr && new_dist->contiguous(),
                "migrate_fine: contiguous fine distribution required");
  levels_[0].dist = new_dist;
  levels_[0].scratch = std::make_unique<hpf::DistributedVector<double>>(
      *proc_, new_dist);
  if (levels_.size() > 1) {
    levels_[0].to_coarse.build(*proc_, levels_[0].dims, *new_dist,
                               levels_[1].dims, *levels_[1].dist);
  }
}

void MgPreconditioner::symgs(std::size_t l,
                             const hpf::DistributedVector<double>& rhs,
                             hpf::DistributedVector<double>& z,
                             std::size_t sweeps) {
  sparse::DistCsr<double>& a = *levels_[l].op;
  for (std::size_t s = 0; s < sweeps; ++s) {
    a.gs_half_sweep(rhs, z, /*forward=*/true, exact_);
    a.gs_half_sweep(rhs, z, /*forward=*/false, exact_);
    proc_->stats().mg_level_sweeps += 2;
  }
}

void MgPreconditioner::vcycle(std::size_t l,
                              const hpf::DistributedVector<double>& r,
                              hpf::DistributedVector<double>& z) {
  Level& lev = levels_[l];
  trace::SpanScope span(proc_->tracer_rank(), trace::SpanKind::kMgLevel,
                        static_cast<std::uint32_t>(l),
                        lev.dims[0] * lev.dims[1] * lev.dims[2] *
                            sizeof(double));
  auto zl = z.local();
  std::fill(zl.begin(), zl.end(), 0.0);
  if (l + 1 == levels_.size()) {
    symgs(l, r, z, opts_.coarse_sweeps);
    return;
  }
  symgs(l, r, z, opts_.pre_sweeps);

  // Fine residual, restricted to the next level's right-hand side.
  lev.op->matvec(z, *lev.scratch);
  auto sl = lev.scratch->local();
  const auto rl = r.local();
  for (std::size_t i = 0; i < sl.size(); ++i) sl[i] = rl[i] - sl[i];
  proc_->add_flops(sl.size());
  Level& coarse = levels_[l + 1];
  lev.to_coarse.restrict_to(*proc_,
                            std::span<const double>(sl.data(), sl.size()),
                            coarse.r->local());

  vcycle(l + 1, *coarse.r, *coarse.z);

  const auto czl = coarse.z->local();
  lev.to_coarse.prolong_add(*proc_,
                            std::span<const double>(czl.data(), czl.size()),
                            zl);
  symgs(l, r, z, opts_.post_sweeps);
}

}  // namespace hpfcg::solvers
