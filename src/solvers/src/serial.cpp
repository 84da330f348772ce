// The serial solver names, each one its distributed text run on a one-rank
// machine: the spans become the local shards of BLOCK(n, 1) vectors, the
// span operators act on those shards, and x is copied back on exit.  No
// message moves at NP = 1, so a serial solve has the bits of the
// distributed solve at NP = 1, and under HPFCG_REPRO the exact reductions
// that make those bits NP-invariant.

#include "hpfcg/solvers/serial.hpp"

#include <string>

#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/solvers/dist_gmres.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/gmres.hpp"
#include "hpfcg/solvers/stationary.hpp"
#include "hpfcg/util/error.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::solvers {

namespace {

using Vec = hpf::DistributedVector<double>;

/// A span operator applied to one-rank vectors' local shards; `f` must
/// outlive the returned operator.
DistOp<double> lift(const MatVec& f) {
  return [&f](const Vec& in, Vec& out) { f(in.local(), out.local()); };
}

MatVec wrap(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
}

/// Runs `solve(b, x)`, a distributed solver text, on a fresh one-rank
/// machine over copies of b and x, and copies the solution back into x.
template <class Solve>
SolveResult on_one_rank(const char* name, std::span<const double> b,
                        std::span<double> x, const Solve& solve) {
  HPFCG_REQUIRE(b.size() == x.size(),
                std::string(name) + ": dimension mismatch");
  SolveResult res;
  msg::Runtime rt(1);
  rt.run([&](msg::Process& proc) {
    const auto dist = hpf::make_block(b.size(), 1);
    Vec bv(proc, dist), xv(proc, dist);
    util::copy<double>(b, bv.local());
    util::copy<double>(x, xv.local());
    res = solve(bv, xv);
    util::copy<double>(xv.local(), x);
  });
  return res;
}

}  // namespace

SolveResult cg(const MatVec& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  return on_one_rank("cg", b, x, [&](const Vec& bv, Vec& xv) {
    return cg_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult cg(const sparse::Csr<double>& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  return cg(wrap(a), b, x, opts);
}

SolveResult cg_fused(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return on_one_rank("cg_fused", b, x, [&](const Vec& bv, Vec& xv) {
    return cg_fused_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult cg_fused(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return cg_fused(wrap(a), b, x, opts);
}

SolveResult pcg(const MatVec& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return on_one_rank("pcg", b, x, [&](const Vec& bv, Vec& xv) {
    return pcg_dist<double>(lift(a), lift(m_inv), bv, xv, opts);
  });
}

SolveResult pcg(const sparse::Csr<double>& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return pcg(wrap(a), m_inv, b, x, opts);
}

SolveResult pcg_fused(const MatVec& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  return on_one_rank("pcg_fused", b, x, [&](const Vec& bv, Vec& xv) {
    return pcg_fused_dist<double>(lift(a), lift(m_inv), bv, xv, opts);
  });
}

SolveResult pcg_fused(const sparse::Csr<double>& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  return pcg_fused(wrap(a), m_inv, b, x, opts);
}

SolveResult bicg(const MatVec& a, const MatVec& a_transpose,
                 std::span<const double> b, std::span<double> x,
                 const SolveOptions& opts) {
  return on_one_rank("bicg", b, x, [&](const Vec& bv, Vec& xv) {
    return bicg_dist<double>(lift(a), lift(a_transpose), bv, xv, opts);
  });
}

SolveResult bicg(const sparse::Csr<double>& a, std::span<const double> b,
                 std::span<double> x, const SolveOptions& opts) {
  const MatVec a_transpose = [&a](std::span<const double> p,
                                  std::span<double> q) {
    a.matvec_transpose(p, q);
  };
  return bicg(wrap(a), a_transpose, b, x, opts);
}

SolveResult cgs(const MatVec& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  return on_one_rank("cgs", b, x, [&](const Vec& bv, Vec& xv) {
    return cgs_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult cgs(const sparse::Csr<double>& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  return cgs(wrap(a), b, x, opts);
}

SolveResult bicgstab(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return on_one_rank("bicgstab", b, x, [&](const Vec& bv, Vec& xv) {
    return bicgstab_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult bicgstab(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return bicgstab(wrap(a), b, x, opts);
}

SolveResult bicgstab_fused(const MatVec& a, std::span<const double> b,
                           std::span<double> x, const SolveOptions& opts) {
  return on_one_rank("bicgstab_fused", b, x, [&](const Vec& bv, Vec& xv) {
    return bicgstab_fused_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult bicgstab_fused(const sparse::Csr<double>& a,
                           std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts) {
  return bicgstab_fused(wrap(a), b, x, opts);
}

SolveResult gmres(const MatVec& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  HPFCG_REQUIRE(opts.restart >= 1, "gmres: restart length must be >= 1");
  return on_one_rank("gmres", b, x, [&](const Vec& bv, Vec& xv) {
    return gmres_dist<double>(lift(a), bv, xv, opts);
  });
}

SolveResult gmres(const sparse::Csr<double>& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  return gmres(wrap(a), b, x, opts);
}

SolveResult jacobi_iteration(const MatVec& a, std::span<const double> diag,
                             std::span<const double> b, std::span<double> x,
                             const SolveOptions& opts) {
  HPFCG_REQUIRE(diag.size() == b.size(),
                "jacobi_iteration: dimension mismatch");
  return on_one_rank("jacobi_iteration", b, x, [&](const Vec& bv, Vec& xv) {
    auto inv_diag = Vec::aligned_like(bv);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
    return jacobi_iteration_dist<double>(lift(a), inv_diag, bv, xv, opts);
  });
}

}  // namespace hpfcg::solvers
