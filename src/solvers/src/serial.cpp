#include "hpfcg/solvers/serial.hpp"

#include <cmath>
#include <vector>

#include "hpfcg/util/error.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::solvers {

namespace {

using detail::record_exit;
using util::axpy;
using util::aypx;
using util::dot_local;

double norm2(std::span<const double> v) { return std::sqrt(dot_local(v, v)); }

MatVec wrap(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
}

MatVec wrap_transpose(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec_transpose(x, y);
  };
}

}  // namespace

SolveResult cg(const MatVec& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "cg: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), p(n), q(n);
  a(x, q);  // q = A x0
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - q[i];
  util::copy<double>(r, p);
  double rho = dot_local<double>(r, r);
  if (record_exit(res, opts, std::sqrt(rho), bnorm, stop)) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    a(p, q);
    const double pq = dot_local<double>(p, q);
    if (pq == 0.0) {
      res.breakdown = true;
      break;
    }
    const double alpha = rho / pq;
    axpy<double>(alpha, p, x);
    axpy<double>(-alpha, q, r);
    const double rho_new = dot_local<double>(r, r);
    res.iterations = k + 1;
    if (record_exit(res, opts, std::sqrt(rho_new), bnorm, stop)) return res;
    const double beta = rho_new / rho;
    aypx<double>(beta, r, p);  // p = beta*p + r (the saypx of Figure 2)
    rho = rho_new;
  }
  return res;
}

SolveResult cg(const sparse::Csr<double>& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  return cg(wrap(a), b, x, opts);
}

SolveResult cg_fused(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "cg_fused: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), w(n), p(n), s(n);
  a(x, w);  // scratch: w = A x0
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
  a(r, w);  // the extra start-up matvec of the fused recurrence
  // In the distributed solver these two dots are ONE merge.
  double gamma = dot_local<double>(r, r);
  double delta = dot_local<double>(w, r);
  if (record_exit(res, opts, std::sqrt(gamma), bnorm, stop)) return res;
  if (delta == 0.0) {
    res.breakdown = true;
    return res;
  }
  double alpha = gamma / delta;
  util::copy<double>(r, p);
  util::copy<double>(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    axpy<double>(alpha, p, x);   // x = x + alpha p
    axpy<double>(-alpha, s, r);  // r = r - alpha s   (s = A p by recurrence)
    a(r, w);                     // w = A r — the iteration's only matvec
    const double gamma_new = dot_local<double>(r, r);
    const double delta_new = dot_local<double>(w, r);
    res.iterations = k + 1;
    if (record_exit(res, opts, std::sqrt(gamma_new), bnorm, stop)) {
      return res;
    }
    const double beta = gamma_new / gamma;
    const double denom = delta_new - beta * gamma_new / alpha;
    if (denom == 0.0) {
      res.breakdown = true;
      break;
    }
    alpha = gamma_new / denom;
    aypx<double>(beta, r, p);  // p = r + beta p
    aypx<double>(beta, w, s);  // s = w + beta s   (= A p, no extra matvec)
    gamma = gamma_new;
  }
  return res;
}

SolveResult cg_fused(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return cg_fused(wrap(a), b, x, opts);
}

SolveResult pcg(const MatVec& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "pcg: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), z(n), p(n), q(n);
  a(x, q);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - q[i];
  if (record_exit(res, opts, norm2(r), bnorm, stop)) return res;
  m_inv(r, z);
  util::copy<double>(z, p);
  double rho = dot_local<double>(r, z);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    a(p, q);
    const double pq = dot_local<double>(p, q);
    if (pq == 0.0 || rho == 0.0) {
      res.breakdown = true;
      break;
    }
    const double alpha = rho / pq;
    axpy<double>(alpha, p, x);
    axpy<double>(-alpha, q, r);
    const double rnorm = norm2(r);
    res.iterations = k + 1;
    if (record_exit(res, opts, rnorm, bnorm, stop)) return res;
    m_inv(r, z);
    const double rho_new = dot_local<double>(r, z);
    const double beta = rho_new / rho;
    aypx<double>(beta, z, p);  // p = beta*p + z
    rho = rho_new;
  }
  return res;
}

SolveResult pcg(const sparse::Csr<double>& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return pcg(wrap(a), m_inv, b, x, opts);
}

SolveResult pcg_fused(const MatVec& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "pcg_fused: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), u(n), w(n), p(n), s(n);
  a(x, w);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
  m_inv(r, u);
  a(u, w);
  // One fused merge of three inner products in the distributed solver.
  double gamma = dot_local<double>(r, u);
  double rr = dot_local<double>(r, r);
  double delta = dot_local<double>(w, u);
  if (record_exit(res, opts, std::sqrt(rr), bnorm, stop)) return res;
  if (delta == 0.0) {
    res.breakdown = true;
    return res;
  }
  double alpha = gamma / delta;
  util::copy<double>(u, p);
  util::copy<double>(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    axpy<double>(alpha, p, x);
    axpy<double>(-alpha, s, r);  // s = A p by recurrence
    m_inv(r, u);
    a(u, w);
    const double gamma_new = dot_local<double>(r, u);
    const double delta_new = dot_local<double>(w, u);
    rr = dot_local<double>(r, r);
    res.iterations = k + 1;
    if (record_exit(res, opts, std::sqrt(rr), bnorm, stop)) return res;
    if (gamma == 0.0) {
      res.breakdown = true;
      break;
    }
    const double beta = gamma_new / gamma;
    const double denom = delta_new - beta * gamma_new / alpha;
    if (denom == 0.0) {
      res.breakdown = true;
      break;
    }
    alpha = gamma_new / denom;
    aypx<double>(beta, u, p);  // p = u + beta p
    aypx<double>(beta, w, s);  // s = w + beta s
    gamma = gamma_new;
  }
  return res;
}

SolveResult pcg_fused(const sparse::Csr<double>& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  return pcg_fused(wrap(a), m_inv, b, x, opts);
}

SolveResult bicg(const MatVec& a, const MatVec& a_transpose,
                 std::span<const double> b, std::span<double> x,
                 const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "bicg: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), rt(n), p(n), pt(n), q(n), qt(n);
  a(x, q);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - q[i];
  util::copy<double>(r, rt);  // shadow residual: rt = r
  util::copy<double>(r, p);
  util::copy<double>(rt, pt);
  double rho = dot_local<double>(rt, r);
  if (record_exit(res, opts, norm2(r), bnorm, stop)) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    if (rho == 0.0) {
      res.breakdown = true;
      break;
    }
    a(p, q);
    a_transpose(pt, qt);  // the A^T product that negates row-storage tuning
    const double ptq = dot_local<double>(pt, q);
    if (ptq == 0.0) {
      res.breakdown = true;
      break;
    }
    const double alpha = rho / ptq;
    axpy<double>(alpha, p, x);
    axpy<double>(-alpha, q, r);
    axpy<double>(-alpha, qt, rt);
    const double rnorm = norm2(r);
    res.iterations = k + 1;
    if (record_exit(res, opts, rnorm, bnorm, stop)) return res;
    const double rho_new = dot_local<double>(rt, r);
    const double beta = rho_new / rho;
    aypx<double>(beta, r, p);    // p  = r  + beta*p
    aypx<double>(beta, rt, pt);  // pt = rt + beta*pt
    rho = rho_new;
  }
  return res;
}

SolveResult bicg(const sparse::Csr<double>& a, std::span<const double> b,
                 std::span<double> x, const SolveOptions& opts) {
  return bicg(wrap(a), wrap_transpose(a), b, x, opts);
}

SolveResult cgs(const MatVec& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "cgs: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), rt(n), p(n), q(n), u(n), vhat(n), uq(n), t(n);
  a(x, t);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - t[i];
  util::copy<double>(r, rt);
  if (record_exit(res, opts, norm2(r), bnorm, stop)) return res;

  double rho_old = 1.0;
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const double rho = dot_local<double>(rt, r);
    if (rho == 0.0) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      util::copy<double>(r, u);
      util::copy<double>(u, p);
    } else {
      const double beta = rho / rho_old;
      for (std::size_t i = 0; i < n; ++i) u[i] = r[i] + beta * q[i];
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = u[i] + beta * (q[i] + beta * p[i]);
      }
    }
    a(p, vhat);
    const double sigma = dot_local<double>(rt, vhat);
    if (sigma == 0.0) {
      res.breakdown = true;
      break;
    }
    const double alpha = rho / sigma;
    for (std::size_t i = 0; i < n; ++i) q[i] = u[i] - alpha * vhat[i];
    for (std::size_t i = 0; i < n; ++i) uq[i] = u[i] + q[i];
    axpy<double>(alpha, uq, x);
    a(uq, t);
    axpy<double>(-alpha, t, r);
    const double rnorm = norm2(r);
    res.iterations = k + 1;
    // A non-finite norm here is CGS's "actual divergence" (Section 2.1).
    if (record_exit(res, opts, rnorm, bnorm, stop)) return res;
    rho_old = rho;
  }
  return res;
}

SolveResult cgs(const sparse::Csr<double>& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  return cgs(wrap(a), b, x, opts);
}

SolveResult bicgstab(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "bicgstab: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), rt(n), p(n), v(n), s(n), t(n);
  a(x, t);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - t[i];
  util::copy<double>(r, rt);
  if (record_exit(res, opts, norm2(r), bnorm, stop)) return res;

  double rho_old = 1.0, alpha = 1.0, omega = 1.0;
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const double rho = dot_local<double>(rt, r);  // inner product 1
    if (rho == 0.0 || omega == 0.0) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      util::copy<double>(r, p);
    } else {
      const double beta = (rho / rho_old) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    a(p, v);
    const double rtv = dot_local<double>(rt, v);  // inner product 2
    if (rtv == 0.0) {
      res.breakdown = true;
      break;
    }
    alpha = rho / rtv;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    const double snorm = norm2(s);
    if (snorm <= stop) {
      axpy<double>(alpha, p, x);
      res.iterations = k + 1;
      record_exit(res, opts, snorm, bnorm, stop);  // converged
      return res;
    }
    a(s, t);
    const double ts = dot_local<double>(t, s);  // inner product 3
    const double tt = dot_local<double>(t, t);  // inner product 4
    if (tt == 0.0) {
      res.breakdown = true;
      break;
    }
    omega = ts / tt;
    axpy<double>(alpha, p, x);
    axpy<double>(omega, s, x);
    for (std::size_t i = 0; i < n; ++i) r[i] = s[i] - omega * t[i];
    const double rnorm = norm2(r);
    res.iterations = k + 1;
    if (record_exit(res, opts, rnorm, bnorm, stop)) return res;
    rho_old = rho;
  }
  return res;
}

SolveResult bicgstab(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return bicgstab(wrap(a), b, x, opts);
}

SolveResult bicgstab_fused(const MatVec& a, std::span<const double> b,
                           std::span<double> x, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "bicgstab_fused: dimension mismatch");
  const std::size_t n = b.size();
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  std::vector<double> r(n), rt(n), p(n), v(n), s(n), t(n);
  a(x, t);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - t[i];
  util::copy<double>(r, rt);
  // Merge point 0: convergence norm and the first shadow product together
  // (rt = r here, but the distributed solver fuses them regardless).
  const double rr0 = dot_local<double>(r, r);
  double rho = dot_local<double>(rt, r);
  if (record_exit(res, opts, std::sqrt(rr0), bnorm, stop)) return res;

  double rho_old = 1.0, alpha = 1.0, omega = 1.0;
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    if (rho == 0.0 || omega == 0.0) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      util::copy<double>(r, p);
    } else {
      const double beta = (rho / rho_old) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    a(p, v);
    const double rtv = dot_local<double>(rt, v);  // merge point 1 (width 1)
    if (rtv == 0.0) {
      res.breakdown = true;
      break;
    }
    alpha = rho / rtv;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    a(s, t);  // unconditional: the s-norm check rides the next merge
    // Merge point 2 (width 3): omega numerator/denominator + s-norm.
    const double ts = dot_local<double>(t, s);
    const double tt = dot_local<double>(t, t);
    const double ss = dot_local<double>(s, s);
    const double snorm = std::sqrt(ss);
    if (snorm <= stop) {
      axpy<double>(alpha, p, x);
      res.iterations = k + 1;
      record_exit(res, opts, snorm, bnorm, stop);  // converged
      return res;
    }
    if (tt == 0.0) {
      res.breakdown = true;
      break;
    }
    omega = ts / tt;
    axpy<double>(alpha, p, x);
    axpy<double>(omega, s, x);
    for (std::size_t i = 0; i < n; ++i) r[i] = s[i] - omega * t[i];
    // Merge point 3 (width 2): convergence norm + next iteration's rho.
    const double rr = dot_local<double>(r, r);
    const double rtr = dot_local<double>(rt, r);
    const double rnorm = std::sqrt(rr);
    res.iterations = k + 1;
    if (record_exit(res, opts, rnorm, bnorm, stop)) return res;
    rho_old = rho;
    rho = rtr;
  }
  return res;
}

SolveResult bicgstab_fused(const sparse::Csr<double>& a,
                           std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts) {
  return bicgstab_fused(wrap(a), b, x, opts);
}

}  // namespace hpfcg::solvers
