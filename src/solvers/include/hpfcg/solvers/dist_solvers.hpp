#pragma once
// Distributed solver family over the HPF layer — the lowered form of the
// paper's Figure 2 CG code and its Section 2.1 relatives.
//
// Each solver is written once, here: the serial names of serial.hpp run
// these texts on a one-rank machine.
//
// Every solver is matrix-format agnostic: it takes the matrix as a
// distributed linear operator (a callable computing q = A*p on aligned
// distributed vectors), so the same solver text runs over dense row-wise,
// dense column-wise, CSR and CSC matvec kernels — which is exactly the
// benchmark axis of the paper (which storage/partitioning feeds CG best).
//
// Communication per iteration (reproducing the paper's Section 4 count):
//   CG:        1 matvec + 2 DOT_PRODUCT merges; SAXPYs are local.
//   BiCG:      2 matvecs (one with A^T) + 2 merges.
//   BiCGSTAB:  2 matvecs + 4 merges ("greater demand for an efficient
//              intrinsic", Section 2.1).
//
// The *_fused_* variants below are the communication-avoiding forms: the
// recurrences are regrouped (Chronopoulos–Gear for CG/PCG) so the inner
// products of an iteration land back to back and merge through ONE
// hpf::dot_products batch — each merge costs t_startup*log(N_P) regardless
// of how many scalars ride it, so fusing k dots recovers
// (k-1)*2*ceil(log2 N_P)*t_startup per iteration:
//   cg_fused_dist:        1 matvec + 1 merge   (batch {(r,r),(w,r)})
//   pcg_fused_dist:       1 matvec + 1 merge   (batch {(r,u),(w,u),(r,r)})
//   bicgstab_fused_dist:  2 matvecs + 3 merges (vs bicgstab_dist's 6).

#include <cmath>
#include <functional>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/solvers/options.hpp"

namespace hpfcg::solvers {

/// Distributed linear operator: q = A * p (collective call).
template <class T>
using DistOp = std::function<void(const hpf::DistributedVector<T>&,
                                  hpf::DistributedVector<T>&)>;

/// Distributed preconditioner application: z = M^{-1} r (collective call).
template <class T>
using DistPrec = DistOp<T>;

/// Mid-solve rebalance hook (collective call).  Invoked every
/// SolveOptions::rebalance_every iterations; migrates whatever backs the
/// operator (matrix, preconditioner state) onto new cut points and returns
/// the new row distribution — or nullptr to decline (cuts unchanged).  The
/// decision must be replicated: every rank returns the same answer.
/// solvers/rebalance.hpp builds the canonical hook over a DistCsr.
using RebalanceHook = std::function<hpf::DistPtr()>;

namespace detail {
/// record_exit, also publishing the evaluation on the solver's
/// per-iteration trace metrics channel (when tracing).
inline bool record_exit(msg::Process& proc, SolveResult& res,
                        const SolveOptions& opts, double rnorm, double bnorm,
                        double stop) {
  proc.trace_iteration(res.iterations, rnorm);
  return record_exit(res, opts, rnorm, bnorm, stop);
}

/// Apply a distributed operator under a trace span (kMatvec / kPrecond).
template <class T>
void traced_apply(trace::RankTrace* trc, trace::SpanKind kind,
                  const DistOp<T>& op, const hpf::DistributedVector<T>& in,
                  hpf::DistributedVector<T>& out) {
  trace::SpanScope span(trc, kind, 0, in.local().size() * sizeof(T));
  op(in, out);
}

/// True when iteration k (0-based, about to end) is a rebalance point.
inline bool rebalance_due(const SolveOptions& opts,
                          const RebalanceHook& hook, std::size_t k) {
  return opts.rebalance_every != 0 && hook != nullptr &&
         (k + 1) % opts.rebalance_every == 0;
}

/// Invoke the hook and, when it migrated, move the live iteration vectors
/// onto the new distribution.  Dead scratch vectors are the caller's
/// problem (rebuilt empty on the new cuts).  Returns the new distribution
/// or nullptr when nothing moved.
template <class T, class... Live>
hpf::DistPtr apply_rebalance(const RebalanceHook& hook, Live&... live) {
  hpf::DistPtr nd = hook();
  if (nd == nullptr) return nullptr;
  ((live = hpf::redistribute(live, nd)), ...);
  return nd;
}
}  // namespace detail

/// Distributed CG (Figure 2).  x holds the initial guess; all vectors must
/// be mutually aligned.
template <class T>
SolveResult cg_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                    hpf::DistributedVector<T>& x,
                    const SolveOptions& opts = {},
                    const RebalanceHook& rebalance = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);  // r = b - A x0
  hpf::assign(r, p);
  T rho = hpf::dot_product(r, r);
  const double rnorm0 = std::sqrt(static_cast<double>(rho));
  if (detail::record_exit(b.proc(), res, opts, rnorm0, bnorm, stop)) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, q);
    const T pq = hpf::dot_product(p, q);
    if (pq == T{}) {
      res.breakdown = true;
      break;
    }
    const T alpha = rho / pq;
    hpf::axpy<T>(alpha, p, x);   // x = x + alpha p   (saxpy)
    hpf::axpy<T>(-alpha, q, r);  // r = r - alpha q   (saxpy)
    // One merge serves both convergence and beta: rho_new = (r,r) is the
    // residual norm squared AND next iteration's numerator, so Figure 2's
    // literal third DOT_PRODUCT per iteration never happens here.
    const T rho_new = hpf::dot_product(r, r);
    const double rnorm = std::sqrt(static_cast<double>(rho_new));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, r, p);  // p = beta p + r   (saypx, Figure 2)
    rho = rho_new;
    // Live vectors at this point: x, r, p.  q is pure scratch — rebuilt
    // empty on the new cuts rather than migrated.
    if (detail::rebalance_due(opts, rebalance, k) &&
        detail::apply_rebalance<T>(rebalance, x, r, p)) {
      q = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return res;
}

/// Communication-avoiding CG (Chronopoulos–Gear single-reduction form):
/// one matvec and ONE two-wide dot_products merge per iteration, against
/// cg_dist's two scalar merges.  alpha comes from the recurrence
/// alpha = gamma_new / (delta - beta*gamma_new/alpha) instead of (p, A p),
/// at the price of one extra matvec at start-up and one extra vector
/// s = A p maintained by saypx.
template <class T>
SolveResult cg_fused_dist(const DistOp<T>& a,
                          const hpf::DistributedVector<T>& b,
                          hpf::DistributedVector<T>& x,
                          const SolveOptions& opts = {},
                          const RebalanceHook& rebalance = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto w = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, w);  // w = A x0
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, w, r);  // r = b - A x0
  // Extra start-up matvec: w = A r.
  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, r, w);
  const auto d0 = hpf::dot_products(r, r, w, r);  // {gamma, delta}, 1 merge
  T gamma = d0[0];
  T delta = d0[1];
  const double rnorm0 = std::sqrt(static_cast<double>(gamma));
  if (detail::record_exit(b.proc(), res, opts, rnorm0, bnorm, stop)) return res;
  if (delta == T{}) {
    res.breakdown = true;
    return res;
  }
  T alpha = gamma / delta;
  hpf::assign(r, p);
  hpf::assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    hpf::axpy<T>(alpha, p, x);   // x = x + alpha p
    hpf::axpy<T>(-alpha, s, r);  // r = r - alpha s   (s = A p by recurrence)
    // The iteration's only matvec.
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, r, w);
    // The iteration's only reduction: {(r,r), (w,r)} in one tree walk.
    const auto d = hpf::dot_products(r, r, w, r);
    const T gamma_new = d[0];
    const T delta_new = d[1];
    const double rnorm = std::sqrt(static_cast<double>(gamma_new));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    const T beta = gamma_new / gamma;
    const T denom = delta_new - beta * gamma_new / alpha;
    if (denom == T{}) {
      res.breakdown = true;
      break;
    }
    alpha = gamma_new / denom;
    hpf::aypx<T>(beta, r, p);  // p = r + beta p
    hpf::aypx<T>(beta, w, s);  // s = w + beta s  (= A p, no extra matvec)
    gamma = gamma_new;
    // Live vectors: x, r, p, and the recurrence vector s = A p (which MUST
    // migrate — recomputing it would cost a matvec).  w is scratch.
    if (detail::rebalance_due(opts, rebalance, k) &&
        detail::apply_rebalance<T>(rebalance, x, r, p, s)) {
      w = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return res;
}

/// Distributed preconditioned CG.
template <class T>
SolveResult pcg_dist(const DistOp<T>& a, const DistPrec<T>& m_inv,
                     const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {},
                     const RebalanceHook& rebalance = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto z = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) return res;
  detail::traced_apply(trc, trace::SpanKind::kPrecond, m_inv, r, z);
  hpf::assign(z, p);
  T rho = hpf::dot_product(r, z);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, q);
    const T pq = hpf::dot_product(p, q);
    if (pq == T{} || rho == T{}) {
      res.breakdown = true;
      break;
    }
    const T alpha = rho / pq;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, q, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    detail::traced_apply(trc, trace::SpanKind::kPrecond, m_inv, r, z);
    const T rho_new = hpf::dot_product(r, z);
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, z, p);
    rho = rho_new;
    // Live vectors: x, r, p.  z is recomputed from r next iteration and q
    // is scratch; both rebuilt on the new cuts.  The preconditioner must
    // follow the migration itself (e.g. via make_csr_rebalancer's
    // on_migrate callback) — jacobi_dist's captured diagonal does not.
    if (detail::rebalance_due(opts, rebalance, k) &&
        detail::apply_rebalance<T>(rebalance, x, r, p)) {
      z = hpf::DistributedVector<T>::aligned_like(x);
      q = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return res;
}

/// Communication-avoiding preconditioned CG: ONE three-wide merge per
/// iteration — {(r,u), (w,u), (r,r)} with u = M^{-1} r, w = A u — against
/// pcg_dist's three scalar merges.  The (r,r) convergence norm rides the
/// batch for free.
template <class T>
SolveResult pcg_fused_dist(const DistOp<T>& a, const DistPrec<T>& m_inv,
                           const hpf::DistributedVector<T>& b,
                           hpf::DistributedVector<T>& x,
                           const SolveOptions& opts = {},
                           const RebalanceHook& rebalance = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto u = hpf::DistributedVector<T>::aligned_like(b);
  auto w = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, w);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, w, r);
  detail::traced_apply(trc, trace::SpanKind::kPrecond, m_inv, r, u);
  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, u, w);
  const auto d0 = hpf::dot_products(r, u, w, u, r, r);  // one 3-wide merge
  T gamma = d0[0];
  T delta = d0[1];
  const double rnorm0 = std::sqrt(static_cast<double>(d0[2]));
  if (detail::record_exit(b.proc(), res, opts, rnorm0, bnorm, stop)) return res;
  if (delta == T{}) {
    res.breakdown = true;
    return res;
  }
  T alpha = gamma / delta;
  hpf::assign(u, p);
  hpf::assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, s, r);  // s = A p by recurrence
    detail::traced_apply(trc, trace::SpanKind::kPrecond, m_inv, r, u);
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, u, w);
    // The iteration's only reduction: beta/alpha numerators + convergence.
    const auto d = hpf::dot_products(r, u, w, u, r, r);
    const T gamma_new = d[0];
    const T delta_new = d[1];
    const double rnorm = std::sqrt(static_cast<double>(d[2]));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    if (gamma == T{}) {
      res.breakdown = true;
      break;
    }
    const T beta = gamma_new / gamma;
    const T denom = delta_new - beta * gamma_new / alpha;
    if (denom == T{}) {
      res.breakdown = true;
      break;
    }
    alpha = gamma_new / denom;
    hpf::aypx<T>(beta, u, p);  // p = u + beta p
    hpf::aypx<T>(beta, w, s);  // s = w + beta s
    gamma = gamma_new;
    // Live vectors: x, r, p, and the recurrence vector s = A p.  u and w
    // are recomputed from r next iteration — rebuilt on the new cuts.  The
    // preconditioner must follow the migration itself (e.g. via
    // make_csr_rebalancer's on_migrate callback).
    if (detail::rebalance_due(opts, rebalance, k) &&
        detail::apply_rebalance<T>(rebalance, x, r, p, s)) {
      u = hpf::DistributedVector<T>::aligned_like(x);
      w = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return res;
}

/// Distributed BiCG: needs both q = A p and qt = A^T pt.
template <class T>
SolveResult bicg_dist(const DistOp<T>& a, const DistOp<T>& a_transpose,
                      const hpf::DistributedVector<T>& b,
                      hpf::DistributedVector<T>& x,
                      const SolveOptions& opts = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto pt = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);
  auto qt = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);
  hpf::assign(r, rt);
  hpf::assign(r, p);
  hpf::assign(rt, pt);
  T rho = hpf::dot_product(rt, r);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) return res;

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    if (rho == T{}) {
      res.breakdown = true;
      break;
    }
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, q);
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a_transpose, pt, qt);
    const T ptq = hpf::dot_product(pt, q);
    if (ptq == T{}) {
      res.breakdown = true;
      break;
    }
    const T alpha = rho / ptq;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, q, r);
    hpf::axpy<T>(-alpha, qt, rt);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    const T rho_new = hpf::dot_product(rt, r);
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, r, p);
    hpf::aypx<T>(beta, rt, pt);
    rho = rho_new;
  }
  return res;
}

/// Distributed BiCGSTAB — avoids A^T, pays four DOT_PRODUCT merges.
template <class T>
SolveResult bicgstab_dist(const DistOp<T>& a,
                          const hpf::DistributedVector<T>& b,
                          hpf::DistributedVector<T>& x,
                          const SolveOptions& opts = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto v = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) return res;

  T rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    const T rho = hpf::dot_product(rt, r);
    if (rho == T{} || omega == T{}) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      hpf::assign(r, p);
    } else {
      const T beta = (rho / rho_old) * (alpha / omega);
      // p = r + beta (p - omega v), expressed with aligned local ops.
      hpf::axpy<T>(-omega, v, p);
      hpf::aypx<T>(beta, r, p);
    }
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, v);
    const T rtv = hpf::dot_product(rt, v);
    if (rtv == T{}) {
      res.breakdown = true;
      break;
    }
    alpha = rho / rtv;
    hpf::assign(r, s);
    hpf::axpy<T>(-alpha, v, s);
    const double snorm =
        std::sqrt(static_cast<double>(hpf::dot_product(s, s)));
    if (snorm <= stop) {
      hpf::axpy<T>(alpha, p, x);
      res.iterations = k + 1;
      detail::record_exit(b.proc(), res, opts, snorm, bnorm, stop);  // converged
      return res;
    }
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, s, t);
    const T ts = hpf::dot_product(t, s);
    const T tt = hpf::dot_product(t, t);
    if (tt == T{}) {
      res.breakdown = true;
      break;
    }
    omega = ts / tt;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(omega, s, x);
    hpf::assign(s, r);
    hpf::axpy<T>(-omega, t, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    rho_old = rho;
  }
  return res;
}

/// Fused-reduction BiCGSTAB: three merge points per iteration against
/// bicgstab_dist's six — (rt,v) alone after the first matvec, then the
/// batch {(t,s), (t,t), (s,s)} after the second, then {(r,r), (rt,r)}
/// where next iteration's shadow product rides with the convergence norm.
/// The s-norm early exit moves after the second matvec (costing one extra
/// matvec in the final iteration only).
template <class T>
SolveResult bicgstab_fused_dist(const DistOp<T>& a,
                                const hpf::DistributedVector<T>& b,
                                hpf::DistributedVector<T>& x,
                                const SolveOptions& opts = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto v = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  // Merge point 0: convergence norm + first shadow product, one batch.
  const auto d0 = hpf::dot_products(r, r, rt, r);
  const double rnorm0 = std::sqrt(static_cast<double>(d0[0]));
  T rho = d0[1];
  if (detail::record_exit(b.proc(), res, opts, rnorm0, bnorm, stop)) return res;

  T rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    if (rho == T{} || omega == T{}) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      hpf::assign(r, p);
    } else {
      const T beta = (rho / rho_old) * (alpha / omega);
      hpf::axpy<T>(-omega, v, p);
      hpf::aypx<T>(beta, r, p);  // p = r + beta (p - omega v)
    }
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, v);
    const T rtv = hpf::dot_product(rt, v);  // merge point 1 (width 1)
    if (rtv == T{}) {
      res.breakdown = true;
      break;
    }
    alpha = rho / rtv;
    hpf::assign(r, s);
    hpf::axpy<T>(-alpha, v, s);
    // Unconditional: the s-norm check rides the next merge.
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, s, t);
    // Merge point 2 (width 3): omega numerator/denominator + s-norm.
    const auto d2 = hpf::dot_products(t, s, t, t, s, s);
    const T ts = d2[0];
    const T tt = d2[1];
    const double snorm = std::sqrt(static_cast<double>(d2[2]));
    if (snorm <= stop) {
      hpf::axpy<T>(alpha, p, x);
      res.iterations = k + 1;
      detail::record_exit(b.proc(), res, opts, snorm, bnorm, stop);  // converged
      return res;
    }
    if (tt == T{}) {
      res.breakdown = true;
      break;
    }
    omega = ts / tt;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(omega, s, x);
    hpf::assign(s, r);
    hpf::axpy<T>(-omega, t, r);
    // Merge point 3 (width 2): convergence norm + next iteration's rho.
    const auto d3 = hpf::dot_products(r, r, rt, r);
    const double rnorm = std::sqrt(static_cast<double>(d3[0]));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    rho_old = rho;
    rho = d3[1];
  }
  return res;
}

/// Distributed CGS — Section 2.1's Conjugate Gradient Squared: avoids A^T
/// but "can have some undesirable numerical properties such as actual
/// divergence or irregular rates of convergence" (reported via breakdown /
/// non-monotone residual_history).
template <class T>
SolveResult cgs_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {}) {
  SolveResult res;
  trace::RankTrace* const trc = b.proc().tracer_rank();
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);
  auto u = hpf::DistributedVector<T>::aligned_like(b);
  auto vhat = hpf::DistributedVector<T>::aligned_like(b);
  auto uq = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  detail::traced_apply(trc, trace::SpanKind::kMatvec, a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) return res;

  T rho_old{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    trace::SpanScope iter_span(trc, trace::SpanKind::kIteration,
                               static_cast<std::uint32_t>(k));
    const T rho = hpf::dot_product(rt, r);
    if (rho == T{}) {
      res.breakdown = true;
      break;
    }
    if (k == 0) {
      hpf::assign(r, u);
      hpf::assign(u, p);
    } else {
      const T beta = rho / rho_old;
      // u = r + beta*q
      hpf::assign(q, u);
      hpf::scale<T>(beta, u);
      hpf::axpy<T>(T{1}, r, u);
      // p = u + beta*(q + beta*p)
      hpf::scale<T>(beta, p);
      hpf::axpy<T>(T{1}, q, p);
      hpf::scale<T>(beta, p);
      hpf::axpy<T>(T{1}, u, p);
    }
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, p, vhat);
    const T sigma = hpf::dot_product(rt, vhat);
    if (sigma == T{}) {
      res.breakdown = true;
      break;
    }
    const T alpha = rho / sigma;
    // q = u - alpha*vhat;  uq = u + q
    hpf::assign(u, q);
    hpf::axpy<T>(-alpha, vhat, q);
    hpf::assign(u, uq);
    hpf::axpy<T>(T{1}, q, uq);
    hpf::axpy<T>(alpha, uq, x);
    detail::traced_apply(trc, trace::SpanKind::kMatvec, a, uq, t);
    hpf::axpy<T>(-alpha, t, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    res.iterations = k + 1;
    if (detail::record_exit(b.proc(), res, opts, rnorm, bnorm, stop)) {
      return res;
    }
    rho_old = rho;
  }
  return res;
}

/// Distributed Jacobi preconditioner: the inverse diagonal is distributed
/// aligned with the vectors, so each application is a local Hadamard
/// product — zero communication.
template <class T>
DistPrec<T> jacobi_dist(hpf::DistributedVector<T> inv_diag) {
  return [inv_diag = std::move(inv_diag)](const hpf::DistributedVector<T>& r,
                                          hpf::DistributedVector<T>& z) {
    hpf::hadamard(inv_diag, r, z);
  };
}

}  // namespace hpfcg::solvers
