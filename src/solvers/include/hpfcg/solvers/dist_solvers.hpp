#pragma once
// Distributed solver family over the HPF layer — the lowered form of the
// paper's Figure 2 CG code and its Section 2.1 relatives.
//
// Each solver is written once — here, GMRES in dist_gmres.hpp and the
// Jacobi iteration in stationary.hpp — and the serial names of serial.hpp
// run these texts on a one-rank machine.  A text states only its
// recurrence; one detail::Solve owns what all ten share: the ||b|| merge
// and stop threshold, the operator and iteration trace spans, the one
// residual exit (history, trace metrics channel, exit test), the
// breakdown flag and the rebalance step.
//
// Every solver is matrix-format agnostic: it takes the matrix as a
// distributed linear operator (a callable computing q = A*p on aligned
// distributed vectors), so the same solver text runs over dense row-wise,
// dense column-wise, CSR and CSC matvec kernels — which is exactly the
// benchmark axis of the paper (which storage/partitioning feeds CG best).
//
// Communication per iteration (the paper's Section 4 count; merges per
// rank, convergence norms included):
//   CG:        1 matvec + 2 DOT_PRODUCT merges; SAXPYs are local.
//   PCG:       1 matvec + 1 preconditioner application + 3 merges.
//   BiCG, CGS: 2 matvecs (BiCG's second with A^T) + 3 merges.
//   BiCGSTAB:  2 matvecs + 6 merges, 4 inner products and 2 exit norms
//              ("greater demand for an efficient intrinsic", Section 2.1).
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
#include <cstdint>
#include <functional>
#include <utility>

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
/// What the distributed solver texts share (see the file comment).
/// Construction makes the solve's first merge, ||b||.  Members are inline
/// and O(1) beyond the operator or migration they run: a loop makes only
/// the merges, allocations and indirect calls its recurrence spells out.
template <class T>
class Solve {
 public:
  using Vector = hpf::DistributedVector<T>;

  Solve(const Vector& b, const SolveOptions& opts)
      : proc_(b.proc()),
        trc_(b.proc().tracer_rank()),
        opts_(opts),
        bnorm_(std::sqrt(static_cast<double>(hpf::dot_product(b, b)))),
        stop_(stop_threshold(opts.rel_tolerance, bnorm_)) {}

  [[nodiscard]] double bnorm() const { return bnorm_; }
  /// Converged once a recorded ||r|| reaches this.
  [[nodiscard]] double stop() const { return stop_; }

  /// out = A in, under a kMatvec span.
  void matvec(const DistOp<T>& a, const Vector& in, Vector& out) const {
    apply(trace::SpanKind::kMatvec, a, in, out);
  }

  /// out = M^{-1} in, under a kPrecond span.
  void precond(const DistPrec<T>& m_inv, const Vector& in,
               Vector& out) const {
    apply(trace::SpanKind::kPrecond, m_inv, in, out);
  }

  /// Iteration k's kIteration span, open until the returned scope ends.
  [[nodiscard]] trace::SpanScope iteration(std::size_t k) const {
    return trace::SpanScope(trc_, trace::SpanKind::kIteration,
                            static_cast<std::uint32_t>(k));
  }

  /// The one exit: records `rnorm` as the residual after `iterations`
  /// steps (count, exit residual, history, trace metrics channel), then
  /// runs the exit test.  True when the solve must stop.
  bool record(std::size_t iterations, double rnorm) {
    res.iterations = iterations;
    proc_.trace_iteration(iterations, rnorm);
    return record_exit(res, opts_, rnorm, bnorm_, stop_);
  }

  /// The exit test alone, on a residual that is not recorded (a GMRES
  /// restart's ||b - A x||).  True when the solve must stop.
  bool test(double rnorm) {
    res.relative_residual = relative_residual(rnorm, bnorm_);
    return residual_exit(res, rnorm, stop_);
  }

  /// Flags a breakdown when `broke` holds; returns `broke`.
  bool breakdown(bool broke) {
    if (broke) res.breakdown = true;
    return broke;
  }

  /// The rebalance step closing iteration k (0-based): every
  /// rebalance_every iterations the hook may migrate the operator, and the
  /// live vectors follow onto its new cuts.  True when they moved; the
  /// caller then rebuilds its scratch vectors there.
  template <class... Live>
  bool rebalance(const RebalanceHook& hook, std::size_t k, Live&... live) {
    if (opts_.rebalance_every == 0 || hook == nullptr ||
        (k + 1) % opts_.rebalance_every != 0) {
      return false;
    }
    const hpf::DistPtr nd = hook();
    if (nd == nullptr) return false;
    ((live = hpf::redistribute(live, nd)), ...);
    return true;
  }

  [[nodiscard]] SolveResult finish() { return std::move(res); }

  /// What finish() hands over; GMRES's true-residual check amends it.
  SolveResult res;

 private:
  void apply(trace::SpanKind kind, const DistOp<T>& op, const Vector& in,
             Vector& out) const {
    trace::SpanScope span(trc_, kind, 0, in.local().size() * sizeof(T));
    op(in, out);
  }

  msg::Process& proc_;
  trace::RankTrace* const trc_;
  const SolveOptions& opts_;
  const double bnorm_;
  const double stop_;
};
}  // namespace detail

/// Distributed CG (Figure 2).  x holds the initial guess; all vectors must
/// be mutually aligned.
template <class T>
SolveResult cg_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                    hpf::DistributedVector<T>& x,
                    const SolveOptions& opts = {},
                    const RebalanceHook& rebalance = {}) {
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);  // r = b - A x0
  hpf::assign(r, p);
  T rho = hpf::dot_product(r, r);
  const double rnorm0 = std::sqrt(static_cast<double>(rho));
  if (solve.record(0, rnorm0)) return solve.finish();

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    solve.matvec(a, p, q);
    const T pq = hpf::dot_product(p, q);
    if (solve.breakdown(pq == T{})) break;
    const T alpha = rho / pq;
    hpf::axpy<T>(alpha, p, x);   // x = x + alpha p   (saxpy)
    hpf::axpy<T>(-alpha, q, r);  // r = r - alpha q   (saxpy)
    // One merge serves both convergence and beta: rho_new = (r,r) is the
    // residual norm squared AND next iteration's numerator, so Figure 2's
    // literal third DOT_PRODUCT per iteration never happens here.
    const T rho_new = hpf::dot_product(r, r);
    const double rnorm = std::sqrt(static_cast<double>(rho_new));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, r, p);  // p = beta p + r   (saypx, Figure 2)
    rho = rho_new;
    // Live vectors at this point: x, r, p.  q is pure scratch — rebuilt
    // empty on the new cuts rather than migrated.
    if (solve.rebalance(rebalance, k, x, r, p)) {
      q = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return solve.finish();
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
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto w = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, w);  // w = A x0
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, w, r);  // r = b - A x0
  solve.matvec(a, r, w);      // extra start-up matvec: w = A r
  const auto d0 = hpf::dot_products(r, r, w, r);  // {gamma, delta}, 1 merge
  T gamma = d0[0];
  T delta = d0[1];
  const double rnorm0 = std::sqrt(static_cast<double>(gamma));
  if (solve.record(0, rnorm0)) return solve.finish();
  if (solve.breakdown(delta == T{})) return solve.finish();
  T alpha = gamma / delta;
  hpf::assign(r, p);
  hpf::assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    hpf::axpy<T>(alpha, p, x);   // x = x + alpha p
    hpf::axpy<T>(-alpha, s, r);  // r = r - alpha s   (s = A p by recurrence)
    solve.matvec(a, r, w);       // the iteration's only matvec
    // The iteration's only reduction: {(r,r), (w,r)} in one tree walk.
    const auto d = hpf::dot_products(r, r, w, r);
    const T gamma_new = d[0];
    const T delta_new = d[1];
    const double rnorm = std::sqrt(static_cast<double>(gamma_new));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    const T beta = gamma_new / gamma;
    const T denom = delta_new - beta * gamma_new / alpha;
    if (solve.breakdown(denom == T{})) break;
    alpha = gamma_new / denom;
    hpf::aypx<T>(beta, r, p);  // p = r + beta p
    hpf::aypx<T>(beta, w, s);  // s = w + beta s  (= A p, no extra matvec)
    gamma = gamma_new;
    // Live vectors: x, r, p, and the recurrence vector s = A p (which MUST
    // migrate — recomputing it would cost a matvec).  w is scratch.
    if (solve.rebalance(rebalance, k, x, r, p, s)) {
      w = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return solve.finish();
}

/// Distributed preconditioned CG.
template <class T>
SolveResult pcg_dist(const DistOp<T>& a, const DistPrec<T>& m_inv,
                     const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {},
                     const RebalanceHook& rebalance = {}) {
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto z = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (solve.record(0, rnorm)) return solve.finish();
  solve.precond(m_inv, r, z);
  hpf::assign(z, p);
  T rho = hpf::dot_product(r, z);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    solve.matvec(a, p, q);
    const T pq = hpf::dot_product(p, q);
    if (solve.breakdown(pq == T{} || rho == T{})) break;
    const T alpha = rho / pq;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, q, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    solve.precond(m_inv, r, z);
    const T rho_new = hpf::dot_product(r, z);
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, z, p);
    rho = rho_new;
    // Live vectors: x, r, p.  z is recomputed from r next iteration and q
    // is scratch; both rebuilt on the new cuts.  The preconditioner must
    // follow the migration itself (e.g. via make_csr_rebalancer's
    // on_migrate callback) — jacobi_dist's captured diagonal does not.
    if (solve.rebalance(rebalance, k, x, r, p)) {
      z = hpf::DistributedVector<T>::aligned_like(x);
      q = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return solve.finish();
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
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto u = hpf::DistributedVector<T>::aligned_like(b);
  auto w = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, w);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, w, r);
  solve.precond(m_inv, r, u);
  solve.matvec(a, u, w);
  const auto d0 = hpf::dot_products(r, u, w, u, r, r);  // one 3-wide merge
  T gamma = d0[0];
  T delta = d0[1];
  const double rnorm0 = std::sqrt(static_cast<double>(d0[2]));
  if (solve.record(0, rnorm0)) return solve.finish();
  if (solve.breakdown(delta == T{})) return solve.finish();
  T alpha = gamma / delta;
  hpf::assign(u, p);
  hpf::assign(w, s);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, s, r);  // s = A p by recurrence
    solve.precond(m_inv, r, u);
    solve.matvec(a, u, w);
    // The iteration's only reduction: beta/alpha numerators + convergence.
    const auto d = hpf::dot_products(r, u, w, u, r, r);
    const T gamma_new = d[0];
    const T delta_new = d[1];
    const double rnorm = std::sqrt(static_cast<double>(d[2]));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    if (solve.breakdown(gamma == T{})) break;
    const T beta = gamma_new / gamma;
    const T denom = delta_new - beta * gamma_new / alpha;
    if (solve.breakdown(denom == T{})) break;
    alpha = gamma_new / denom;
    hpf::aypx<T>(beta, u, p);  // p = u + beta p
    hpf::aypx<T>(beta, w, s);  // s = w + beta s
    gamma = gamma_new;
    // Live vectors: x, r, p and s = A p; u and w are recomputed from r.
    // The preconditioner follows the migration itself, as in pcg_dist.
    if (solve.rebalance(rebalance, k, x, r, p, s)) {
      u = hpf::DistributedVector<T>::aligned_like(x);
      w = hpf::DistributedVector<T>::aligned_like(x);
    }
  }
  return solve.finish();
}

/// Distributed BiCG: needs both q = A p and qt = A^T pt.
template <class T>
SolveResult bicg_dist(const DistOp<T>& a, const DistOp<T>& a_transpose,
                      const hpf::DistributedVector<T>& b,
                      hpf::DistributedVector<T>& x,
                      const SolveOptions& opts = {}) {
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto pt = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);
  auto qt = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, q);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, q, r);
  hpf::assign(r, rt);
  hpf::assign(r, p);
  hpf::assign(rt, pt);
  T rho = hpf::dot_product(rt, r);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (solve.record(0, rnorm)) return solve.finish();

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    if (solve.breakdown(rho == T{})) break;
    solve.matvec(a, p, q);
    solve.matvec(a_transpose, pt, qt);
    const T ptq = hpf::dot_product(pt, q);
    if (solve.breakdown(ptq == T{})) break;
    const T alpha = rho / ptq;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(-alpha, q, r);
    hpf::axpy<T>(-alpha, qt, rt);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    const T rho_new = hpf::dot_product(rt, r);
    const T beta = rho_new / rho;
    hpf::aypx<T>(beta, r, p);
    hpf::aypx<T>(beta, rt, pt);
    rho = rho_new;
  }
  return solve.finish();
}

/// Distributed BiCGSTAB — avoids A^T, pays six DOT_PRODUCT merges.
template <class T>
SolveResult bicgstab_dist(const DistOp<T>& a,
                          const hpf::DistributedVector<T>& b,
                          hpf::DistributedVector<T>& x,
                          const SolveOptions& opts = {}) {
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto v = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (solve.record(0, rnorm)) return solve.finish();

  T rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    const T rho = hpf::dot_product(rt, r);
    if (solve.breakdown(rho == T{} || omega == T{})) break;
    if (k == 0) {
      hpf::assign(r, p);
    } else {
      const T beta = (rho / rho_old) * (alpha / omega);
      // p = r + beta (p - omega v), expressed with aligned local ops.
      hpf::axpy<T>(-omega, v, p);
      hpf::aypx<T>(beta, r, p);
    }
    solve.matvec(a, p, v);
    const T rtv = hpf::dot_product(rt, v);
    if (solve.breakdown(rtv == T{})) break;
    alpha = rho / rtv;
    hpf::assign(r, s);
    hpf::axpy<T>(-alpha, v, s);
    const double snorm = std::sqrt(static_cast<double>(hpf::dot_product(s, s)));
    if (snorm <= solve.stop()) {
      hpf::axpy<T>(alpha, p, x);
      solve.record(k + 1, snorm);  // converged
      return solve.finish();
    }
    solve.matvec(a, s, t);
    const T ts = hpf::dot_product(t, s);
    const T tt = hpf::dot_product(t, t);
    if (solve.breakdown(tt == T{})) break;
    omega = ts / tt;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(omega, s, x);
    hpf::assign(s, r);
    hpf::axpy<T>(-omega, t, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    rho_old = rho;
  }
  return solve.finish();
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
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto v = hpf::DistributedVector<T>::aligned_like(b);
  auto s = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  // Merge point 0: convergence norm + first shadow product, one batch.
  const auto d0 = hpf::dot_products(r, r, rt, r);
  const double rnorm0 = std::sqrt(static_cast<double>(d0[0]));
  T rho = d0[1];
  if (solve.record(0, rnorm0)) return solve.finish();

  T rho_old{1}, alpha{1}, omega{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    if (solve.breakdown(rho == T{} || omega == T{})) break;
    if (k == 0) {
      hpf::assign(r, p);
    } else {
      const T beta = (rho / rho_old) * (alpha / omega);
      hpf::axpy<T>(-omega, v, p);
      hpf::aypx<T>(beta, r, p);  // p = r + beta (p - omega v)
    }
    solve.matvec(a, p, v);
    const T rtv = hpf::dot_product(rt, v);  // merge point 1 (width 1)
    if (solve.breakdown(rtv == T{})) break;
    alpha = rho / rtv;
    hpf::assign(r, s);
    hpf::axpy<T>(-alpha, v, s);
    // Unconditional: the s-norm check rides the next merge.
    solve.matvec(a, s, t);
    // Merge point 2 (width 3): omega numerator/denominator + s-norm.
    const auto d2 = hpf::dot_products(t, s, t, t, s, s);
    const T ts = d2[0];
    const T tt = d2[1];
    const double snorm = std::sqrt(static_cast<double>(d2[2]));
    if (snorm <= solve.stop()) {
      hpf::axpy<T>(alpha, p, x);
      solve.record(k + 1, snorm);  // converged
      return solve.finish();
    }
    if (solve.breakdown(tt == T{})) break;
    omega = ts / tt;
    hpf::axpy<T>(alpha, p, x);
    hpf::axpy<T>(omega, s, x);
    hpf::assign(s, r);
    hpf::axpy<T>(-omega, t, r);
    // Merge point 3 (width 2): convergence norm + next iteration's rho.
    const auto d3 = hpf::dot_products(r, r, rt, r);
    const double rnorm = std::sqrt(static_cast<double>(d3[0]));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    rho_old = rho;
    rho = d3[1];
  }
  return solve.finish();
}

/// Distributed CGS — Section 2.1's Conjugate Gradient Squared: avoids A^T
/// but "can have some undesirable numerical properties such as actual
/// divergence or irregular rates of convergence" (reported via breakdown /
/// non-monotone residual_history).
template <class T>
SolveResult cgs_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                     hpf::DistributedVector<T>& x,
                     const SolveOptions& opts = {}) {
  detail::Solve<T> solve(b, opts);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto rt = hpf::DistributedVector<T>::aligned_like(b);
  auto p = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);
  auto u = hpf::DistributedVector<T>::aligned_like(b);
  auto vhat = hpf::DistributedVector<T>::aligned_like(b);
  auto uq = hpf::DistributedVector<T>::aligned_like(b);
  auto t = hpf::DistributedVector<T>::aligned_like(b);

  solve.matvec(a, x, t);
  hpf::assign(b, r);
  hpf::axpy<T>(T{-1}, t, r);
  hpf::assign(r, rt);
  double rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
  if (solve.record(0, rnorm)) return solve.finish();

  T rho_old{1};
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const auto iter_span = solve.iteration(k);
    const T rho = hpf::dot_product(rt, r);
    if (solve.breakdown(rho == T{})) break;
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
    solve.matvec(a, p, vhat);
    const T sigma = hpf::dot_product(rt, vhat);
    if (solve.breakdown(sigma == T{})) break;
    const T alpha = rho / sigma;
    // q = u - alpha*vhat;  uq = u + q
    hpf::assign(u, q);
    hpf::axpy<T>(-alpha, vhat, q);
    hpf::assign(u, uq);
    hpf::axpy<T>(T{1}, q, uq);
    hpf::axpy<T>(alpha, uq, x);
    solve.matvec(a, uq, t);
    hpf::axpy<T>(-alpha, t, r);
    rnorm = std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    if (solve.record(k + 1, rnorm)) return solve.finish();
    rho_old = rho;
  }
  return solve.finish();
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
