#pragma once
// HPF intrinsics and array operations over distributed vectors.
//
// These are the operations Figure 2 of the paper is built from:
//   DOT_PRODUCT(r, r)      -> dot_product()        (local mult + merge)
//   p = beta * p + r       -> aypx()               (communication-free)
//   x = x + alpha * p      -> axpy()               (communication-free)
//   SUM(...)               -> sum()
//   MAXVAL(ABS(...))       -> max_abs()
//
// Element-wise operations require their operands to be mutually aligned —
// enforced, because in HPF misaligned operands silently generate
// communication; here the library makes the requirement explicit.

#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/repro/superacc.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::hpf {

namespace detail {
template <class T>
void require_aligned(const DistributedVector<T>& a,
                     const DistributedVector<T>& b, const char* op) {
  HPFCG_REQUIRE(is_aligned(a, b),
                std::string(op) + ": operands must be aligned");
}
}  // namespace detail

/// DOT_PRODUCT intrinsic: local element-wise products (no communication)
/// followed by the log-tree merge (allreduce).  Cost per the paper:
/// O(n/N_P) compute + t_startup*log(N_P) merge.
///
/// With the reproducible mode on the local partial sum is accumulated
/// exactly (TwoProd into a superaccumulator) and merged via allreduce_acc,
/// so the result is the correctly rounded exact dot product — independent
/// of NP, tree shape, and block-cut placement.
template <class T>
T dot_product(const DistributedVector<T>& x, const DistributedVector<T>& y) {
  detail::require_aligned(x, y, "dot_product");
  trace::SpanScope span(x.proc().tracer_rank(), trace::SpanKind::kDot, 1,
                        x.local().size() * sizeof(T));
  auto& proc = x.proc();
  if constexpr (std::is_floating_point_v<T>) {
    if (proc.repro_active()) {
      repro::Superacc acc = repro::dot_accumulate<T>(x.local(), y.local());
      proc.add_flops(2 * x.local().size());
      proc.allreduce_acc(std::span<repro::Superacc>(&acc, 1));
      return static_cast<T>(acc.round());
    }
  }
  const T local = util::dot_local<T>(x.local(), y.local());
  proc.add_flops(2 * x.local().size());
  return proc.allreduce(local);
}

/// One (x, y) operand pair of a fused multi-dot request.
template <class T>
struct DotPair {
  const DistributedVector<T>* x;
  const DistributedVector<T>* y;
};

/// Fused DOT_PRODUCT: evaluates pairs[i].x · pairs[i].y for every pair,
/// writing the results to `out`, but merges all k partial sums in a single
/// allreduce_batch — one tree walk instead of k, so the paper's
/// t_startup*log(N_P) latency term is paid once per *group* of dots.  This
/// is the HPF-extension analogue of an elemental reduction intrinsic
/// operating on an array of expressions.  k = 0 is a communication-free
/// no-op: with no operands there is no Process to merge through, and no
/// collective is entered (all ranks must of course agree on k, which the
/// conformance ledger enforces whenever k > 0).
template <class T>
void dot_products(std::span<const DotPair<T>> pairs, std::span<T> out) {
  HPFCG_REQUIRE(pairs.size() == out.size(),
                "dot_products: pairs/out size mismatch");
  if (pairs.empty()) return;
  trace::SpanScope span(pairs[0].x->proc().tracer_rank(),
                        trace::SpanKind::kDotBatch,
                        static_cast<std::uint32_t>(pairs.size()),
                        pairs[0].x->local().size() * sizeof(T));
  auto& proc = pairs[0].x->proc();
  if constexpr (std::is_floating_point_v<T>) {
    if (proc.repro_active()) {
      // Exact local accumulation per pair, one exact batched merge: still
      // a single tree walk, and each dot is bit-identical to its scalar
      // repro dot_product for any NP and any block cuts.
      const auto accs = proc.exact_accumulators(pairs.size());
      std::uint64_t rflops = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& x = *pairs[i].x;
        const auto& y = *pairs[i].y;
        detail::require_aligned(x, y, "dot_products");
        accs[i] = repro::dot_accumulate<T>(x.local(), y.local());
        rflops += 2 * x.local().size();
      }
      proc.add_flops(rflops);
      proc.allreduce_acc(accs);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        out[i] = static_cast<T>(accs[i].round());
      }
      return;
    }
  }
  std::uint64_t flops = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& x = *pairs[i].x;
    const auto& y = *pairs[i].y;
    detail::require_aligned(x, y, "dot_products");
    out[i] = util::dot_local<T>(x.local(), y.local());
    flops += 2 * x.local().size();
  }
  proc.add_flops(flops);
  proc.allreduce_batch(out);
}

/// Two-dot convenience: {x1·y1, x2·y2} in one merge — the shape the fused
/// CG recurrence needs ((r,r) and (w,r) per iteration).
template <class T>
std::array<T, 2> dot_products(const DistributedVector<T>& x1,
                              const DistributedVector<T>& y1,
                              const DistributedVector<T>& x2,
                              const DistributedVector<T>& y2) {
  const std::array<DotPair<T>, 2> pairs{{{&x1, &y1}, {&x2, &y2}}};
  std::array<T, 2> out;
  dot_products<T>(pairs, out);
  return out;
}

/// Three-dot convenience, the fused PCG shape ((r,u), (w,u), (r,r)).
template <class T>
std::array<T, 3> dot_products(const DistributedVector<T>& x1,
                              const DistributedVector<T>& y1,
                              const DistributedVector<T>& x2,
                              const DistributedVector<T>& y2,
                              const DistributedVector<T>& x3,
                              const DistributedVector<T>& y3) {
  const std::array<DotPair<T>, 3> pairs{
      {{&x1, &y1}, {&x2, &y2}, {&x3, &y3}}};
  std::array<T, 3> out;
  dot_products<T>(pairs, out);
  return out;
}

/// SUM intrinsic over a distributed vector.  Reproducible mode: the local
/// loop deposits every element exactly, so the result is the correctly
/// rounded exact sum regardless of NP or block cuts.
template <class T>
T sum(const DistributedVector<T>& x) {
  auto& proc = x.proc();
  if constexpr (std::is_floating_point_v<T>) {
    if (proc.repro_active()) {
      repro::Superacc acc = repro::sum_accumulate<T>(x.local());
      proc.add_flops(x.local().size());
      proc.allreduce_acc(std::span<repro::Superacc>(&acc, 1));
      return static_cast<T>(acc.round());
    }
  }
  T local{};
  for (const auto& v : x.local()) local += v;
  proc.add_flops(x.local().size());
  return proc.allreduce(local);
}

/// Two-norm via dot_product.
template <class T>
T norm2(const DistributedVector<T>& x) {
  return std::sqrt(dot_product(x, x));
}

/// MAXVAL(ABS(x)).
template <class T>
T max_abs(const DistributedVector<T>& x) {
  const T local = util::max_abs_local<T>(x.local());
  return x.proc().allreduce(local, [](T a, T b) { return a > b ? a : b; });
}

/// MAXVAL intrinsic.  Empty local shards contribute the lowest value.
template <class T>
T maxval(const DistributedVector<T>& x) {
  T local = std::numeric_limits<T>::lowest();
  for (const auto& v : x.local()) local = v > local ? v : local;
  return x.proc().allreduce(local, [](T a, T b) { return a > b ? a : b; });
}

/// MINVAL intrinsic.
template <class T>
T minval(const DistributedVector<T>& x) {
  T local = std::numeric_limits<T>::max();
  for (const auto& v : x.local()) local = v < local ? v : local;
  return x.proc().allreduce(local, [](T a, T b) { return a < b ? a : b; });
}

/// Value-and-location pair for MAXLOC/MINLOC.
template <class T>
struct ValueLoc {
  T value;
  std::size_t index;  ///< global index
};

/// MAXLOC intrinsic: the maximum value and its (lowest) global index.
/// x must be non-empty.
template <class T>
ValueLoc<T> maxloc(const DistributedVector<T>& x) {
  HPFCG_REQUIRE(x.size() > 0, "maxloc: empty array");
  ValueLoc<T> local{std::numeric_limits<T>::lowest(), x.size()};
  for (std::size_t l = 0; l < x.local().size(); ++l) {
    const T v = x.local()[l];
    const std::size_t g = x.global_of(l);
    if (v > local.value || (v == local.value && g < local.index)) {
      local = {v, g};
    }
  }
  return x.proc().allreduce(
      local, [](const ValueLoc<T>& a, const ValueLoc<T>& b) {
        if (a.value != b.value) return a.value > b.value ? a : b;
        return a.index <= b.index ? a : b;  // lowest index ties, HPF-style
      });
}

/// MINLOC intrinsic.
template <class T>
ValueLoc<T> minloc(const DistributedVector<T>& x) {
  HPFCG_REQUIRE(x.size() > 0, "minloc: empty array");
  ValueLoc<T> local{std::numeric_limits<T>::max(), x.size()};
  for (std::size_t l = 0; l < x.local().size(); ++l) {
    const T v = x.local()[l];
    const std::size_t g = x.global_of(l);
    if (v < local.value || (v == local.value && g < local.index)) {
      local = {v, g};
    }
  }
  return x.proc().allreduce(
      local, [](const ValueLoc<T>& a, const ValueLoc<T>& b) {
        if (a.value != b.value) return a.value < b.value ? a : b;
        return a.index <= b.index ? a : b;
      });
}

/// y = y + alpha*x — the SAXPY of Section 2, O(n/N_P), communication-free.
template <class T>
void axpy(T alpha, const DistributedVector<T>& x, DistributedVector<T>& y) {
  detail::require_aligned(x, y, "axpy");
  trace::SpanScope span(y.proc().tracer_rank(), trace::SpanKind::kAxpy, 0,
                        y.local().size() * sizeof(T));
  y.proc().add_flops(util::axpy<T>(alpha, x.local(), y.local()));
}

/// y = alpha*y + x — the SAYPX used for p = beta*p + r.
template <class T>
void aypx(T alpha, const DistributedVector<T>& x, DistributedVector<T>& y) {
  detail::require_aligned(x, y, "aypx");
  trace::SpanScope span(y.proc().tracer_rank(), trace::SpanKind::kAypx, 0,
                        y.local().size() * sizeof(T));
  y.proc().add_flops(util::aypx<T>(alpha, x.local(), y.local()));
}

/// x = alpha * x.
template <class T>
void scale(T alpha, DistributedVector<T>& x) {
  x.proc().add_flops(util::scale<T>(alpha, x.local()));
}

/// dst = src (parallel array assignment).
template <class T>
void assign(const DistributedVector<T>& src, DistributedVector<T>& dst) {
  detail::require_aligned(src, dst, "assign");
  util::copy<T>(src.local(), dst.local());
}

/// x = value everywhere.
template <class T>
void fill(DistributedVector<T>& x, T value) {
  util::fill<T>(x.local(), value);
}

/// z = x * y element-wise (all three aligned).
template <class T>
void hadamard(const DistributedVector<T>& x, const DistributedVector<T>& y,
              DistributedVector<T>& z) {
  detail::require_aligned(x, y, "hadamard");
  detail::require_aligned(x, z, "hadamard");
  auto xs = x.local();
  auto ys = y.local();
  auto zs = z.local();
  for (std::size_t i = 0; i < xs.size(); ++i) zs[i] = xs[i] * ys[i];
  z.proc().add_flops(xs.size());
}

}  // namespace hpfcg::hpf
