#pragma once
// Exact fixed-point superaccumulator for reproducible summation.
//
// A Superacc holds the *exact* sum of any sequence of doubles as a
// carry-save fixed-point number: limb[i] counts multiples of
// 2^(32*i + kBias), so the represented value is
//
//   sum_i limb[i] * 2^(32*i + kBias).
//
// Every finite double decomposes as m * 2^e with m < 2^53 and
// e in [-1074, 971]; its mantissa lands in at most three adjacent limbs.
// Addition of two accumulators is element-wise integer limb addition —
// exact, associative, and commutative — which is the whole point: the sum
// is a pure function of the multiset of addends, independent of summation
// order, reduction-tree shape, NP, and block-cut placement.  Rounding back
// to double happens exactly once, with correct round-to-nearest-even, so
// the reproducible mode returns the correctly rounded exact sum.
//
// Limb geometry: bit positions of finite doubles span [-1074, 1023]; with
// kBias = -1088 a mantissa deposited at exponent e >= -1074 starts at
// in-array bit position e - kBias >= 14, and the topmost data bit
// (e = 971, bit e + 52 = 1023) lands in limb 65.  Limb 66 absorbs deposit
// spill, limb 67 absorbs renormalization carries and holds the sign.
// Limbs are int64 digit counters; deposits add at most 2^32 - 1 per limb,
// so with renormalization every 2^20 deposits the counters stay far from
// int64 overflow (|limb| < 2^53) even across merges.
//
// Infinities and NaNs cannot enter the fixed-point array; they accumulate
// in a parallel IEEE side-sum whose value class (±inf / NaN) is
// order-independent, and round() returns it whenever one was seen.
//
// The struct is trivially copyable so it travels through the msg runtime's
// memcpy-based envelopes unchanged: the merged limbs broadcast from rank 0
// are bit-identical on every rank, hence so is the rounded double.

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace hpfcg::repro {

class Superacc {
 public:
  static constexpr int kLimbBits = 32;
  static constexpr int kLimbs = 68;
  static constexpr int kBias = -1088;
  /// Flop cost booked per merged value in allreduce_acc: one integer add
  /// per limb.
  static constexpr std::uint64_t kMergeFlops = kLimbs;

  /// Deposit one double exactly (finite) or into the IEEE side-sum
  /// (inf/NaN).  ±0 contributes nothing.
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int biased = static_cast<int>((bits >> 52) & 0x7FF);
    std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
    if (biased == 0x7FF) {  // inf / NaN: exact machinery cannot hold these
      nonfinite_ += v;
      ++nonfinite_count_;
      return;
    }
    int e = 0;
    if (biased == 0) {
      if (m == 0) return;  // ±0
      e = -1074;
    } else {
      m |= std::uint64_t{1} << 52;
      e = biased - 1075;
    }
    const int p = e - kBias;  // in-array bit position, >= 14
    const int li = p >> 5;
    const int off = p & 31;
    const std::uint64_t lo = m << off;  // low 64 bits of m * 2^off
    const std::uint64_t hi = off != 0 ? m >> (64 - off) : 0;  // the spill
    const std::int64_t sign = (bits >> 63) != 0 ? -1 : 1;
    limb_[static_cast<std::size_t>(li)] +=
        sign * static_cast<std::int64_t>(lo & 0xFFFFFFFFU);
    limb_[static_cast<std::size_t>(li) + 1] +=
        sign * static_cast<std::int64_t>(lo >> 32);
    limb_[static_cast<std::size_t>(li) + 2] +=
        sign * static_cast<std::int64_t>(hi);
    if (++adds_ >= kRenormEvery) renormalize();
  }

  /// Deposit the product a*b exactly via TwoProd: hi = fl(a*b) and
  /// lo = fma(a, b, -hi) satisfy hi + lo == a*b exactly (whenever hi is a
  /// finite normal; on overflow the pair degrades to the IEEE side-sum, and
  /// in the deep-underflow corner hi+lo is the nearest representable pair —
  /// in every case a pure function of (a, b), so reproducibility holds).
  void add_product(double a, double b) {
    const double hi = a * b;
    const double lo = std::fma(a, b, -hi);
    add(hi);
    add(lo);
  }

  /// Deposit the dot product sum_i x[i] * y[i]: the same exact value as
  /// add_product on every pair, without a TwoProd and three limb updates
  /// per addend.  The product of two normal doubles is m * 2^e with an
  /// integer m < 2^106.  When 2^e >= 2^-1074 and m * 2^e < 2^1023,
  /// TwoProd's hi + lo is exactly m * 2^e, so products of equal e and sign
  /// are summed as 128-bit integers, one bin each, and every bin enters the
  /// limbs once at the end.  Any other pair (a zero, subnormal or nonfinite
  /// factor, or a product outside that range) takes add_product.
  void add_products(std::span<const double> x, std::span<const double> y) {
    constexpr int kMinE = -1074;       // lowest bit on the limb grid
    constexpr int kMaxE = 1023 - 106;  // keeps m * 2^e below 2^1023
    constexpr int kBins = kMaxE - kMinE + 1;
    // Flushing every 2^20 products keeps each bin below 2^126.
    constexpr std::size_t kFlushEvery = std::size_t{1} << 20;
    constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
    constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
    // bin[k][neg]: only bins in [lo, hi] are live; each is cleared when
    // the live range first grows over it.
    unsigned __int128 bin[kBins][2];
    int lo = 1;
    int hi = 0;
    const auto flush = [&] {
      for (int k = lo; k <= hi; ++k) {
        const auto& b = bin[k];
        add_scaled(static_cast<__int128>(b[0] - b[1]), k + kMinE);
      }
      lo = 1;
      hi = 0;
    };
    const std::size_t n = x.size() < y.size() ? x.size() : y.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto ba = std::bit_cast<std::uint64_t>(x[i]);
      const auto bb = std::bit_cast<std::uint64_t>(y[i]);
      const int ea = static_cast<int>((ba >> 52) & 0x7FF);
      const int eb = static_cast<int>((bb >> 52) & 0x7FF);
      const int k = ea + eb - 2 * 1075 - kMinE;  // e - kMinE
      if (ea == 0 || ea == 0x7FF || eb == 0 || eb == 0x7FF || k < 0 ||
          k >= kBins) {
        add_product(x[i], y[i]);
        continue;
      }
      const unsigned __int128 m =
          static_cast<unsigned __int128>((ba & kFrac) | kHidden) *
          ((bb & kFrac) | kHidden);
      if (k < lo || k > hi) {  // grow the live range over k
        const bool empty = lo > hi;
        const int from = empty || k < lo ? k : hi + 1;
        const int count = (empty || k > hi ? k : lo - 1) - from + 1;
        std::memset(&bin[from], 0,
                    sizeof(bin[0]) * static_cast<std::size_t>(count));
        if (empty) {
          lo = hi = k;
        } else if (k < lo) {
          lo = k;
        } else {
          hi = k;
        }
      }
      bin[k][(ba ^ bb) >> 63] += m;
      if ((i + 1) % kFlushEvery == 0) flush();
    }
    flush();
  }

  /// Element-wise limb addition — the exact, associative merge used by the
  /// reduction tree.  Both sides should be in canonical (renormalized)
  /// form, which allreduce_acc guarantees before any accumulator travels.
  void merge(const Superacc& o) {
    for (std::size_t i = 0; i < limb_.size(); ++i) limb_[i] += o.limb_[i];
    nonfinite_ += o.nonfinite_;
    nonfinite_count_ += o.nonfinite_count_;
    adds_ += o.adds_ + 1;
    if (adds_ >= kRenormEvery) renormalize();
  }

  /// Propagate carries so every limb below the top holds one non-negative
  /// 32-bit digit (the top limb keeps the signed residue).  Values are
  /// unchanged; this bounds limb magnitudes and puts the accumulator in the
  /// canonical form merge() and the wire format rely on.
  void renormalize() {
    std::int64_t carry = 0;
    for (std::size_t i = 0; i + 1 < limb_.size(); ++i) {
      const std::int64_t v = limb_[i] + carry;
      carry = v >> kLimbBits;  // floor division: remainder stays in [0, 2^32)
      limb_[i] = v - (carry << kLimbBits);
    }
    limb_.back() += carry;
    adds_ = 0;
  }

  /// Round the exact sum to double once, with round-to-nearest-even
  /// (including the subnormal range).  If any inf/NaN was deposited the
  /// IEEE side-sum is returned instead.
  [[nodiscard]] double round() const {
    if (nonfinite_count_ != 0) return nonfinite_;
    Superacc c = *this;
    c.renormalize();
    const bool neg = c.limb_.back() < 0;
    if (neg) {
      for (auto& l : c.limb_) l = -l;
      c.renormalize();
    }
    int h = kLimbs - 1;
    while (h >= 0 && c.limb_[static_cast<std::size_t>(h)] == 0) --h;
    if (h < 0) return 0.0;
    const int msb =
        32 * h +
        static_cast<int>(std::bit_width(static_cast<std::uint64_t>(
            c.limb_[static_cast<std::size_t>(h)]))) -
        1;
    const int exp = msb + kBias;  // |sum| in [2^exp, 2^(exp+1))
    if (exp > 1023) return neg ? -HUGE_VAL : HUGE_VAL;
    // Mantissa LSB position: normal results keep 53 bits, results in the
    // subnormal range keep correspondingly fewer — extracting at the final
    // precision directly avoids any double rounding.
    const int lsb = (exp - 52 > -1074 ? exp - 52 : -1074) - kBias;  // >= 14
    std::uint64_t m = c.read_bits(lsb, msb - lsb + 1);
    const bool round_bit = c.read_bits(lsb - 1, 1) != 0;
    const bool sticky = c.any_below(lsb - 1);
    if (round_bit && (sticky || (m & 1) != 0)) ++m;
    const double mag = std::ldexp(static_cast<double>(m), lsb + kBias);
    return neg ? -mag : mag;
  }

  /// True when no value (finite or not) has been deposited.  Canonicalizes
  /// a copy, so cancellation to exact zero also reports zero.
  [[nodiscard]] bool is_zero() const {
    if (nonfinite_count_ != 0) return false;
    Superacc c = *this;
    c.renormalize();
    for (const auto& l : c.limb_) {
      if (l != 0) return false;
    }
    return true;
  }

 private:
  // Deposits between renormalizations; 2^20 keeps |limb| < 2^53 with wide
  // margin (each deposit moves a limb by < 2^32).
  static constexpr std::int64_t kRenormEvery = std::int64_t{1} << 20;

  /// Bits [lo, lo + count) of the canonical non-negative limb array as an
  /// integer (count <= 63); bit j of limb i has in-array position 32*i + j.
  [[nodiscard]] std::uint64_t read_bits(int lo, int count) const {
    std::uint64_t out = 0;
    int got = 0;
    int li = lo >> 5;
    int off = lo & 31;
    while (got < count && li < kLimbs) {
      const std::uint64_t chunk =
          static_cast<std::uint64_t>(limb_[static_cast<std::size_t>(li)]) >>
          off;
      out |= chunk << got;
      got += kLimbBits - off;
      off = 0;
      ++li;
    }
    if (count < 64) out &= (std::uint64_t{1} << count) - 1;
    return out;
  }

  /// Deposit v * 2^e exactly, for |v| < 2^127 and -1074 <= e <= 917: the
  /// bits land in limbs li..li+4 (below the sign limb), each digit < 2^32
  /// like add()'s.
  void add_scaled(__int128 v, int e) {
    if (v == 0) return;
    const bool neg = v < 0;
    const auto mag = neg ? -static_cast<unsigned __int128>(v)
                         : static_cast<unsigned __int128>(v);
    const int p = e - kBias;  // in-array bit position, >= 14
    const auto li = static_cast<std::size_t>(p >> 5);
    const int off = p & 31;
    const unsigned __int128 w = mag << off;  // bits 0..127 of mag * 2^off
    const auto w0 = static_cast<std::uint64_t>(w);
    const auto w1 = static_cast<std::uint64_t>(w >> 64);
    const std::uint64_t top =  // bits 128 and up
        static_cast<std::uint64_t>(mag >> 96) >> (kLimbBits - off);
    const std::int64_t sign = neg ? -1 : 1;
    limb_[li] += sign * static_cast<std::int64_t>(w0 & 0xFFFFFFFFU);
    limb_[li + 1] += sign * static_cast<std::int64_t>(w0 >> 32);
    limb_[li + 2] += sign * static_cast<std::int64_t>(w1 & 0xFFFFFFFFU);
    limb_[li + 3] += sign * static_cast<std::int64_t>(w1 >> 32);
    limb_[li + 4] += sign * static_cast<std::int64_t>(top);
    if (++adds_ >= kRenormEvery) renormalize();
  }

  /// Any set bit strictly below in-array position `bit`?
  [[nodiscard]] bool any_below(int bit) const {
    const int li = bit >> 5;
    const int off = bit & 31;
    for (int i = 0; i < li && i < kLimbs; ++i) {
      if (limb_[static_cast<std::size_t>(i)] != 0) return true;
    }
    if (li >= 0 && li < kLimbs && off != 0) {
      const std::uint64_t mask = (std::uint64_t{1} << off) - 1;
      if ((static_cast<std::uint64_t>(limb_[static_cast<std::size_t>(li)]) &
           mask) != 0) {
        return true;
      }
    }
    return false;
  }

  std::array<std::int64_t, kLimbs> limb_{};
  double nonfinite_ = 0.0;
  std::int64_t nonfinite_count_ = 0;
  std::int64_t adds_ = 0;
};

static_assert(std::is_trivially_copyable_v<Superacc>,
              "Superacc must travel through memcpy-based envelopes");

/// Exact local dot-product accumulation: every product enters the
/// accumulator exactly (double products through add_products; float
/// products are already exact in double), so the local partial sum is
/// independent of iteration order and block-cut placement.
template <class T>
[[nodiscard]] Superacc dot_accumulate(std::span<const T> x,
                                      std::span<const T> y) {
  Superacc acc;
  if constexpr (sizeof(T) < sizeof(double)) {
    const std::size_t n = x.size() < y.size() ? x.size() : y.size();
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(static_cast<double>(x[i]) * static_cast<double>(y[i]));
    }
  } else {
    acc.add_products(x, y);
  }
  return acc;
}

/// Exact local sum accumulation (the SUM intrinsic's local loop).
template <class T>
[[nodiscard]] Superacc sum_accumulate(std::span<const T> x) {
  Superacc acc;
  for (const T& v : x) acc.add(static_cast<double>(v));
  return acc;
}

}  // namespace hpfcg::repro
