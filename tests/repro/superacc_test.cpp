// Unit and property tests for the exact superaccumulator behind the
// reproducible-reduction mode: exactness (no value is ever rounded until
// round()), order/partition invariance of the limb representation, IEEE
// round-to-nearest-even at the final rounding step (including subnormals
// and overflow), and the non-finite side-sum semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "hpfcg/repro/superacc.hpp"

namespace repro = hpfcg::repro;

namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

double round_all(std::span<const double> vals) {
  repro::Superacc acc;
  for (const double v : vals) acc.add(v);
  return acc.round();
}

/// Values spanning the magnitude range the issue names (1e±15 around 1.0)
/// plus signs, seeded deterministically.
std::vector<double> nasty_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-50, 50);  // ~1e-15 .. 1e15
  std::vector<double> out(n);
  for (auto& v : out) v = std::ldexp(mant(gen), expo(gen));
  return out;
}

TEST(Superacc, EmptyAccumulatorIsZero) {
  repro::Superacc acc;
  EXPECT_TRUE(acc.is_zero());
  EXPECT_EQ(acc.round(), 0.0);
  EXPECT_FALSE(std::signbit(acc.round()));
}

TEST(Superacc, SingleValueRoundTripsBitExactly) {
  const double cases[] = {
      1.0,
      -1.5,
      3.141592653589793,
      1e308,
      -1.7976931348623157e308,              // max finite
      std::numeric_limits<double>::min(),   // min normal
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      5e-324,
      1e-300,
      std::ldexp(1.0, -1070),               // deep subnormal range
      6.02214076e23,
      -2.2250738585072014e-308,
  };
  for (const double v : cases) {
    repro::Superacc acc;
    acc.add(v);
    EXPECT_EQ(bits_of(acc.round()), bits_of(v)) << "value " << v;
  }
}

TEST(Superacc, CancellationIsExact) {
  // The classic drift generators: a naive left-to-right sum loses the small
  // addend entirely; the exact accumulator must not.
  EXPECT_EQ(round_all(std::vector<double>{1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(round_all(std::vector<double>{1e200, 1e-200, -1e200}), 1e-200);
  EXPECT_EQ(round_all(std::vector<double>{1e100, 3.0, -1e100, 4.0}), 7.0);
  // Fully cancelling sum of many scales.
  std::vector<double> vals;
  for (int e = -40; e <= 40; ++e) {
    vals.push_back(std::ldexp(1.0, e));
    vals.push_back(-std::ldexp(1.0, e));
  }
  EXPECT_EQ(round_all(vals), 0.0);
}

TEST(Superacc, SumIsOrderInvariant) {
  auto vals = nasty_values(256, 0x5ac1u);
  const double reference = round_all(vals);
  std::mt19937_64 gen(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(vals.begin(), vals.end(), gen);
    EXPECT_EQ(bits_of(round_all(vals)), bits_of(reference))
        << "shuffle " << trial;
  }
  // Reversed, too.
  std::reverse(vals.begin(), vals.end());
  EXPECT_EQ(bits_of(round_all(vals)), bits_of(reference));
}

TEST(Superacc, MergeIsPartitionAndTreeInvariant) {
  const auto vals = nasty_values(300, 0xfeedu);
  const double reference = round_all(vals);

  // Arbitrary block cuts (the "any rebalance schedule" claim): accumulate
  // each part separately, merge left-to-right.
  for (const std::size_t parts : {2u, 3u, 5u, 8u}) {
    std::vector<repro::Superacc> accs(parts);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      accs[i % parts].add(vals[i]);  // cyclic cut: maximally scrambled
    }
    repro::Superacc total = accs[0];
    for (std::size_t p = 1; p < parts; ++p) total.merge(accs[p]);
    EXPECT_EQ(bits_of(total.round()), bits_of(reference))
        << parts << " parts, sequential merge";
  }

  // Binomial-tree merge over 8 parts (the collective's actual shape).
  std::vector<repro::Superacc> accs(8);
  std::size_t cut = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    const std::size_t next = (p + 1) * vals.size() / 8;
    for (; cut < next; ++cut) accs[p].add(vals[cut]);
  }
  for (std::size_t stride = 1; stride < 8; stride *= 2) {
    for (std::size_t p = 0; p + stride < 8; p += 2 * stride) {
      accs[p].merge(accs[p + stride]);
    }
  }
  EXPECT_EQ(bits_of(accs[0].round()), bits_of(reference));
}

TEST(Superacc, RoundsToNearestEven) {
  // 1 + 2^-53 is exactly halfway between 1 and 1+2^-52: ties to even (1.0).
  {
    repro::Superacc acc;
    acc.add(1.0);
    acc.add(std::ldexp(1.0, -53));
    EXPECT_EQ(bits_of(acc.round()), bits_of(1.0));
  }
  // Any sticky bit below the halfway point breaks the tie upward.
  {
    repro::Superacc acc;
    acc.add(1.0);
    acc.add(std::ldexp(1.0, -53));
    acc.add(std::ldexp(1.0, -105));
    EXPECT_EQ(bits_of(acc.round()), bits_of(std::nextafter(1.0, 2.0)));
  }
  // (1+2^-52) + 2^-53 ties between an odd and an even mantissa: the even
  // neighbour (1+2^-51) wins.
  {
    repro::Superacc acc;
    acc.add(1.0 + std::ldexp(1.0, -52));
    acc.add(std::ldexp(1.0, -53));
    EXPECT_EQ(bits_of(acc.round()), bits_of(1.0 + std::ldexp(1.0, -51)));
  }
  // Below-halfway rounds down.
  {
    repro::Superacc acc;
    acc.add(1.0);
    acc.add(std::ldexp(1.0, -54));
    EXPECT_EQ(bits_of(acc.round()), bits_of(1.0));
  }
}

TEST(Superacc, SubnormalResultsAreExact) {
  const double dmin = std::numeric_limits<double>::denorm_min();
  {
    repro::Superacc acc;
    acc.add(dmin);
    acc.add(dmin);
    acc.add(dmin);
    EXPECT_EQ(bits_of(acc.round()), bits_of(3 * dmin));
  }
  // A difference of normals landing in the subnormal range.
  {
    const double a = std::numeric_limits<double>::min();  // 2^-1022
    const double b = std::ldexp(1.0, -1024);
    repro::Superacc acc;
    acc.add(a);
    acc.add(-b);
    // 2^-1022 - 2^-1024 = 3*2^-1024, exactly representable (subnormal).
    EXPECT_EQ(bits_of(acc.round()), bits_of(3 * std::ldexp(1.0, -1024)));
  }
}

TEST(Superacc, OverflowSaturatesToInfinity) {
  repro::Superacc acc;
  acc.add(1.7e308);
  acc.add(1.7e308);
  EXPECT_EQ(acc.round(), std::numeric_limits<double>::infinity());
  repro::Superacc neg;
  neg.add(-1.7e308);
  neg.add(-1.7e308);
  EXPECT_EQ(neg.round(), -std::numeric_limits<double>::infinity());
  // A later cancelling addend pulls it back: the accumulator itself never
  // overflowed, only the rounding would have.
  acc.add(-1.7e308);
  EXPECT_EQ(bits_of(acc.round()), bits_of(1.7e308));
}

TEST(Superacc, NonFiniteInputsFollowIeeeSemantics) {
  const double inf = std::numeric_limits<double>::infinity();
  {
    repro::Superacc acc;
    acc.add(inf);
    acc.add(123.0);
    EXPECT_EQ(acc.round(), inf);
  }
  {
    repro::Superacc acc;
    acc.add(-inf);
    EXPECT_EQ(acc.round(), -inf);
  }
  {
    repro::Superacc acc;
    acc.add(inf);
    acc.add(-inf);
    EXPECT_TRUE(std::isnan(acc.round()));
  }
  {
    repro::Superacc acc;
    acc.add(std::numeric_limits<double>::quiet_NaN());
    acc.add(1.0);
    EXPECT_TRUE(std::isnan(acc.round()));
  }
  // Non-finite state survives a merge.
  {
    repro::Superacc a, b;
    a.add(1.0);
    b.add(inf);
    a.merge(b);
    EXPECT_EQ(a.round(), inf);
  }
}

TEST(Superacc, DotAccumulateIsExactOnIntegerValues) {
  // Integer-valued doubles below 2^25: every product is exact in int64
  // arithmetic, so the correctly rounded dot is the integer dot.
  std::mt19937_64 gen(0xd07u);
  std::uniform_int_distribution<std::int64_t> d(-(1 << 25), 1 << 25);
  std::vector<double> x(512), y(512);
  std::int64_t exact = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t a = d(gen), b = d(gen);
    x[i] = static_cast<double>(a);
    y[i] = static_cast<double>(b);
    exact += a * b;
  }
  repro::Superacc acc = repro::dot_accumulate<double>(
      std::span<const double>(x), std::span<const double>(y));
  EXPECT_EQ(acc.round(), static_cast<double>(exact));
}

TEST(Superacc, DotAccumulateKeepsTwoProdLowParts) {
  // (1+2^-30)^2 = 1 + 2^-29 + 2^-60.  The naive product drops the 2^-60
  // term; TwoProd keeps it, and it must surface once a cancelling -1
  // removes the leading bits.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const std::vector<double> x{a, -1.0};
  const std::vector<double> y{a, 1.0};
  repro::Superacc acc = repro::dot_accumulate<double>(
      std::span<const double>(x), std::span<const double>(y));
  const double expect = std::ldexp(1.0, -29) + std::ldexp(1.0, -60);
  EXPECT_EQ(bits_of(acc.round()), bits_of(expect));
}

/// The accumulator add_product builds pair by pair, and the one
/// add_products builds in one call, must hold the same canonical limbs.
void expect_add_products_matches_pairwise(const std::vector<double>& x,
                                          const std::vector<double>& y) {
  repro::Superacc pairwise;
  for (std::size_t i = 0; i < x.size(); ++i) pairwise.add_product(x[i], y[i]);
  repro::Superacc binned;
  binned.add_products(x, y);
  pairwise.renormalize();
  binned.renormalize();
  EXPECT_EQ(std::memcmp(&pairwise, &binned, sizeof pairwise), 0);
  EXPECT_EQ(bits_of(pairwise.round()), bits_of(binned.round()));
}

double with_biased_exponent(double v, int biased) {
  auto b = bits_of(v);
  b = (b & 0x800FFFFFFFFFFFFFULL) | (static_cast<std::uint64_t>(biased) << 52);
  return std::bit_cast<double>(b);
}

TEST(Superacc, AddProductsMatchesAddProductOnEveryClassOfPair) {
  // The binned path must deposit exactly what TwoProd does: normal pairs
  // near one binade (shared bins, both signs), arbitrary bit patterns,
  // zeros, subnormals, infinities, NaN and extremes (the add_product
  // fallback), and products on both edges of the binned exponent range
  // (lowest bit 2^-1074, top below 2^1023).
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0,
                             -1.0,
                             std::ldexp(1.0, -537),
                             std::ldexp(1.0, 459),
                             std::ldexp(0x1.fffffffffffffp0, 458),
                             std::ldexp(1.5, -1022)};
  std::mt19937_64 gen(0xb1a5u);
  std::uniform_int_distribution<std::uint64_t> any;
  std::uniform_real_distribution<double> mant(-2.0, 2.0);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 48);
    const int centre = 1 + static_cast<int>(any(gen) % 2046);
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (double* v : {&x[i], &y[i]}) {
        switch (any(gen) % 4) {
          case 0: {  // within a few binades of the trial's centre
            const int near = centre + static_cast<int>(any(gen) % 9) - 4;
            *v = with_biased_exponent(mant(gen), std::clamp(near, 1, 2046));
            break;
          }
          case 1:
            *v = std::bit_cast<double>(any(gen));
            break;
          case 2:
            *v = specials[any(gen) % std::size(specials)];
            break;
          default:
            *v = mant(gen);
        }
      }
      if (any(gen) % 3 == 0) {
        // Put the product's lowest bit at 2^e for e within 2 of an edge of
        // the binned range [-1074, 917].
        const int edge = (any(gen) % 2 == 0 ? -1074 : 917) +
                         static_cast<int>(any(gen) % 5) - 2;
        const int ea = 1 + static_cast<int>(any(gen) % 2046);
        const int eb = edge + 2 * 1075 - ea;
        if (eb >= 1 && eb <= 2046) {
          x[i] = with_biased_exponent(mant(gen), ea);
          y[i] = with_biased_exponent(mant(gen), eb);
        }
      }
    }
    expect_add_products_matches_pairwise(x, y);
    if (HasFailure()) {
      ADD_FAILURE() << "first mismatch at trial " << trial;
      return;
    }
  }
}

TEST(Superacc, AddProductsKeepsLongRunsOfLargeProductsExact) {
  // 2^22 + 5 products whose significand products are just under 2^106,
  // all in one bin: they would wrap a 128-bit bin without the periodic
  // flush, so the sum checks it.
  const double a = std::ldexp(0x1.fffffffffffffp0, 3);
  const std::vector<double> x((std::size_t{1} << 22) + 5, a);
  expect_add_products_matches_pairwise(x, x);
}

TEST(Superacc, SumAccumulateMatchesManualAdds) {
  const auto vals = nasty_values(64, 0x50fau);
  repro::Superacc manual;
  for (const double v : vals) manual.add(v);
  repro::Superacc bulk =
      repro::sum_accumulate<double>(std::span<const double>(vals));
  EXPECT_EQ(bits_of(bulk.round()), bits_of(manual.round()));
}

TEST(Superacc, SurvivesRenormalizationThreshold) {
  // More adds than kRenormEvery, all the same magnitude: the limbs must
  // renormalize internally without losing a single ulp.  Scaling by a
  // power of two is exact, so the expected value is exact as well.
  const double v = 0.001;  // inexact in binary — deliberately
  constexpr std::size_t kN = (1u << 21) + 17;
  repro::Superacc acc;
  for (std::size_t i = 0; i < kN; ++i) acc.add(v);
  // Split the same work across two accumulators and merge: same bits.
  repro::Superacc lo_half, hi_half;
  for (std::size_t i = 0; i < kN / 2; ++i) lo_half.add(v);
  for (std::size_t i = kN / 2; i < kN; ++i) hi_half.add(v);
  lo_half.merge(hi_half);
  EXPECT_EQ(bits_of(acc.round()), bits_of(lo_half.round()));
  // 2^21 * v is an exact power-of-two scaling of v.
  repro::Superacc pow2;
  for (std::size_t i = 0; i < (1u << 21); ++i) pow2.add(v);
  EXPECT_EQ(bits_of(pow2.round()), bits_of(std::ldexp(v, 21)));
}

TEST(Superacc, TriviallyCopyableEnvelopeRoundTrips) {
  // The collective ships accumulators as raw bytes; memcpy must preserve
  // the full state.
  static_assert(std::is_trivially_copyable_v<repro::Superacc>);
  repro::Superacc acc;
  for (const double v : nasty_values(32, 0xc0b7u)) acc.add(v);
  alignas(repro::Superacc) unsigned char wire[sizeof(repro::Superacc)];
  std::memcpy(wire, &acc, sizeof acc);
  repro::Superacc back;
  std::memcpy(&back, wire, sizeof back);
  EXPECT_EQ(bits_of(back.round()), bits_of(acc.round()));
}

}  // namespace
