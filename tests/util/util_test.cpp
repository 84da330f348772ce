// Utility layer: RNG determinism, span kernels, table formatting, string
// helpers, CLI parsing, error machinery, environment knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/trace/trace.hpp"
#include "hpfcg/util/cli.hpp"
#include "hpfcg/util/error.hpp"
#include "hpfcg/util/knob.hpp"
#include "hpfcg/util/rng.hpp"
#include "hpfcg/util/span_math.hpp"
#include "hpfcg/util/str.hpp"
#include "hpfcg/util/table.hpp"
#include "hpfcg/util/timer.hpp"

namespace u = hpfcg::util;

namespace {

TEST(Rng, DeterministicSequences) {
  u::Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  u::Xoshiro256 a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  u::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const double w = rng.uniform(-3.0, 5.0);
    EXPECT_GE(w, -3.0);
    EXPECT_LT(w, 5.0);
  }
}

TEST(Rng, BelowIsExactAndBounded) {
  u::Xoshiro256 rng(11);
  std::vector<int> hist(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++hist[v];
  }
  for (const int h : hist) {
    EXPECT_GT(h, 700);  // roughly uniform
    EXPECT_LT(h, 1300);
  }
}

TEST(SpanMath, AxpyAypxDotNormCopyFill) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  EXPECT_EQ(u::axpy<double>(2.0, x, y), 6u);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
  EXPECT_EQ(u::aypx<double>(0.5, x, y), 6u);  // y = 0.5*y + x
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(u::dot_local<double>(x, x), 14.0);
  EXPECT_DOUBLE_EQ(u::norm2_sq_local<double>(x), 14.0);
  u::fill<double>(y, 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  u::copy<double>(x, y);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_EQ(u::scale<double>(3.0, y), 3u);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  std::vector<double> z = {-5.0, 2.0};
  EXPECT_DOUBLE_EQ(u::max_abs_local<double>(z), 5.0);
  std::vector<double> wrong = {1.0};
  EXPECT_THROW(u::axpy<double>(1.0, x, wrong), u::Error);
}

TEST(Table, AlignedOutput) {
  u::Table t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), u::Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(u::fmt(3.14159, 3), "3.14");
  EXPECT_EQ(u::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(u::fmt_count(5), "5");
  EXPECT_EQ(u::fmt_count(0), "0");
}

TEST(Str, Helpers) {
  EXPECT_EQ(u::split_ws("  a  bb\tccc \n"),
            (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(u::starts_with("hello", "he"));
  EXPECT_FALSE(u::starts_with("hello", "lo"));
  EXPECT_EQ(u::to_lower("AbC"), "abc");
  EXPECT_EQ(u::trim("  x y  "), "x y");
  EXPECT_EQ(u::trim(""), "");
}

TEST(Cli, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--n", "100", "--tol=1e-8", "--verbose"};
  u::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 1, "size"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 1e-4, "tolerance"), 1e-8);
  EXPECT_TRUE(cli.get_flag("verbose", "chatty"));
  EXPECT_EQ(cli.get("missing", "fallback", "unused"), "fallback");
  EXPECT_FALSE(cli.help_requested());
  cli.finish();
  EXPECT_NE(cli.help_text("prog").find("--n"), std::string::npos);
}

TEST(Cli, RejectsUnknownAndMalformedOptions) {
  {
    const char* argv[] = {"prog", "--known", "1", "--unknown", "2"};
    u::Cli cli(5, argv);
    (void)cli.get_int("known", 0, "");
    EXPECT_THROW(cli.finish(), u::Error);
  }
  {
    const char* argv[] = {"prog", "bare"};
    EXPECT_THROW(u::Cli(2, argv), u::Error);
  }
  {
    const char* argv[] = {"prog", "--n", "abc"};
    u::Cli cli(3, argv);
    EXPECT_THROW((void)cli.get_int("n", 0, ""), u::Error);
  }
}

TEST(Cli, HelpFlag) {
  const char* argv[] = {"prog", "--help"};
  u::Cli cli(2, argv);
  EXPECT_TRUE(cli.help_requested());
}

TEST(Error, RequireThrowsWithContext) {
  try {
    HPFCG_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const u::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  u::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(t.micros(), t.seconds());  // unit sanity
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// ---- environment knobs -----------------------------------------------------

constexpr const char* kTestVar = "HPFCG_UTIL_TEST_KNOB";

TEST(Knob, AcceptsExactlyTheSixOnSpellings) {
  for (const char* on : {"1", "on", "ON", "true", "TRUE", "yes"}) {
    ::setenv(kTestVar, on, 1);
    u::Knob<bool> knob{kTestVar, false};
    EXPECT_TRUE(knob.get()) << on;
  }
  for (const char* off : {"0", "off", "false", "no", "YES", "True", "2", "",
                          "banana"}) {
    ::setenv(kTestVar, off, 1);
    u::Knob<bool> knob{kTestVar, true};
    EXPECT_FALSE(knob.get()) << '"' << off << '"';
  }
  ::unsetenv(kTestVar);
}

TEST(Knob, UnsetVariableKeepsTheDefault) {
  ::unsetenv(kTestVar);
  u::Knob<bool> off{kTestVar, false};
  u::Knob<bool> on{kTestVar, true};
  u::Knob<std::int64_t> count{kTestVar, 42};
  EXPECT_FALSE(off.get());
  EXPECT_TRUE(on.get());
  EXPECT_EQ(count.get(), 42);
}

TEST(Knob, ReadsTheEnvironmentOnceAndSetOverrides) {
  ::setenv(kTestVar, "yes", 1);
  u::Knob<bool> knob{kTestVar, false};
  EXPECT_TRUE(knob.get());
  ::setenv(kTestVar, "0", 1);
  EXPECT_TRUE(knob.get());  // parsed once
  knob.set(false);
  EXPECT_FALSE(knob.get());

  // A set() before the first get() is not undone by the deferred parse.
  ::setenv(kTestVar, "250", 1);
  u::Knob<std::uint64_t> early{kTestVar, 7};
  early.set(9);
  EXPECT_EQ(early.get(), 9u);
  ::unsetenv(kTestVar);
}

TEST(Knob, IntegerTakesOnlyAPositiveDecimalNumber) {
  ::setenv(kTestVar, "250", 1);
  EXPECT_EQ((u::Knob<std::int64_t>{kTestVar, 5}.get()), 250);
  EXPECT_EQ((u::Knob<std::size_t>{kTestVar, 5}.get()), 250u);
  for (const char* bad : {"0", "-3", "", "abc", " 7", "99999999999999999999"}) {
    ::setenv(kTestVar, bad, 1);
    EXPECT_EQ((u::Knob<std::int64_t>{kTestVar, 5}.get()), 5) << bad;
    EXPECT_EQ((u::Knob<std::size_t>{kTestVar, 5}.get()), 5u) << bad;
    EXPECT_EQ((u::Knob<std::uint64_t>{kTestVar, 0}.get()), 0u) << bad;
  }
  ::unsetenv(kTestVar);
}

TEST(Knob, EachIntegerKnobFallsBackToItsDefault) {
  // Nothing else in this binary reads these knobs, so this is their one
  // parse: a value that is not a positive number keeps the default.
  ::setenv("HPFCG_CHECK_TIMEOUT_MS", "-5", 1);
  ::setenv("HPFCG_TRACE_CAPACITY", "0", 1);
  ::setenv("HPFCG_RACE_SEED", "banana", 1);
  if constexpr (hpfcg::check::kCompiled) {
    EXPECT_EQ(hpfcg::check::watchdog_timeout_ms(), 20000);
  }
  if constexpr (hpfcg::trace::kCompiled) {
    EXPECT_EQ(hpfcg::trace::ring_capacity(), std::size_t{1} << 16);
  }
  if constexpr (hpfcg::race::kCompiled) {
    EXPECT_EQ(hpfcg::race::replay_seed(), 0u);
  }
  ::unsetenv("HPFCG_CHECK_TIMEOUT_MS");
  ::unsetenv("HPFCG_TRACE_CAPACITY");
  ::unsetenv("HPFCG_RACE_SEED");
}

TEST(Knob, ScopedOverridesRestoreThePreviousValue) {
  namespace race = hpfcg::race;
  if constexpr (!race::kCompiled) GTEST_SKIP() << "race layer compiled out";
  const bool was_on = race::enabled();
  const std::uint64_t seed = race::replay_seed();
  {
    race::ScopedEnable on;
    race::ScopedReplaySeed replay(seed + 11);
    EXPECT_TRUE(race::enabled());
    EXPECT_EQ(race::replay_seed(), seed + 11);
    {
      race::ScopedEnable off(false);
      EXPECT_FALSE(race::enabled());
    }
    EXPECT_TRUE(race::enabled());
  }
  EXPECT_EQ(race::enabled(), was_on);
  EXPECT_EQ(race::replay_seed(), seed);
}

}  // namespace
