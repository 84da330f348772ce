#pragma once
// Environment knobs: the runtime switches of the env-gated modes
// (HPFCG_CHECK, HPFCG_TRACE, HPFCG_RACE, HPFCG_REPRO, HPFCG_HALO) and their
// integer parameters, all through one type.
//
// A Knob names its environment variable and its default.  It reads the
// variable once, on the first get() or set(), and from then on is an
// atomic any thread may read or override; set() never races a late parse.
// Accepted spellings:
//   bool    — 1, on, ON, true, TRUE or yes turns the knob on; any other
//             value turns it off; unset keeps the default;
//   integer — a positive decimal number; unset, empty, zero, negative or
//             non-numeric keeps the default.
//
// Knobs are constant-initialized (`constinit`), so reading one from any
// static initializer is safe.  ScopedOverride is the RAII override every
// module's ScopedEnable is built on.

#include <atomic>
#include <charconv>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>

namespace hpfcg::util {

template <std::integral T>
class Knob {
 public:
  constexpr Knob(const char* env, T fallback) : env_(env), fallback_(fallback) {}

  [[nodiscard]] T get() {
    parse_once();
    return value_.load(std::memory_order_relaxed);
  }

  void set(T v) {
    parse_once();
    value_.store(v, std::memory_order_relaxed);
  }

 private:
  void parse_once() {
    if (parsed_.load(std::memory_order_acquire)) return;
    std::call_once(once_, [this] {
      value_.store(parse(std::getenv(env_)), std::memory_order_relaxed);
      parsed_.store(true, std::memory_order_release);
    });
  }

  [[nodiscard]] T parse(const char* v) const {
    if (v == nullptr) return fallback_;
    if constexpr (std::same_as<T, bool>) {
      const std::string_view on(v);
      return on == "1" || on == "on" || on == "ON" || on == "true" ||
             on == "TRUE" || on == "yes";
    } else {
      T out{};
      const auto [end, ec] = std::from_chars(v, v + std::strlen(v), out);
      return ec == std::errc{} && out > 0 ? out : fallback_;
    }
  }

  const char* env_;
  T fallback_;
  std::once_flag once_;
  std::atomic<bool> parsed_{false};
  std::atomic<T> value_{};
};

/// RAII override of a get/set function pair: sets `v` on entry and restores
/// the previous value on scope exit.  A one-value `Default` pack gives the
/// override a default constructor that sets it.
template <auto Get, auto Set, auto... Default>
class ScopedOverride {
 public:
  using value_type = decltype(Get());

  explicit ScopedOverride()
    requires(sizeof...(Default) == 1)
      : ScopedOverride(Default...) {}
  explicit ScopedOverride(value_type v) : prev_(Get()) { Set(v); }
  ScopedOverride(const ScopedOverride&) = delete;
  ScopedOverride& operator=(const ScopedOverride&) = delete;
  ~ScopedOverride() { Set(prev_); }

 private:
  value_type prev_;
};

}  // namespace hpfcg::util
