#include "hpfcg/sparse/halo.hpp"

#include <atomic>
#include <cstdio>

#include "hpfcg/util/knob.hpp"

namespace hpfcg::sparse::halo {

namespace {
// Opt-out, not opt-in: the executor is the production path; the legacy
// O(n) gather survives behind HPFCG_HALO=0 for A/B byte comparisons.
constinit util::Knob<bool> g_enabled{"HPFCG_HALO", true};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

void warn_fallback_once() {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true, std::memory_order_relaxed)) return;
  std::fprintf(
      stderr,
      "hpfcg: halo executor requested but the row distribution is not "
      "contiguous; falling back to the O(n) gather path (counted in "
      "Stats::halo_fallbacks).\n");
}

}  // namespace hpfcg::sparse::halo
