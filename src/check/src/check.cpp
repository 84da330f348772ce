#include "hpfcg/check/check.hpp"

#ifdef HPFCG_CHECK_ENABLED

#include "hpfcg/util/knob.hpp"

namespace hpfcg::check {

namespace {
constinit util::Knob<bool> g_enabled{"HPFCG_CHECK", false};
constinit util::Knob<std::int64_t> g_timeout_ms{"HPFCG_CHECK_TIMEOUT_MS",
                                                20000};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

std::int64_t watchdog_timeout_ms() { return g_timeout_ms.get(); }
void set_watchdog_timeout_ms(std::int64_t ms) { g_timeout_ms.set(ms); }

}  // namespace hpfcg::check

#endif  // HPFCG_CHECK_ENABLED
