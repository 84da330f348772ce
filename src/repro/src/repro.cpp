#include "hpfcg/repro/repro.hpp"

#ifdef HPFCG_REPRO_ENABLED

#include "hpfcg/util/knob.hpp"

namespace hpfcg::repro {

namespace {
constinit util::Knob<bool> g_enabled{"HPFCG_REPRO", false};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

}  // namespace hpfcg::repro

#endif  // HPFCG_REPRO_ENABLED
