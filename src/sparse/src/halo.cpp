#include "hpfcg/sparse/halo.hpp"

#include "hpfcg/util/knob.hpp"

namespace hpfcg::sparse::halo {

namespace {
// Opt-out, not opt-in: the touched-column ghost set is the production
// plan; the every-foreign-index set survives behind HPFCG_HALO=0 for A/B
// byte comparisons against the Scenario-1 gather volume.
constinit util::Knob<bool> g_enabled{"HPFCG_HALO", true};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

}  // namespace hpfcg::sparse::halo
