#include "hpfcg/race/race.hpp"

#ifdef HPFCG_RACE_ENABLED

#include "hpfcg/util/knob.hpp"

namespace hpfcg::race {

namespace {
constinit util::Knob<bool> g_enabled{"HPFCG_RACE", false};
constinit util::Knob<std::uint64_t> g_seed{"HPFCG_RACE_SEED", 0};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

std::uint64_t replay_seed() { return g_seed.get(); }
void set_replay_seed(std::uint64_t seed) { g_seed.set(seed); }

}  // namespace hpfcg::race

#endif  // HPFCG_RACE_ENABLED
