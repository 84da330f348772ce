#include "hpfcg/trace/trace.hpp"

#ifdef HPFCG_TRACE_ENABLED

#include <algorithm>

#include "hpfcg/util/knob.hpp"

namespace hpfcg::trace {

namespace {
constinit util::Knob<bool> g_enabled{"HPFCG_TRACE", false};
constinit util::Knob<std::size_t> g_capacity{"HPFCG_TRACE_CAPACITY",
                                             std::size_t{1} << 16};
}  // namespace

bool enabled() { return g_enabled.get(); }
void set_enabled(bool on) { g_enabled.set(on); }

std::size_t ring_capacity() { return g_capacity.get(); }
void set_ring_capacity(std::size_t spans) {
  g_capacity.set(std::max<std::size_t>(spans, 1));
}

}  // namespace hpfcg::trace

#endif  // HPFCG_TRACE_ENABLED
