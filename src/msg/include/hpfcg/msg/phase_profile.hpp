#pragma once
// Per-phase cost attribution.
//
// Attributes a rank's Stats deltas to named phases ("broadcast", "local
// matvec", "dot merge", ...), so benchmarks can print the per-iteration
// decomposition the paper describes qualitatively ("a single matrix-vector
// multiplication, two inner products, and several SAXPY operations").

#include <map>
#include <string>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/stats.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::msg {

/// Accumulates Stats deltas per phase name for one rank.  Use enter() to
/// switch phases; deltas between switches accrue to the active phase.
class PhaseProfile {
 public:
  explicit PhaseProfile(Process& proc)
      : proc_(&proc), mark_(proc.stats()) {}

  /// Close the active phase (if any) and open `name`.
  void enter(const std::string& name) {
    flush();
    active_ = name;
  }

  /// Close the active phase.
  void exit() {
    flush();
    active_.clear();
  }

  /// Accumulated deltas per phase (valid after exit()/enter()).
  [[nodiscard]] const std::map<std::string, Stats>& phases() const {
    return phases_;
  }

  /// Stats accrued to one phase (zeros if never entered).
  [[nodiscard]] Stats of(const std::string& name) const {
    const auto it = phases_.find(name);
    return it == phases_.end() ? Stats{} : it->second;
  }

 private:
  void flush() {
    const Stats now = proc_->stats();
    if (!active_.empty()) {
      Stats delta = now;
      delta -= mark_;
      phases_[active_] += delta;
    }
    mark_ = now;
  }

  Process* proc_;
  Stats mark_;
  std::string active_;
  std::map<std::string, Stats> phases_;
};

}  // namespace hpfcg::msg
