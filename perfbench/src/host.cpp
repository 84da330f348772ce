// Knob and host report, and the refusal to time a different program.

#include <sched.h>
#include <unistd.h>

#include <ostream>
#include <string>

#include "hpfcg/check/check.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/trace/trace.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace perfbench {

HostReport probe_host() {
  HostReport h;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.cxx_flags = PERFBENCH_CXX_FLAGS;
  h.compiler = PERFBENCH_COMPILER;
  h.compiled = {{{"check", hpfcg::check::kCompiled},
                 {"trace", hpfcg::trace::kCompiled},
                 {"race", hpfcg::race::kCompiled},
                 {"repro", hpfcg::repro::kCompiled}}};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("HPFCG_", 0) != 0) continue;
    const auto eq = kv.find('=');
    h.env.emplace_back(kv.substr(0, eq),
                       eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
  // The C library reports the data caches (from cpuid on x86); the last
  // level it knows is the last-level cache.
  const std::pair<const char*, int> levels[] = {
      {"L1d", _SC_LEVEL1_DCACHE_SIZE},
      {"L2", _SC_LEVEL2_CACHE_SIZE},
      {"L3", _SC_LEVEL3_CACHE_SIZE},
      {"L4", _SC_LEVEL4_CACHE_SIZE}};
  for (const auto& [name, key] : levels) {
    const long size = sysconf(key);
    if (size <= 0) continue;
    h.caches.push_back(std::string(name) + " " + std::to_string(size >> 10) +
                       " KiB");
    h.llc_bytes = static_cast<std::size_t>(size);
  }
  return h;
}

void print_host(std::ostream& os, const HostReport& h) {
  os << "build: " << h.build_type << " (" << h.compiler << ") flags:"
     << h.cxx_flags << "\n";
  os << "side channels compiled in:";
  for (const auto& [name, on] : h.compiled) {
    os << " " << name << "=" << (on ? "yes" : "no");
  }
  os << "\nHPFCG_* environment:";
  if (h.env.empty()) os << " (none)";
  for (const auto& [k, v] : h.env) os << " " << k << "=" << v;
  os << "\ncpus available: " << h.cpus << "; data caches:";
  for (const auto& c : h.caches) os << " [" << c << "]";
  os << "\n";
}

std::string refuse_reason() {
  if (hpfcg::check::enabled()) return "HPFCG_CHECK is enabled";
  if (hpfcg::race::enabled() || hpfcg::race::replay_seed() != 0) {
    return "HPFCG_RACE / HPFCG_RACE_SEED is enabled";
  }
  if (hpfcg::repro::enabled()) return "HPFCG_REPRO is enabled";
  if (hpfcg::trace::enabled()) return "HPFCG_TRACE is enabled";
  if (!hpfcg::sparse::halo::enabled()) return "HPFCG_HALO=0 selects the gather";
  return "";
}

}  // namespace perfbench
