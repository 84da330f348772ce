// A steady-state repro solve allocates nothing per reduction: the fused
// dot_products takes its exact accumulators from the process's reusable
// buffer, as the scalar re-route (Process::allreduce_exact) does.  Counted
// with a thread-local operator new, so only the rank thread's allocations
// inside the measured window show.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/trace/trace.hpp"
#include "spmd_test_util.hpp"

namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace hpf = hpfcg::hpf;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;

/// Heap allocations made by 100 calls of the 3-pair dot_products at NP=1,
/// after one warm-up call, with the reproducible mode `repro_on`.  The
/// check ledger, tracer and race detector allocate on their own, so they
/// are off.
std::size_t allocations_per_100_dot_products(bool repro_on) {
  hpfcg::check::ScopedEnable no_check(false);
  hpfcg::trace::ScopedEnable no_trace(false);
  hpfcg::race::ScopedEnable no_race(false);
  hpfcg::repro::ScopedEnable mode(repro_on);
  std::size_t allocations = 0;
  hpfcg_test::run_spmd(1, [&](Process& proc) {
    const auto dist = hpf::make_block(64, 1);
    DistributedVector<double> x(proc, dist), y(proc, dist), z(proc, dist);
    x.set_from([](std::size_t g) { return 1.0 + static_cast<double>(g); });
    y.set_from([](std::size_t g) { return 0.5 - static_cast<double>(g); });
    z.set_from([](std::size_t g) { return 1e-3 * static_cast<double>(g); });
    (void)hpf::dot_products(x, y, y, z, x, z);  // warm-up
    const std::size_t before = t_allocations;
    for (int i = 0; i < 100; ++i) (void)hpf::dot_products(x, y, y, z, x, z);
    allocations = t_allocations - before;
  });
  return allocations;
}

TEST(ReproAllocTest, FusedDotProductsAllocateNothingInSteadyState) {
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  EXPECT_EQ(allocations_per_100_dot_products(true), 0u);
}

TEST(ReproAllocTest, PlainFusedDotProductsAllocateNothing) {
  EXPECT_EQ(allocations_per_100_dot_products(false), 0u);
}

}  // namespace
