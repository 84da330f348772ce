// Halo-fallback accounting: no fallback path exists, because every DistCsr
// constructor rejects a non-contiguous row map; Stats::halo_fallbacks still
// aggregates across ranks (perfbench reports it) and stays zero in both
// ghost-set modes.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/stats.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/error.hpp"
#include "spmd_test_util.hpp"

namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

TEST(HaloFallback, StatsFieldAggregatesAcrossProcesses) {
  hpfcg::msg::Stats a, b;
  a.halo_fallbacks = 2;
  b.halo_fallbacks = 3;
  a += b;
  EXPECT_EQ(a.halo_fallbacks, 5u);
}

TEST(HaloFallback, ContiguousHaloRunsCountNoFallbacks) {
  const auto a = sp::laplacian_2d(8, 8);
  const std::size_t n = a.n_rows();
  sp::halo::ScopedEnable halo_on(true);
  auto rt = run_spmd(4, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> p(proc, dist), q(proc, dist);
    p.set_from([](std::size_t g) { return 1.0 + static_cast<double>(g); });
    mat.matvec(p, q);
    EXPECT_TRUE(mat.halo_plan().built());
  });
  EXPECT_EQ(rt->total_stats().halo_fallbacks, 0u);
}

TEST(HaloFallback, GatherModeIsNotAFallback) {
  // HPFCG_HALO=0 is an A/B choice of ghost set on the same executor, not a
  // silent perf cliff: the plan is built and no fallback is counted.
  const auto a = sp::laplacian_2d(6, 6);
  const std::size_t n = a.n_rows();
  sp::halo::ScopedEnable halo_off(false);
  auto rt = run_spmd(3, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> p(proc, dist), q(proc, dist);
    p.set_from([](std::size_t g) { return static_cast<double>(g % 7); });
    mat.matvec(p, q);
    EXPECT_TRUE(mat.halo_plan().built());
    EXPECT_EQ(mat.halo_plan().n_ghosts(),
              n - dist->local_count(proc.rank()));
  });
  EXPECT_EQ(rt->total_stats().halo_fallbacks, 0u);
}

TEST(HaloFallback, ConstructorsRejectCyclicRowMaps) {
  // The invariant that makes a fallback unreachable: no DistCsr can hold a
  // row map whose ranks own non-contiguous runs.  Each entry point checks
  // before any communication, so every rank throws on its own.
  const auto a = sp::laplacian_2d(8, 8);
  const std::size_t n = a.n_rows();
  run_spmd(4, [&](Process& proc) {
    const int np = proc.nprocs();
    for (auto rows : {share(Distribution::cyclic(n, np)),
                      share(Distribution::cyclic_size(n, np, 3))}) {
      EXPECT_THROW(sp::DistCsr<double>(proc, a, rows,
                                       share(Distribution::block(a.nnz(), np))),
                   hpfcg::util::Error);
      EXPECT_THROW(sp::DistCsr<double>::row_aligned(proc, a, rows),
                   hpfcg::util::Error);
      EXPECT_THROW(sp::DistCsr<double>::scatter_from_root(proc, 0, a, rows),
                   hpfcg::util::Error);
      EXPECT_THROW(sp::DistCsr<double>::from_local_rows(
                       proc, rows, std::vector<std::size_t>(rows->local_count(
                                       proc.rank())),
                       {}, {}),
                   hpfcg::util::Error);
    }
  });
}

}  // namespace
