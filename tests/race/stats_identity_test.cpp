// Detection must be a pure side channel: with HPFCG_RACE on (replay off),
// every Stats counter and modeled cost is bit-identical to a detector-free
// run — the clock stamp rides the envelope struct, never the payload, and
// the wildcard arbitration picks the same oldest-arrival match.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "spmd_test_util.hpp"

namespace race = hpfcg::race;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;

namespace {

/// Run `body` twice — detection off, then on — and compare per-rank Stats.
void compare_runs(int np, const std::function<void(Process&)>& body) {
  std::unique_ptr<Runtime> off;
  {
    race::ScopedEnable disable(false);
    off = std::make_unique<Runtime>(np);
    off->run(body);
    EXPECT_EQ(off->racer(), nullptr);
  }
  std::unique_ptr<Runtime> on;
  {
    race::ScopedEnable enable(true);
    on = std::make_unique<Runtime>(np);
    on->run(body);
    ASSERT_NE(on->racer(), nullptr);
  }
  for (int r = 0; r < np; ++r) {
    EXPECT_TRUE(hpfcg::msg::counters_identical(off->stats(r), on->stats(r)))
        << "rank " << r;
  }
}

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

}  // namespace

class RaceStatsIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(RaceStatsIdentityTest, WildcardAndZeroLengthTraffic) {
  // Exercises the paths detection instruments hardest: any-source matching
  // (the detector arbitrates the choice), zero-length messages (stamps ride
  // the struct — payload bytes must stay 0), and the fused collectives.
  const int np = GetParam();
  // The race is deliberate, so the verifier's teardown audit (attached
  // under HPFCG_CHECK=1) must not turn it into a throw.
  hpfcg::check::ScopedEnable no_audit(false);
  compare_runs(np, [](Process& p) {
    const int last = p.nprocs() - 1;
    // Deposit order is pinned (each sender waits for its predecessors'
    // messages to land) so both runs receive in the same order and even
    // the floating-point cost accumulation is bit-identical.  The senders
    // stay causally concurrent — with detection on this IS a wildcard
    // race, which must be flagged without moving a single counter.
    auto pending = [&]() -> std::size_t {
      return p.runtime().mailbox(last).pending();
    };
    if (p.rank() != last) {
      while (pending() < 2 * static_cast<std::size_t>(p.rank())) {
        std::this_thread::yield();
      }
      p.send_value<double>(last, 11, p.rank() * 1.5);
      p.send<std::uint8_t>(last, 12, std::span<const std::uint8_t>());
    } else {
      while (pending() < 2 * static_cast<std::size_t>(last)) {
        std::this_thread::yield();
      }
      double sum = 0.0;
      for (int i = 0; i < last; ++i) {
        int src = -1;
        sum += p.recv_any<double>(11, src)[0];
        EXPECT_EQ(src, i);  // oldest arrival first, in both runs
        EXPECT_TRUE(p.recv<std::uint8_t>(src, 12).empty());
      }
    }
    p.barrier();
    std::vector<double> batch{1.0, 2.0, static_cast<double>(p.rank())};
    p.allreduce_batch<double>(batch);
    (void)p.allreduce<double>(1.0);
    p.barrier();
  });
}

TEST_P(RaceStatsIdentityTest, FusedCgSolve) {
  const int np = GetParam();
  const auto a = sp::laplacian_2d(7, 9);
  const auto b_full = sp::random_rhs(a.n_rows(), 17);
  compare_runs(np, [&](Process& p) {
    auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
    DistributedVector<double> b(p, dist), x(p, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& q,
                                      DistributedVector<double>& out) {
      mat.matvec(q, out);
    };
    const auto res = sv::cg_fused_dist<double>(
        op, b, x, {.rel_tolerance = 1e-10, .track_residuals = true});
    EXPECT_TRUE(res.converged);
  });
}

TEST_P(RaceStatsIdentityTest, TinyProblemWithEmptyRanks) {
  // n < NP: some ranks own zero rows, so collectives move zero-length
  // blocks — exactly the envelopes that must carry clocks without ever
  // showing up in a byte counter.
  const int np = GetParam();
  if (np < 4) GTEST_SKIP() << "needs empty ranks to be interesting";
  const auto a = sp::laplacian_2d(3, 1);  // n = 3 rows
  const auto b_full = sp::random_rhs(a.n_rows(), 29);
  compare_runs(np, [&](Process& p) {
    auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
    DistributedVector<double> b(p, dist), x(p, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& q,
                                      DistributedVector<double>& out) {
      mat.matvec(q, out);
    };
    const auto res = sv::cg_dist<double>(op, b, x, {.rel_tolerance = 1e-12});
    EXPECT_TRUE(res.converged);
  });
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, RaceStatsIdentityTest,
                         ::testing::ValuesIn(hpfcg_test::test_machine_sizes()));
