// PhaseProfile: Stats deltas must land in the right named phases.  Also the
// one Stats identity predicate the side-channel gates share.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hpfcg/msg/phase_profile.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "spmd_test_util.hpp"

using hpfcg::msg::PhaseProfile;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;
using hpfcg_test::run_spmd;

namespace {

TEST(PhaseProfile, AttributesDeltasToPhases) {
  run_spmd(2, [](Process& p) {
    PhaseProfile prof(p);

    prof.enter("compute");
    p.add_flops(1000);
    prof.enter("exchange");
    if (p.rank() == 0) {
      p.send_value<double>(1, 1, 2.5);
    } else {
      (void)p.recv_value<double>(0, 1);
    }
    prof.enter("more-compute");
    p.add_flops(500);
    prof.exit();

    EXPECT_EQ(prof.of("compute").flops, 1000u);
    EXPECT_EQ(prof.of("compute").messages_sent, 0u);
    EXPECT_EQ(prof.of("more-compute").flops, 500u);
    if (p.rank() == 0) {
      EXPECT_EQ(prof.of("exchange").messages_sent, 1u);
      EXPECT_EQ(prof.of("exchange").bytes_sent, 8u);
    } else {
      EXPECT_EQ(prof.of("exchange").messages_received, 1u);
    }
    EXPECT_EQ(prof.of("exchange").flops, 0u);
    EXPECT_EQ(prof.of("never-entered").flops, 0u);
  });
}

TEST(PhaseProfile, ReenteringAccumulates) {
  run_spmd(1, [](Process& p) {
    PhaseProfile prof(p);
    for (int i = 0; i < 3; ++i) {
      prof.enter("work");
      p.add_flops(10);
      prof.enter("idle");
    }
    prof.exit();
    EXPECT_EQ(prof.of("work").flops, 30u);
    EXPECT_EQ(prof.of("idle").flops, 0u);
    EXPECT_EQ(prof.phases().size(), 2u);
  });
}

TEST(PhaseProfile, UnattributedTimeIsDropped) {
  run_spmd(1, [](Process& p) {
    PhaseProfile prof(p);
    p.add_flops(99);  // before any phase: not attributed
    prof.enter("phase");
    p.add_flops(1);
    prof.exit();
    EXPECT_EQ(prof.of("phase").flops, 1u);
  });
}

TEST(PhaseProfile, HaloMatvecPhaseReportsHaloTraffic) {
  // The per-phase delta must cover every Stats field, the halo counters
  // included: a phase that runs a halo matvec reports the traffic it made.
  using hpfcg::hpf::Distribution;
  using hpfcg::hpf::DistributedVector;
  const auto a = hpfcg::sparse::laplacian_2d(8, 8);
  hpfcg::sparse::halo::ScopedEnable halo_on;
  run_spmd(4, [&](Process& p) {
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(a.n_rows(), p.nprocs()));
    auto mat = hpfcg::sparse::DistCsr<double>::row_aligned(p, a, dist);
    mat.prepare_halo();  // the plan build stays outside the phase
    DistributedVector<double> x(p, dist), y(p, dist);
    x.set_from([](std::size_t g) { return static_cast<double>(g % 5); });

    PhaseProfile prof(p);
    const Stats before = p.stats();
    prof.enter("matvec");
    mat.matvec(x, y);
    prof.exit();
    const Stats after = p.stats();

    const Stats got = prof.of("matvec");
    EXPECT_GT(got.halo_msgs, 0u);
    EXPECT_EQ(got.halo_msgs, after.halo_msgs - before.halo_msgs);
    EXPECT_EQ(got.halo_bytes, after.halo_bytes - before.halo_bytes);
    Stats::for_each_field([&](auto field) {
      EXPECT_EQ(got.*field, after.*field - before.*field);
    });
  });
}

TEST(StatsIdentity, ComparesEveryCounterButTheEnvelopeSplit) {
  Stats a;
  a.messages_sent = 7;
  a.envelopes_pooled = 3;
  a.envelopes_heap = 1;
  a.modeled_wait_seconds = 0.25;
  Stats b = a;
  EXPECT_TRUE(hpfcg::msg::counters_identical(a, b));
  // Only the pooled + heap sum is deterministic.
  b.envelopes_pooled = 0;
  b.envelopes_heap = 4;
  EXPECT_TRUE(hpfcg::msg::counters_identical(a, b));
  // Any one counter moving breaks identity, halo, multigrid and repro ones
  // included (moving one envelope path moves the sum too).
  Stats::for_each_field([&](auto field) {
    Stats c = a;
    c.*field += 1;
    EXPECT_FALSE(hpfcg::msg::counters_identical(a, c));
  });
}

}  // namespace
