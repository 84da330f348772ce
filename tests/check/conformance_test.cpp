// hpfcg::check must catch each seeded defect class — mismatched
// collectives, message leaks, out-of-shard accesses, merge-before-publish
// races — with a diagnostic that names the offending rank, instead of
// deadlocking or corrupting silently.  It must also be a pure side channel:
// enabling it never changes a single instrumentation counter.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/ext/private_array.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "spmd_test_util.hpp"

using hpfcg::ext::PrivateArray;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;
using hpfcg::util::Error;
namespace check = hpfcg::check;

namespace {

/// Runs `body` on `np` ranks with checking enabled and returns the error
/// message the machine fails with (fails the test if it does not throw).
std::string failure_message(int np,
                            const std::function<void(Process&)>& body) {
  check::ScopedEnable on;
  Runtime rt(np);
  try {
    rt.run(body);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the verifier to reject this program";
  return {};
}

auto block_dist(std::size_t n, int np) {
  return std::make_shared<const Distribution>(Distribution::block(n, np));
}

// ---- collective conformance -------------------------------------------

TEST(CheckCollectiveConformance, MismatchedKindNamesDivergentRank) {
  const std::string msg = failure_message(4, [](Process& p) {
    if (p.rank() == 2) {
      std::vector<double> buf(4, 1.0);
      p.allreduce_vec(buf);  // everyone else broadcasts
    } else {
      double v = 1.0;
      p.broadcast_into<double>(0, std::span<double>(&v, 1));
    }
  });
  EXPECT_NE(msg.find("collective conformance violation"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allreduce_vec"), std::string::npos) << msg;
  EXPECT_NE(msg.find("broadcast"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, MismatchedRootNamesDivergentRank) {
  const std::string msg = failure_message(4, [](Process& p) {
    double v = 1.0;
    const int root = p.rank() == 3 ? 1 : 0;  // rank 3 disagrees on the root
    p.broadcast_into<double>(root, std::span<double>(&v, 1));
  });
  EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root=1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root=0"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, MismatchedElementSizeNamesDivergentRank) {
  const std::string msg = failure_message(2, [](Process& p) {
    if (p.rank() == 1) {
      (void)p.allreduce<float>(1.0F);  // 4-byte elements
    } else {
      (void)p.allreduce<double>(1.0);  // 8-byte elements
    }
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elem=4B"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elem=8B"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, MismatchedMergeLengthNamesDivergentRank) {
  const std::string msg = failure_message(4, [](Process& p) {
    std::vector<double> buf(p.rank() == 1 ? 8 : 6, 0.0);
    p.allreduce_vec(buf);  // merge lengths must agree machine-wide
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=8"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=6"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, MismatchedBatchWidthNamesDivergentRank) {
  // A rank fusing a different number of scalars into allreduce_batch would
  // deadlock the tree (payload lengths disagree); the ledger names it
  // first, since the batch width is the fingerprint's count.
  const std::string msg = failure_message(4, [](Process& p) {
    std::vector<double> vals(p.rank() == 2 ? 3 : 2, 1.0);
    p.allreduce_batch<double>(vals);
  });
  EXPECT_NE(msg.find("collective conformance violation"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allreduce_batch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=2"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, DivergenceNamedEvenWhenRankZeroPostsLast) {
  // Rank 0 enters late, so rank 2's record waits while its tree child's
  // 2-value payload reaches its 3-value receive and throws a length
  // mismatch first; the ledger's verdict must still be what run() reports.
  const std::string msg = failure_message(4, [](Process& p) {
    if (p.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::vector<double> vals(p.rank() == 2 ? 3 : 2, 1.0);
    p.allreduce_batch<double>(vals);
  });
  EXPECT_NE(msg.find("collective conformance violation"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
}

TEST(CheckCollectiveConformance, ConformingProgramsPassUntouched) {
  check::ScopedEnable on;
  for (int np : hpfcg_test::test_machine_sizes()) {
    auto rt = hpfcg_test::run_spmd(np, [](Process& p) {
      auto dist = block_dist(64, p.nprocs());
      DistributedVector<double> x(p, dist);
      x.set_from([](std::size_t g) { return static_cast<double>(g); });
      (void)hpfcg::hpf::dot_product(x, x);
      (void)x.to_global();
      p.barrier();
    });
    EXPECT_EQ(rt->total_stats().messages_sent,
              rt->total_stats().messages_received);
  }
}

// ---- deadlock watchdog -------------------------------------------------

TEST(CheckWatchdog, CrossedReceivesDiagnosedNotHung) {
  const auto saved = check::watchdog_timeout_ms();
  check::set_watchdog_timeout_ms(250);
  const std::string msg = failure_message(2, [](Process& p) {
    // Classic deadlock: both ranks receive first, nobody has sent.
    (void)p.recv_value<int>(1 - p.rank(), /*tag=*/9);
  });
  check::set_watchdog_timeout_ms(saved);
  EXPECT_NE(msg.find("suspected deadlock"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0: blocked in recv(src=1, tag=9)"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 1: blocked in recv(src=0, tag=9)"),
            std::string::npos)
      << msg;
}

// ---- teardown audit ----------------------------------------------------

TEST(CheckTeardownAudit, UnreceivedMessageNamesReceiverSenderAndTag) {
  const std::string msg = failure_message(2, [](Process& p) {
    if (p.rank() == 0) p.send_value<int>(1, /*tag=*/42, 7);
    // rank 1 returns without receiving: the message leaks.
  });
  EXPECT_NE(msg.find("teardown audit failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1 mailbox holds 1 unreceived message"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("from rank 0, tag 42, 4 bytes"), std::string::npos)
      << msg;
}

TEST(CheckTeardownAudit, LeakedPrivateRegionReported) {
  const std::string msg = failure_message(2, [](Process& p) {
    PrivateArray<double> q(p, 16);
    q[0] = 1.0;
    // Region neither merged nor discarded: the update never publishes.
  });
  EXPECT_NE(msg.find("teardown audit failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("leaked a private region"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
}

// ---- ownership conformance --------------------------------------------

TEST(CheckOwnership, OutOfShardWriteNamesOffenderAndOwner) {
  const std::string msg = failure_message(4, [](Process& p) {
    DistributedVector<double> x(p, block_dist(16, p.nprocs()));
    if (p.rank() == 3) {
      x.at_global(0) = 1.0;  // global index 0 is owned by rank 0
    }
    p.barrier();
  });
  EXPECT_NE(msg.find("ownership violation"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out-of-shard write"), std::string::npos) << msg;
  EXPECT_NE(msg.find("owned by rank 0"), std::string::npos) << msg;
}

TEST(CheckOwnership, WriteAfterMergeTrapped) {
  const std::string msg = failure_message(2, [](Process& p) {
    PrivateArray<double> q(p, 8);
    q[3] = 1.0;
    (void)q.merge_replicated();
    if (p.rank() == 1) q[3] = 2.0;  // lost update: merge already happened
  });
  EXPECT_NE(msg.find("merge-before-publish violation"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
}

TEST(CheckOwnership, DivergentReplicatedMatrixNamesRank) {
  const std::string msg = failure_message(2, [](Process& p) {
    const std::size_t n = 8;
    // SPMD divergence: rank 1 assembles a different "replicated" matrix,
    // so every sweep would silently compute with inconsistent data.
    const double diag = p.rank() == 1 ? 5.0 : 2.0;
    auto a = hpfcg::sparse::tridiagonal(n, diag, -1.0);
    auto A = hpfcg::sparse::DistCsr<double>::row_aligned(
        p, a, block_dist(n, p.nprocs()));
    (void)A;
  });
  EXPECT_NE(msg.find("replicated_build"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("but rank 0"), std::string::npos) << msg;
}

// ---- side-channel discipline ------------------------------------------

TEST(CheckSideChannel, EnablingCheckPerturbsNoCounters) {
  const auto workload = [](Process& p) {
    const std::size_t n = 96;
    auto dist = block_dist(n, p.nprocs());
    DistributedVector<double> x(p, dist), y(p, dist);
    x.set_from([](std::size_t g) { return static_cast<double>(g % 7); });
    hpfcg::hpf::fill(y, 0.5);
    for (int it = 0; it < 3; ++it) {
      hpfcg::hpf::axpy(1.5, x, y);
      (void)hpfcg::hpf::dot_product(x, y);
      (void)y.to_global();
      p.barrier();
    }
  };
  for (int np : hpfcg_test::test_machine_sizes()) {
    hpfcg::msg::Stats off, on;
    {
      check::ScopedEnable disable(false);
      off = hpfcg_test::run_spmd(np, workload)->total_stats();
    }
    {
      check::ScopedEnable enable(true);
      on = hpfcg_test::run_spmd(np, workload)->total_stats();
    }
    EXPECT_EQ(off.messages_sent, on.messages_sent) << "np=" << np;
    EXPECT_EQ(off.bytes_sent, on.bytes_sent) << "np=" << np;
    EXPECT_EQ(off.messages_received, on.messages_received) << "np=" << np;
    EXPECT_EQ(off.bytes_received, on.bytes_received) << "np=" << np;
    EXPECT_EQ(off.flops, on.flops) << "np=" << np;
    EXPECT_EQ(off.barriers, on.barriers) << "np=" << np;
    EXPECT_EQ(off.collectives, on.collectives) << "np=" << np;
    EXPECT_EQ(off.reductions, on.reductions) << "np=" << np;
    EXPECT_EQ(off.reduction_values, on.reduction_values) << "np=" << np;
    EXPECT_DOUBLE_EQ(off.modeled_comm_seconds, on.modeled_comm_seconds);
    EXPECT_DOUBLE_EQ(off.modeled_compute_seconds, on.modeled_compute_seconds);
    EXPECT_DOUBLE_EQ(off.modeled_wait_seconds, on.modeled_wait_seconds);
  }
}

}  // namespace
