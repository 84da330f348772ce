// Failure injection: the runtime must unwind cleanly — no deadlocks, no
// leaked messages, first error reported — whatever a processor is doing
// when another one fails.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/msg/process.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;
using hpfcg::util::Error;

namespace {

TEST(Robustness, FailureWhileOthersBlockOnBarrier) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([](Process& p) {
                 if (p.rank() == 2) throw Error("rank 2 dies");
                 p.barrier();
               }),
               Error);
}

TEST(Robustness, FailureWhileOthersBlockOnBroadcast) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([](Process& p) {
                 if (p.rank() == 0) throw Error("root dies");
                 std::vector<double> buf(4);
                 p.broadcast_into<double>(0, buf);  // root never sends
               }),
               Error);
}

TEST(Robustness, FailureWhileOthersBlockOnAllreduce) {
  Runtime rt(8);
  EXPECT_THROW(rt.run([](Process& p) {
                 if (p.rank() == 5) throw Error("mid-tree death");
                 (void)p.allreduce(1.0);
               }),
               Error);
}

TEST(Robustness, FailureInsideSequentialChain) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([](Process& p) {
                 p.sequential([&] {
                   if (p.rank() == 1) throw Error("dies holding the token");
                 });
               }),
               Error);
}

TEST(Robustness, FirstErrorWins) {
  Runtime rt(3);
  try {
    rt.run([](Process& p) {
      if (p.rank() == 0) throw Error("deliberate: rank 0");
      // Other ranks block; they must unwind with the abort error, and the
      // runtime must rethrow rank 0's original exception.
      (void)p.recv_value<int>(0, 1);
    });
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate"), std::string::npos);
  }
}

TEST(Robustness, RuntimeUnusableAfterAbort) {
  Runtime rt(2);
  EXPECT_THROW(rt.run([](Process& p) {
                 if (p.rank() == 0) throw Error("poison");
                 p.barrier();
               }),
               Error);
  // A poisoned machine refuses further runs instead of deadlocking.
  EXPECT_THROW(rt.run([](Process&) {}), Error);
}

TEST(Robustness, ApiMisuseInsideSpmdUnwinds) {
  // A REQUIRE failure on one rank (bad alignment) must not hang the rest.
  Runtime rt(4);
  EXPECT_THROW(rt.run([](Process& p) {
                 auto d1 = std::make_shared<const Distribution>(
                     Distribution::block(16, 4));
                 auto d2 = std::make_shared<const Distribution>(
                     Distribution::cyclic(16, 4));
                 DistributedVector<double> x(p, d1), y(p, d2);
                 if (p.rank() == 3) {
                   hpfcg::hpf::axpy(1.0, x, y);  // misaligned: throws
                 }
                 (void)hpfcg::hpf::dot_product(x, x);  // others block
               }),
               Error);
}

TEST(Robustness, ManyRanksStress) {
  // 32 simulated processors on one core: heavy oversubscription must still
  // complete and produce exact results.
  Runtime rt(32);
  rt.run([](Process& p) {
    const int np = p.nprocs();
    const auto sum = p.allreduce(static_cast<long>(p.rank()));
    EXPECT_EQ(sum, static_cast<long>(np) * (np - 1) / 2);
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(997, np));  // prime size: ragged last block
    DistributedVector<double> v(p, dist);
    v.set_from([](std::size_t g) { return static_cast<double>(g); });
    const double total = hpfcg::hpf::sum(v);
    EXPECT_NEAR(total, 997.0 * 996.0 / 2.0, 1e-6);
  });
}

TEST(Robustness, ZeroLengthVectorsWork) {
  // n < NP leaves some ranks empty; every collective and intrinsic must
  // cope with zero-length local shards.
  Runtime rt(8);
  rt.run([](Process& p) {
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(3, 8));
    DistributedVector<double> x(p, dist);
    auto y = DistributedVector<double>::aligned_like(x);
    x.set_from([](std::size_t g) { return static_cast<double>(g + 1); });
    hpfcg::hpf::fill(y, 2.0);
    EXPECT_DOUBLE_EQ(hpfcg::hpf::dot_product(x, y), 2.0 * (1 + 2 + 3));
    const auto full = x.to_global();
    ASSERT_EQ(full.size(), 3u);
    EXPECT_DOUBLE_EQ(full[2], 3.0);
  });
}

TEST(Robustness, EmptyMachineRejected) {
  EXPECT_THROW(Runtime rt(0), Error);
}

TEST(Robustness, LeftoverMessagesRejectedAtTeardown) {
  // Even without the checking layer, a leaked message fails the run and the
  // error names the mailbox's owner.  (ScopedEnable pins the base path so
  // the assertion holds regardless of the HPFCG_CHECK environment.)
  hpfcg::check::ScopedEnable off(false);
  Runtime rt(2);
  try {
    rt.run([](Process& p) {
      if (p.rank() == 0) p.send_value<int>(1, /*tag=*/3, 99);
    });
    FAIL() << "expected teardown to reject leftover messages";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
}

#ifdef HPFCG_CHECK_ENABLED
TEST(Robustness, UserErrorStillWinsWithCheckingOn) {
  // The verifier must not shadow the program's own first error with the
  // secondary aborts it observes while unwinding.
  hpfcg::check::ScopedEnable on;
  Runtime rt(3);
  try {
    rt.run([](Process& p) {
      if (p.rank() == 0) throw Error("deliberate: rank 0");
      (void)p.recv_value<int>(0, 1);
    });
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate"), std::string::npos)
        << e.what();
  }
}
#endif

}  // namespace
