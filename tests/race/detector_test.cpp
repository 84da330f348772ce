// The race detector must flag each seeded hazard class — wildcard-receive
// match-order races (naming both candidate sources and the receive site),
// fence-order hazards, unordered replicated/private region accesses — and
// must stay silent on causally ordered programs, including ones whose only
// ordering edge is a zero-length message (empty envelopes carry clocks).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/ext/private_array.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/race/detector.hpp"
#include "hpfcg/race/race.hpp"
#include "spmd_test_util.hpp"

namespace race = hpfcg::race;
namespace check = hpfcg::check;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;
using race::RaceKind;
using race::RegionKind;

namespace {

/// Spin until `n` messages are queued in `rank`'s mailbox — makes the
/// "both sends in flight at match time" interleaving deterministic.
void await_pending(Process& p, std::size_t n) {
  while (p.runtime().mailbox(p.rank()).pending() < n) {
    std::this_thread::yield();
  }
}

/// Advance this rank's clock past the all-zero origin (where every pair of
/// clocks compares *equal*, not concurrent) via a self send/receive.
void tick_clock(Process& p) {
  p.send_value<int>(p.rank(), 99, 0);
  (void)p.recv_value<int>(p.rank(), 99);
}

}  // namespace

// ---- wildcard-receive races --------------------------------------------

TEST(RaceDetector, WildcardRaceNamesBothSourcesAndSite) {
  race::ScopedEnable on;
  check::ScopedEnable no_audit(false);  // races on purpose
  Runtime rt(3);
  rt.run([](Process& p) {
    if (p.rank() == 1) p.send_value<int>(0, 7, 10);
    if (p.rank() == 2) p.send_value<int>(0, 7, 20);
    if (p.rank() == 0) {
      await_pending(p, 2);  // both candidates in flight
      race::SiteScope site("halo recv");
      int src = -1;
      (void)p.recv_any<int>(7, src);
      (void)p.recv_any<int>(7, src);
    }
  });

  ASSERT_NE(rt.racer(), nullptr);
  const auto records = rt.racer()->records();
  ASSERT_EQ(records.size(), 1u);  // deduped: one report per racing pair
  const auto& r = records[0];
  EXPECT_EQ(r.kind, RaceKind::kWildcard);
  EXPECT_EQ(r.rank, 0);
  EXPECT_EQ(r.src_a, 1);
  EXPECT_EQ(r.src_b, 2);
  EXPECT_EQ(r.tag, 7);
  EXPECT_EQ(r.site, "halo recv");
  EXPECT_NE(r.detail.find("rank 1"), std::string::npos);
  EXPECT_NE(r.detail.find("rank 2"), std::string::npos);
  EXPECT_NE(rt.racer()->report().find("wildcard-receive"), std::string::npos);
}

TEST(RaceDetector, CausallyOrderedSendsAreNotFlagged) {
  // rank 1's send to 0 happens-before rank 2's (token chain), so even with
  // both messages in flight the any-source match has a forced order.
  race::ScopedEnable on;
  Runtime rt(3);
  rt.run([](Process& p) {
    if (p.rank() == 1) {
      p.send_value<int>(0, 5, 10);
      p.send_value<int>(2, 9, 0);  // token: orders rank 2 after the send
    }
    if (p.rank() == 2) {
      (void)p.recv_value<int>(1, 9);
      p.send_value<int>(0, 5, 20);
    }
    if (p.rank() == 0) {
      await_pending(p, 2);
      int src = -1;
      EXPECT_EQ(p.recv_any<int>(5, src)[0], 10);  // forced: oldest first
      EXPECT_EQ(src, 1);
      EXPECT_EQ(p.recv_any<int>(5, src)[0], 20);
      EXPECT_EQ(src, 2);
    }
  });
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

TEST(RaceDetector, ZeroLengthTokenCarriesTheClock) {
  // Same ordering chain, but the token is a zero-length message.  The
  // suppression of the wildcard flag proves empty envelopes carry stamps:
  // without one, rank 2's send would look concurrent with rank 1's.
  race::ScopedEnable on;
  Runtime rt(3);
  rt.run([](Process& p) {
    if (p.rank() == 1) {
      p.send_value<int>(0, 5, 10);
      p.send<std::uint8_t>(2, 9, std::span<const std::uint8_t>());
    }
    if (p.rank() == 2) {
      EXPECT_TRUE(p.recv<std::uint8_t>(1, 9).empty());
      p.send_value<int>(0, 5, 20);
    }
    if (p.rank() == 0) {
      await_pending(p, 2);
      int src = -1;
      (void)p.recv_any<int>(5, src);
      (void)p.recv_any<int>(5, src);
    }
  });
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

// ---- fence-order hazards -----------------------------------------------

TEST(RaceDetector, PendingMessageAcrossAllreduceIsFlagged) {
  race::ScopedEnable on;
  check::ScopedEnable no_audit(false);  // races on purpose
  Runtime rt(2);
  rt.run([](Process& p) {
    if (p.rank() == 1) {
      p.send_value<int>(0, 3, 42);
      (void)p.allreduce<double>(1.0);
    } else {
      await_pending(p, 1);  // the unreceived send is in the mailbox
      (void)p.allreduce<double>(1.0);
      EXPECT_EQ(p.recv_value<int>(1, 3), 42);
    }
  });

  const auto records = rt.racer()->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, RaceKind::kFenceOrder);
  EXPECT_EQ(records[0].rank, 0);
  EXPECT_EQ(records[0].src_a, 1);
  EXPECT_EQ(records[0].tag, 3);
  EXPECT_NE(records[0].detail.find("allreduce"), std::string::npos);
}

TEST(RaceDetector, ReceiveBeforeFenceIsNotFlagged) {
  race::ScopedEnable on;
  Runtime rt(2);
  rt.run([](Process& p) {
    if (p.rank() == 1) p.send_value<int>(0, 3, 42);
    if (p.rank() == 0) {
      EXPECT_EQ(p.recv_value<int>(1, 3), 42);
    }
    (void)p.allreduce<double>(1.0);
    p.barrier();
  });
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

// ---- region races ------------------------------------------------------

TEST(RaceDetector, ConcurrentReplicatedWritesAreFlagged) {
  race::ScopedEnable on;
  check::ScopedEnable no_audit(false);  // races on purpose
  Runtime rt(2);
  rt.run([](Process& p) {
    tick_clock(p);  // leave the all-zero origin so the clocks can diverge
    race::Detector* d = p.runtime().racer();
    const auto id = d->register_region(p.rank(), RegionKind::kReplicated,
                                       "lookup-table");
    d->on_region_write(p.rank(), id);  // no ordering between the two writes
    p.barrier();
  });

  const auto records = rt.racer()->records();
  ASSERT_GE(records.size(), 1u);
  EXPECT_EQ(records[0].kind, RaceKind::kRegion);
  EXPECT_EQ(records[0].src_a, 0);
  EXPECT_EQ(records[0].src_b, 1);
  EXPECT_NE(records[0].detail.find("lookup-table"), std::string::npos);
}

TEST(RaceDetector, OrderedReplicatedAccessesAreNotFlagged) {
  race::ScopedEnable on;
  Runtime rt(2);
  rt.run([](Process& p) {
    race::Detector* d = p.runtime().racer();
    const auto id = d->register_region(p.rank(), RegionKind::kReplicated,
                                       "lookup-table");
    if (p.rank() == 0) {
      d->on_region_write(0, id);
      p.send_value<int>(1, 4, 1);  // orders rank 1's access after the write
    } else {
      (void)p.recv_value<int>(0, 4);
      d->on_region_write(1, id);
      d->on_region_read(1, id);
    }
    p.barrier();
  });
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

TEST(RaceDetector, PrivatePublishRacingAWriteIsFlagged) {
  // rank 1 writes its private copy while rank 0's "merge" completes with
  // no ordering edge between them — the update may or may not be merged.
  race::ScopedEnable on;
  check::ScopedEnable no_audit(false);  // races on purpose
  Runtime rt(2);
  rt.run([](Process& p) {
    tick_clock(p);  // leave the all-zero origin so the clocks can diverge
    race::Detector* d = p.runtime().racer();
    const auto id =
        d->register_region(p.rank(), RegionKind::kPrivate, "partials");
    if (p.rank() == 1) {
      d->on_region_write(1, id);
    } else {
      // Real-time delay only (no clock edge): the write lands in the region
      // table first, but stays causally concurrent with this publish.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      d->on_region_publish(0, id);
    }
    p.barrier();
  });

  const auto records = rt.racer()->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, RaceKind::kRegion);
  EXPECT_NE(records[0].detail.find("merge"), std::string::npos);
}

TEST(RaceDetector, PrivateArrayMergeIsRaceFree) {
  // The library's own PRIVATE/MERGE discipline must never be flagged: the
  // merge collective orders every write before every publish.
  race::ScopedEnable on;
  check::ScopedEnable check_on;  // harness attached: teardown audit armed
  Runtime rt(4);
  rt.run([](Process& p) {
    hpfcg::ext::PrivateArray<double> q(p, 16);
    for (std::size_t i = 0; i < q.size(); ++i) q[i] += p.rank() + 1.0;
    const auto merged = q.merge_replicated();
    EXPECT_DOUBLE_EQ(merged[0], 1.0 + 2.0 + 3.0 + 4.0);
  });
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

// ---- check-ledger integration ------------------------------------------

TEST(RaceDetector, RacesFailTheCheckTeardownAudit) {
  // With both layers on, a flagged race is mirrored into the check
  // violation ledger, so the machine run *fails* instead of passing with a
  // diagnostic nobody read.
  if (!check::kCompiled) GTEST_SKIP() << "check compiled out";
  race::ScopedEnable on;
  check::ScopedEnable check_on;
  Runtime rt(3);
  std::string message;
  try {
    rt.run([](Process& p) {
      if (p.rank() == 1) p.send_value<int>(0, 7, 10);
      if (p.rank() == 2) p.send_value<int>(0, 7, 20);
      if (p.rank() == 0) {
        await_pending(p, 2);
        int src = -1;
        (void)p.recv_any<int>(7, src);
        (void)p.recv_any<int>(7, src);
      }
    });
    ADD_FAILURE() << "expected the teardown audit to reject the race";
  } catch (const hpfcg::util::Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("hpfcg::race"), std::string::npos);
  EXPECT_NE(message.find("wildcard"), std::string::npos);
}

// ---- reporting ---------------------------------------------------------

TEST(RaceDetector, JsonReportIsWellFormedAndComplete) {
  race::ScopedEnable on;
  check::ScopedEnable no_audit(false);  // races on purpose
  Runtime rt(3);
  rt.run([](Process& p) {
    if (p.rank() != 0) p.send_value<int>(0, 7, p.rank());
    if (p.rank() == 0) {
      await_pending(p, 2);
      int src = -1;
      (void)p.recv_any<int>(7, src);
      (void)p.recv_any<int>(7, src);
    }
  });
  std::ostringstream os;
  rt.racer()->write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"nprocs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"wildcard-receive\""), std::string::npos);
  EXPECT_NE(json.find("\"src_a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"src_b\": 2"), std::string::npos);

  rt.racer()->clear();
  EXPECT_EQ(rt.racer()->race_count(), 0u);
}

// ---- off-by-default ----------------------------------------------------

TEST(RaceDetector, NoDetectorWhenDisabled) {
  // With detection off, the runtime carries no detector and racy programs
  // run to completion unflagged.  Off is the default when HPFCG_RACE is
  // unset; an explicit disable also overrides HPFCG_RACE=1.
  const auto racy_machine_has_detector = [] {
    Runtime rt(2);
    rt.run([](Process& p) {
      if (p.rank() == 1) p.send_value<int>(0, 7, 1);
      if (p.rank() == 0) {
        int src = -1;
        (void)p.recv_any<int>(7, src);
      }
    });
    return rt.racer() != nullptr;
  };
  if (std::getenv("HPFCG_RACE") == nullptr) {
    EXPECT_FALSE(racy_machine_has_detector());
  }
  race::ScopedEnable off(false);
  EXPECT_FALSE(racy_machine_has_detector());
}
