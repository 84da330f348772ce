// Property fuzzing: random SPMD programs mixing every collective, checked
// against locally computed oracles.  All ranks draw from the same seeded
// RNG, so the random program is identical everywhere (SPMD discipline) and
// entirely deterministic across runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/rng.hpp"
#include "spmd_test_util.hpp"

using hpfcg::msg::Process;
using hpfcg::util::Xoshiro256;
using hpfcg_test::run_spmd;

namespace {

/// Deterministic per-rank payload element.
std::int64_t elem(int rank, std::size_t i) {
  return 31 * rank + static_cast<std::int64_t>(7 * i) - 11;
}

void random_program(Process& p, std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);  // same stream on every rank
  const int np = p.nprocs();
  for (int op = 0; op < ops; ++op) {
    switch (rng.below(7)) {
      case 0: {  // allreduce sum
        const auto v = p.allreduce(static_cast<std::int64_t>(p.rank() + op));
        std::int64_t expect = 0;
        for (int r = 0; r < np; ++r) expect += r + op;
        ASSERT_EQ(v, expect);
        break;
      }
      case 1: {  // broadcast vector from random root
        const int root = static_cast<int>(rng.below(np));
        const std::size_t len = rng.below(20);
        std::vector<std::int64_t> buf(len, -1);
        if (p.rank() == root) {
          for (std::size_t i = 0; i < len; ++i) buf[i] = elem(root, i);
        }
        p.broadcast_into<std::int64_t>(root, buf);
        for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(buf[i], elem(root, i));
        break;
      }
      case 2: {  // allgatherv with random ragged counts
        std::vector<std::size_t> counts(np);
        for (int r = 0; r < np; ++r) counts[r] = rng.below(6);
        std::vector<std::int64_t> local(counts[p.rank()]);
        for (std::size_t i = 0; i < local.size(); ++i) {
          local[i] = elem(p.rank(), i);
        }
        std::vector<std::int64_t> out;
        p.allgatherv<std::int64_t>(local, out, counts);
        std::size_t pos = 0;
        for (int r = 0; r < np; ++r) {
          for (std::size_t i = 0; i < counts[r]; ++i) {
            ASSERT_EQ(out[pos++], elem(r, i));
          }
        }
        break;
      }
      case 3: {  // alltoallv with random block sizes
        std::vector<std::vector<std::int64_t>> blocks(np);
        // Block from s to d has size (s + d + op) % 4, content f(s, d).
        for (int d = 0; d < np; ++d) {
          blocks[d].assign((p.rank() + d + op) % 4,
                           elem(p.rank(), static_cast<std::size_t>(d)));
        }
        const auto in = p.alltoallv<std::int64_t>(blocks);
        for (int s = 0; s < np; ++s) {
          ASSERT_EQ(in[s].size(),
                    static_cast<std::size_t>((s + p.rank() + op) % 4));
          for (const auto v : in[s]) {
            ASSERT_EQ(v, elem(s, static_cast<std::size_t>(p.rank())));
          }
        }
        break;
      }
      case 4: {  // vector merge of random length (0 included)
        std::vector<std::int64_t> v(rng.below(6));
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = elem(p.rank(), i);
        p.allreduce_vec(v);
        for (std::size_t i = 0; i < v.size(); ++i) {
          std::int64_t expect = 0;
          for (int r = 0; r < np; ++r) expect += elem(r, i);
          ASSERT_EQ(v[i], expect);
        }
        break;
      }
      case 5: {  // max batch of random width (0 included)
        std::vector<std::int64_t> v(rng.below(4));
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = elem(p.rank(), static_cast<std::size_t>(op) + i);
        }
        p.allreduce_batch<std::int64_t>(
            v, [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
        for (std::size_t i = 0; i < v.size(); ++i) {
          std::int64_t expect = elem(0, static_cast<std::size_t>(op) + i);
          for (int r = 1; r < np; ++r) {
            expect =
                std::max(expect, elem(r, static_cast<std::size_t>(op) + i));
          }
          ASSERT_EQ(v[i], expect);
        }
        break;
      }
      default:
        p.barrier();
        break;
    }
  }
}

class FuzzCollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCollectivesTest, RandomProgramsAgreeWithOracles) {
  const int np = GetParam();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto rt = run_spmd(np, [&](Process& p) { random_program(p, seed, 25); });
    // The machine must end quiescent (checked by Runtime) with balanced
    // global message counts.
    EXPECT_EQ(rt->total_stats().messages_sent,
              rt->total_stats().messages_received);
    EXPECT_EQ(rt->total_stats().bytes_sent,
              rt->total_stats().bytes_received);
  }
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, FuzzCollectivesTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
