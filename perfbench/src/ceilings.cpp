// Same-binary ceilings: the denominators of every *_roof and latency row.
//
// Each is measured in the run that reports against it, with the same
// compiler flags as the library: a STREAM triad for memory bandwidth, an
// envelope ping-pong for the point-to-point handoff, and allreduce_batch
// for the tree collective the fused solvers pay once per iteration.

#include <barrier>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr int kPasses = 7;
constexpr int kBatches = 9;
constexpr int kPingTag = 0x7e00;

}  // namespace

Triad triad(int threads, std::size_t array_bytes) {
  const std::size_t n = array_bytes / sizeof(double);
  // Raw storage so each thread first-touches its own slice (the pages land
  // where that thread runs, as in STREAM).
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const double s = 3.0;
  std::vector<double> pass_s(kPasses);
  std::barrier sync(threads);
  const auto work = [&](int t) {
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(threads);
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(threads);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    for (int p = 0; p < kPasses; ++p) {
      sync.arrive_and_wait();
      const auto t0 = Clock::now();
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      sync.arrive_and_wait();
      if (t == 0) pass_s[static_cast<std::size_t>(p)] =
          seconds_between(t0, Clock::now());
    }
  };
  std::vector<std::jthread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  pool.clear();  // joins
  // Keep the result observable so the stores cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  return {3.0 * static_cast<double>(n * sizeof(double)) / median(pass_s) *
              1e-9,
          n * sizeof(double)};
}

double pingpong_us(std::size_t payload_bytes) {
  constexpr int kRoundTrips = 2000;
  std::vector<double> batch_us;
  hpfcg::msg::Runtime rt(2);
  rt.run([&](hpfcg::msg::Process& proc) {
    std::vector<std::byte> buf(payload_bytes);
    const std::span<std::byte> out(buf);
    const int peer = 1 - proc.rank();
    for (int b = 0; b < kBatches; ++b) {
      proc.barrier();
      const auto t0 = Clock::now();
      for (int i = 0; i < kRoundTrips; ++i) {
        if (proc.rank() == 0) {
          proc.send<std::byte>(peer, kPingTag, out);
          proc.recv_into<std::byte>(peer, kPingTag, out);
        } else {
          proc.recv_into<std::byte>(peer, kPingTag, out);
          proc.send<std::byte>(peer, kPingTag, out);
        }
      }
      if (proc.rank() == 0) {
        batch_us.push_back(seconds_between(t0, Clock::now()) * 1e6 /
                           (2.0 * kRoundTrips));
      }
    }
  });
  return median(batch_us);
}

double allreduce_us(int np, std::size_t width) {
  constexpr int kOps = 2000;
  std::vector<double> batch_us;
  hpfcg::msg::Runtime rt(np);
  rt.run([&](hpfcg::msg::Process& proc) {
    std::vector<double> vals(width, 1.0);
    for (int b = 0; b < kBatches; ++b) {
      proc.barrier();
      const auto t0 = Clock::now();
      for (int i = 0; i < kOps; ++i) {
        std::fill(vals.begin(), vals.end(), 1.0);
        proc.allreduce_batch(std::span<double>(vals));
      }
      proc.barrier();
      if (proc.rank() == 0) {
        batch_us.push_back(seconds_between(t0, Clock::now()) * 1e6 / kOps);
      }
    }
  });
  return median(batch_us);
}

}  // namespace perfbench
