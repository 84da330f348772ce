#include "hpfcg/msg/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::msg {

Runtime::Runtime(int nprocs, CostParams params, Topology topo)
    : nprocs_(nprocs), cost_(params, topo, nprocs), stats_(nprocs) {
  HPFCG_REQUIRE(nprocs >= 1, "Runtime needs at least one processor");
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(nprocs));
  }
  if (check::kCompiled && check::enabled()) {
    checker_ = std::make_unique<check::Harness>(nprocs);
  }
  if (trace::kCompiled && trace::enabled()) {
    tracer_ = std::make_unique<trace::Session>(nprocs, trace::ring_capacity());
  }
  repro_ = repro::kCompiled && repro::enabled();
  if (race::kCompiled && (race::enabled() || race::replay_seed() != 0)) {
    racer_ = std::make_unique<race::Detector>(nprocs, race::enabled(),
                                              race::replay_seed(),
                                              checker_.get());
    for (int r = 0; r < nprocs; ++r) {
      mailboxes_[static_cast<std::size_t>(r)]->set_race(racer_.get(), r);
    }
  }
}

void Runtime::run(const std::function<void(Process&)>& body) {
  HPFCG_REQUIRE(!aborted_, "Runtime was aborted by a previous failure");

  running_.store(true, std::memory_order_release);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::exception_ptr ledger_error;

  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back([this, r, &body, &err_mu, &first_error,
                          &ledger_error] {
      Process proc(*this, r);
      const auto record = [&](std::exception_ptr& slot) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!slot) slot = std::current_exception();
        }
        abort_all();
      };
      try {
        body(proc);
      } catch (const check::ConformanceError&) {
        record(ledger_error);
      } catch (...) {
        record(first_error);
      }
    });
  }

  // Deadlock watchdog (checking only): when the machine stops making
  // progress while at least one rank is blocked, dump the per-rank wait-for
  // state and abort instead of hanging forever.  A condition variable (not
  // a plain sleep) lets run() return the moment the workers finish instead
  // of waiting out the poll interval.
  std::exception_ptr watchdog_error;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool workers_done = false;  // guarded by wd_mu
  std::thread watchdog;
  if (checker() != nullptr) {
    watchdog = std::thread([this, &wd_mu, &wd_cv, &workers_done,
                            &watchdog_error] {
      using clock = std::chrono::steady_clock;
      check::Harness& h = *checker();
      std::uint64_t last_epoch = h.epoch();
      clock::time_point last_change = clock::now();
      std::unique_lock<std::mutex> lock(wd_mu);
      while (!workers_done) {
        const auto timeout =
            std::chrono::milliseconds(check::watchdog_timeout_ms());
        wd_cv.wait_for(lock,
                       std::min<std::chrono::milliseconds>(
                           std::chrono::milliseconds(50),
                           timeout / 4 + std::chrono::milliseconds(1)));
        if (workers_done) break;
        const std::uint64_t e = h.epoch();
        if (e != last_epoch) {
          last_epoch = e;
          last_change = clock::now();
          continue;
        }
        if (h.anyone_waiting() && clock::now() - last_change >= timeout) {
          std::ostringstream os;
          os << "hpfcg::check: no progress for " << check::watchdog_timeout_ms()
             << " ms with blocked processors — suspected deadlock; "
                "per-rank wait-for state:\n"
             << h.dump_wait_state();
          watchdog_error = std::make_exception_ptr(util::Error(os.str()));
          abort_all();
          return;
        }
      }
    });
  }

  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(wd_mu);
    workers_done = true;
  }
  wd_cv.notify_all();
  if (watchdog.joinable()) watchdog.join();

  running_.store(false, std::memory_order_release);

  // The watchdog's diagnosis is the root cause: the per-rank errors it
  // provoked by aborting ("runtime aborted while receiving") are secondary.
  if (watchdog_error) std::rethrow_exception(watchdog_error);
  // So is the ledger's: a divergent rank's record waits for rank 0's, and
  // meanwhile its wrong-length payload can make a neighbour's receive
  // throw first.  Aborts only wake blocked ranks, so rank 0 still posts
  // when it reaches the collective and the verdict arrives.
  if (ledger_error) std::rethrow_exception(ledger_error);
  if (first_error) std::rethrow_exception(first_error);

  audit_teardown();
}

void Runtime::audit_teardown() const {
  // A correct SPMD program leaves no message in flight.
  if (checker() == nullptr) {
    for (int r = 0; r < nprocs_; ++r) {
      HPFCG_REQUIRE(mailboxes_[static_cast<std::size_t>(r)]->pending() == 0,
                    "unreceived messages left in mailbox of rank " +
                        std::to_string(r));
    }
    return;
  }

  // Checking: enumerate every leftover (sender, tag, size) and any recorded
  // non-throwing violations, so the diagnostic names the offending ranks.
  std::ostringstream os;
  bool failed = false;
  for (int r = 0; r < nprocs_; ++r) {
    const auto left = mailboxes_[static_cast<std::size_t>(r)]->pending_info();
    if (left.empty()) continue;
    failed = true;
    os << "  rank " << r << " mailbox holds " << left.size()
       << " unreceived message(s):";
    for (const auto& m : left) {
      os << " [from rank " << m.src << ", tag " << m.tag << ", " << m.bytes
         << " bytes]";
    }
    os << '\n';
  }
  for (const auto& v : checker()->violations()) {
    failed = true;
    os << "  violation: " << v << '\n';
  }
  if (failed) {
    throw util::Error("hpfcg::check: teardown audit failed:\n" + os.str());
  }
}

const Stats& Runtime::stats(int rank) const {
  HPFCG_REQUIRE(rank >= 0 && rank < nprocs_, "stats: rank out of range");
  HPFCG_REQUIRE(!running_.load(std::memory_order_acquire),
                "stats: cross-rank aggregation during run() — Stats is "
                "per-rank by design; synchronize (join/barrier) first");
  return stats_[static_cast<std::size_t>(rank)];
}

Stats Runtime::total_stats() const {
  HPFCG_REQUIRE(!running_.load(std::memory_order_acquire),
                "total_stats: aggregation during run() — Stats is per-rank "
                "by design; synchronize (join/barrier) first");
  Stats total;
  for (const auto& s : stats_) total += s;
  return total;
}

double Runtime::modeled_makespan() const {
  HPFCG_REQUIRE(!running_.load(std::memory_order_acquire),
                "modeled_makespan: aggregation during run() — synchronize "
                "(join/barrier) first");
  double m = 0.0;
  for (const auto& s : stats_) m = std::max(m, s.modeled_seconds());
  return m;
}

void Runtime::reset_stats() {
  HPFCG_REQUIRE(!running_.load(std::memory_order_acquire),
                "reset_stats: cannot reset while a run is in flight");
  for (auto& s : stats_) s.reset();
}

Mailbox& Runtime::mailbox(int rank) {
  HPFCG_REQUIRE(rank >= 0 && rank < nprocs_, "mailbox: rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

Stats& Runtime::stats_mutable(int rank) {
  return stats_[static_cast<std::size_t>(rank)];
}

void Runtime::barrier_wait() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  if (aborted_) throw util::Error("msg runtime aborted at barrier");
  const unsigned long my_generation = barrier_generation_;
  if (++barrier_count_ == nprocs_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    lock.unlock();
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] {
    return aborted_ || barrier_generation_ != my_generation;
  });
  if (barrier_generation_ == my_generation) {
    throw util::Error("msg runtime aborted at barrier");
  }
}

void Runtime::abort_all() {
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    aborted_ = true;
  }
  barrier_cv_.notify_all();
  for (auto& mb : mailboxes_) mb->abort();
}

std::unique_ptr<Runtime> spmd_run(int nprocs,
                                  const std::function<void(Process&)>& body,
                                  CostParams params, Topology topo) {
  auto rt = std::make_unique<Runtime>(nprocs, params, topo);
  rt->run(body);
  return rt;
}

}  // namespace hpfcg::msg
