#pragma once
// Per-process incoming message queue.
//
// The "network" of the simulated machine: a send deposits a message into the
// destination's mailbox (buffered, non-blocking, like an eager-protocol MPI
// send); a receive blocks until a matching (source, tag) message arrives.
//
// Matching guarantees (mirroring MPI's non-overtaking rule):
//   * FIFO per (src, tag): two messages from the same source with the same
//     tag are received in the order they were deposited.
//   * Any-source receives match the globally oldest deposited message with
//     the requested tag, regardless of source — so a flood from one rank
//     cannot starve another (arrival-order fairness).
// Both hold for zero-length payloads, which are ordinary messages here.
//
// Fast-path machinery (the start-up latency of the *simulation* itself):
//   * Queues are sharded per source rank, so a directed receive scans only
//     its source's queue and an any-source scan touches the head region of
//     each shard instead of walking one global O(queue) deque.
//   * Payloads of at most kInlineCapacity bytes (any scalar, and every
//     batched-collective header the CG solvers emit) live in a fixed buffer
//     inside the Envelope — they never touch the heap.
//   * Larger payload buffers are recycled through a per-mailbox freelist
//     (make_envelope / recycle), so a steady-state solver loop allocates
//     nothing after warm-up.

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "hpfcg/race/clock.hpp"

namespace hpfcg::race {
class Detector;
}

namespace hpfcg::msg {

/// Wildcard source for receive matching (MPI_ANY_SOURCE analogue).
inline constexpr int kAnySource = -1;

/// Tag-space bit reserved for collective traffic (set by Process::coll_tag).
/// User point-to-point tags must stay below it; the race detector's fence
/// check uses it to skip a collective's own internal messages.
inline constexpr int kCollectiveTagBit = 0x40000000;

/// How an Envelope's payload ended up stored.  Mirrors (and numerically
/// matches) trace::EnvelopePath so spans can carry it as their aux byte.
enum class EnvelopePath : std::uint8_t {
  kInline = 0,  ///< payload fit the in-envelope buffer
  kPooled = 1,  ///< heap buffer drawn from the mailbox freelist
  kHeap = 2,    ///< fresh heap buffer (pool empty) — tracked in Stats
};

/// One in-flight message.  Small payloads are stored inline; larger ones
/// in a heap buffer that the owning Mailbox recycles through its freelist.
class Envelope {
 public:
  /// Largest payload stored without heap allocation.  64 bytes covers every
  /// scalar, any ValueLoc pair, and a fused batch of up to 8 doubles — the
  /// whole per-iteration scalar traffic of the communication-avoiding CG
  /// variants.
  static constexpr std::size_t kInlineCapacity = 64;

  int src = 0;
  int tag = 0;

  /// Piggybacked vector-clock stamp (hpfcg::race).  Rides the envelope
  /// struct, not the payload: zero-length messages carry clocks for free
  /// and no Stats byte counter ever sees it.  Empty unless race detection
  /// was on at send time.
  race::Stamp race_stamp;

  Envelope() = default;

  /// Set the payload size, choosing inline or heap storage.  Existing
  /// bytes are not preserved (envelopes are filled immediately after).
  void resize_payload(std::size_t bytes);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::byte* data() {
    return stored_inline_ ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const std::byte* data() const {
    return stored_inline_ ? inline_.data() : heap_.data();
  }
  [[nodiscard]] bool stored_inline() const { return stored_inline_; }

  /// Storage path this envelope's payload took (for Stats and trace spans).
  [[nodiscard]] EnvelopePath path() const { return path_; }

  // ---- freelist plumbing (used by Mailbox) ------------------------------
  /// Adopt a recycled heap buffer for a `bytes`-long payload.
  void adopt_heap(std::vector<std::byte>&& buf, std::size_t bytes);
  /// Surrender the heap buffer (empty vector if the payload was inline).
  [[nodiscard]] std::vector<std::byte> release_heap();

 private:
  friend class Mailbox;

  std::size_t size_ = 0;
  bool stored_inline_ = true;
  EnvelopePath path_ = EnvelopePath::kInline;
  std::uint64_t seq = 0;  ///< mailbox arrival stamp (any-source fairness)
  std::array<std::byte, kInlineCapacity> inline_;
  std::vector<std::byte> heap_;
};

/// Thread-safe mailbox with (src, tag) matching and abort support.
///
/// Abort exists so that an exception on one simulated processor does not
/// deadlock the others: the runtime poisons every mailbox and any blocked
/// receive throws.
class Mailbox {
 public:
  /// One queue shard per possible source rank.
  explicit Mailbox(int nprocs);

  /// Build an envelope addressed to this mailbox, drawing any heap payload
  /// buffer from the freelist (called by the sending thread).
  Envelope make_envelope(int src, int tag, std::size_t bytes);

  /// Deposit a message (called by the sending thread).
  void deposit(Envelope env);

  /// Block until a message matching (src-or-any, tag) is available and
  /// return it.  Throws util::Error if the runtime aborted.
  Envelope receive(int src, int tag);

  /// Return a consumed envelope's payload buffer to the freelist (called
  /// by the receiving thread after copying the payload out).
  void recycle(Envelope&& env);

  /// Number of queued messages (for tests / diagnostics).
  std::size_t pending() const;

  /// Heap buffers currently parked in the freelist (for tests).
  std::size_t pooled_buffers() const;

  /// Bound on the freelist.  Recycled buffers beyond it are freed; a sender
  /// finding the pool empty falls back to a fresh tracked heap buffer
  /// (Stats::envelopes_heap), which never blocks and never grows the pool.
  static constexpr std::size_t kMaxPooledBuffers = 64;

  /// Summary of every queued message, for the hpfcg::check teardown audit.
  struct PendingInfo {
    int src = 0;
    int tag = 0;
    std::size_t bytes = 0;
  };
  std::vector<PendingInfo> pending_info() const;

  /// Poison the mailbox: wake all waiters, make every receive throw.
  void abort();

  /// Attach the machine's race detector (null detaches).  `owner` is the
  /// rank this mailbox belongs to — the receiver whose any-source matches
  /// the detector arbitrates.  Set once at Runtime construction, before
  /// any worker thread runs.
  void set_race(race::Detector* det, int owner);

  /// Stamps of every queued non-collective message, in arrival order — the
  /// input to the detector's fence-order check.  Called by the owning
  /// rank's thread at fence entry.
  [[nodiscard]] std::vector<race::StampedMessage> pending_user_stamps() const;

 private:
  bool match_locked(int src, int tag, Envelope& out);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Shard per source rank, each in deposit order — a directed receive
  /// scans one shard; any-source picks the lowest arrival stamp across
  /// shard-local first matches.
  std::vector<std::deque<Envelope>> shards_;
  std::uint64_t next_seq_ = 0;
  bool aborted_ = false;

  /// Race detector (null when detection and replay are both off).  Guarded
  /// by mu_ only in the sense that it is written before threads start;
  /// match_locked consults it under mu_ (lock order: mailbox -> ledger).
  race::Detector* race_ = nullptr;
  int race_owner_ = 0;

  /// Freelist of heap payload buffers.  Its own mutex: senders draw from it
  /// while the receiver recycles, and neither should contend with matching.
  /// The lock is only ever held for a pointer swap — allocation (adopting or
  /// resizing a buffer) happens outside it, so an exhausted pool can never
  /// stall another sender behind someone else's malloc.
  mutable std::mutex pool_mu_;
  std::vector<std::vector<std::byte>> pool_;
};

}  // namespace hpfcg::msg
