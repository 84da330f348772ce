#pragma once
// Collective-conformance ledger.
//
// SPMD discipline requires every rank to issue the same collectives in the
// same program order with compatible shapes.  Each rank entering a
// collective posts a fingerprint — (kind, root, element size, element
// count) at its per-rank sequence number — to this shared ledger, outside
// the simulated network (no messages, no Stats perturbation).  Rank 0's
// stream is authoritative: posts arriving before rank 0's are parked and
// validated when it lands, so any mismatching post raises a diagnostic
// deterministically naming the divergent rank (whoever disagrees with
// rank 0) instead of letting the mismatched trees deadlock.
//
// Counts that legitimately differ across ranks (e.g. a rank's local block
// in allgatherv) are fingerprinted by a rank-invariant quantity (the global
// total); counts no rank can know globally (header-carrying broadcast) use
// kUnknownCount and are not compared.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hpfcg/util/error.hpp"

namespace hpfcg::check {

/// What the ledger throws on divergence, so the runtime can report it
/// ahead of the symptoms it provokes on other ranks.
class ConformanceError : public util::Error {
 public:
  using util::Error::Error;
};

enum class CollectiveKind : std::uint8_t {
  kBarrier,
  kBroadcast,
  kAllreduceVec,
  /// Fused multi-value all-reduce (and the scalar one, a width-1 batch):
  /// `count` is the batch width, so a rank diverging on how many scalars
  /// it fused is named by the ledger.
  kAllreduceBatch,
  kAllgatherv,
  kAlltoallv,
  /// Cached exchange-plan replay (sparse::HaloPlan, the ext schedules):
  /// `count` carries a replicated fingerprint of the plan, so a rank
  /// executing a stale or divergent plan is named by the ledger.
  kHaloExchange,
  kSequential,
  /// Reproducible-mode sum reduction (hpfcg::repro): the exact
  /// superaccumulator all-reduce that replaces the float merge tree.
  /// `count` is the batch width, like kAllreduceBatch, so a rank that
  /// disagrees on whether the mode is on — or on how many values it merged
  /// — is named by the ledger instead of deadlocking on mismatched trees.
  kReproReduce,
  /// Not a communication op: asserts a structure every rank builds locally
  /// (e.g. a replicated matrix) is identical machine-wide.  `count` carries
  /// a content fingerprint instead of an element count.
  kReplicatedBuild,
};

[[nodiscard]] const char* to_string(CollectiveKind k);

/// Sentinel for shapes not globally known (compared as "don't care").
inline constexpr std::size_t kUnknownCount = static_cast<std::size_t>(-1);
/// Root value for rootless collectives.
inline constexpr int kNoRoot = -1;

/// What one rank claims it is entering.
struct CollectiveRecord {
  CollectiveKind kind = CollectiveKind::kBarrier;
  int root = kNoRoot;
  std::size_t elem_size = 0;  ///< sizeof(T); 0 for barrier/sequential
  std::size_t count = kUnknownCount;

  [[nodiscard]] bool conforms(const CollectiveRecord& o) const {
    return kind == o.kind && root == o.root && elem_size == o.elem_size &&
           (count == kUnknownCount || o.count == kUnknownCount ||
            count == o.count);
  }

  [[nodiscard]] std::string describe() const;
};

/// Shared, mutex-protected conformance state for one machine.  Rank 0's
/// stream is authoritative: posts arriving before rank 0's are parked and
/// validated when it lands, so the rank named divergent is deterministic
/// (whoever disagrees with rank 0) regardless of thread arrival order.
/// Throws util::Error on divergence, naming the divergent rank.
class CollectiveLedger {
 public:
  explicit CollectiveLedger(int nprocs) : nprocs_(nprocs) {}

  /// Rank `rank` enters its `seq`-th conformance-relevant operation.
  void post(int rank, std::uint64_t seq, const CollectiveRecord& rec);

 private:
  struct Entry {
    bool have_ref = false;  ///< rank 0 has posted
    CollectiveRecord ref;   ///< rank 0's record
    std::vector<std::pair<int, CollectiveRecord>> parked;  ///< pre-rank-0
    int posts = 0;  ///< ranks seen; entry retires at nprocs
  };

  int nprocs_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> live_;
};

}  // namespace hpfcg::check
