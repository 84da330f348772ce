#include "hpfcg/check/collective_ledger.hpp"

#include <sstream>

#include "hpfcg/util/error.hpp"

namespace hpfcg::check {

const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kBarrier: return "barrier";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kAllreduceVec: return "allreduce_vec";
    case CollectiveKind::kAllreduceBatch: return "allreduce_batch";
    case CollectiveKind::kAllgatherv: return "allgatherv";
    case CollectiveKind::kAlltoallv: return "alltoallv";
    case CollectiveKind::kHaloExchange: return "halo_exchange";
    case CollectiveKind::kSequential: return "sequential";
    case CollectiveKind::kReproReduce: return "repro_reduce";
    case CollectiveKind::kReplicatedBuild: return "replicated_build";
  }
  return "?";
}

std::string CollectiveRecord::describe() const {
  std::ostringstream os;
  if (kind == CollectiveKind::kReplicatedBuild) {
    os << "replicated_build(fingerprint=0x" << std::hex << count << ')';
    return os.str();
  }
  os << to_string(kind) << '(';
  bool sep = false;
  if (root != kNoRoot) {
    os << "root=" << root;
    sep = true;
  }
  if (elem_size != 0) {
    os << (sep ? ", " : "") << "elem=" << elem_size << 'B';
    sep = true;
  }
  if (count != kUnknownCount) {
    os << (sep ? ", " : "") << "count=" << count;
  }
  os << ')';
  return os.str();
}

namespace {

[[noreturn]] void fail_divergent(std::uint64_t seq, int divergent,
                                 const CollectiveRecord& div_rec,
                                 const CollectiveRecord& ref_rec) {
  std::ostringstream os;
  os << "hpfcg::check: collective conformance violation at collective #" << seq
     << ": rank " << divergent << " entered " << div_rec.describe()
     << " but rank 0 entered " << ref_rec.describe();
  throw ConformanceError(os.str());
}

}  // namespace

void CollectiveLedger::post(int rank, std::uint64_t seq,
                            const CollectiveRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.try_emplace(seq).first;
  Entry& e = it->second;
  ++e.posts;
  if (rank == 0) {
    e.have_ref = true;
    e.ref = rec;
    for (const auto& [parked_rank, parked_rec] : e.parked) {
      if (!parked_rec.conforms(rec)) {
        fail_divergent(seq, parked_rank, parked_rec, rec);
      }
    }
    e.parked.clear();
  } else if (e.have_ref) {
    if (!rec.conforms(e.ref)) fail_divergent(seq, rank, rec, e.ref);
  } else {
    e.parked.emplace_back(rank, rec);
  }
  if (e.posts == nprocs_) live_.erase(it);  // fully conformed: retire
}

}  // namespace hpfcg::check
