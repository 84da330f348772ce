#include "hpfcg/hpf/distribution.hpp"

#include <algorithm>
#include <limits>

#include "hpfcg/util/error.hpp"

namespace hpfcg::hpf {

namespace {
/// a*b clamped to SIZE_MAX instead of wrapping.  Block boundaries like
/// r*k feed std::min(n_, ...) — a wrapped product silently lands back
/// inside [0, n) and produces owner/local_count answers that disagree.
std::size_t mul_sat(std::size_t a, std::size_t b) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    return std::numeric_limits<std::size_t>::max();
  }
  return a * b;
}
}  // namespace

Distribution::Distribution(Kind kind, std::size_t n, int np, std::size_t k)
    : kind_(kind), n_(n), np_(np), k_(k) {
  HPFCG_REQUIRE(np >= 1, "distribution needs at least one processor");
}

Distribution Distribution::block(std::size_t n, int np) {
  HPFCG_REQUIRE(np >= 1, "distribution needs at least one processor");
  // HPF BLOCK is BLOCK(ceil(n/np)).
  const std::size_t k =
      n == 0 ? 1 : (n + static_cast<std::size_t>(np) - 1) /
                       static_cast<std::size_t>(np);
  Distribution d(Kind::kBlock, n, np, k);
  d.build_counts();
  return d;
}

Distribution Distribution::block_size(std::size_t n, int np, std::size_t k) {
  HPFCG_REQUIRE(np >= 1, "distribution needs at least one processor");
  HPFCG_REQUIRE(k >= 1, "BLOCK(k) needs k >= 1, got k=" + std::to_string(k) +
                            " over n=" + std::to_string(n));
  // Coverage check in ceil-division form: the literal k*np >= n wraps for
  // large k (k*np mod 2^64 can fall below n), spuriously rejecting layouts
  // that do cover the array.
  const std::size_t min_k = n == 0 ? 1
                                   : (n + static_cast<std::size_t>(np) - 1) /
                                         static_cast<std::size_t>(np);
  HPFCG_REQUIRE(k >= min_k,
                "BLOCK(k): k*NP must cover the array (one block per rank): "
                "k=" + std::to_string(k) + ", NP=" + std::to_string(np) +
                    ", n=" + std::to_string(n));
  Distribution d(Kind::kBlockK, n, np, k);
  d.build_counts();
  return d;
}

Distribution Distribution::cyclic(std::size_t n, int np) {
  Distribution d(Kind::kCyclic, n, np, 1);
  d.build_counts();
  return d;
}

Distribution Distribution::cyclic_size(std::size_t n, int np, std::size_t k) {
  HPFCG_REQUIRE(np >= 1, "distribution needs at least one processor");
  HPFCG_REQUIRE(k >= 1, "CYCLIC(k) needs k >= 1, got k=" + std::to_string(k) +
                            " over n=" + std::to_string(n));
  // The cycle length k*NP must be representable: a wrapped cycle makes
  // build_counts credit whole phantom cycles to ranks that owner() never
  // names (counts() and owner() disagree).
  HPFCG_REQUIRE(k <= std::numeric_limits<std::size_t>::max() /
                         static_cast<std::size_t>(np),
                "CYCLIC(k): k*NP overflows: k=" + std::to_string(k) +
                    ", NP=" + std::to_string(np));
  Distribution d(Kind::kCyclicK, n, np, k);
  d.build_counts();
  return d;
}

Distribution Distribution::from_cuts(std::size_t n,
                                     std::vector<std::size_t> cuts) {
  HPFCG_REQUIRE(cuts.size() >= 2, "from_cuts: need np+1 cut points");
  HPFCG_REQUIRE(cuts.front() == 0 && cuts.back() == n,
                "from_cuts: cuts must start at 0 and end at n");
  HPFCG_REQUIRE(std::is_sorted(cuts.begin(), cuts.end()),
                "from_cuts: cut points must be nondecreasing");
  const int np = static_cast<int>(cuts.size()) - 1;
  Distribution d(Kind::kCuts, n, np, 0);
  d.cuts_ = std::move(cuts);
  d.build_counts();
  return d;
}

Distribution Distribution::indirect(int np, std::vector<int> owner) {
  Distribution d(Kind::kIndirect, owner.size(), np, 0);
  d.owner_map_ = std::move(owner);
  d.local_map_.resize(d.n_);
  d.rank_globals_.resize(static_cast<std::size_t>(np));
  for (std::size_t i = 0; i < d.n_; ++i) {
    const int r = d.owner_map_[i];
    HPFCG_REQUIRE(r >= 0 && r < np, "indirect: owner out of range");
    auto& mine = d.rank_globals_[static_cast<std::size_t>(r)];
    d.local_map_[i] = mine.size();
    mine.push_back(i);
  }
  d.build_counts();
  return d;
}

void Distribution::build_counts() {
  counts_.assign(static_cast<std::size_t>(np_), 0);
  rank_ordered_ = true;  // BLOCK, BLOCK(k) and CUTS; the others below
  switch (kind_) {
    case Kind::kBlock:
    case Kind::kBlockK:
      for (int r = 0; r < np_; ++r) {
        const std::size_t lo =
            std::min(n_, mul_sat(static_cast<std::size_t>(r), k_));
        const std::size_t hi =
            std::min(n_, mul_sat(static_cast<std::size_t>(r) + 1, k_));
        counts_[static_cast<std::size_t>(r)] = hi - lo;
      }
      break;
    case Kind::kCyclic:
    case Kind::kCyclicK: {
      // Count whole cycles analytically, then the tail exactly.
      const std::size_t cycle = k_ * static_cast<std::size_t>(np_);
      const std::size_t full = n_ / cycle;
      for (auto& c : counts_) c = full * k_;
      for (std::size_t i = full * cycle; i < n_; ++i) {
        ++counts_[static_cast<std::size_t>(owner(i))];
      }
      // One rank, or at most one block per rank: then this is BLOCK(k).
      rank_ordered_ = np_ == 1 || n_ <= cycle;
      break;
    }
    case Kind::kCuts:
      for (int r = 0; r < np_; ++r) {
        counts_[static_cast<std::size_t>(r)] =
            cuts_[static_cast<std::size_t>(r) + 1] -
            cuts_[static_cast<std::size_t>(r)];
      }
      break;
    case Kind::kIndirect:
      for (int r = 0; r < np_; ++r) {
        counts_[static_cast<std::size_t>(r)] =
            rank_globals_[static_cast<std::size_t>(r)].size();
      }
      rank_ordered_ = std::is_sorted(owner_map_.begin(), owner_map_.end());
      break;
  }
}

int Distribution::owner(std::size_t i) const {
  HPFCG_REQUIRE(i < n_, "owner: index out of range");
  switch (kind_) {
    case Kind::kBlock:
    case Kind::kBlockK:
      return static_cast<int>(i / k_);
    case Kind::kCyclic:
      return static_cast<int>(i % static_cast<std::size_t>(np_));
    case Kind::kCyclicK:
      return static_cast<int>((i / k_) % static_cast<std::size_t>(np_));
    case Kind::kCuts: {
      const auto it = std::upper_bound(cuts_.begin() + 1, cuts_.end(), i);
      return static_cast<int>(it - cuts_.begin()) - 1;
    }
    case Kind::kIndirect:
      return owner_map_[i];
  }
  return 0;
}

std::size_t Distribution::local_index(std::size_t i) const {
  HPFCG_REQUIRE(i < n_, "local_index: index out of range");
  switch (kind_) {
    case Kind::kBlock:
    case Kind::kBlockK:
      return i % k_;
    case Kind::kCyclic:
      return i / static_cast<std::size_t>(np_);
    case Kind::kCyclicK: {
      const std::size_t b = i / k_;                        // global block
      const std::size_t lb = b / static_cast<std::size_t>(np_);  // local block
      return lb * k_ + i % k_;
    }
    case Kind::kCuts:
      return i - cuts_[static_cast<std::size_t>(owner(i))];
    case Kind::kIndirect:
      return local_map_[i];
  }
  return 0;
}

std::size_t Distribution::local_count(int r) const {
  HPFCG_REQUIRE(r >= 0 && r < np_, "local_count: rank out of range");
  return counts_[static_cast<std::size_t>(r)];
}

std::size_t Distribution::global_index(int r, std::size_t li) const {
  HPFCG_REQUIRE(r >= 0 && r < np_, "global_index: rank out of range");
  HPFCG_REQUIRE(li < local_count(r), "global_index: local index out of range");
  const auto ur = static_cast<std::size_t>(r);
  switch (kind_) {
    case Kind::kBlock:
    case Kind::kBlockK:
      return ur * k_ + li;
    case Kind::kCyclic:
      return li * static_cast<std::size_t>(np_) + ur;
    case Kind::kCyclicK: {
      const std::size_t lb = li / k_;
      const std::size_t b = lb * static_cast<std::size_t>(np_) + ur;
      return b * k_ + li % k_;
    }
    case Kind::kCuts:
      return cuts_[ur] + li;
    case Kind::kIndirect:
      return rank_globals_[ur][li];
  }
  return 0;
}

bool Distribution::contiguous() const {
  return kind_ == Kind::kBlock || kind_ == Kind::kBlockK ||
         kind_ == Kind::kCuts || np_ == 1;
}

std::pair<std::size_t, std::size_t> Distribution::local_range(int r) const {
  HPFCG_REQUIRE(contiguous(), "local_range: distribution is not contiguous");
  HPFCG_REQUIRE(r >= 0 && r < np_, "local_range: rank out of range");
  const auto ur = static_cast<std::size_t>(r);
  if (kind_ == Kind::kCuts) return {cuts_[ur], cuts_[ur + 1]};
  if (np_ == 1) return {0, n_};
  const std::size_t lo = std::min(n_, mul_sat(ur, k_));
  const std::size_t hi = std::min(n_, mul_sat(ur + 1, k_));
  return {lo, hi};
}

const std::vector<std::size_t>& Distribution::cuts() const {
  HPFCG_REQUIRE(kind_ == Kind::kCuts,
                "cuts() only applies to cut-point distributions");
  return cuts_;
}

std::string Distribution::name() const {
  switch (kind_) {
    case Kind::kBlock:
      return "BLOCK";
    case Kind::kBlockK:
      return "BLOCK(" + std::to_string(k_) + ")";
    case Kind::kCyclic:
      return "CYCLIC";
    case Kind::kCyclicK:
      return "CYCLIC(" + std::to_string(k_) + ")";
    case Kind::kCuts:
      return "CUTS";
    case Kind::kIndirect:
      return "INDIRECT";
  }
  return "?";
}

// Every kind numbers a rank's elements in ascending global order, so two
// maps with the same owner for every index also agree on every local
// index.  The rules below decide "same owner everywhere" without visiting
// the n indices except where an arbitrary owner map leaves no shortcut:
//   * rank-ordered maps are fixed by their counts;
//   * a rank-ordered map owns contiguous runs and a truly cyclic map
//     (NP >= 2, n > k*NP) does not, so the two never agree;
//   * truly cyclic maps with block sizes k1 < k2 disagree at index k1
//     (owner 1 versus 0), so they agree iff k1 == k2.
// The per-sweep alignment checks (DistCsr, DistCsc, matvec_dense, the
// inspector executors, is_aligned) therefore cost O(NP).
bool Distribution::operator==(const Distribution& o) const {
  if (this == &o) return true;
  if (n_ != o.n_ || np_ != o.np_ || counts_ != o.counts_) return false;
  if (rank_ordered_ != o.rank_ordered_) return false;
  if (rank_ordered_) return true;
  if (kind_ != Kind::kIndirect && o.kind_ != Kind::kIndirect) {
    return k_ == o.k_;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (owner(i) != o.owner(i)) return false;
  }
  return true;
}

}  // namespace hpfcg::hpf
