#include "hpfcg/msg/mailbox.hpp"

#include <algorithm>

#include "hpfcg/race/detector.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::msg {

// ---- Envelope -----------------------------------------------------------

void Envelope::resize_payload(std::size_t bytes) {
  size_ = bytes;
  if (bytes <= kInlineCapacity) {
    stored_inline_ = true;
    path_ = EnvelopePath::kInline;
    return;
  }
  stored_inline_ = false;
  path_ = EnvelopePath::kHeap;
  if (heap_.size() < bytes) heap_.resize(bytes);
}

void Envelope::adopt_heap(std::vector<std::byte>&& buf, std::size_t bytes) {
  heap_ = std::move(buf);
  if (heap_.size() < bytes) heap_.resize(bytes);
  size_ = bytes;
  stored_inline_ = false;
  path_ = EnvelopePath::kPooled;
}

std::vector<std::byte> Envelope::release_heap() {
  size_ = 0;
  stored_inline_ = true;
  path_ = EnvelopePath::kInline;
  return std::move(heap_);
}

// ---- Mailbox ------------------------------------------------------------

Mailbox::Mailbox(int nprocs)
    : shards_(static_cast<std::size_t>(nprocs > 0 ? nprocs : 1)) {}

Envelope Mailbox::make_envelope(int src, int tag, std::size_t bytes) {
  Envelope env;
  env.src = src;
  env.tag = tag;
  if (bytes <= Envelope::kInlineCapacity) {
    env.resize_payload(bytes);  // inline: no pool, no heap
    return env;
  }
  std::vector<std::byte> buf;
  {
    // Lock only for the swap; a possible resize of the drawn buffer (and
    // the fresh allocation on the exhausted path below) happens unlocked.
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      buf = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  if (buf.capacity() != 0) {  // drawn: recycle() parks no empty buffer
    env.adopt_heap(std::move(buf), bytes);
    return env;
  }
  // Pool exhausted: fall back to a fresh tracked heap buffer.  Bounded by
  // construction — it is owned by this one envelope and recycle() frees it
  // rather than growing the pool past its cap.
  env.resize_payload(bytes);
  return env;
}

void Mailbox::deposit(Envelope env) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto shard = static_cast<std::size_t>(env.src);
    HPFCG_REQUIRE(shard < shards_.size(), "deposit: bad source rank");
    env.seq = next_seq_++;
    shards_[shard].push_back(std::move(env));
  }
  cv_.notify_all();
}

bool Mailbox::match_locked(int src, int tag, Envelope& out) {
  if (src != kAnySource) {
    const auto shard = static_cast<std::size_t>(src);
    HPFCG_REQUIRE(shard < shards_.size(), "receive: bad source rank");
    auto& q = shards_[shard];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->tag == tag) {  // first match = oldest from src (FIFO per src,tag)
        out = std::move(*it);
        q.erase(it);
        return true;
      }
    }
    return false;
  }
  // Any-source: each shard is in deposit order, so its first tag match is
  // that source's oldest candidate; the lowest arrival stamp among those is
  // the globally oldest match — exactly the single-queue FIFO semantics,
  // without walking past already-inspected non-matching traffic of every
  // other source.
  std::deque<Envelope>* best_q = nullptr;
  std::deque<Envelope>::iterator best_it;
  if (race_ != nullptr) {
    // Detector attached: hand it the full candidate set (one head per
    // source shard) so it can flag concurrent pairs and, under replay,
    // perturb the choice.  Per-(src,tag) FIFO is preserved by construction
    // because only shard heads are eligible.  Without replay the detector
    // picks the lowest arrival stamp — bit-identical to the plain path.
    std::vector<std::deque<Envelope>::iterator> heads;
    std::vector<race::Detector::Candidate> cands;
    for (auto& q : shards_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->tag != tag) continue;
        heads.push_back(it);
        cands.push_back(race::Detector::Candidate{it->src, it->seq,
                                                  &it->race_stamp});
        break;  // later entries in this shard are newer
      }
    }
    if (heads.empty()) return false;
    const std::size_t pick = race_->choose_wildcard(race_owner_, tag, cands);
    best_it = heads[pick];
    best_q = &shards_[static_cast<std::size_t>(best_it->src)];
  } else {
    for (auto& q : shards_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->tag != tag) continue;
        if (best_q == nullptr || it->seq < best_it->seq) {
          best_q = &q;
          best_it = it;
        }
        break;  // later entries in this shard are newer
      }
    }
    if (best_q == nullptr) return false;
  }
  out = std::move(*best_it);
  best_q->erase(best_it);
  return true;
}

Envelope Mailbox::receive(int src, int tag) {
  std::unique_lock<std::mutex> lock(mu_);
  Envelope out;
  bool matched = false;
  cv_.wait(lock, [&] {
    matched = match_locked(src, tag, out);
    return matched || aborted_;
  });
  if (!matched) {
    throw util::Error("msg runtime aborted while receiving");
  }
  return out;
}

void Mailbox::recycle(Envelope&& env) {
  if (env.stored_inline()) return;
  std::vector<std::byte> buf = env.release_heap();
  if (buf.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < kMaxPooledBuffers) pool_.push_back(std::move(buf));
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& q : shards_) n += q.size();
  return n;
}

std::size_t Mailbox::pooled_buffers() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_.size();
}

std::vector<Mailbox::PendingInfo> Mailbox::pending_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Report in deposit order (by arrival stamp) so diagnostics stay stable
  // across the sharded layout.
  std::vector<const Envelope*> left;
  for (const auto& q : shards_) {
    for (const auto& env : q) left.push_back(&env);
  }
  std::sort(left.begin(), left.end(),
            [](const Envelope* a, const Envelope* b) { return a->seq < b->seq; });
  std::vector<PendingInfo> out;
  out.reserve(left.size());
  for (const Envelope* env : left) {
    out.push_back(PendingInfo{env->src, env->tag, env->size()});
  }
  return out;
}

void Mailbox::set_race(race::Detector* det, int owner) {
  std::lock_guard<std::mutex> lock(mu_);
  race_ = det;
  race_owner_ = owner;
}

std::vector<race::StampedMessage> Mailbox::pending_user_stamps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Envelope*> left;
  for (const auto& q : shards_) {
    for (const auto& env : q) {
      if ((env.tag & kCollectiveTagBit) == 0) left.push_back(&env);
    }
  }
  std::sort(left.begin(), left.end(),
            [](const Envelope* a, const Envelope* b) { return a->seq < b->seq; });
  std::vector<race::StampedMessage> out;
  out.reserve(left.size());
  for (const Envelope* env : left) {
    out.push_back(race::StampedMessage{env->src, env->tag, env->race_stamp});
  }
  return out;
}

void Mailbox::abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

}  // namespace hpfcg::msg
