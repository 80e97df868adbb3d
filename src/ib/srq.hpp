// SRQ-style shared receive pool.
//
// The paper's CH3 designs give every rank pair a dedicated eager receive
// ring, so a rank's receive memory grows O(ranks).  Real MPI-over-IB stacks
// moved to shared receive queues (SRQ) to break exactly that: receive
// buffers are pooled per rank and leased to whichever peers are actively
// talking.  We model the memory/credit side of SRQ at ring granularity: a
// SharedRecvPool owns `rings * ring_bytes` of receive memory, registered
// once (one rkey covers every lease), and hands out ring-sized leases to
// connections as they are wired.  Exhaustion is a backpressure condition --
// the requester stays cold and retries, surfacing through the channel's
// credit_stalls counter -- never a deadlock.
//
// Reconnect churn re-leases rings constantly, so zeroing is paid only where
// the previous tenant wrote: release() records that dirty extent, acquire()
// clears just it, and the pool itself is zero pages (ib::ZeroPages) that
// never become resident until traffic lands in them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "ib/zero_pages.hpp"

namespace ib {

class SharedRecvPool {
 public:
  /// An unleased pool (rings == 0) is valid and always exhausted; channels
  /// use that as the "dedicated rings" degenerate mode.
  SharedRecvPool() = default;

  void reset(std::size_t rings, std::size_t ring_bytes) {
    rings_ = rings;
    ring_bytes_ = ring_bytes;
    storage_ = ZeroPages(rings * ring_bytes);
    dirty_.assign(rings, 0);
    free_.clear();
    free_.reserve(rings);
    // LIFO free list: the most recently released (cache-warm) lease is
    // reused first.  Indices pushed in reverse so lease 0 goes out first.
    for (std::size_t i = rings; i > 0; --i) free_.push_back(i - 1);
    leased_ = 0;
    high_water_ = 0;
  }

  bool configured() const noexcept { return rings_ > 0; }

  /// Leases one ring; returns its base pointer, or nullptr when the pool is
  /// exhausted (caller backpressures).  The lease reads all zero -- a fresh
  /// lease must not replay a previous tenant's polling flags.
  std::byte* acquire() {
    if (free_.empty()) return nullptr;
    const std::size_t idx = free_.back();
    free_.pop_back();
    std::byte* base = storage_.data() + idx * ring_bytes_;
    std::memset(base, 0, dirty_[idx]);
    dirty_[idx] = 0;
    ++leased_;
    if (leased_ > high_water_) high_water_ = leased_;
    return base;
  }

  /// Returns a lease.  `dirty` bounds the prefix its tenant may have
  /// written (clamped to the ring); only that prefix is zeroed on re-lease.
  void release(std::byte* base, std::size_t dirty) {
    const std::size_t off = static_cast<std::size_t>(base - storage_.data());
    if (base == nullptr || off % ring_bytes_ != 0 ||
        off / ring_bytes_ >= rings_) {
      throw std::logic_error("SharedRecvPool: release of a foreign pointer");
    }
    dirty_[off / ring_bytes_] = std::min(dirty, ring_bytes_);
    free_.push_back(off / ring_bytes_);
    --leased_;
  }

  std::byte* base() noexcept { return storage_.data(); }
  std::size_t free_rings() const noexcept { return free_.size(); }
  std::size_t bytes() const noexcept { return storage_.size(); }
  std::size_t leased() const noexcept { return leased_; }
  std::size_t high_water() const noexcept { return high_water_; }

 private:
  std::size_t rings_ = 0;
  std::size_t ring_bytes_ = 0;
  ZeroPages storage_;
  /// Per ring: bytes from its base its last tenant may have written.
  std::vector<std::size_t> dirty_;
  std::vector<std::size_t> free_;
  std::size_t leased_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace ib
