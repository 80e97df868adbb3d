// Registration (pin-down) cache, paper section 5.
//
// "To reduce the number of registrations and deregistrations, we have
// implemented a registration cache.  The basic idea is to delay the
// deregistration of user buffers and put them into a cache.  If the same
// buffer is reused later, its registration information can be fetched
// directly from the cache instead of going through the expensive
// registration process.  Deregistration happens only when there are too
// many registered user buffers."
//
// acquire() pins an entry (it cannot be evicted while a transfer is using
// it); release() unpins but keeps it cached.  Eviction is LRU over
// unpinned entries once the cached byte total exceeds the capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "ib/mr.hpp"
#include "sim/task.hpp"

namespace rdmach {

/// Cached-byte capacity of every channel's and window's registration cache.
inline constexpr std::size_t kRegCacheCapacity = 64u << 20;

class RegCache {
 public:
  /// `enabled=false` degrades to register-on-acquire / deregister-on-release
  /// (the ablation baseline).
  RegCache(ib::ProtectionDomain& pd, std::size_t capacity_bytes, bool enabled)
      : pd_(&pd), capacity_(capacity_bytes), enabled_(enabled) {}

  /// Returns a registration covering [addr, addr+len), reusing a cached
  /// one when possible.  The entry is pinned until release().  If the HCA
  /// refuses the registration (pin-down limit), unpinned entries are
  /// evicted one at a time and the registration retried; the
  /// ib::RegistrationError propagates only when nothing is evictable.
  sim::Task<ib::MemoryRegion*> acquire(const void* addr, std::size_t len);

  /// Unpins; with the cache enabled the registration is retained for
  /// reuse, otherwise it is deregistered immediately.
  sim::Task<void> release(ib::MemoryRegion* mr);

  /// Force-removes a registration regardless of pin count and deregisters
  /// it (QP-error recovery: translation state involved in a torn-down
  /// transfer is not trusted across the teardown).  The caller must
  /// re-acquire before reuse.
  sim::Task<void> invalidate(ib::MemoryRegion* mr);

  /// Deregisters every unpinned entry (finalize).
  sim::Task<void> flush();

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t cached_bytes() const noexcept { return bytes_; }
  std::size_t entry_count() const noexcept { return entries_.size(); }
  bool enabled() const noexcept { return enabled_; }

 private:
  struct Entry {
    ib::MemoryRegion* mr = nullptr;
    int pins = 0;
    std::uint64_t last_use = 0;
  };

  sim::Task<void> evict_to_capacity();
  /// Evicts the LRU unpinned entry; false when everything is pinned.
  sim::Task<bool> evict_one();

  ib::ProtectionDomain* pd_;
  std::size_t capacity_;
  bool enabled_;
  std::map<const std::byte*, Entry> entries_;  // keyed by region start
  /// High-water mark of any cached region's length; bounds how far below a
  /// lookup address an enclosing entry's start can lie.
  std::size_t max_entry_len_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rdmach
