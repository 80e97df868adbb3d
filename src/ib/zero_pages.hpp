// Zero-filled, page-backed communication memory.
//
// Rings, staging buffers and shared receive pools are large (128 KiB per
// ring, ring_bytes * rings per pool) but mostly idle: a lazily wired
// connection often moves a few slots and is evicted again.  Backing them
// with an anonymous private mapping makes "zero-filled" free -- the kernel
// hands out shared zero pages, and a page only becomes resident when
// traffic writes it -- where a zero-filled heap vector touches every byte
// up front.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <utility>

namespace ib {

class ZeroPages {
 public:
  ZeroPages() = default;
  explicit ZeroPages(std::size_t n) : size_(n) {
    if (n == 0) return;
    void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::byte*>(p);
  }
  ~ZeroPages() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }
  ZeroPages(ZeroPages&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroPages& operator=(ZeroPages o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }

  std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ib
