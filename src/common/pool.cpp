#include "common/pool.hpp"

#include <cstring>
#include <new>

#include "common/fault.hpp"

namespace poe {

namespace {
constexpr std::size_t kAlign = 64;  // cache line

std::uint64_t* allocate_slab(std::size_t words) {
  return static_cast<std::uint64_t*>(
      ::operator new(words * sizeof(std::uint64_t), std::align_val_t{kAlign}));
}

void free_slab(std::uint64_t* p) noexcept {
  ::operator delete(p, std::align_val_t{kAlign});
}
}  // namespace

PolyBuffer& PolyBuffer::operator=(PolyBuffer&& o) noexcept {
  if (this != &o) {
    reset();
    pool_ = o.pool_;
    data_ = o.data_;
    words_ = o.words_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.words_ = 0;
  }
  return *this;
}

void PolyBuffer::reset() {
  if (data_ != nullptr) {
    pool_->release(data_, words_);
    pool_ = nullptr;
    data_ = nullptr;
    words_ = 0;
  }
}

BufferPool::~BufferPool() { trim(); }

PolyBuffer BufferPool::acquire(std::size_t words, bool zero) {
  if (FaultInjector* f = fault_.load(std::memory_order_acquire))
      [[unlikely]] {
    f->visit("pool.acquire");  // simulated allocation failure
  }
  std::uint64_t* slab = nullptr;
  std::size_t capacity = words;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Smallest cached slab that fits; slabs keep their original capacity as
    // their size class, so a recycled big slab can serve smaller requests.
    auto it = free_.lower_bound(words);
    if (it != free_.end()) {
      slab = it->second.back();
      capacity = it->first;
      it->second.pop_back();
      if (it->second.empty()) free_.erase(it);
    }
  }
  if (slab != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    slab = allocate_slab(words);
    capacity = words;
  }
  const std::uint64_t live =
      outstanding_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  if (zero) std::memset(slab, 0, words * sizeof(std::uint64_t));
  return PolyBuffer(this, slab, capacity);
}

void BufferPool::release(std::uint64_t* data, std::size_t words) noexcept {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  try {
    std::lock_guard<std::mutex> lock(mu_);
    free_[words].push_back(data);
  } catch (...) {
    free_slab(data);  // never propagate from a destructor path
  }
}

std::size_t BufferPool::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [words, slabs] : free_) {
    bytes += words * sizeof(std::uint64_t) * slabs.size();
  }
  return bytes;
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [words, slabs] : free_) {
    for (auto* slab : slabs) free_slab(slab);
  }
  free_.clear();
}

}  // namespace poe
