#ifndef SBQA_UTIL_COUNTING_ALLOC_H_
#define SBQA_UTIL_COUNTING_ALLOC_H_

/// \file
/// Counting global allocator for allocation-regression tests and benches.
/// Including this header REPLACES the global operator new/delete of the
/// final binary with counting versions (allocation behavior is otherwise
/// unchanged), so include it from exactly ONE translation unit of a test
/// or bench target — never from library code.

#include <atomic>
#include <cstdlib>
#include <new>

namespace sbqa::util {

inline std::atomic<uint64_t> g_allocation_count{0};

/// Heap allocations performed by this binary since process start.
inline uint64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

/// Counts one allocation and takes it from malloc (nullptr on failure).
inline void* CountedMalloc(size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

/// CountedMalloc for an over-aligned request.
inline void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  return std::aligned_alloc(a, rounded);
}

}  // namespace sbqa::util

void* operator new(size_t size) {
  if (void* p = sbqa::util::CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  if (void* p = sbqa::util::CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

// Over-aligned overloads (C++17): counted too, so allocations of types
// with alignof > __STDCPP_DEFAULT_NEW_ALIGNMENT__ cannot slip past the
// zero-allocation assertions.
void* operator new(size_t size, std::align_val_t align) {
  if (void* p = sbqa::util::CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size, std::align_val_t align) {
  return operator new(size, align);
}

// Nothrow overloads: the library calls these itself (std::stable_sort's
// temporary buffer, for one). Left to the default, they would escape the
// count and hand the replaced delete a pointer it did not allocate.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return sbqa::util::CountedMalloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return sbqa::util::CountedMalloc(size);
}

void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return sbqa::util::CountedAlignedAlloc(size, align);
}

void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return sbqa::util::CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SBQA_UTIL_COUNTING_ALLOC_H_
