// Replacement global operator new/delete for the test binaries that watch
// the heap: a relaxed count of every allocation, the largest single request
// while tracking is set, and a flag that makes every allocation throw.
// Include it in exactly one translation unit per binary: replacement
// allocation functions may not be inline, and they replace the library's
// for the whole program.
//
// Every form of operator new and delete routes through the same malloc/free
// pair, the nothrow forms included. Left to the runtime, a sanitizer's
// allocator would serve `new (std::nothrow)` (std::get_temporary_buffer, and
// through it std::stable_sort, stable_partition and inplace_merge) while the
// replaced delete called free: an alloc-dealloc mismatch, and an allocation
// the counters never saw.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

/// Every operator new call since the program started.
std::atomic<std::size_t> g_allocations{0};
/// While g_tracking is set, operator new records its largest single request.
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest_allocation{0};
/// While set, every operator new throws std::bad_alloc.
std::atomic<bool> g_fail_allocations{false};

void note_allocation(std::size_t size) noexcept {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (g_tracking.load(std::memory_order_relaxed)) note_allocation(size);
  if (g_fail_allocations.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

// Out of line, so GCC never sees an inlined free() beside a call to the
// operator new above and reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
