// Counting global allocator: every operator new in the benchmark process
// bumps one counter (the benchmark is single-threaded), read through
// allocCount() to report heap allocations per simulated event.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {
std::uint64_t g_allocs = 0;

void* countedAlloc(std::size_t n) {
    ++g_allocs;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t allocCount() { return g_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
