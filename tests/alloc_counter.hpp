// Allocation-counting harness: replaces the global operator new/delete so
// a test can count every heap allocation (and its bytes) the code under
// test makes.  The replacements are program-wide definitions, so include
// this header in exactly one translation unit per test binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

// GCC pairs the malloc-backed operator new below with the free-backed
// operator delete across inlining and flags a false mismatch; the pair
// is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::uint64_t g_alloc_count = 0;  // operator new calls so far
std::uint64_t g_alloc_bytes = 0;  // bytes those calls requested
}  // namespace

void* operator new(std::size_t n) {
  ++g_alloc_count;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  g_alloc_bytes += n;
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
