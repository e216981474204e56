// Bump-pointer arena owning every payload of one simulated run.
//
// Payloads are allocated once, shared by reference for as long as any
// layer retains them (delivery logs, pending sets, held messages) and
// freed wholesale when the run — the owning net::System — is destroyed.
// This removes the per-receiver shared_ptr refcount traffic of the old
// payload model from the hot path; the cost is that a run's payload
// memory, and the heap a payload's vectors hold, is not reclaimed until
// the run ends.  It grows with the run length and with every payload
// built, sent or not, and it is not tiny at scale.  When every FD process
// built a consensus proposal for every instance, although only the
// round-1 coordinator's is ever sent, the FD run of the n = 128 benchmark
// workload (scale_n128, seed 1000) held 25.5 MB of live heap after 25
// simulated seconds; building the proposal only on that coordinator
// leaves 10.0 MB, and the arena's own blocks fall from 2.0 to 1.3 MB.
// The rule: build a payload only where it is sent, and let receivers
// point into it instead of copying it.
//
// Non-trivially-destructible payloads (those holding vectors/maps) are
// registered in a finalizer list and destroyed in reverse allocation
// order at teardown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fdgm::net {

class PayloadArena {
 public:
  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  ~PayloadArena() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) it->fn(it->obj);
  }

  /// Construct a T in the arena.  The pointer stays valid for the arena's
  /// lifetime; callers typically pass it on as a const payload pointer.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      finalizers_.push_back(Finalizer{[](void* p) { static_cast<T*>(p)->~T(); }, obj});
    ++objects_;
    return obj;
  }

  [[nodiscard]] std::uint64_t objects() const { return objects_; }
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  struct Finalizer {
    void (*fn)(void*);
    void* obj;
  };
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t used = 0;
    std::size_t cap = 0;
  };
  void* allocate(std::size_t size, std::size_t align) {
    if (blocks_.empty()) grow(size + align);
    std::size_t off = aligned_used(align);
    if (off + size > blocks_.back().cap) {
      grow(size + align);
      off = aligned_used(align);
    }
    Block& b = blocks_.back();
    void* p = b.mem.get() + off;
    b.used = off + size;
    return p;
  }

  [[nodiscard]] std::size_t aligned_used(std::size_t align) const {
    const std::size_t used = blocks_.back().used;
    return (used + align - 1) & ~(align - 1);
  }

  void grow(std::size_t at_least) {
    const std::size_t cap = at_least > kBlockBytes ? at_least : kBlockBytes;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(cap), 0, cap});
    bytes_reserved_ += cap;
  }

  std::vector<Block> blocks_;
  std::vector<Finalizer> finalizers_;
  std::uint64_t objects_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace fdgm::net
