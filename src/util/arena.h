#ifndef THOR_UTIL_ARENA_H_
#define THOR_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

namespace thor {

/// \brief Bump allocator for the extraction hot path.
///
/// The serving loop parses one page, walks it, emits a response, and throws
/// every intermediate away — a textbook arena workload. `Allocate` bumps a
/// cursor inside a block; `Reset` rewinds the cursors and keeps the blocks,
/// so a long-lived arena (one per worker thread, reused across every
/// `ExtractBatch`) reaches a steady state where serving a page performs no
/// heap allocation at all.
///
/// - Alignment: every allocation is aligned to the requested power-of-two
///   alignment (default `alignof(std::max_align_t)`).
/// - Large objects: a request bigger than half the block size gets its own
///   dedicated block (kept on the same list, recycled by Reset like any
///   other), so one huge page cannot poison the block size.
/// - Reset: rewinds to empty but *retains* every block ever grown to, and
///   re-fills them in the same order; memory is recycled, never aliased
///   between two live allocations of the same generation.
///
/// Not thread-safe: one arena belongs to one thread at a time.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < 1024 ? 1024 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Moving hands the blocks over; their addresses do not change, so
  /// pointers into them stay valid. The moved-from arena is empty.
  Arena(Arena&& other) noexcept
      : block_bytes_(other.block_bytes_),
        blocks_(std::move(other.blocks_)),
        next_block_(std::exchange(other.next_block_, 0)),
        cursor_(std::exchange(other.cursor_, nullptr)),
        limit_(std::exchange(other.limit_, nullptr)),
        bytes_used_(std::exchange(other.bytes_used_, 0)) {
    other.blocks_.clear();
  }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      block_bytes_ = other.block_bytes_;
      blocks_ = std::move(other.blocks_);
      other.blocks_.clear();
      next_block_ = std::exchange(other.next_block_, 0);
      cursor_ = std::exchange(other.cursor_, nullptr);
      limit_ = std::exchange(other.limit_, nullptr);
      bytes_used_ = std::exchange(other.bytes_used_, 0);
    }
    return *this;
  }

  /// Returns `size` bytes aligned to `align` (a power of two). Zero-size
  /// requests return a stable non-null pointer.
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t)) {
    if (size == 0) size = 1;
    // Dedicated block for anything that would waste half a normal block.
    if (size + align > block_bytes_ / 2) {
      return AllocateLarge(size, align);
    }
    uintptr_t cursor = reinterpret_cast<uintptr_t>(cursor_);
    uintptr_t aligned = (cursor + (align - 1)) & ~(uintptr_t{align} - 1);
    if (aligned + size > reinterpret_cast<uintptr_t>(limit_)) {
      return AllocateSlow(size, align);
    }
    cursor_ = reinterpret_cast<char*>(aligned + size);
    bytes_used_ += size;
    return reinterpret_cast<void*>(aligned);
  }

  /// Typed array allocation (uninitialized memory; caller constructs).
  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Copies `s` into the arena and returns a view of the copy.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return {};
    char* data = static_cast<char*>(Allocate(s.size(), 1));
    std::memcpy(data, s.data(), s.size());
    return {data, s.size()};
  }

  /// Shrinks the most recent allocation in place: `ptr` was returned by
  /// Allocate with `old_size`, of which only the first `new_size` bytes are
  /// kept. A no-op (the tail stays allocated) unless `ptr` is still the
  /// newest bump allocation — which is the only caller pattern: reserve an
  /// upper bound, produce into it, give the tail back.
  void ShrinkLast(const void* ptr, size_t old_size, size_t new_size) {
    const char* end = static_cast<const char*>(ptr) + old_size;
    if (end == cursor_ && new_size <= old_size) {
      cursor_ = const_cast<char*>(static_cast<const char*>(ptr)) + new_size;
      bytes_used_ -= old_size - new_size;
    }
  }

  /// Rewinds to empty, retaining every block for reuse. Pointers handed out
  /// before the reset are dead; nothing is freed back to the heap.
  void Reset() {
    next_block_ = 0;
    cursor_ = nullptr;
    limit_ = nullptr;
    bytes_used_ = 0;
    if (!blocks_.empty()) {
      cursor_ = blocks_[0].data.get();
      limit_ = cursor_ + blocks_[0].size;
      next_block_ = 1;
    }
  }

  /// Live bytes handed out since construction/Reset (excludes padding).
  size_t bytes_used() const { return bytes_used_; }
  /// Total heap bytes retained across Resets.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void* AllocateSlow(size_t size, size_t align) {
    // Reuse a retained block if one is waiting; else grow by a fresh block.
    while (next_block_ < blocks_.size()) {
      Block& block = blocks_[next_block_++];
      uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
      uintptr_t aligned = (base + (align - 1)) & ~(uintptr_t{align} - 1);
      if (aligned + size <= base + block.size) {
        cursor_ = reinterpret_cast<char*>(aligned + size);
        limit_ = block.data.get() + block.size;
        bytes_used_ += size;
        return reinterpret_cast<void*>(aligned);
      }
      // A retained block too small for this request (it was a dedicated
      // large block once): skip it; later allocations may still fit it.
    }
    Block block;
    block.size = block_bytes_;
    block.data = std::make_unique<char[]>(block.size);
    blocks_.push_back(std::move(block));
    next_block_ = blocks_.size();
    Block& fresh = blocks_.back();
    uintptr_t base = reinterpret_cast<uintptr_t>(fresh.data.get());
    uintptr_t aligned = (base + (align - 1)) & ~(uintptr_t{align} - 1);
    cursor_ = reinterpret_cast<char*>(aligned + size);
    limit_ = fresh.data.get() + fresh.size;
    bytes_used_ += size;
    return reinterpret_cast<void*>(aligned);
  }

  void* AllocateLarge(size_t size, size_t align) {
    // Prefer a retained block from a previous generation (typically the
    // dedicated block this same call site created last time) — otherwise a
    // workload with one large object per generation would grow the heap
    // forever instead of reaching a steady state.
    for (size_t i = next_block_; i < blocks_.size(); ++i) {
      uintptr_t base = reinterpret_cast<uintptr_t>(blocks_[i].data.get());
      uintptr_t aligned = (base + (align - 1)) & ~(uintptr_t{align} - 1);
      if (aligned + size <= base + blocks_[i].size) {
        Block reused = std::move(blocks_[i]);
        blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(i));
        size_t at = next_block_ == 0 ? 0 : next_block_ - 1;
        blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(at),
                       std::move(reused));
        ++next_block_;
        bytes_used_ += size;
        return reinterpret_cast<void*>(aligned);
      }
    }
    // Dedicated block, sized exactly; does not disturb the bump cursor, so
    // the current block keeps filling up afterwards.
    Block block;
    block.size = size + align;
    block.data = std::make_unique<char[]>(block.size);
    uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
    uintptr_t aligned = (base + (align - 1)) & ~(uintptr_t{align} - 1);
    // Insert before the cursor block so Reset's sequential reuse still
    // visits it (AllocateSlow skips it when too small for a bump block).
    size_t insert_at = next_block_ == 0 ? 0 : next_block_ - 1;
    blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(insert_at),
                   std::move(block));
    ++next_block_;
    bytes_used_ += size;
    return reinterpret_cast<void*>(aligned);
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  /// Index of the first block not yet (re)used this generation.
  size_t next_block_ = 0;
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t bytes_used_ = 0;
};

}  // namespace thor

#endif  // THOR_UTIL_ARENA_H_
