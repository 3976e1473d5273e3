#include "src/util/arena.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/signature_builder.h"
#include "src/html/arena_parser.h"
#include "src/html/parser.h"
#include "src/html/tag_table.h"
#include "tests/tree_diff.h"

namespace thor {
namespace {

bool IsAligned(const void* ptr, size_t align) {
  return (reinterpret_cast<uintptr_t>(ptr) & (align - 1)) == 0;
}

TEST(ArenaTest, AllocationsAreAlignedAtEveryRequestedPower) {
  Arena arena;
  // Interleave every power-of-two alignment with odd sizes so the cursor
  // is almost never pre-aligned for the next request.
  for (size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                       size_t{16}, size_t{32}, size_t{64}}) {
    for (size_t size : {size_t{1}, size_t{3}, size_t{7}, size_t{13},
                        size_t{64}, size_t{255}}) {
      void* p = arena.Allocate(size, align);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(IsAligned(p, align)) << "size=" << size
                                       << " align=" << align;
      std::memset(p, 0xAB, size);  // must be writable end to end
    }
  }
}

TEST(ArenaTest, ZeroSizeAllocationsReturnDistinctNonNull) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);  // each owns one byte, so they cannot alias
}

TEST(ArenaTest, LargeObjectsGetDedicatedBlocksWithoutPoisoningTheCursor) {
  Arena arena(4096);
  // Fill part of the current block, then allocate something far larger
  // than a block: the large object must not flush the partially-used
  // block (the next small allocation continues in it).
  char* small1 = static_cast<char*>(arena.Allocate(100, 1));
  std::memset(small1, 1, 100);
  char* big = static_cast<char*>(arena.Allocate(100 * 1024, 8));
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(IsAligned(big, 8));
  std::memset(big, 2, 100 * 1024);  // whole range writable
  char* small2 = static_cast<char*>(arena.Allocate(100, 1));
  // Bump continuity: small2 continues right after small1's allocation.
  EXPECT_EQ(small2, small1 + 100);
  // The big range and both small ranges are pairwise disjoint.
  EXPECT_TRUE(big + 100 * 1024 <= small1 || small2 + 100 <= big);
  // Nothing scribbled on anyone.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(small1[i], 1);
  for (int i = 0; i < 100 * 1024; ++i) ASSERT_EQ(big[i], 2);
}

TEST(ArenaTest, ShrinkLastReturnsTailOnlyForTheNewestAllocation) {
  Arena arena;
  char* buf = static_cast<char*>(arena.Allocate(1000, 1));
  size_t used = arena.bytes_used();
  arena.ShrinkLast(buf, 1000, 10);
  EXPECT_EQ(arena.bytes_used(), used - 990);
  // The reclaimed tail is handed right back out.
  char* next = static_cast<char*>(arena.Allocate(10, 1));
  EXPECT_EQ(next, buf + 10);
  // Shrinking something that is no longer newest is a silent no-op.
  size_t used2 = arena.bytes_used();
  arena.ShrinkLast(buf, 1000, 5);
  EXPECT_EQ(arena.bytes_used(), used2);
}

TEST(ArenaTest, CopyStringRoundTripsAndOwnsItsBytes) {
  Arena arena;
  std::string original = "hello arena world";
  std::string_view copy = arena.CopyString(original);
  EXPECT_EQ(copy, original);
  EXPECT_NE(copy.data(), original.data());
  original.assign(original.size(), 'x');  // mutate the source
  EXPECT_EQ(copy, "hello arena world");
  EXPECT_TRUE(arena.CopyString("").empty());
}

// The property the hot path rests on: after Reset, re-filling the arena
// never hands out memory that aliases another live allocation of the same
// generation, and the recycled blocks really are recycled (no new heap
// growth in the steady state).
TEST(ArenaTest, ResetReusesBlocksWithoutAliasingLiveAllocations) {
  Arena arena(2048);
  struct Span {
    char* ptr;
    size_t size;
    unsigned char fill;
  };
  // Sizes chosen to straddle block boundaries and trigger one dedicated
  // large block per generation.
  const size_t sizes[] = {1, 500, 1023, 64, 3000, 7, 900, 2, 1500, 33};
  // Two warmup generations: Reset reorders which retained block seeds the
  // bump cursor, so the block set can still grow once before settling.
  constexpr int kWarmup = 2;
  size_t reserved_after_warmup = 0;
  size_t blocks_after_warmup = 0;
  for (int generation = 0; generation < 8; ++generation) {
    arena.Reset();
    std::vector<Span> live;
    unsigned char fill = 1;
    for (size_t size : sizes) {
      char* p = static_cast<char*>(arena.Allocate(size, 1));
      std::memset(p, fill, size);
      live.push_back({p, size, fill});
      ++fill;
    }
    // Pairwise disjoint: no two live spans overlap.
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        bool disjoint = live[i].ptr + live[i].size <= live[j].ptr ||
                        live[j].ptr + live[j].size <= live[i].ptr;
        EXPECT_TRUE(disjoint) << "spans " << i << " and " << j
                              << " alias in generation " << generation;
      }
    }
    // No torn writes: every span still holds its own fill pattern, so no
    // later allocation scribbled over an earlier one.
    for (const Span& span : live) {
      for (size_t k = 0; k < span.size; ++k) {
        ASSERT_EQ(static_cast<unsigned char>(span.ptr[k]), span.fill);
      }
    }
    if (generation < kWarmup) {
      reserved_after_warmup = arena.bytes_reserved();
      blocks_after_warmup = arena.block_count();
    } else {
      // Steady state: the identical workload re-fills the retained blocks
      // (large objects included) instead of growing the heap.
      EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
      EXPECT_EQ(arena.block_count(), blocks_after_warmup);
    }
  }
}

TEST(ArenaTest, BytesUsedTracksPayloadAcrossReset) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.Allocate(100, 1);
  arena.Allocate(28, 4);
  EXPECT_EQ(arena.bytes_used(), 128u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GT(arena.bytes_reserved(), 0u);  // blocks retained
}

TEST(ArenaTest, MoveHandsBlocksOverAndEmptiesTheSource) {
  Arena source(2048);
  std::string_view kept = source.CopyString("survives the move");
  const size_t reserved = source.bytes_reserved();
  Arena moved(std::move(source));
  EXPECT_EQ(kept, "survives the move");  // blocks keep their addresses
  EXPECT_EQ(moved.bytes_reserved(), reserved);
  EXPECT_EQ(source.block_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.bytes_used(), 0u);   // NOLINT(bugprone-use-after-move)
  // The emptied source allocates from fresh blocks of its own.
  std::string_view fresh = source.CopyString("fresh");
  EXPECT_EQ(fresh, "fresh");
  EXPECT_EQ(kept, "survives the move");
  Arena assigned;
  assigned = std::move(moved);
  EXPECT_EQ(kept, "survives the move");
  EXPECT_EQ(assigned.bytes_reserved(), reserved);
}

// An owned tree is a value: a copy outlives the parser that built it and
// every later parse, a copy of a copy and a moved tree read the same, and
// a reset copy builds again.
TEST(ArenaTreeTest, CopiesAndMovesOutliveTheParser) {
  const std::string first =
      "<html><head><title>t</title></head><body><table><tr><td>one &amp; "
      "two</td><td>three</td></tr></table><p>four</p></body></html>";
  const std::string second = "<ul><li>other<li>page</ul>";
  html::HotParser parser;
  const html::ArenaTree copy = parser.Parse(first);
  parser.Parse(second);  // refills the parser's tree and arena
  const html::TagTree legacy = html::ParseHtml(first);
  tree_diff::ExpectTreesIdentical(legacy, copy, "copy");
  const html::ArenaTree copy_of_copy = copy;
  tree_diff::ExpectTreesIdentical(legacy, copy_of_copy, "copy of copy");
  // The fused tag counts travel with the copy.
  const ir::SparseVector counts = core::TagCountVector(copy);
  const ir::SparseVector legacy_counts = core::TagCountVector(legacy);
  ASSERT_EQ(counts.entries().size(), legacy_counts.entries().size());
  for (size_t e = 0; e < counts.entries().size(); ++e) {
    EXPECT_EQ(counts.entries()[e].id, legacy_counts.entries()[e].id);
    EXPECT_EQ(counts.entries()[e].weight, legacy_counts.entries()[e].weight);
  }
  // A copy's counts end at its page's largest tag id, however large an
  // id the parser met on an earlier page.
  parser.Parse("<x-arena-copy-wide-tag>w</x-arena-copy-wide-tag>");
  ASSERT_GT(parser.tree().tag_counts().size(),
            static_cast<size_t>(html::kWellKnownTagCount));
  const html::ArenaTree trimmed = parser.Parse(first);
  EXPECT_LE(trimmed.tag_counts().size(),
            static_cast<size_t>(html::kWellKnownTagCount));
  tree_diff::ExpectTreesIdentical(legacy, trimmed, "trimmed copy");
  for (const auto& entry : legacy_counts.entries()) {
    EXPECT_EQ(static_cast<double>(trimmed.TagCountOf(entry.id)),
              entry.weight);
  }
  html::ArenaTree moved = html::ParseArena(first);
  html::ArenaTree target;
  target = std::move(moved);
  tree_diff::ExpectTreesIdentical(legacy, target, "moved");
  target = copy_of_copy;
  target = target;  // self-assignment keeps the tree
  tree_diff::ExpectTreesIdentical(legacy, target, "self-assigned");
  target.Reset();
  EXPECT_EQ(target.node_count(), 1);
  target.AddTag(target.root(), html::Tag::kBody);
  target.FinalizeDerived(0);
  EXPECT_EQ(target.PathString(1), "html/body");
}

}  // namespace
}  // namespace thor
