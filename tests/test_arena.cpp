// ScratchArena (core/arena.hpp): frame recycling without regrowth,
// frame-budget enforcement and span disjointness — the invariants the
// batched conv path leans on.
#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "util/check.hpp"

using odenet::core::ScratchArena;

TEST(ScratchArena, FrameRecyclesWithoutRegrowth) {
  ScratchArena arena;
  EXPECT_EQ(arena.capacity(), 0u);

  arena.frame(1000);
  EXPECT_EQ(arena.capacity(), 1000u);
  EXPECT_EQ(arena.growths(), 1u);
  float* first = arena.alloc(1000);
  ASSERT_NE(first, nullptr);

  // Smaller and equal frames recycle the same storage: same capacity, no
  // growth, same base address.
  for (std::size_t floats : {std::size_t{800}, std::size_t{1000},
                             std::size_t{1}, std::size_t{1000}}) {
    arena.frame(floats);
    EXPECT_EQ(arena.capacity(), 1000u);
    EXPECT_EQ(arena.growths(), 1u);
    EXPECT_EQ(arena.alloc(floats), first);
  }

  // Only a larger frame grows.
  arena.frame(2000);
  EXPECT_EQ(arena.capacity(), 2000u);
  EXPECT_EQ(arena.growths(), 2u);
  EXPECT_EQ(arena.frames(), 6u);
}

TEST(ScratchArena, AllocBeyondFrameBudgetThrows) {
  ScratchArena arena;
  arena.frame(10);
  (void)arena.alloc(8);
  EXPECT_EQ(arena.used(), 8u);
  EXPECT_THROW(arena.alloc(4), odenet::Error);

  // The budget is the declared frame, not the (possibly larger) capacity:
  // over-allocating against a recycled bigger buffer still throws.
  arena.frame(10);
  arena.frame(4);
  EXPECT_THROW(arena.alloc(5), odenet::Error);
}

TEST(ScratchArena, SpansAreDisjointAndStableWithinFrame) {
  ScratchArena arena;
  arena.frame(64 + 32);
  float* a = arena.alloc(64);
  float* b = arena.alloc(32);
  ASSERT_EQ(b, a + 64);
  for (int i = 0; i < 64; ++i) a[i] = 1.0f;
  for (int i = 0; i < 32; ++i) b[i] = 2.0f;
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], 1.0f);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(b[i], 2.0f);
}
