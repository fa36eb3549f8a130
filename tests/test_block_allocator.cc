/**
 * @file
 * Unit tests for the paged block allocator.
 */
#include <gtest/gtest.h>

#include <set>

#include "comet/kvcache/block_allocator.h"

namespace comet {
namespace {

TEST(BlockAllocator, StartsAllFree)
{
    BlockAllocator allocator(8);
    EXPECT_EQ(allocator.totalBlocks(), 8);
    EXPECT_EQ(allocator.freeBlocks(), 8);
    EXPECT_EQ(allocator.usedBlocks(), 0);
}

TEST(BlockAllocator, AllocateUniqueBlocks)
{
    BlockAllocator allocator(4);
    std::set<int64_t> blocks;
    for (int i = 0; i < 4; ++i) {
        const Result<int64_t> block = allocator.allocate();
        ASSERT_TRUE(block.isOk());
        blocks.insert(block.value());
    }
    EXPECT_EQ(blocks.size(), 4u);
    EXPECT_EQ(allocator.freeBlocks(), 0);
}

TEST(BlockAllocator, ExhaustionReturnsError)
{
    BlockAllocator allocator(1);
    ASSERT_TRUE(allocator.allocate().isOk());
    const Result<int64_t> overflow = allocator.allocate();
    EXPECT_FALSE(overflow.isOk());
    EXPECT_EQ(overflow.status().code(),
              StatusCode::kResourceExhausted);
}

TEST(BlockAllocator, ReleaseRecycles)
{
    BlockAllocator allocator(2);
    const int64_t a = allocator.allocate().value();
    const int64_t b = allocator.allocate().value();
    allocator.release(a);
    EXPECT_EQ(allocator.freeBlocks(), 1);
    const int64_t c = allocator.allocate().value();
    EXPECT_EQ(c, a); // LIFO reuse
    allocator.release(b);
    allocator.release(c);
    EXPECT_EQ(allocator.freeBlocks(), 2);
}

TEST(BlockAllocator, RefCountingForPrefixSharing)
{
    BlockAllocator allocator(2);
    const int64_t block = allocator.allocate().value();
    EXPECT_EQ(allocator.refCount(block), 1);
    allocator.addRef(block);
    EXPECT_EQ(allocator.refCount(block), 2);
    allocator.release(block);
    EXPECT_EQ(allocator.refCount(block), 1);
    EXPECT_EQ(allocator.freeBlocks(), 1); // still owned
    allocator.release(block);
    EXPECT_EQ(allocator.refCount(block), 0);
    EXPECT_EQ(allocator.freeBlocks(), 2);
}

TEST(BlockAllocator, IndexedSoleCountFollowsRefcountTransitions)
{
    BlockAllocator allocator(4);
    const int64_t block = allocator.allocate().value();
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0);
    allocator.addRef(block); // the index takes its reference...
    allocator.setIndexed(block, true);
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0); // ...the owner holds on
    allocator.release(block); // 2 -> 1: only the index is left
    EXPECT_EQ(allocator.indexedSoleBlocks(), 1);
    allocator.addRef(block); // 1 -> 2: a graft maps it again
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0);
    allocator.release(block);
    EXPECT_EQ(allocator.indexedSoleBlocks(), 1);
    allocator.release(block); // 1 -> 0: evicted, and unmarked
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0);
    EXPECT_EQ(allocator.freeBlocks(), 4);
    // A reused block starts unmarked.
    EXPECT_EQ(allocator.allocate().value(), block);
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0);
    allocator.setIndexed(block, true); // refcount 1: counts at once
    EXPECT_EQ(allocator.indexedSoleBlocks(), 1);
    allocator.setIndexed(block, true); // idempotent
    EXPECT_EQ(allocator.indexedSoleBlocks(), 1);
    allocator.setIndexed(block, false);
    EXPECT_EQ(allocator.indexedSoleBlocks(), 0);
}

TEST(BlockAllocatorDeathTest, MisuseAborts)
{
    BlockAllocator allocator(2);
    EXPECT_DEATH(allocator.release(0), "free block");
    const int64_t block = allocator.allocate().value();
    (void)block;
    EXPECT_DEATH(allocator.addRef(1), "free block");
    EXPECT_DEATH(allocator.release(5), "CHECK failed");
}

TEST(BlockAllocator, StressChurn)
{
    BlockAllocator allocator(16);
    std::vector<int64_t> held;
    for (int round = 0; round < 100; ++round) {
        if (round % 3 != 2 && allocator.freeBlocks() > 0) {
            held.push_back(allocator.allocate().value());
        } else if (!held.empty()) {
            allocator.release(held.back());
            held.pop_back();
        }
        EXPECT_EQ(allocator.usedBlocks(),
                  static_cast<int64_t>(held.size()));
    }
}

} // namespace
} // namespace comet
