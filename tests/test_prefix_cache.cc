/**
 * @file
 * Unit tests for the comet::prefix subsystem: chained content keys
 * (determinism, namespace/geometry separation, shared-prefix
 * structure), the flat radix index (match semantics, insert rules,
 * deterministic leaf-LRU eviction), and the reference-holding
 * PrefixCache (refcount accounting, graft failpoint, eviction under
 * live sequences, metrics/stats).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "comet/chaos/failpoint.h"
#include "comet/common/rng.h"
#include "comet/kvcache/block_allocator.h"
#include "comet/prefix/block_key.h"
#include "comet/prefix/prefix_cache.h"
#include "comet/prefix/radix_index.h"

namespace comet {
namespace prefix {
namespace {

std::vector<int32_t>
tokensFromSeed(uint64_t seed, int64_t count)
{
    Rng rng(seed);
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
        ids.push_back(static_cast<int32_t>(rng.uniformInt(32000)));
    }
    return ids;
}

TEST(BlockKeyTest, FullBlocksOnlyAndDeterministic)
{
    KeySpace space;
    space.block_tokens = 16;
    const auto tokens = tokensFromSeed(1, 16 * 3 + 7);
    const auto keys = chainBlockKeys(space, tokens);
    ASSERT_EQ(keys.size(), 3u); // the trailing 7 tokens are not keyed
    EXPECT_EQ(keys, chainBlockKeys(space, tokens));
    for (const BlockKey key : keys) {
        EXPECT_NE(key, 0u); // 0 is the no-parent sentinel
    }
}

TEST(BlockKeyTest, SharedPrefixSharesKeysUntilDivergence)
{
    KeySpace space;
    auto a = tokensFromSeed(2, 64);
    auto b = a;
    b[40] ^= 1; // diverge inside block 2
    const auto ka = chainBlockKeys(space, a);
    const auto kb = chainBlockKeys(space, b);
    ASSERT_EQ(ka.size(), 4u);
    EXPECT_EQ(ka[0], kb[0]);
    EXPECT_EQ(ka[1], kb[1]);
    EXPECT_NE(ka[2], kb[2]);
    // Chaining: once diverged, keys never re-converge even though
    // the block-3 tokens are identical again.
    EXPECT_NE(ka[3], kb[3]);
}

TEST(BlockKeyTest, NamespaceAndGeometrySeparateKeySpaces)
{
    const auto tokens = tokensFromSeed(3, 32);
    KeySpace base;
    const auto base_keys = chainBlockKeys(base, tokens);

    KeySpace other_ns = base;
    other_ns.namespace_id = 1;
    KeySpace other_bits = base;
    other_bits.bits_per_value = 8.0;
    KeySpace other_group = base;
    other_group.quant_group_tokens = 32;
    for (const auto &space : {other_ns, other_bits, other_group}) {
        const auto keys = chainBlockKeys(space, tokens);
        ASSERT_EQ(keys.size(), base_keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
            EXPECT_NE(keys[i], base_keys[i]) << "block " << i;
        }
    }
}

TEST(RadixIndexTest, MatchWalksChainAndStopsAtFirstMiss)
{
    RadixIndex index;
    KeySpace space;
    const auto tokens = tokensFromSeed(4, 64);
    const auto keys = chainBlockKeys(space, tokens);
    ASSERT_EQ(keys.size(), 4u);
    // Index only the first three blocks.
    for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(index.insert(0, keys[static_cast<size_t>(i)],
                                 i == 0 ? 0 : keys[static_cast<size_t>(i - 1)],
                                 i, 100 + i));
    }
    std::vector<int64_t> blocks;
    EXPECT_EQ(index.match(0, keys, 8, &blocks), 3);
    EXPECT_EQ(blocks, (std::vector<int64_t>{100, 101, 102}));

    blocks.clear();
    EXPECT_EQ(index.match(0, keys, 2, &blocks), 2); // cap respected
    EXPECT_EQ(blocks, (std::vector<int64_t>{100, 101}));

    blocks.clear();
    EXPECT_EQ(index.match(7, keys, 8, &blocks), 0); // wrong namespace
    EXPECT_TRUE(blocks.empty());
}

TEST(RadixIndexTest, InsertRejectsDuplicatesAndOrphans)
{
    RadixIndex index;
    EXPECT_FALSE(index.insert(0, 11, 10, 1, 0)); // parent 10 absent
    ASSERT_TRUE(index.insert(0, 10, 0, 0, 0));
    EXPECT_FALSE(index.insert(0, 10, 0, 0, 1)); // duplicate keeps first
    ASSERT_TRUE(index.insert(0, 11, 10, 1, 1));
    EXPECT_EQ(index.size(), 2);
    EXPECT_EQ(index.find(10)->block, 0);
}

TEST(RadixIndexTest, EvictionIsLeafFirstAndLruOrdered)
{
    RadixIndex index;
    // Two chains under one namespace: a->b->c and a->b->d.
    ASSERT_TRUE(index.insert(0, 1, 0, 0, 10));
    ASSERT_TRUE(index.insert(0, 2, 1, 1, 11));
    ASSERT_TRUE(index.insert(0, 3, 2, 2, 12));
    ASSERT_TRUE(index.insert(0, 4, 2, 2, 13));
    // Touch the c-leaf (key 3) so the d-leaf (key 4) is LRU.
    std::vector<int64_t> blocks;
    index.match(0, {1, 2, 3}, 8, &blocks);

    IndexNode victim;
    auto always = [](int64_t) { return true; };
    ASSERT_TRUE(index.evictLru(always, &victim));
    EXPECT_EQ(victim.block, 13); // LRU leaf, never the interior nodes
    ASSERT_TRUE(index.evictLru(always, &victim));
    EXPECT_EQ(victim.block, 12);
    ASSERT_TRUE(index.evictLru(always, &victim));
    EXPECT_EQ(victim.block, 11); // parents become leaves bottom-up
    ASSERT_TRUE(index.evictLru(always, &victim));
    EXPECT_EQ(victim.block, 10);
    EXPECT_FALSE(index.evictLru(always, &victim));
    EXPECT_EQ(index.size(), 0);
}

TEST(RadixIndexTest, EvictionSkipsPinnedBlocks)
{
    RadixIndex index;
    ASSERT_TRUE(index.insert(0, 1, 0, 0, 10));
    ASSERT_TRUE(index.insert(0, 2, 1, 1, 11));
    IndexNode victim;
    // The only leaf (block 11) is pinned: nothing evictable, even
    // though the root block 10 passes the predicate (it has a child).
    EXPECT_FALSE(index.evictLru(
        [](int64_t block) { return block != 11; }, &victim));
    ASSERT_TRUE(index.evictLru(
        [](int64_t) { return true; }, &victim));
    EXPECT_EQ(victim.block, 11);
}

TEST(PrefixCacheTest, InsertHoldsOneReferencePerPage)
{
    BlockAllocator allocator(8);
    PrefixCache cache(&allocator, 1024);
    const int64_t b0 = allocator.allocate().value();
    const int64_t b1 = allocator.allocate().value();
    EXPECT_EQ(cache.insert(0, {101, 102}, {b0, b1}), 2);
    EXPECT_EQ(allocator.refCount(b0), 2); // owner + cache
    EXPECT_EQ(allocator.refCount(b1), 2);
    // Re-offering the same chain indexes nothing and takes no refs.
    EXPECT_EQ(cache.insert(0, {101, 102}, {b0, b1}), 0);
    EXPECT_EQ(allocator.refCount(b0), 2);

    // The owner releases its refs; pages survive via the cache.
    allocator.release(b0);
    allocator.release(b1);
    EXPECT_EQ(allocator.usedBlocks(), 2);
    EXPECT_EQ(cache.evictableBlocks(), 2);

    cache.clear();
    EXPECT_EQ(allocator.usedBlocks(), 0);
    EXPECT_EQ(cache.ownedBlocks(), 0);
}

TEST(PrefixCacheTest, MatchDoesNotTakeReferences)
{
    BlockAllocator allocator(8);
    PrefixCache cache(&allocator, 1024);
    const int64_t b0 = allocator.allocate().value();
    ASSERT_EQ(cache.insert(0, {101}, {b0}), 1);
    std::vector<int64_t> blocks;
    EXPECT_EQ(cache.match(0, {101, 999}, 8, &blocks), 1);
    EXPECT_EQ(blocks, (std::vector<int64_t>{b0}));
    EXPECT_EQ(allocator.refCount(b0), 2); // unchanged: caller grafts
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().blocks_matched, 1);
    EXPECT_EQ(cache.stats().bytes_saved, 1024);

    blocks.clear();
    EXPECT_EQ(cache.match(1, {101}, 8, &blocks), 0); // namespace miss
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PrefixCacheTest, EvictionReleasesOnlyIndexOnlyLeaves)
{
    BlockAllocator allocator(8);
    PrefixCache cache(&allocator, 1024);
    const int64_t b0 = allocator.allocate().value();
    const int64_t b1 = allocator.allocate().value();
    ASSERT_EQ(cache.insert(0, {101, 102}, {b0, b1}), 2);
    // b1 still owned by a live sequence (refcount 3 after insert's
    // +1 and the owner's) -> not evictable; b0 is interior.
    allocator.addRef(b1);
    allocator.release(b0); // owner drops b0: refcount 1, but interior
    EXPECT_EQ(cache.evictableBlocks(), 1);
    EXPECT_FALSE(cache.evictOne());

    allocator.release(b1); // owner's original ref
    allocator.release(b1); // the "live sequence" ref
    EXPECT_EQ(cache.evictableBlocks(), 2);
    EXPECT_TRUE(cache.evictOne()); // leaf b1 first
    EXPECT_TRUE(cache.evictOne()); // then b0, now a leaf
    EXPECT_FALSE(cache.evictOne());
    EXPECT_EQ(allocator.usedBlocks(), 0);
    EXPECT_EQ(cache.stats().blocks_evicted, 2);
}

TEST(PrefixCacheTest, GraftFailpointForcesRecoverableMiss)
{
    BlockAllocator allocator(8);
    PrefixCache cache(&allocator, 1024);
    const int64_t b0 = allocator.allocate().value();
    ASSERT_EQ(cache.insert(0, {101}, {b0}), 1);

    chaos::FailPointRegistry::global().arm(
        "prefix.graft", chaos::FailPointSpec::everyNth(2));
    std::vector<int64_t> blocks;
    EXPECT_EQ(cache.match(0, {101}, 8, &blocks), 1); // hit 1: no fire
    EXPECT_EQ(cache.match(0, {101}, 8, &blocks), 0); // hit 2: fires
    EXPECT_EQ(cache.stats().forced_misses, 1);
    EXPECT_EQ(cache.match(0, {101}, 8, &blocks), 1); // recovered
    chaos::FailPointRegistry::global().disarmAll();
}

TEST(PrefixCacheTest, IncrementalEvictableCountMatchesTheRecount)
{
    // Random graft / allocate / insert / fork / release / evict /
    // clear traffic over a small pool and a few shared prompt heads;
    // after every operation the O(1) count must equal the walk.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        BlockAllocator allocator(24);
        PrefixCache cache(&allocator, 1024);
        KeySpace space;
        space.block_tokens = 4;
        std::vector<std::vector<int32_t>> heads;
        for (uint64_t h = 0; h < 3; ++h)
            heads.push_back(tokensFromSeed(seed * 10 + h, 12));
        std::map<int64_t, std::vector<int64_t>> sequences;
        int64_t next_id = 0;
        const auto check = [&](const char *op) {
            ASSERT_EQ(cache.evictableBlocks(),
                      cache.recountEvictableBlocks())
                << "seed " << seed << " after " << op;
        };
        for (int op = 0; op < 400; ++op) {
            const uint64_t kind = rng.uniformInt(10);
            if (kind < 4) {
                // A new sequence: a shared head plus a private tail.
                std::vector<int32_t> prompt =
                    heads[rng.uniformInt(heads.size())];
                const std::vector<int32_t> tail = tokensFromSeed(
                    rng.uniformInt(1000000),
                    static_cast<int64_t>(rng.uniformInt(9)));
                prompt.insert(prompt.end(), tail.begin(), tail.end());
                const std::vector<BlockKey> keys =
                    chainBlockKeys(space, prompt);
                std::vector<int64_t> blocks;
                cache.match(0, keys,
                            static_cast<int64_t>(rng.uniformInt(
                                keys.size() + 1)),
                            &blocks);
                for (int64_t block : blocks)
                    allocator.addRef(block);
                bool ok = true;
                while (blocks.size() < keys.size()) {
                    Result<int64_t> block = allocator.allocate();
                    while (!block.isOk() && cache.evictOne())
                        block = allocator.allocate();
                    if (!block.isOk()) {
                        ok = false;
                        break;
                    }
                    blocks.push_back(block.value());
                }
                if (!ok) {
                    for (int64_t block : blocks)
                        allocator.release(block);
                    check("a rolled-back admission");
                    continue;
                }
                cache.insert(0, keys, blocks);
                sequences[next_id++] = blocks;
                check("an admission");
            } else if (kind < 5 && !sequences.empty()) {
                const std::vector<int64_t> &parent =
                    sequences.begin()->second;
                for (int64_t block : parent)
                    allocator.addRef(block);
                sequences[next_id++] = parent;
                check("a fork");
            } else if (kind < 8 && !sequences.empty()) {
                auto it = sequences.begin();
                std::advance(it, static_cast<long>(rng.uniformInt(
                                     sequences.size())));
                for (int64_t block : it->second)
                    allocator.release(block);
                sequences.erase(it);
                check("a release");
            } else if (kind < 9) {
                cache.evictOne();
                check("an eviction");
            } else if (rng.uniformInt(8) == 0) {
                cache.clear();
                check("a clear");
            }
        }
    }
}

} // namespace
} // namespace prefix
} // namespace comet
