#include "comet/prefix/prefix_cache.h"

#include "comet/chaos/failpoint.h"
#include "comet/kvcache/block_allocator.h"
#include "comet/obs/metrics.h"
#include "comet/obs/trace_session.h"

namespace comet {
namespace prefix {

namespace {

struct PrefixCounters {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &blocks_matched;
    obs::Counter &blocks_inserted;
    obs::Counter &blocks_evicted;
    obs::Counter &bytes_saved;
    obs::Counter &forced_misses;
};

PrefixCounters &
counters()
{
    auto &reg = obs::MetricsRegistry::global();
    static PrefixCounters c = {
        reg.counter("prefix.hits"),
        reg.counter("prefix.misses"),
        reg.counter("prefix.blocks_matched"),
        reg.counter("prefix.blocks_inserted"),
        reg.counter("prefix.blocks_evicted"),
        reg.counter("prefix.bytes_saved"),
        reg.counter("prefix.forced_misses"),
    };
    return c;
}

} // namespace

PrefixCache::PrefixCache(BlockAllocator *allocator, int64_t block_bytes)
    : allocator_(allocator), block_bytes_(block_bytes)
{
    COMET_CHECK(allocator_ != nullptr);
    COMET_CHECK(block_bytes_ > 0);
}

PrefixCache::~PrefixCache()
{
    clear();
}

int64_t
PrefixCache::match(int64_t namespace_id, const std::vector<BlockKey> &keys,
                   int64_t max_blocks, std::vector<int64_t> *blocks)
{
    if (keys.empty() || max_blocks <= 0) {
        return 0;
    }
    COMET_SPAN("prefix/lookup");
    ++stats_.lookups;
    if (COMET_FAILPOINT("prefix.graft")) {
        // A fired graft is a forced miss: the request computes its
        // full prefill and the cache stays untouched (recoverable).
        ++stats_.misses;
        ++stats_.forced_misses;
        counters().misses.add(1);
        counters().forced_misses.add(1);
        return 0;
    }
    const int64_t matched =
        index_.match(namespace_id, keys, max_blocks, blocks);
    if (matched > 0) {
        ++stats_.hits;
        stats_.blocks_matched += matched;
        stats_.bytes_saved += matched * block_bytes_;
        counters().hits.add(1);
        counters().blocks_matched.add(matched);
        counters().bytes_saved.add(matched * block_bytes_);
    } else {
        ++stats_.misses;
        counters().misses.add(1);
    }
    return matched;
}

int64_t
PrefixCache::insert(int64_t namespace_id, const std::vector<BlockKey> &keys,
                    const std::vector<int64_t> &blocks)
{
    COMET_CHECK(keys.size() == blocks.size());
    if (keys.empty()) {
        return 0;
    }
    COMET_SPAN("prefix/insert");
    int64_t inserted = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        const BlockKey parent = i == 0 ? 0 : keys[i - 1];
        if (index_.insert(namespace_id, keys[i], parent,
                          static_cast<int64_t>(i), blocks[i])) {
            allocator_->addRef(blocks[i]);
            allocator_->setIndexed(blocks[i], true);
            ++inserted;
        }
    }
    if (inserted > 0) {
        stats_.blocks_inserted += inserted;
        counters().blocks_inserted.add(inserted);
    }
    return inserted;
}

bool
PrefixCache::evictOne()
{
    COMET_SPAN("prefix/evict");
    IndexNode victim;
    const bool evicted = index_.evictLru(
        [this](int64_t block) { return allocator_->refCount(block) == 1; },
        &victim);
    if (!evicted) {
        return false;
    }
    allocator_->release(victim.block);
    ++stats_.blocks_evicted;
    counters().blocks_evicted.add(1);
    return true;
}

int64_t
PrefixCache::evictableBlocks() const
{
    // Index-only pages (refcount 1) form a downward-closed subtree
    // set: a sequence mapping a child page necessarily maps (and so
    // references) every ancestor. Leaf-first eviction therefore
    // reaches all of them, making this count exact, not just a bound.
    return allocator_->indexedSoleBlocks();
}

int64_t
PrefixCache::recountEvictableBlocks() const
{
    int64_t evictable = 0;
    index_.forEach([&](const IndexNode &node) {
        if (allocator_->refCount(node.block) == 1) {
            ++evictable;
        }
    });
    return evictable;
}

void
PrefixCache::clear()
{
    index_.clear([this](int64_t block) {
        allocator_->setIndexed(block, false);
        allocator_->release(block);
    });
}

} // namespace prefix
} // namespace comet
