#include "comet/chaos/invariants.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace comet {
namespace chaos {

namespace {

Status
violation(const char *what, int64_t a, int64_t b)
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%s (%lld vs %lld)", what,
                  static_cast<long long>(a),
                  static_cast<long long>(b));
    return Status::internal(buffer);
}

} // namespace

Status
checkKvCacheConsistency(const PagedKvCache &cache)
{
    const int64_t total = cache.totalBlocks();

    // Expected refcount of every block, from the chains of the live
    // sequences; also the chain-sizing checks along the way.
    std::map<int64_t, int64_t> expected_refs;
    int64_t logical = 0;
    for (int64_t seq_id : cache.sequenceIds()) {
        const std::vector<int64_t> &blocks =
            cache.sequenceBlocks(seq_id);
        const int64_t tokens = cache.sequenceTokens(seq_id);
        if (static_cast<int64_t>(blocks.size()) !=
            cache.blocksForTokens(tokens)) {
            return violation(
                "sequence chain length != blocksForTokens(tokens)",
                static_cast<int64_t>(blocks.size()),
                cache.blocksForTokens(tokens));
        }
        for (int64_t block : blocks) {
            if (block < 0 || block >= total) {
                return violation("chain references an out-of-range "
                                 "block id",
                                 block, total);
            }
            ++expected_refs[block];
        }
        logical += static_cast<int64_t>(blocks.size());
    }
    // The prefix index holds exactly one reference per indexed page,
    // on top of whatever chains share it.
    const std::vector<int64_t> held = cache.prefixHeldBlocks();
    for (size_t i = 0; i < held.size(); ++i) {
        const int64_t block = held[i];
        if (block < 0 || block >= total) {
            return violation("prefix index holds an out-of-range "
                             "block id",
                             block, total);
        }
        if (i > 0 && held[i - 1] >= block) {
            return violation("prefix index block ids not strictly "
                             "ascending (duplicate hold)",
                             held[i - 1], block);
        }
        ++expected_refs[block];
    }
    if (logical != cache.logicalBlocksInUse()) {
        return violation("sum of chain lengths != "
                         "logicalBlocksInUse()",
                         logical, cache.logicalBlocksInUse());
    }

    // Block conservation and refcount/chain agreement over the whole
    // pool.
    int64_t physically_referenced = 0;
    for (int64_t block = 0; block < total; ++block) {
        const int64_t refs = cache.blockRefCount(block);
        const auto it = expected_refs.find(block);
        const int64_t expected =
            it == expected_refs.end() ? 0 : it->second;
        if (refs != expected) {
            char buffer[160];
            std::snprintf(
                buffer, sizeof(buffer),
                "block %lld refcount %lld but the live chains "
                "reference it %lld times",
                static_cast<long long>(block),
                static_cast<long long>(refs),
                static_cast<long long>(expected));
            return Status::internal(buffer);
        }
        if (refs > 0)
            ++physically_referenced;
    }
    if (physically_referenced != cache.physicalBlocksInUse()) {
        return violation("blocks with refcount > 0 != "
                         "physicalBlocksInUse() (leaked block)",
                         physically_referenced,
                         cache.physicalBlocksInUse());
    }
    if (cache.freeBlocks() + cache.physicalBlocksInUse() != total) {
        return violation("free + used != total blocks",
                         cache.freeBlocks() +
                             cache.physicalBlocksInUse(),
                         total);
    }
    // The incremental admission capacity against a recount: free
    // blocks plus the indexed pages no chain references.
    int64_t index_only = 0;
    for (int64_t block : held) {
        if (cache.blockRefCount(block) == 1)
            ++index_only;
    }
    if (cache.availableBlocks() != cache.freeBlocks() + index_only) {
        return violation("availableBlocks() != free + index-only "
                         "pages (recounted)",
                         cache.availableBlocks(),
                         cache.freeBlocks() + index_only);
    }
    return Status::ok();
}

Status
checkKvCacheQuiescent(const PagedKvCache &cache)
{
    const Status consistent = checkKvCacheConsistency(cache);
    if (!consistent.isOk())
        return consistent;
    if (cache.numSequences() != 0) {
        return violation("sequences still live at quiescence",
                         cache.numSequences(), 0);
    }
    // Index-held pages may outlive the drain (that is the point of
    // the cache); anything beyond them is a leak. Consistency above
    // already proved each held page's refcount is exactly its index
    // hold once no chain references it.
    if (cache.physicalBlocksInUse() != cache.prefixOwnedBlocks()) {
        return violation("blocks allocated at quiescence beyond the "
                         "prefix index's holds (leak)",
                         cache.physicalBlocksInUse(),
                         cache.prefixOwnedBlocks());
    }
    return Status::ok();
}

} // namespace chaos
} // namespace comet
