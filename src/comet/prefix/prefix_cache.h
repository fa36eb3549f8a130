/**
 * @file
 * The prefix cache: radix index + block references + accounting.
 *
 * PrefixCache is the layer between the pure index (radix_index.h) and
 * the paged KV cache. It pins every indexed page with one allocator
 * reference of its own, so a cached prefix survives the sequences
 * that built it — that reference is what the rest of the stack
 * observes, and what the chaos auditors account for (an index-held
 * block legitimately carries one refcount more than its chain
 * membership explains).
 *
 * Lifecycle of a page:
 *
 *  - **graft** (match): an incoming prompt's key chain is walked
 *    through the index; matched block ids are handed to the caller,
 *    which maps them into the new sequence via addRef — the COW
 *    machinery from lazy forks, unchanged. `COMET_FAILPOINT
 *    ("prefix.graft")` sits on this path: a fired graft is a forced
 *    miss, and the request falls back to a full prefill (recoverable
 *    by construction — the cache is an optimization, never load-
 *    bearing for correctness).
 *
 *  - **insert**: after a prompt's blocks exist, its full-block chain
 *    is offered to the index root-first; each newly indexed page
 *    gains the cache's reference. Duplicate keys keep the first
 *    insert (the page already cached serves future matches).
 *
 *  - **evict**: when the KV cache wants memory back, evictOne()
 *    releases the least-recently-used *leaf* page that only the index
 *    still references (refcount 1). Interior nodes and pages mapped
 *    into live sequences are never evicted. Order is deterministic
 *    (logical LRU ticks), so eviction behaves identically across runs
 *    and thread counts.
 *
 * All counters land in the global metrics registry under `prefix.*`
 * and the three operations emit `prefix/lookup`, `prefix/insert`, and
 * `prefix/evict` spans. Not thread-safe — the owning PagedKvCache is
 * the single mutator (itself driven by one scheduler thread).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/prefix/block_key.h"
#include "comet/prefix/radix_index.h"

namespace comet {

class BlockAllocator;

namespace prefix {

/** Lifetime totals of one PrefixCache (also published as prefix.*
 * metrics; kept locally so tests don't depend on the global
 * registry's cross-test accumulation). */
struct PrefixCacheStats {
    int64_t lookups = 0;        ///< match() calls with >= 1 key
    int64_t hits = 0;           ///< lookups matching >= 1 block
    int64_t misses = 0;         ///< lookups matching 0 blocks
    int64_t blocks_matched = 0; ///< pages grafted instead of computed
    int64_t blocks_inserted = 0; ///< pages newly indexed
    int64_t blocks_evicted = 0;  ///< pages released by eviction
    int64_t bytes_saved = 0;     ///< blocks_matched * bytes per page
    int64_t forced_misses = 0;   ///< lookups failed by prefix.graft
};

/**
 * The reference-holding cache over one BlockAllocator (see the file
 * comment). @p block_bytes is the quantized size of one page, used
 * only for the bytes-saved accounting.
 */
class PrefixCache
{
  public:
    /** Binds the cache to @p allocator; @p block_bytes sizes the
     * bytes-saved accounting. Holds no pages until insert(). */
    PrefixCache(BlockAllocator *allocator, int64_t block_bytes);
    /** Releases every cache-held reference (clear()). */
    ~PrefixCache();

    /** Caches hold allocator references and cannot be copied. @{ */
    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /**
     * Longest-prefix match of @p keys in @p namespace_id, capped at
     * @p max_blocks; matched block ids are appended to @p blocks
     * WITHOUT taking references — the caller grafts them (addRef)
     * while mapping its sequence. Returns the number matched (0 when
     * the graft failpoint fires).
     */
    int64_t match(int64_t namespace_id,
                  const std::vector<BlockKey> &keys, int64_t max_blocks,
                  std::vector<int64_t> *blocks);

    /**
     * Offers the chain @p keys -> @p blocks (parallel arrays,
     * root-first) for indexing; every newly indexed page gains the
     * cache's reference. Stops at the first key whose insert fails
     * with a missing parent (cannot happen for chains offered whole).
     * Returns the number of pages newly indexed.
     */
    int64_t insert(int64_t namespace_id,
                   const std::vector<BlockKey> &keys,
                   const std::vector<int64_t> &blocks);

    /**
     * Releases the LRU leaf page only the index still references.
     * Returns false when nothing is evictable (every cached page is
     * mapped into a live sequence or interior to a cached chain).
     */
    bool evictOne();

    /** Pages whose only reference is the index — an upper bound on
     * consecutive successful evictOne() calls, and exactly the count
     * freed by evicting until dry (leaf eviction unblocks parents).
     * O(1): the allocator keeps the count current (see
     * BlockAllocator::setIndexed). */
    int64_t evictableBlocks() const;

    /** evictableBlocks() recounted by walking every indexed page: the
     * oracle tests and audits check the incremental count against. */
    int64_t recountEvictableBlocks() const;

    /** Pages currently indexed (each holds one cache reference). */
    int64_t ownedBlocks() const
    {
        return index_.size();
    }

    /** Block ids of every indexed page, ascending (chaos audits). */
    std::vector<int64_t> heldBlocks() const
    {
        return index_.blockIds();
    }

    /** Drops the index and every cache-held reference. */
    void clear();

    /** Lifetime totals (see PrefixCacheStats). */
    const PrefixCacheStats &stats() const
    {
        return stats_;
    }

  private:
    BlockAllocator *allocator_;
    int64_t block_bytes_;
    RadixIndex index_;
    PrefixCacheStats stats_;
};

} // namespace prefix
} // namespace comet
