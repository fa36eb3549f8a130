/**
 * @file
 * Paged KV-cache block allocator (vLLM-style; paper Section 5 adopts
 * PagedAttention's memory management).
 *
 * The KV cache is carved into fixed-size blocks of block_tokens tokens;
 * sequences own chains of blocks allocated on demand, and blocks are
 * reference-counted so shared prefixes can be mapped copy-on-write.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/common/status.h"

namespace comet {

/**
 * Fixed-pool block allocator with reference counting.
 */
class BlockAllocator
{
  public:
    /** Creates a pool of @p num_blocks blocks, all free. */
    explicit BlockAllocator(int64_t num_blocks);

    int64_t totalBlocks() const { return total_; }
    int64_t freeBlocks() const
    {
        return static_cast<int64_t>(free_list_.size());
    }
    int64_t
    usedBlocks() const
    {
        return total_ - freeBlocks();
    }

    /** Allocates one block (refcount 1); fails when the pool is
     * exhausted. */
    Result<int64_t> allocate();

    /** Increments the refcount of an allocated block (prefix
     * sharing). */
    void addRef(int64_t block);

    /** Decrements the refcount; the block returns to the free list at
     * zero. */
    void release(int64_t block);

    /** Current refcount (0 = free). */
    int refCount(int64_t block) const;

    /**
     * Marks the allocated @p block as held (or no longer held) by a
     * prefix index, whose own reference is one of its refcount. A
     * marked block that returns to the free list is unmarked.
     */
    void setIndexed(int64_t block, bool indexed);

    /**
     * Marked blocks whose refcount is exactly 1 — pages only the
     * index references. Kept current by addRef/release on the 1<->2
     * and 1->0 transitions of marked blocks, so reading it is O(1).
     */
    int64_t indexedSoleBlocks() const { return indexed_sole_; }

  private:
    int64_t total_;
    std::vector<int> ref_counts_;
    /** Per-block prefix-index mark (see setIndexed). */
    std::vector<bool> indexed_;
    int64_t indexed_sole_ = 0;
    std::vector<int64_t> free_list_;
};

} // namespace comet
