#include "comet/kvcache/block_allocator.h"

#include "comet/chaos/failpoint.h"
#include "comet/obs/metrics.h"

namespace comet {

namespace {

/** Process-wide allocator traffic counters (cached references: the
 * registry mutex is paid once, not per block operation). */
obs::Counter &
blocksAllocatedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter(
            "kvcache.blocks_allocated");
    return counter;
}

obs::Counter &
blocksReleasedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter(
            "kvcache.blocks_released");
    return counter;
}

obs::Counter &
allocExhaustedCounter()
{
    static obs::Counter &counter =
        obs::MetricsRegistry::global().counter(
            "kvcache.alloc_exhausted");
    return counter;
}

} // namespace

BlockAllocator::BlockAllocator(int64_t num_blocks) : total_(num_blocks)
{
    COMET_CHECK(num_blocks > 0);
    ref_counts_.assign(static_cast<size_t>(num_blocks), 0);
    indexed_.assign(static_cast<size_t>(num_blocks), false);
    free_list_.reserve(static_cast<size_t>(num_blocks));
    // Hand out low block ids first (LIFO free list, reversed fill).
    for (int64_t b = num_blocks - 1; b >= 0; --b)
        free_list_.push_back(b);
}

Result<int64_t>
BlockAllocator::allocate()
{
    // Chaos hook: an armed schedule injects a synthetic OOM that is
    // indistinguishable from real exhaustion, driving every consumer
    // down its recovery path (rollback, preemption, re-admission).
    if (COMET_FAILPOINT("kv.alloc")) {
        allocExhaustedCounter().add(1);
        return Status::resourceExhausted(
            "KV cache block pool exhausted (injected)");
    }
    if (free_list_.empty()) {
        allocExhaustedCounter().add(1);
        return Status::resourceExhausted(
            "KV cache block pool exhausted");
    }
    const int64_t block = free_list_.back();
    free_list_.pop_back();
    ref_counts_[static_cast<size_t>(block)] = 1;
    blocksAllocatedCounter().add(1);
    return block;
}

void
BlockAllocator::addRef(int64_t block)
{
    COMET_CHECK(block >= 0 && block < total_);
    int &count = ref_counts_[static_cast<size_t>(block)];
    COMET_CHECK_MSG(count > 0, "addRef on a free block");
    if (count == 1 && indexed_[static_cast<size_t>(block)])
        --indexed_sole_;
    ++count;
}

void
BlockAllocator::release(int64_t block)
{
    COMET_CHECK(block >= 0 && block < total_);
    int &count = ref_counts_[static_cast<size_t>(block)];
    COMET_CHECK_MSG(count > 0, "release on a free block");
    --count;
    if (indexed_[static_cast<size_t>(block)]) {
        if (count == 1) {
            ++indexed_sole_;
        } else if (count == 0) {
            --indexed_sole_;
            indexed_[static_cast<size_t>(block)] = false;
        }
    }
    if (count == 0) {
        free_list_.push_back(block);
        blocksReleasedCounter().add(1);
    }
}

void
BlockAllocator::setIndexed(int64_t block, bool indexed)
{
    COMET_CHECK(block >= 0 && block < total_);
    COMET_CHECK_MSG(ref_counts_[static_cast<size_t>(block)] > 0,
                    "setIndexed on a free block");
    if (indexed_[static_cast<size_t>(block)] == indexed)
        return;
    indexed_[static_cast<size_t>(block)] = indexed;
    if (ref_counts_[static_cast<size_t>(block)] == 1)
        indexed_sole_ += indexed ? 1 : -1;
}

int
BlockAllocator::refCount(int64_t block) const
{
    COMET_CHECK(block >= 0 && block < total_);
    return ref_counts_[static_cast<size_t>(block)];
}

} // namespace comet
