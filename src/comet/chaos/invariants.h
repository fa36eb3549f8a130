/**
 * @file
 * Whole-state invariant checkers for the chaos harness.
 *
 * Each checker walks a serving-stack component and cross-validates
 * its redundant bookkeeping, returning a descriptive error Status on
 * the first violation instead of aborting — the harness wants to
 * report the violated invariant together with the seed and the
 * (shrunk) step script that produced it.
 *
 * KV cache invariants (checked after every fuzzer op and at
 * quiescence):
 *  - block conservation: free + physically-used = total, and the
 *    number of blocks with a nonzero refcount equals the allocator's
 *    used count;
 *  - refcount/chain agreement: every allocated block appears in the
 *    live sequences' chains exactly refcount times (copy-on-write
 *    forks share blocks; nothing else may), *plus one* when the
 *    prefix index holds it (PagedKvCache::prefixHeldBlocks() — a
 *    cached page legitimately outlives the sequences that built it),
 *    so a block referenced by no chain and not indexed is a leak and
 *    a chain entry without a matching reference is a dangling page;
 *  - admission capacity: availableBlocks(), which the allocator
 *    keeps incrementally, equals free blocks plus a recount of the
 *    indexed pages whose only reference is the index's;
 *  - chain sizing: each sequence's chain holds exactly
 *    blocksForTokens(tokens) pages, and the logical page total is the
 *    sum of chain lengths;
 *  - quiescence: with no live sequence, every allocated block is a
 *    prefix-index page (zero with the prefix cache off), and
 *    clearPrefixCache() would therefore free the pool completely.
 */
#pragma once

#include "comet/common/status.h"
#include "comet/kvcache/kv_cache.h"

namespace comet {
namespace chaos {

/** Cross-validates allocator refcounts against the live sequences'
 * block chains (see the file comment). OK when consistent. */
Status checkKvCacheConsistency(const PagedKvCache &cache);

/** checkKvCacheConsistency plus: no live sequences and zero blocks in
 * use — the post-drain zero-leak check. */
Status checkKvCacheQuiescent(const PagedKvCache &cache);

} // namespace chaos
} // namespace comet
