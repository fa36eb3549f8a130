/**
 * @file
 * Fine-grained SM scheduling (paper Section 4.4, Figure 8).
 *
 * A mixed-precision GEMM decomposes into tiles whose durations differ
 * (W4A4 tiles run ~2x faster than W4A8 tiles). How tiles are bound to
 * SMs determines utilization:
 *
 *  - kNaiveSync: tiles are issued in waves of num_sms with a
 *    synchronization barrier after every wave — every wave lasts as
 *    long as its slowest tile (Figure 8(b)).
 *  - kBarrierMinimized: the per-wave barriers are removed (only the
 *    final pre-writeback barrier remains), but the tile-to-SM binding
 *    stays the naive cyclic one, so SMs that keep drawing INT8 tiles
 *    still dominate the makespan (Figure 8(c)).
 *  - kTileRemapping: tiles are redistributed so each SM receives a
 *    balanced mix: each precision class is dealt round-robin over the
 *    SMs (Figure 8(d)).
 *  - kTaskStealing: additionally breaks the one-to-one tile/SM binding:
 *    idle SMs steal fractions of the remaining tiles near the end of
 *    the kernel (Figure 8(e)). Modeled by splitting tiles into
 *    sub-tiles (with a small reduction overhead per extra fragment)
 *    before balanced assignment.
 *
 * Two implementations of those four policies share ScheduleResult:
 *
 *  - scheduleGemmTiles is the closed form every cost estimate uses. A
 *    GEMM's tile list is its k-tile precision pattern repeated once per
 *    (m, n) output tile, so each policy reduces to counting: how many
 *    tiles of each class an SM receives, and how many waves end on an
 *    INT8 or an INT4 tile. Its cost is O(k_tiles + num_sms), however
 *    large M and N are.
 *  - scheduleTiles is the discrete reference simulation over an
 *    explicit tile list (buildGemmTiles enumerates a GEMM's). It is
 *    the test oracle of the closed form and schedules tile lists that
 *    are not GEMM grids.
 *
 * The two agree exactly in barrier counts and within summation
 * rounding in every duration: the closed form multiplies counts by
 * durations where the simulation adds one tile at a time.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/quant/fmpq.h"

namespace comet {

/** Tile-to-SM scheduling policy. */
enum class SchedulingStrategy {
    kNaiveSync = 0,
    kBarrierMinimized,
    kTileRemapping,
    kTaskStealing,
};

/** Returns a short human-readable strategy name. */
const char *schedulingStrategyName(SchedulingStrategy strategy);

/** One schedulable tile of a mixed-precision GEMM. */
struct TileWork {
    double duration = 0.0;       ///< microseconds on one SM
    BlockPrecision precision = BlockPrecision::kInt4;
};

/** Outcome of scheduling a tile list onto the SMs. */
struct ScheduleResult {
    double makespan = 0.0;          ///< kernel duration, microseconds
    double total_work = 0.0;        ///< sum of tile durations
    std::vector<double> sm_busy;    ///< per-SM busy time
    int64_t barriers = 0;           ///< synchronization barriers issued

    /** Mean busy fraction across SMs: total busy / (SMs * makespan). */
    double utilization() const;
};

/** Scheduler configuration. */
struct SchedulerConfig {
    int num_sms = 108;
    /** Task stealing splits each tile into this many sub-tiles. */
    int steal_split = 4;
    /** Fractional duration overhead added per extra sub-tile fragment
     * (covers the cross-SM reduction of partial accumulators). */
    double steal_overhead = 0.03;
};

/**
 * The tile grid of one mixed-precision GEMM: the per-k-tile precision
 * pattern, repeated once per (m, n) output tile. Tile i of the issue
 * order is k tile i % k_tiles of output tile i / k_tiles — the order
 * buildGemmTiles enumerates.
 */
struct GemmTileGrid {
    int64_t mn_tiles = 0; ///< m_tiles * n_tiles
    std::vector<BlockPrecision> k_tile_precisions;
    double int4_tile_us = 0.0; ///< duration of a W4A4 tile on one SM
    double int8_tile_us = 0.0; ///< duration of a W4A8 tile on one SM

    /** Total tiles, mn_tiles * k_tiles. */
    int64_t
    tileCount() const
    {
        return mn_tiles *
               static_cast<int64_t>(k_tile_precisions.size());
    }
};

/**
 * Schedules a GEMM tile grid in closed form: the result of
 * scheduleTiles on the grid's enumerated tile list, up to summation
 * rounding, in O(k_tiles + num_sms) time.
 */
ScheduleResult scheduleGemmTiles(const GemmTileGrid &grid,
                                 const SchedulerConfig &config,
                                 SchedulingStrategy strategy);

/** Simulates the given policy over the tile list (the reference the
 * closed form is tested against). */
ScheduleResult scheduleTiles(const std::vector<TileWork> &tiles,
                             const SchedulerConfig &config,
                             SchedulingStrategy strategy);

/**
 * Builds the tile list of an (m, n, k) GEMM with the given per-k-block
 * precision pattern: tiles iterate over the m x n grid for each k block,
 * with per-tile durations supplied by the caller.
 */
std::vector<TileWork> buildGemmTiles(int64_t m, int64_t n, int64_t k,
                                     int64_t tile_m, int64_t tile_n,
                                     int64_t tile_k,
                                     const std::vector<BlockPrecision>
                                         &k_block_precisions,
                                     int64_t block_size,
                                     double int4_tile_us,
                                     double int8_tile_us);

} // namespace comet
