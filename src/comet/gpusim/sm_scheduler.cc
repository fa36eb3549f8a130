#include "comet/gpusim/sm_scheduler.h"

#include <algorithm>
#include <numeric>

#include "comet/common/status.h"
#include "comet/obs/metrics.h"
#include "comet/obs/trace_session.h"

namespace comet {

const char *
schedulingStrategyName(SchedulingStrategy strategy)
{
    switch (strategy) {
      case SchedulingStrategy::kNaiveSync: return "naive-sync";
      case SchedulingStrategy::kBarrierMinimized: return "barrier-min";
      case SchedulingStrategy::kTileRemapping: return "tile-remap";
      case SchedulingStrategy::kTaskStealing: return "task-steal";
    }
    return "?";
}

double
ScheduleResult::utilization() const
{
    if (makespan <= 0.0 || sm_busy.empty())
        return 1.0;
    double busy = 0.0;
    for (double b : sm_busy)
        busy += b;
    return busy / (makespan * static_cast<double>(sm_busy.size()));
}

namespace {

/** Waves of num_sms tiles with a barrier after each wave. */
ScheduleResult
scheduleNaiveSync(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    for (size_t i = 0; i < tiles.size();
         i += static_cast<size_t>(num_sms)) {
        double wave_max = 0.0;
        for (int s = 0; s < num_sms; ++s) {
            const size_t idx = i + static_cast<size_t>(s);
            if (idx >= tiles.size())
                break;
            result.sm_busy[static_cast<size_t>(s)] +=
                tiles[idx].duration;
            wave_max = std::max(wave_max, tiles[idx].duration);
        }
        result.makespan += wave_max;
        ++result.barriers;
    }
    for (const TileWork &tile : tiles)
        result.total_work += tile.duration;
    return result;
}

/** Static cyclic binding (tile i -> SM i % num_sms), no per-wave
 * barriers; makespan is the busiest SM. */
ScheduleResult
scheduleBarrierMinimized(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    for (size_t i = 0; i < tiles.size(); ++i) {
        result.sm_busy[i % static_cast<size_t>(num_sms)] +=
            tiles[i].duration;
        result.total_work += tiles[i].duration;
    }
    for (double busy : result.sm_busy)
        result.makespan = std::max(result.makespan, busy);
    result.barriers = 1; // only the final pre-writeback barrier
    return result;
}

/**
 * Tile remapping (Figure 8(d)): tiles are dealt to SMs round-robin
 * *per precision class*, so every SM receives a near-equal share of
 * INT4 and INT8 work. This matches the paper's "distribute the INT4
 * and INT8 mma computations as evenly as possible" — a static
 * remapping, not an idealized optimal packing, so a residual
 * imbalance of up to one tile per class remains (the gap tile
 * decomposition closes).
 */
ScheduleResult
scheduleRemapping(const std::vector<TileWork> &tiles, int num_sms)
{
    ScheduleResult result;
    result.sm_busy.assign(static_cast<size_t>(num_sms), 0.0);
    size_t next_int4 = 0, next_int8 = 0;
    for (const TileWork &tile : tiles) {
        size_t &cursor = tile.precision == BlockPrecision::kInt4
                             ? next_int4
                             : next_int8;
        result.sm_busy[cursor % static_cast<size_t>(num_sms)] +=
            tile.duration;
        ++cursor;
        result.total_work += tile.duration;
    }
    for (double busy : result.sm_busy)
        result.makespan = std::max(result.makespan, busy);
    result.barriers = 1;
    return result;
}

/**
 * Tile decomposition / task stealing (Figure 8(e)): on top of the
 * remapped schedule, idle SMs steal fractions of the remaining tiles
 * near the kernel tail. Stealing is opportunistic — an SM only takes
 * work it would otherwise idle through — so it can only improve the
 * makespan; each stolen fragment pays a reduction overhead, and a
 * tile splits into at most steal_split fragments. @p max_tile is the
 * longest tile duration.
 */
void
stealTail(ScheduleResult &remapped, double max_tile,
          const SchedulerConfig &config)
{
    const auto num_sms = static_cast<double>(config.num_sms);
    // Work above the balanced waterline migrates to idle SMs,
    // inflated by the per-steal reduction overhead.
    const double target = remapped.total_work / num_sms;
    double transferred = 0.0;
    for (double busy : remapped.sm_busy)
        transferred += std::max(0.0, busy - target);

    const double inflated =
        remapped.total_work + transferred * config.steal_overhead;
    // A tile fragments at most steal_split ways, bounding how finely
    // the tail can be balanced.
    const double balanced =
        std::max(inflated / num_sms,
                 max_tile / static_cast<double>(config.steal_split));
    if (balanced < remapped.makespan) {
        remapped.makespan = balanced;
        remapped.total_work = inflated;
        std::fill(remapped.sm_busy.begin(), remapped.sm_busy.end(),
                  inflated / num_sms);
    }
}

ScheduleResult
scheduleTaskStealing(const std::vector<TileWork> &tiles,
                     const SchedulerConfig &config)
{
    ScheduleResult result = scheduleRemapping(tiles, config.num_sms);
    double max_tile = 0.0;
    for (const TileWork &tile : tiles)
        max_tile = std::max(max_tile, tile.duration);
    stealTail(result, max_tile, config);
    return result;
}

/** Sets the makespan to the busiest SM (the barrier-free policies). */
void
setMakespanToBusiestSm(ScheduleResult &result)
{
    for (double busy : result.sm_busy)
        result.makespan = std::max(result.makespan, busy);
}

/**
 * Prefix counts of INT8 k tiles: int8_prefix[j] is the number of INT8
 * tiles among k tiles [0, j).
 */
std::vector<int64_t>
int8Prefix(const std::vector<BlockPrecision> &pattern)
{
    std::vector<int64_t> prefix(pattern.size() + 1, 0);
    for (size_t j = 0; j < pattern.size(); ++j) {
        prefix[j + 1] = prefix[j] +
                        (pattern[j] == BlockPrecision::kInt8 ? 1 : 0);
    }
    return prefix;
}

/**
 * INT8 tiles among @p length consecutive positions of a cyclic
 * sequence of @p period positions, starting at position @p start.
 * @p prefix holds period + 1 prefix counts: prefix[j] INT8 tiles among
 * positions [0, j).
 */
int64_t
int8InWindow(const int64_t *prefix, int64_t period, int64_t start,
             int64_t length)
{
    const int64_t end = start + length % period;
    int64_t count = length / period * prefix[period];
    if (end <= period)
        count += prefix[end] - prefix[start];
    else
        count += prefix[period] - prefix[start] + prefix[end - period];
    return count;
}

/** Busy time of @p int4 INT4 plus @p int8 INT8 tiles. */
double
classWork(const GemmTileGrid &grid, int64_t int4, int64_t int8)
{
    return static_cast<double>(int4) * grid.int4_tile_us +
           static_cast<double>(int8) * grid.int8_tile_us;
}

/**
 * Cyclic binding in closed form: tile i runs on SM i % num_sms, so SM
 * s sees k tiles s, s + S, s + 2S, ... (mod k_tiles). Stepping by
 * S mod k_tiles splits the k tiles into g = gcd(k_tiles, S) orbits of
 * k_tiles / g positions each; an SM walks the orbit of its residue
 * mod g from position s % k_tiles. Counting the INT8 tiles of whole
 * laps and of one partial lap, with per-orbit prefix counts, costs
 * O(k_tiles + S).
 */
std::vector<double>
cyclicBusy(const GemmTileGrid &grid, int num_sms)
{
    const auto k_tiles =
        static_cast<int64_t>(grid.k_tile_precisions.size());
    const int64_t sms = num_sms;
    const int64_t total = grid.tileCount();
    const int64_t step = sms % k_tiles;
    const int64_t orbits = std::gcd(k_tiles, sms);
    const int64_t lap = k_tiles / orbits;

    // orbit_prefix[r * (lap + 1) + j]: INT8 tiles among the first j
    // positions of orbit r; lap_index[p]: where k tile p sits in its
    // orbit.
    std::vector<int64_t> orbit_prefix(
        static_cast<size_t>(orbits * (lap + 1)), 0);
    std::vector<int64_t> lap_index(static_cast<size_t>(k_tiles), 0);
    for (int64_t r = 0; r < orbits; ++r) {
        int64_t pos = r;
        const size_t base = static_cast<size_t>(r * (lap + 1));
        for (int64_t j = 0; j < lap; ++j) {
            lap_index[static_cast<size_t>(pos)] = j;
            orbit_prefix[base + static_cast<size_t>(j) + 1] =
                orbit_prefix[base + static_cast<size_t>(j)] +
                (grid.k_tile_precisions[static_cast<size_t>(pos)] ==
                         BlockPrecision::kInt8
                     ? 1
                     : 0);
            pos += step;
            if (pos >= k_tiles)
                pos -= k_tiles;
        }
    }

    std::vector<double> busy(static_cast<size_t>(num_sms), 0.0);
    for (int64_t s = 0; s < std::min(sms, total); ++s) {
        const int64_t tiles = (total - 1 - s) / sms + 1;
        const int64_t pos = s % k_tiles;
        const int64_t int8 = int8InWindow(
            &orbit_prefix[static_cast<size_t>(pos % orbits * (lap + 1))],
            lap, lap_index[static_cast<size_t>(pos)], tiles);
        busy[static_cast<size_t>(s)] =
            classWork(grid, tiles - int8, int8);
    }
    return busy;
}

/**
 * Waves in closed form. A full wave of S tiles starting at issue
 * position w * S covers k tiles [w * S, w * S + S) mod k_tiles, so its
 * slowest tile depends only on w mod (k_tiles / gcd(k_tiles, S)):
 * classify the start offsets of one period, weight each by how many
 * full waves start there, then add the final partial wave.
 */
ScheduleResult
gridNaiveSync(const GemmTileGrid &grid, double total_work, int num_sms)
{
    const auto k_tiles =
        static_cast<int64_t>(grid.k_tile_precisions.size());
    const int64_t sms = num_sms;
    const int64_t total = grid.tileCount();
    const std::vector<int64_t> int8_prefix =
        int8Prefix(grid.k_tile_precisions);
    const double int4_us = grid.int4_tile_us;
    const double int8_us = grid.int8_tile_us;

    // Waves whose slowest tile is INT8 / INT4.
    int64_t int8_waves = 0, int4_waves = 0;
    auto classify = [&](int64_t start, int64_t length,
                        int64_t waves) {
        const int64_t int8 =
            int8InWindow(int8_prefix.data(), k_tiles, start, length);
        const bool has_int8 = int8 > 0;
        const bool has_int4 = int8 < length;
        if (has_int8 && (!has_int4 || int8_us >= int4_us))
            int8_waves += waves;
        else
            int4_waves += waves;
    };
    const int64_t full_waves = total / sms;
    const int64_t step = sms % k_tiles;
    const int64_t period = k_tiles / std::gcd(k_tiles, sms);
    int64_t start = 0;
    for (int64_t j = 0; j < std::min(period, full_waves); ++j) {
        classify(start, sms,
                 full_waves / period + (j < full_waves % period ? 1 : 0));
        start += step;
        if (start >= k_tiles)
            start -= k_tiles;
    }
    const int64_t tail = total % sms;
    if (tail > 0)
        classify(full_waves % k_tiles * step % k_tiles, tail, 1);

    ScheduleResult result;
    result.sm_busy = cyclicBusy(grid, num_sms);
    result.makespan = static_cast<double>(int8_waves) * int8_us +
                      static_cast<double>(int4_waves) * int4_us;
    result.total_work = total_work;
    result.barriers = int8_waves + int4_waves;
    return result;
}

ScheduleResult
gridBarrierMinimized(const GemmTileGrid &grid, double total_work,
                     int num_sms)
{
    ScheduleResult result;
    result.sm_busy = cyclicBusy(grid, num_sms);
    result.total_work = total_work;
    setMakespanToBusiestSm(result);
    result.barriers = 1;
    return result;
}

/** Remapping in closed form: each class is dealt round-robin from SM
 * 0, so SM s holds floor(C/S) tiles of a class of C tiles, plus one
 * when s < C mod S. */
ScheduleResult
gridRemapping(const GemmTileGrid &grid, int64_t int8_tiles,
              double total_work, int num_sms)
{
    const int64_t sms = num_sms;
    const int64_t int4_tiles = grid.tileCount() - int8_tiles;
    ScheduleResult result;
    result.total_work = total_work;
    result.sm_busy.resize(static_cast<size_t>(num_sms));
    for (int64_t s = 0; s < sms; ++s) {
        result.sm_busy[static_cast<size_t>(s)] = classWork(
            grid, int4_tiles / sms + (s < int4_tiles % sms ? 1 : 0),
            int8_tiles / sms + (s < int8_tiles % sms ? 1 : 0));
    }
    setMakespanToBusiestSm(result);
    result.barriers = 1;
    return result;
}

} // namespace

ScheduleResult
scheduleGemmTiles(const GemmTileGrid &grid,
                  const SchedulerConfig &config,
                  SchedulingStrategy strategy)
{
    COMET_SPAN("gpusim/schedule_tiles");
    static obs::Counter &tiles_counter =
        obs::MetricsRegistry::global().counter(
            "gpusim.tiles_scheduled");
    const int64_t total = grid.tileCount();
    tiles_counter.add(total);
    COMET_CHECK(config.num_sms > 0);
    COMET_CHECK(grid.mn_tiles >= 0);
    COMET_CHECK(grid.int4_tile_us >= 0.0 && grid.int8_tile_us >= 0.0);
    if (total == 0) {
        ScheduleResult empty;
        empty.sm_busy.assign(static_cast<size_t>(config.num_sms), 0.0);
        return empty;
    }
    const int64_t int8_tiles =
        grid.mn_tiles *
        std::count(grid.k_tile_precisions.begin(),
                   grid.k_tile_precisions.end(), BlockPrecision::kInt8);
    const double total_work =
        classWork(grid, total - int8_tiles, int8_tiles);
    switch (strategy) {
      case SchedulingStrategy::kNaiveSync:
        return gridNaiveSync(grid, total_work, config.num_sms);
      case SchedulingStrategy::kBarrierMinimized:
        return gridBarrierMinimized(grid, total_work, config.num_sms);
      case SchedulingStrategy::kTileRemapping:
        return gridRemapping(grid, int8_tiles, total_work,
                             config.num_sms);
      case SchedulingStrategy::kTaskStealing: {
        COMET_CHECK(config.steal_split >= 1);
        ScheduleResult result = gridRemapping(grid, int8_tiles,
                                              total_work, config.num_sms);
        const double max_tile =
            std::max(int8_tiles < total ? grid.int4_tile_us : 0.0,
                     int8_tiles > 0 ? grid.int8_tile_us : 0.0);
        stealTail(result, max_tile, config);
        return result;
      }
    }
    COMET_CHECK_MSG(false, "unknown scheduling strategy");
    return {};
}

ScheduleResult
scheduleTiles(const std::vector<TileWork> &tiles,
              const SchedulerConfig &config, SchedulingStrategy strategy)
{
    COMET_SPAN("gpusim/schedule_tiles");
    static obs::Counter &tiles_counter =
        obs::MetricsRegistry::global().counter(
            "gpusim.tiles_scheduled");
    tiles_counter.add(static_cast<int64_t>(tiles.size()));
    COMET_CHECK(config.num_sms > 0);
    if (tiles.empty()) {
        ScheduleResult empty;
        empty.sm_busy.assign(static_cast<size_t>(config.num_sms), 0.0);
        return empty;
    }
    switch (strategy) {
      case SchedulingStrategy::kNaiveSync:
        return scheduleNaiveSync(tiles, config.num_sms);
      case SchedulingStrategy::kBarrierMinimized:
        return scheduleBarrierMinimized(tiles, config.num_sms);
      case SchedulingStrategy::kTileRemapping:
        return scheduleRemapping(tiles, config.num_sms);
      case SchedulingStrategy::kTaskStealing:
        COMET_CHECK(config.steal_split >= 1);
        return scheduleTaskStealing(tiles, config);
    }
    COMET_CHECK_MSG(false, "unknown scheduling strategy");
    return {};
}

std::vector<TileWork>
buildGemmTiles(int64_t m, int64_t n, int64_t k, int64_t tile_m,
               int64_t tile_n, int64_t tile_k,
               const std::vector<BlockPrecision> &k_block_precisions,
               int64_t block_size, double int4_tile_us,
               double int8_tile_us)
{
    COMET_CHECK(m > 0 && n > 0 && k > 0);
    COMET_CHECK(tile_m > 0 && tile_n > 0 && tile_k > 0);
    COMET_CHECK(block_size > 0 && block_size % tile_k == 0);
    COMET_CHECK(static_cast<int64_t>(k_block_precisions.size()) ==
                (k + block_size - 1) / block_size);

    const int64_t m_tiles = (m + tile_m - 1) / tile_m;
    const int64_t n_tiles = (n + tile_n - 1) / tile_n;
    const int64_t k_tiles = (k + tile_k - 1) / tile_k;

    std::vector<TileWork> tiles;
    tiles.reserve(static_cast<size_t>(m_tiles * n_tiles * k_tiles));
    // Iteration order mirrors the kernel's issue order: the k split is
    // innermost (each (m, n, k) tile is its own thread block feeding
    // the cross-tile reduction), so consecutive tiles alternate
    // precision when k blocks do — reproducing the pathological
    // precision/SM correlation of Figure 8(b) under cyclic binding.
    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            for (int64_t kt = 0; kt < k_tiles; ++kt) {
                const int64_t block = (kt * tile_k) / block_size;
                const BlockPrecision precision =
                    k_block_precisions[static_cast<size_t>(block)];
                const double duration =
                    precision == BlockPrecision::kInt4 ? int4_tile_us
                                                       : int8_tile_us;
                tiles.push_back(TileWork{duration, precision});
            }
        }
    }
    return tiles;
}

} // namespace comet
