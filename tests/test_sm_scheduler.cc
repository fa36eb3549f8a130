/**
 * @file
 * Unit tests for the fine-grained SM scheduler (paper Figure 8), and
 * the differential proof that the closed-form GEMM scheduler matches
 * the enumerating reference simulation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <sstream>
#include <string>

#include "comet/common/rng.h"
#include "comet/gpusim/sm_scheduler.h"
#include "comet/obs/metrics.h"

namespace comet {
namespace {

/** Alternating INT8/INT4 tile list, the Figure 8 pattern. */
std::vector<TileWork>
alternatingTiles(int64_t count, double int4_us, double int8_us)
{
    std::vector<TileWork> tiles;
    for (int64_t i = 0; i < count; ++i) {
        const bool is_int8 = i % 2 == 0;
        tiles.push_back(TileWork{is_int8 ? int8_us : int4_us,
                                 is_int8 ? BlockPrecision::kInt8
                                         : BlockPrecision::kInt4});
    }
    return tiles;
}

SchedulerConfig
fourSms()
{
    SchedulerConfig config;
    config.num_sms = 4;
    return config;
}

TEST(Scheduler, NaiveSyncWavesBoundByslowestTile)
{
    // 8 alternating tiles on 4 SMs: 2 waves, each lasting the INT8
    // duration (Figure 8(b)).
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result =
        scheduleTiles(tiles, fourSms(), SchedulingStrategy::kNaiveSync);
    EXPECT_DOUBLE_EQ(result.makespan, 4.0);
    EXPECT_EQ(result.barriers, 2);
}

TEST(Scheduler, BarrierMinimizedKeepsCyclicPathology)
{
    // With the alternating pattern and cyclic binding, SM0 and SM2
    // receive every INT8 tile: makespan = all INT8 work on one SM
    // (Figure 8(c)).
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kBarrierMinimized);
    EXPECT_DOUBLE_EQ(result.makespan, 4.0); // 2 INT8 tiles x 2.0
    EXPECT_EQ(result.barriers, 1);
}

TEST(Scheduler, RemappingBalancesPrecisions)
{
    const auto tiles = alternatingTiles(8, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kTileRemapping);
    // LPT: each SM gets one INT8 (2.0) + one INT4 (1.0) = 3.0.
    EXPECT_DOUBLE_EQ(result.makespan, 3.0);
}

TEST(Scheduler, TaskStealingApproachesIdeal)
{
    // 2 tiles on 4 SMs: one-to-one binding strands half the SMs;
    // stealing splits the tiles (Figure 8(e)).
    std::vector<TileWork> tiles(2,
                                TileWork{4.0, BlockPrecision::kInt4});
    const double remap =
        scheduleTiles(tiles, fourSms(),
                      SchedulingStrategy::kTileRemapping)
            .makespan;
    const double steal =
        scheduleTiles(tiles, fourSms(),
                      SchedulingStrategy::kTaskStealing)
            .makespan;
    EXPECT_DOUBLE_EQ(remap, 4.0);
    EXPECT_LT(steal, remap * 0.65);
}

TEST(Scheduler, ProgressionNeverRegresses)
{
    // The paper's optimization ladder must be monotone on the
    // alternating workload.
    const auto tiles = alternatingTiles(42, 0.6, 1.2);
    SchedulerConfig config;
    config.num_sms = 8;
    const double naive =
        scheduleTiles(tiles, config, SchedulingStrategy::kNaiveSync)
            .makespan;
    const double barrier_min =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kBarrierMinimized)
            .makespan;
    const double remap =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kTileRemapping)
            .makespan;
    const double steal =
        scheduleTiles(tiles, config,
                      SchedulingStrategy::kTaskStealing)
            .makespan;
    EXPECT_LE(barrier_min, naive + 1e-9);
    EXPECT_LE(remap, barrier_min + 1e-9);
    EXPECT_LE(steal, remap + 1e-9);
}

TEST(Scheduler, MakespanNeverBelowWorkOverSms)
{
    const auto tiles = alternatingTiles(31, 0.7, 1.9);
    SchedulerConfig config;
    config.num_sms = 6;
    for (SchedulingStrategy strategy :
         {SchedulingStrategy::kNaiveSync,
          SchedulingStrategy::kBarrierMinimized,
          SchedulingStrategy::kTileRemapping,
          SchedulingStrategy::kTaskStealing}) {
        const ScheduleResult result =
            scheduleTiles(tiles, config, strategy);
        EXPECT_GE(result.makespan,
                  result.total_work / 6.0 - 1e-9)
            << schedulingStrategyName(strategy);
    }
}

TEST(Scheduler, UtilizationBetweenZeroAndOne)
{
    const auto tiles = alternatingTiles(10, 1.0, 2.0);
    const ScheduleResult result = scheduleTiles(
        tiles, fourSms(), SchedulingStrategy::kTileRemapping);
    EXPECT_GT(result.utilization(), 0.0);
    EXPECT_LE(result.utilization(), 1.0 + 1e-9);
}

TEST(Scheduler, EmptyTileListIsZero)
{
    const ScheduleResult result = scheduleTiles(
        {}, fourSms(), SchedulingStrategy::kTaskStealing);
    EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(BuildGemmTiles, CountsAndPattern)
{
    // The paper's running example: 256x256x384 GEMM, 128^3 tiles,
    // alternating k-block precision.
    const std::vector<BlockPrecision> pattern{
        BlockPrecision::kInt8, BlockPrecision::kInt4,
        BlockPrecision::kInt8};
    const auto tiles = buildGemmTiles(256, 256, 384, 128, 128, 128,
                                      pattern, 128, 1.0, 2.0);
    EXPECT_EQ(tiles.size(), 12u); // 2 x 2 x 3
    // k is innermost: tiles alternate per the k pattern.
    EXPECT_EQ(tiles[0].precision, BlockPrecision::kInt8);
    EXPECT_EQ(tiles[1].precision, BlockPrecision::kInt4);
    EXPECT_EQ(tiles[2].precision, BlockPrecision::kInt8);
    EXPECT_EQ(tiles[3].precision, BlockPrecision::kInt8);
}

TEST(BuildGemmTiles, RaggedShapesRoundUp)
{
    const std::vector<BlockPrecision> pattern{BlockPrecision::kInt4};
    const auto tiles = buildGemmTiles(100, 100, 100, 128, 128, 128,
                                      pattern, 128, 1.0, 2.0);
    EXPECT_EQ(tiles.size(), 1u);
}

TEST(Scheduler, StealOverheadChargedOnTransferredWorkOnly)
{
    // Two 4.0 tiles on 4 SMs: half the work (4.0) migrates to the
    // idle SMs and pays the reduction overhead.
    std::vector<TileWork> tiles(2,
                                TileWork{4.0, BlockPrecision::kInt4});
    SchedulerConfig config;
    config.num_sms = 4;
    config.steal_split = 4;
    config.steal_overhead = 0.10;
    const ScheduleResult result = scheduleTiles(
        tiles, config, SchedulingStrategy::kTaskStealing);
    EXPECT_NEAR(result.total_work, 8.0 + 4.0 * 0.10, 1e-9);
    EXPECT_NEAR(result.makespan, 8.4 / 4.0, 1e-9);
}

TEST(Scheduler, StealingIsOpportunistic)
{
    // An already-balanced schedule is left untouched: stealing never
    // regresses and charges no overhead.
    std::vector<TileWork> tiles(4,
                                TileWork{1.0, BlockPrecision::kInt4});
    SchedulerConfig config;
    config.num_sms = 4;
    config.steal_overhead = 0.10;
    const ScheduleResult result = scheduleTiles(
        tiles, config, SchedulingStrategy::kTaskStealing);
    EXPECT_NEAR(result.total_work, 4.0, 1e-9);
    EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

constexpr SchedulingStrategy kAllStrategies[] = {
    SchedulingStrategy::kNaiveSync,
    SchedulingStrategy::kBarrierMinimized,
    SchedulingStrategy::kTileRemapping,
    SchedulingStrategy::kTaskStealing,
};

/**
 * Checks one closed-form schedule against the enumerating reference
 * on the same grid. Barrier counts must match exactly; durations may
 * differ only by summation rounding: the reference adds up to
 * tileCount() durations one at a time, each addition rounding by at
 * most 2^-53 relative, where the closed form multiplies counts by
 * durations. The bound 4 * T * 2^-53 (T = tiles in the grid) covers
 * both sides' error with a factor-of-two margin.
 */
void
expectMatchesReference(int64_t m_tiles, int64_t n_tiles,
                       const GemmTileGrid &grid,
                       const SchedulerConfig &config,
                       const std::string &label)
{
    const auto k_tiles =
        static_cast<int64_t>(grid.k_tile_precisions.size());
    const std::vector<TileWork> tiles =
        buildGemmTiles(m_tiles, n_tiles, k_tiles, 1, 1, 1,
                       grid.k_tile_precisions, 1, grid.int4_tile_us,
                       grid.int8_tile_us);
    ASSERT_EQ(static_cast<int64_t>(tiles.size()), grid.tileCount());
    const double rel_tol =
        4.0 * static_cast<double>(grid.tileCount()) * DBL_EPSILON / 2.0;
    auto expect_close = [&](double closed, double reference,
                            const std::string &what) {
        EXPECT_LE(std::abs(closed - reference),
                  rel_tol * std::abs(reference))
            << label << " " << what << ": closed form " << closed
            << " vs reference " << reference;
    };
    for (SchedulingStrategy strategy : kAllStrategies) {
        const std::string name = schedulingStrategyName(strategy);
        const ScheduleResult reference =
            scheduleTiles(tiles, config, strategy);
        const ScheduleResult closed =
            scheduleGemmTiles(grid, config, strategy);
        EXPECT_EQ(closed.barriers, reference.barriers)
            << label << " " << name;
        expect_close(closed.makespan, reference.makespan,
                     name + " makespan");
        expect_close(closed.total_work, reference.total_work,
                     name + " total_work");
        ASSERT_EQ(closed.sm_busy.size(), reference.sm_busy.size())
            << label << " " << name;
        for (size_t s = 0; s < closed.sm_busy.size(); ++s) {
            expect_close(closed.sm_busy[s], reference.sm_busy[s],
                         name + " sm_busy[" + std::to_string(s) + "]");
        }
    }
}

GemmTileGrid
makeGrid(int64_t mn_tiles, std::vector<BlockPrecision> pattern,
         double int4_us, double int8_us)
{
    GemmTileGrid grid;
    grid.mn_tiles = mn_tiles;
    grid.k_tile_precisions = std::move(pattern);
    grid.int4_tile_us = int4_us;
    grid.int8_tile_us = int8_us;
    return grid;
}

std::vector<BlockPrecision>
randomPattern(Rng &rng, int64_t k_tiles, double int8_fraction)
{
    std::vector<BlockPrecision> pattern(static_cast<size_t>(k_tiles));
    for (BlockPrecision &precision : pattern) {
        precision = rng.uniform() < int8_fraction
                        ? BlockPrecision::kInt8
                        : BlockPrecision::kInt4;
    }
    return pattern;
}

TEST(ClosedFormScheduler, MatchesReferenceOnRandomGrids)
{
    Rng rng(20250314);
    constexpr int kCases = 2000;
    for (int c = 0; c < kCases; ++c) {
        const auto m_tiles = static_cast<int64_t>(rng.uniformInt(40)) + 1;
        const auto n_tiles = static_cast<int64_t>(rng.uniformInt(60)) + 1;
        const auto k_tiles =
            static_cast<int64_t>(rng.uniformInt(130)) + 1;
        SchedulerConfig config;
        config.num_sms = static_cast<int>(rng.uniformInt(140)) + 1;
        config.steal_split = static_cast<int>(rng.uniformInt(8)) + 1;
        config.steal_overhead = rng.uniform(0.0, 0.2);
        // Both orderings of the two tile durations.
        const GemmTileGrid grid = makeGrid(
            m_tiles * n_tiles,
            randomPattern(rng, k_tiles, rng.uniform()),
            rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0));
        std::ostringstream label;
        label << "case " << c << " (" << m_tiles << "x" << n_tiles
              << " mn, " << k_tiles << " k, " << config.num_sms
              << " SMs)";
        expectMatchesReference(m_tiles, n_tiles, grid, config,
                               label.str());
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(ClosedFormScheduler, MatchesReferenceOnEdgeGrids)
{
    struct Edge {
        const char *name;
        int64_t m_tiles, n_tiles, k_tiles;
        int num_sms;
        double int8_fraction;
    };
    const Edge edges[] = {
        {"fewer tiles than SMs", 1, 3, 5, 108, 0.4},
        {"one tile", 1, 1, 1, 108, 1.0},
        {"k_tiles a multiple of SMs", 7, 3, 96, 8, 0.3},
        {"SMs a multiple of k_tiles", 5, 9, 12, 108, 0.25},
        {"k_tiles equals SMs", 4, 4, 108, 108, 0.16},
        {"gcd greater than one", 9, 11, 64, 108, 0.16},
        {"coprime k_tiles and SMs", 13, 17, 97, 108, 0.5},
        {"all INT4", 6, 30, 32, 108, 0.0},
        {"all INT8", 6, 30, 32, 108, 1.0},
        {"one SM", 8, 9, 37, 1, 0.3},
        {"one k tile", 40, 60, 1, 108, 1.0},
        {"exact waves", 12, 9, 12, 108, 0.5},
    };
    Rng rng(7);
    for (const Edge &edge : edges) {
        SchedulerConfig config;
        config.num_sms = edge.num_sms;
        for (const auto &[int4_us, int8_us] :
             {std::pair{0.6, 1.3}, std::pair{1.3, 0.6},
              std::pair{1.0, 1.0}}) {
            const GemmTileGrid grid = makeGrid(
                edge.m_tiles * edge.n_tiles,
                randomPattern(rng, edge.k_tiles, edge.int8_fraction),
                int4_us, int8_us);
            expectMatchesReference(edge.m_tiles, edge.n_tiles, grid,
                                   config, edge.name);
        }
    }
}

TEST(ClosedFormScheduler, CountsEveryTileOfTheGrid)
{
    // The closed form schedules the grid without enumerating it, but
    // the tile counter still advances by m_tiles * n_tiles * k_tiles.
    obs::Counter &counter = obs::MetricsRegistry::global().counter(
        "gpusim.tiles_scheduled");
    const int64_t before = counter.value();
    const GemmTileGrid grid = makeGrid(
        6 * 7, {BlockPrecision::kInt4, BlockPrecision::kInt8,
                BlockPrecision::kInt4},
        1.0, 2.0);
    scheduleGemmTiles(grid, fourSms(), SchedulingStrategy::kNaiveSync);
    EXPECT_EQ(counter.value() - before, 6 * 7 * 3);
}

TEST(ClosedFormScheduler, EmptyGridIsZero)
{
    const ScheduleResult result = scheduleGemmTiles(
        makeGrid(0, {BlockPrecision::kInt8}, 1.0, 2.0), fourSms(),
        SchedulingStrategy::kTaskStealing);
    EXPECT_DOUBLE_EQ(result.makespan, 0.0);
    EXPECT_EQ(result.sm_busy.size(), 4u);
}

} // namespace
} // namespace comet
