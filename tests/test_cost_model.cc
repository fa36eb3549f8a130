/**
 * @file
 * Unit tests for the GEMM cost model — the paper's qualitative
 * performance claims must hold as model properties.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "comet/gpusim/cost_model.h"
#include "comet/model/layer_shapes.h"
#include "comet/model/llm_config.h"
#include "comet/obs/metrics.h"

namespace comet {
namespace {

class CostModelTest : public ::testing::Test
{
  protected:
    GemmCostModel model_{GpuSpec::a100Sxm480G()};
};

TEST_F(CostModelTest, AllKernelsHavePositiveLatency)
{
    const GemmShape shape{64, 4096, 4096};
    for (GemmKernelKind kind :
         {GemmKernelKind::kCublasW16A16, GemmKernelKind::kTrtLlmW4A16,
          GemmKernelKind::kTrtLlmW8A8, GemmKernelKind::kQserveW4A8,
          GemmKernelKind::kCometW4Ax, GemmKernelKind::kOracleW4A4}) {
        EXPECT_GT(model_.estimate(shape, kind).total_us, 0.0)
            << gemmKernelKindName(kind);
    }
}

TEST_F(CostModelTest, CometBeatsCublasEverywhere)
{
    for (int64_t m : {2, 8, 16, 64, 256}) {
        const GemmShape shape{m, 8192, 8192};
        EXPECT_LT(
            model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                .total_us,
            model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                .total_us)
            << "batch " << m;
    }
}

TEST_F(CostModelTest, CometGainGrowsWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 8192, 8192};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                   .total_us;
    };
    EXPECT_GT(speedup(256), speedup(8));
    // Paper headline numbers: ~1.5x small batch, ~2.9x large batch.
    EXPECT_GT(speedup(256), 2.0);
    EXPECT_LT(speedup(4), 3.0);
}

TEST_F(CostModelTest, W4A16GainShrinksWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 13824, 5120};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kTrtLlmW4A16)
                   .total_us;
    };
    // Weight-only quantization helps memory-bound small batches much
    // more than compute-bound large ones (paper Section 1).
    EXPECT_GT(speedup(2), speedup(256));
}

TEST_F(CostModelTest, W8A8GainGrowsWithBatch)
{
    const auto speedup = [&](int64_t m) {
        const GemmShape shape{m, 13824, 5120};
        return model_.estimate(shape, GemmKernelKind::kCublasW16A16)
                   .total_us /
               model_.estimate(shape, GemmKernelKind::kTrtLlmW8A8)
                   .total_us;
    };
    EXPECT_GT(speedup(256), speedup(2));
}

TEST_F(CostModelTest, OracleW4A4IsFastestButNotTwiceW4A8)
{
    const GemmShape shape{256, 8192, 8192};
    const double oracle =
        model_.estimate(shape, GemmKernelKind::kOracleW4A4).total_us;
    const double comet =
        model_.estimate(shape, GemmKernelKind::kCometW4Ax).total_us;
    const double qserve =
        model_.estimate(shape, GemmKernelKind::kQserveW4A8).total_us;
    EXPECT_LT(oracle, comet);
    EXPECT_LT(comet, qserve);
    // Paper: even an Oracle W4A4 kernel cannot reach 2x over W4A8.
    EXPECT_LT(qserve / oracle, 2.0);
}

TEST_F(CostModelTest, CometWithinOracleEnvelope)
{
    // Paper: COMET-W4Ax reaches 92.7% - 97.8% of the Oracle W4A4
    // kernel. Our model lands in the same neighborhood (the INT8
    // quarter of the tiles is inherently slower); require at least
    // 80% to keep the qualitative claim pinned.
    for (int64_t m : {16, 64, 256}) {
        const GemmShape shape{m, 8192, 8192};
        const double oracle =
            model_.estimate(shape, GemmKernelKind::kOracleW4A4)
                .total_us;
        const double comet =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                .total_us;
        EXPECT_GT(oracle / comet, 0.80) << m;
        EXPECT_LE(oracle / comet, 1.0 + 1e-9) << m;
    }
}

TEST_F(CostModelTest, PipelineAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_pipe;
    no_pipe.software_pipeline = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_pipe)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, InterleaveAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_interleave;
    no_interleave.weight_interleaving = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_interleave)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, FastConversionAblationSlowsKernel)
{
    const GemmShape shape{64, 8192, 8192};
    CometKernelFeatures no_fast;
    no_fast.fast_conversion = false;
    EXPECT_GT(model_
                  .estimate(shape, GemmKernelKind::kCometW4Ax,
                            no_fast)
                  .total_us,
              model_.estimate(shape, GemmKernelKind::kCometW4Ax)
                  .total_us);
}

TEST_F(CostModelTest, SchedulingLadderMonotone)
{
    const GemmShape shape{256, 8192, 8192};
    double previous = 1e30;
    for (SchedulingStrategy strategy :
         {SchedulingStrategy::kNaiveSync,
          SchedulingStrategy::kBarrierMinimized,
          SchedulingStrategy::kTileRemapping,
          SchedulingStrategy::kTaskStealing}) {
        CometKernelFeatures features;
        features.scheduling = strategy;
        const double t =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax,
                            features)
                .total_us;
        EXPECT_LE(t, previous + 1e-9)
            << schedulingStrategyName(strategy);
        previous = t;
    }
}

TEST_F(CostModelTest, HigherW4A4FractionIsFaster)
{
    const GemmShape shape{128, 8192, 8192};
    CometKernelFeatures lo;
    lo.w4a4_fraction = 0.5;
    CometKernelFeatures hi;
    hi.w4a4_fraction = 1.0;
    EXPECT_LT(
        model_.estimate(shape, GemmKernelKind::kCometW4Ax, hi)
            .total_us,
        model_.estimate(shape, GemmKernelKind::kCometW4Ax, lo)
            .total_us);
}

TEST_F(CostModelTest, LatencyMonotoneInShape)
{
    const double small =
        model_.estimate({16, 4096, 4096},
                        GemmKernelKind::kCometW4Ax)
            .total_us;
    const double large =
        model_.estimate({16, 8192, 8192},
                        GemmKernelKind::kCometW4Ax)
            .total_us;
    EXPECT_GT(large, small);
}

TEST_F(CostModelTest, BreakdownFieldsConsistent)
{
    const GemmShape shape{64, 4096, 4096};
    const KernelCost cost =
        model_.estimate(shape, GemmKernelKind::kCometW4Ax);
    EXPECT_GT(cost.memory_us, 0.0);
    EXPECT_GT(cost.compute_us, 0.0);
    EXPECT_GE(cost.total_us, cost.launch_us);
    EXPECT_GT(cost.sm_utilization, 0.0);
    EXPECT_LE(cost.sm_utilization, 1.0 + 1e-9);
}

TEST_F(CostModelTest, PermutationIsATinyRuntimeFraction)
{
    // Paper Section 3.2: channel permutation accounts for ~0.7% of
    // the overall runtime.
    for (int64_t m : {16, 256}) {
        const GemmShape shape{m, 8192, 8192};
        const KernelCost cost =
            model_.estimate(shape, GemmKernelKind::kCometW4Ax);
        EXPECT_LT(cost.convert_us / cost.total_us, 0.02)
            << "batch " << m;
    }
}

TEST_F(CostModelTest, KernelKindNames)
{
    EXPECT_STREQ(gemmKernelKindName(GemmKernelKind::kCublasW16A16),
                 "cuBLAS-W16A16");
    EXPECT_STREQ(gemmKernelKindName(GemmKernelKind::kCometW4Ax),
                 "COMET-W4Ax");
}

TEST(CostModelDeathTest, RejectsEmptyShape)
{
    GemmCostModel model(GpuSpec::a100Sxm480G());
    EXPECT_DEATH(
        model.estimate({0, 10, 10}, GemmKernelKind::kCublasW16A16),
        "CHECK failed");
}

/**
 * estimate() costs COMET tiles with the closed-form scheduler; the
 * oracle rebuilds the same GEMM's tile list and runs the enumerating
 * reference on it. They may differ by summation rounding only:
 * 4 * T * 2^-53 relative for a grid of T tiles (see
 * test_sm_scheduler.cc).
 */
TEST(CostModelClosedForm, MatchesEnumeratingOracleOnLayerShapes)
{
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    const CostModelCalibration &cal = model.calibration();
    for (const LlmConfig &llm :
         {LlmConfig::llama3_8b(), LlmConfig::llama2_70b()}) {
        for (int64_t m : {1, 7, 64, 256, 1000, 4096, 8192}) {
            for (int64_t tp : {1, 2}) {
                for (const LayerGemm &gemm : decoderLayerGemms(llm, m)) {
                    // Megatron sharding, as the serving engine shards.
                    GemmShape shape = gemm.shape;
                    if (gemm.name == "qkv_proj" ||
                        gemm.name == "gate_up_proj" ||
                        gemm.name == "up_proj")
                        shape.n /= tp;
                    else
                        shape.k /= tp;
                    for (SchedulingStrategy strategy :
                         {SchedulingStrategy::kNaiveSync,
                          SchedulingStrategy::kBarrierMinimized,
                          SchedulingStrategy::kTileRemapping,
                          SchedulingStrategy::kTaskStealing}) {
                        CometKernelFeatures features;
                        features.scheduling = strategy;
                        features.w4a4_fraction = 0.84;
                        const GemmTileGrid grid =
                            model.cometTileGrid(shape, features);
                        const std::vector<TileWork> tiles =
                            buildGemmTiles(
                                shape.m, shape.n, shape.k, cal.tile_m,
                                cal.tile_n, cal.tile_k,
                                grid.k_tile_precisions, cal.tile_k,
                                grid.int4_tile_us, grid.int8_tile_us);
                        const ScheduleResult oracle = scheduleTiles(
                            tiles, model.schedulerConfig(), strategy);
                        const double oracle_compute =
                            oracle.makespan +
                            static_cast<double>(oracle.barriers) *
                                cal.barrier_us;
                        const KernelCost cost = model.estimate(
                            shape, GemmKernelKind::kCometW4Ax, features);
                        const double rel_tol =
                            4.0 * static_cast<double>(tiles.size()) *
                            DBL_EPSILON / 2.0;
                        const std::string label =
                            llm.name + " " + gemm.name + " m=" +
                            std::to_string(m) +
                            " tp=" + std::to_string(tp) + " " +
                            schedulingStrategyName(strategy);
                        EXPECT_LE(
                            std::abs(cost.compute_us - oracle_compute),
                            rel_tol * oracle_compute)
                            << label;
                        EXPECT_LE(std::abs(cost.sm_utilization -
                                           oracle.utilization()),
                                  rel_tol * oracle.utilization())
                            << label;
                        const double oracle_total =
                            cost.launch_us +
                            std::max({cost.memory_us, cost.convert_us,
                                      oracle_compute});
                        EXPECT_LE(std::abs(cost.total_us - oracle_total),
                                  rel_tol * oracle_total)
                            << label;
                    }
                }
            }
        }
    }
}

TEST(CostModelClosedForm, EstimateCountsEveryCometTile)
{
    // One COMET estimate advances gpusim.tiles_scheduled by the
    // GEMM's m_tiles * n_tiles * k_tiles, as enumerating them did;
    // the uniform-precision kernels schedule no tiles.
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    obs::Counter &counter = obs::MetricsRegistry::global().counter(
        "gpusim.tiles_scheduled");
    const GemmShape shape{300, 14336, 4096};
    int64_t before = counter.value();
    model.estimate(shape, GemmKernelKind::kCometW4Ax);
    EXPECT_EQ(counter.value() - before, 3 * 112 * 32);
    before = counter.value();
    model.estimate(shape, GemmKernelKind::kCublasW16A16);
    model.estimate(shape, GemmKernelKind::kQserveW4A8);
    EXPECT_EQ(counter.value() - before, 0);
}

/** Sweep every paper model x batch: invariants that must hold for
 * any shape the serving engine can generate. */
struct ModelBatch {
    // Both fields 64-bit so the struct has no padding: gtest names
    // each case after the parameter's raw bytes, and padding bytes
    // are uninitialised, which made the case names vary run to run.
    int64_t model_index;
    int64_t batch;
};

class CostModelModelSweep
    : public ::testing::TestWithParam<ModelBatch> {};

TEST_P(CostModelModelSweep, InvariantsHoldEverywhere)
{
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    const auto configs = LlmConfig::paperModels();
    const LlmConfig &llm =
        configs[static_cast<size_t>(GetParam().model_index)];
    const GemmShape shape{GetParam().batch, llm.intermediate_size,
                          llm.hidden_size};
    double previous = 0.0;
    for (GemmKernelKind kind :
         {GemmKernelKind::kOracleW4A4, GemmKernelKind::kCometW4Ax,
          GemmKernelKind::kQserveW4A8, GemmKernelKind::kTrtLlmW8A8,
          GemmKernelKind::kCublasW16A16}) {
        const KernelCost cost = model.estimate(shape, kind);
        EXPECT_GT(cost.total_us, 0.0) << gemmKernelKindName(kind);
        EXPECT_GE(cost.total_us, cost.launch_us);
        // Lower-precision kernels never lose to cuBLAS FP16 in this
        // ordering (each step up the list adds precision/cost).
        if (kind == GemmKernelKind::kCublasW16A16) {
            EXPECT_GE(cost.total_us, previous - 1e-9);
        }
        previous = cost.total_us;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CostModelModelSweep,
    ::testing::Values(ModelBatch{0, 4}, ModelBatch{2, 16},
                      ModelBatch{5, 64}, ModelBatch{6, 128},
                      ModelBatch{10, 256}));

} // namespace
} // namespace comet

