/**
 * @file
 * Tests for the serving step core (serve/step_core.h): trace replay
 * and a one-tenant online Server, both driven by it, give every
 * request the same virtual-time outcome across {monolithic, chunked}
 * x {ample, pressured KV} x {optimistic, reserve}; the offline
 * throughput measurement is the offline loop on a batch arriving
 * at t = 0; and StepCost sums its parts in the fixed order.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "comet/obs/metrics.h"
#include "comet/serve/step_core.h"
#include "comet/serve/trace.h"
#include "comet/server/server.h"

namespace comet {
namespace {

/** One cell of the replay-vs-server differential. */
struct Cell {
    int64_t chunk_tokens = 0; ///< 0 = monolithic prefill
    int64_t kv_blocks = 0;    ///< 0 = the engine's ample pool
    AdmissionPolicy admission = AdmissionPolicy::kOptimisticPreempt;
};

std::string
cellName(const Cell &cell)
{
    return std::string(cell.chunk_tokens > 0 ? "chunk256" : "monolithic") +
           (cell.kv_blocks > 0 ? "/160-blocks" : "/ample-kv") + "/" +
           admissionPolicyName(cell.admission);
}

EngineConfig
cellEngineConfig(const Cell &cell)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 512;
    config.output_tokens = 128;
    config.max_batch = 64;
    config.admission = cell.admission;
    config.chunked_prefill_tokens = cell.chunk_tokens;
    if (cell.kv_blocks > 0)
        config = engineConfigWithKvBlocks(config, cell.kv_blocks);
    return config;
}

/** What a client observed of one request. */
struct Observed {
    int64_t tokens = 0;
    double first_us = -1.0;
    double last_us = -1.0;
    bool finished = false;
};

/** Serves @p trace through a one-tenant Server on @p engine. */
std::map<int64_t, Observed>
serveTrace(const ServingEngine &engine, const Cell &cell,
           const std::vector<TracedRequest> &trace,
           int64_t *preemptions)
{
    server::ServerConfig config;
    server::TenantConfig tenant;
    tenant.name = "t";
    config.tenants = {tenant};
    config.max_batch = engine.config().max_batch;
    config.admission = cell.admission;
    config.chunked_prefill_tokens = cell.chunk_tokens;
    server::Server server(&engine, config);
    server::Server::Client client = server.connect();
    std::map<int64_t, server::TokenStreamPtr> streams;
    for (const TracedRequest &request : trace) {
        server::StreamRequest submit;
        submit.id = request.id;
        submit.tenant = "t";
        submit.prompt_tokens = request.prompt_tokens;
        submit.max_output_tokens = request.output_tokens;
        submit.eos_output_tokens = request.output_tokens;
        submit.arrival_us = request.arrival_us;
        streams[request.id] = client.submit(submit);
    }
    client.close();
    server.drain();
    *preemptions = server.schedulerCounters().preemptions;
    server.stop();

    std::map<int64_t, Observed> observed;
    for (const auto &[id, stream] : streams) {
        Observed &seen = observed[id];
        server::StreamEvent event;
        while (stream->next(&event)) {
            if (event.kind == server::StreamEventKind::kToken) {
                if (seen.tokens == 0)
                    seen.first_us = event.virtual_us;
                seen.last_us = event.virtual_us;
                ++seen.tokens;
            } else {
                seen.finished =
                    event.kind == server::StreamEventKind::kFinished;
            }
        }
    }
    return observed;
}

TEST(StepCore, ReplayMatchesServerInEveryCell)
{
    TraceConfig trace_config;
    trace_config.request_rate_per_s = 20.0;
    trace_config.num_requests = 64;
    trace_config.mean_prompt_tokens = 512;
    trace_config.mean_output_tokens = 128;
    const std::vector<TracedRequest> trace = generateTrace(trace_config);

    int cells_with_preemption = 0;
    for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
        for (const int64_t blocks : {int64_t{0}, int64_t{160}}) {
            for (const AdmissionPolicy admission :
                 {AdmissionPolicy::kOptimisticPreempt,
                  AdmissionPolicy::kReserveFullOutput}) {
                const Cell cell{chunk, blocks, admission};
                SCOPED_TRACE(cellName(cell));
                const ServingEngine engine(cellEngineConfig(cell));
                const TraceMetrics replay = replayTrace(engine, trace);
                int64_t server_preemptions = 0;
                const std::map<int64_t, Observed> served =
                    serveTrace(engine, cell, trace, &server_preemptions);

                ASSERT_EQ(replay.per_request.size(), trace.size());
                EXPECT_EQ(replay.preemptions, server_preemptions);
                if (replay.preemptions > 0)
                    ++cells_with_preemption;
                for (const RequestLatency &latency : replay.per_request) {
                    SCOPED_TRACE("request " + std::to_string(latency.id));
                    const Observed &seen = served.at(latency.id);
                    const double arrival_us =
                        trace[static_cast<size_t>(latency.id)].arrival_us;
                    ASSERT_TRUE(seen.finished);
                    EXPECT_EQ(latency.output_tokens, seen.tokens);
                    EXPECT_EQ(latency.ttft_us, seen.first_us - arrival_us);
                    EXPECT_EQ(latency.total_us, seen.last_us - arrival_us);
                    const double tpot_us =
                        seen.tokens > 1
                            ? (seen.last_us - seen.first_us) /
                                  static_cast<double>(seen.tokens - 1)
                            : 0.0;
                    EXPECT_EQ(latency.tpot_us, tpot_us);
                }
            }
        }
    }
    // The pressured optimistic cells must actually exercise
    // preemption, or the differential proves nothing about it.
    EXPECT_GE(cells_with_preemption, 2);
}

TEST(StepCore, ThroughputRunIsTheOfflineLoopAtTimeZero)
{
    for (const int64_t blocks : {int64_t{0}, int64_t{256}}) {
        SCOPED_TRACE(blocks);
        constexpr int64_t kBatch = 48;
        EngineConfig config;
        config.model = LlmConfig::llama3_8b();
        config.mode = ServingMode::kCometW4AxKv4;
        config.input_tokens = 256;
        config.output_tokens = 64;
        config.max_batch = kBatch;
        if (blocks > 0)
            config = engineConfigWithKvBlocks(config, blocks);
        const ServingEngine engine(config);
        std::vector<TracedRequest> trace(static_cast<size_t>(kBatch));
        for (int64_t i = 0; i < kBatch; ++i) {
            TracedRequest &request = trace[static_cast<size_t>(i)];
            request.id = i;
            request.prompt_tokens = config.input_tokens;
            request.output_tokens = config.output_tokens;
        }
        const ThroughputResult measured =
            engine.measureThroughputAtBatch(kBatch);
        const TraceMetrics replayed = replayTrace(engine, trace);
        EXPECT_GT(measured.tokens_per_second, 0.0);
        EXPECT_EQ(measured.tokens_per_second,
                  replayed.throughput_tokens_per_s);
        EXPECT_EQ(measured.preemptions, replayed.preemptions);
        if (blocks > 0) {
            EXPECT_GT(measured.preemptions, 0);
        }
    }
}

TEST(StepCore, StepCostSumsItsPartsInPlanOrder)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    const ServingEngine engine(config);
    KvCacheConfig cache_config;
    cache_config.bits_per_value = 4.0;
    cache_config.memory_budget_bytes = 1e9;
    PagedKvCache cache(config.model, cache_config);
    StepCore core(engine, &cache, BatchSchedulerConfig{});

    StepPlan plan;
    plan.decode_batch = 3;
    plan.decode_context_sum = 3 * 700 + 2;
    plan.chunks = {{7, 128, 128}, {9, 64, 320}};
    plan.prefill_tokens = 192;
    const StepCost cost = core.stepCost(plan);

    EXPECT_EQ(cost.gemm_us, engine.gemmLatencyUs(195));
    EXPECT_EQ(cost.decode_attention_us,
              engine.attentionReadLatencyUs(3, 700));
    const double first = engine.attentionReadLatencyUs(1, 128);
    const double second = engine.attentionReadLatencyUs(1, 320);
    EXPECT_EQ(cost.chunk_attention_us, first + second);
    double total = cost.gemm_us;
    total += cost.decode_attention_us;
    total += first;
    total += second;
    EXPECT_EQ(cost.total_us, total);

    // The GEMM part is memoized per token count: the second costing
    // of the same count is not a miss.
    obs::Counter &misses = obs::MetricsRegistry::global().counter(
        "serve.step.gemm_memo_misses");
    const int64_t before = misses.value();
    EXPECT_EQ(core.stepCost(plan).total_us, cost.total_us);
    EXPECT_EQ(core.gemmMemoMisses(), 1);
    StepPlan decode_only;
    decode_only.decode_batch = 4;
    decode_only.decode_context_sum = 4 * 100;
    const StepCost decode_cost = core.stepCost(decode_only);
    EXPECT_EQ(decode_cost.total_us, engine.decodeStepLatencyUs(4, 100));
    EXPECT_EQ(core.gemmMemoMisses(), 2);
    EXPECT_EQ(misses.value() - before, 1);
}

} // namespace
} // namespace comet
