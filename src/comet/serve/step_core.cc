#include "comet/serve/step_core.h"

#include <algorithm>

#include "comet/obs/metrics.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

namespace comet {

namespace {

/** Tokens the admission-time forward pass computes for @p request:
 * its context before the credited first token, minus the tokens whose
 * KV the prefix cache grafted. */
int64_t
admissionPrefillTokens(const Request &request)
{
    return request.contextTokens() - 1 - request.prefix_matched_tokens;
}

} // namespace

StepCore::StepCore(const ServingEngine &engine, PagedKvCache *cache,
                   BatchSchedulerConfig config)
    : engine_(engine), scheduler_(cache, config),
      chunked_(config.chunk_tokens > 0)
{
}

std::optional<double>
StepCore::prefillUs(size_t running_before,
                    const std::vector<Request> &retired) const
{
    if (chunked_)
        return std::nullopt;
    std::vector<int64_t> tokens;
    const std::vector<Request> &running = scheduler_.running();
    for (size_t i = running_before; i < running.size(); ++i)
        tokens.push_back(admissionPrefillTokens(running[i]));
    for (const Request &request : retired) {
        if (request.state == RequestState::kFinished)
            tokens.push_back(admissionPrefillTokens(request));
    }
    if (tokens.empty())
        return std::nullopt;
    return engine_.prefillLatencyUs(tokens);
}

StepCost
StepCore::stepCost(const StepPlan &plan)
{
    const int64_t gemm_tokens = plan.gemmTokens();
    COMET_CHECK(gemm_tokens > 0);
    auto it = gemm_memo_.find(gemm_tokens);
    if (it == gemm_memo_.end()) {
        static obs::Counter &misses =
            obs::MetricsRegistry::global().counter(
                "serve.step.gemm_memo_misses");
        misses.add(1);
        it = gemm_memo_
                 .emplace(gemm_tokens, engine_.gemmLatencyUs(gemm_tokens))
                 .first;
    }
    StepCost cost;
    cost.gemm_us = it->second;
    cost.total_us = cost.gemm_us;
    if (plan.decode_batch > 0) {
        cost.decode_attention_us = engine_.attentionReadLatencyUs(
            plan.decode_batch,
            plan.decode_context_sum / plan.decode_batch);
        cost.total_us += cost.decode_attention_us;
    }
    for (const PlannedChunk &chunk : plan.chunks) {
        // The chunk attends over its request's KV prefix so far.
        const double chunk_us = engine_.attentionReadLatencyUs(
            1, std::max<int64_t>(chunk.context_after, 1));
        cost.chunk_attention_us += chunk_us;
        cost.total_us += chunk_us;
    }
    return cost;
}

OfflineRun
runOffline(const ServingEngine &engine,
           const std::vector<OfflineArrival> &arrivals,
           int64_t max_batch, double kv_pool_bytes)
{
    // `COMET_TRACE=<out.json>` turns any offline run into a span
    // trace, no matter which binary hosts it (one-shot, then free).
    obs::configureFromEnv();
    COMET_SPAN("offline");
    const EngineConfig &config = engine.config();
    KvCacheConfig cache_config;
    cache_config.bits_per_value = servingPrecision(config.mode).kv_bits;
    cache_config.block_tokens = config.kv_block_tokens;
    cache_config.memory_budget_bytes = std::max(kv_pool_bytes, 1.0);
    PagedKvCache cache(config.model, cache_config);

    BatchSchedulerConfig sched_config;
    sched_config.max_batch = max_batch;
    sched_config.admission = config.admission;
    sched_config.watermark_blocks = config.kv_watermark_blocks;
    sched_config.chunk_tokens = config.chunked_prefill_tokens;
    StepCore core(engine, &cache, sched_config);
    BatchScheduler &scheduler = core.scheduler();

    const size_t n = arrivals.size();
    OfflineRun run;
    run.outcomes.resize(n);
    run.total_kv_blocks = cache.totalBlocks();
    std::vector<size_t> cancels;
    for (size_t i = 0; i < n; ++i) {
        COMET_CHECK(arrivals[i].request.id == static_cast<int64_t>(i));
        if (arrivals[i].cancel_us > 0.0)
            cancels.push_back(i);
    }
    std::stable_sort(cancels.begin(), cancels.end(),
                     [&](size_t a, size_t b) {
                         return arrivals[a].cancel_us <
                                arrivals[b].cancel_us;
                     });
    size_t next_arrival = 0;
    size_t next_cancel = 0;
    double clock_us = 0.0;

    // Arrivals at or before the clock enter the queue, then due
    // abandons fire (a request abandoned before it arrives is never
    // submitted).
    const auto ingest = [&] {
        for (; next_arrival < n &&
               arrivals[next_arrival].arrival_us <= clock_us;
             ++next_arrival) {
            if (run.outcomes[next_arrival].state !=
                RequestState::kCancelled)
                scheduler.submit(arrivals[next_arrival].request);
        }
        for (; next_cancel < cancels.size() &&
               arrivals[cancels[next_cancel]].cancel_us <= clock_us;
             ++next_cancel) {
            const size_t i = cancels[next_cancel];
            if (i >= next_arrival) {
                run.outcomes[i].state = RequestState::kCancelled;
                ++run.cancelled_unarrived;
            } else {
                // Fails harmlessly when the request already ended.
                (void)scheduler.cancel(static_cast<int64_t>(i));
            }
        }
    };
    // Records first tokens and terminal states at the current clock.
    const auto observe = [&](const std::vector<Request> &retired) {
        const auto noteFirstToken = [&](const Request &request) {
            OfflineOutcome &outcome =
                run.outcomes[static_cast<size_t>(request.id)];
            if (outcome.first_token_us < 0.0 &&
                request.generated_tokens > 0)
                outcome.first_token_us = clock_us;
        };
        for (const Request &request : scheduler.running())
            noteFirstToken(request);
        for (const Request &request : retired) {
            noteFirstToken(request);
            OfflineOutcome &outcome =
                run.outcomes[static_cast<size_t>(request.id)];
            outcome.state = request.state;
            outcome.generated_tokens = request.generated_tokens;
            if (request.state == RequestState::kFinished) {
                outcome.finish_us = clock_us;
                run.finish_order.push_back(request.id);
            }
        }
    };

    for (;;) {
        COMET_SPAN("step");
        ingest();
        if (scheduler.idle()) {
            if (next_arrival == n)
                break;
            clock_us = std::max(clock_us,
                                arrivals[next_arrival].arrival_us);
            ingest();
        }
        const size_t running_before = scheduler.running().size();
        int64_t admitted = 0;
        {
            COMET_SPAN("step/admit");
            admitted = scheduler.admit();
        }
        if (sched_config.chunk_tokens <= 0)
            run.generated_tokens += admitted; // first-token credits
        // Drained after admission so the wave's one-token retirees
        // are charged their prefill; earlier cancels ride along.
        const std::vector<Request> retired = scheduler.drainRetired();
        if (const std::optional<double> prefill_us =
                core.prefillUs(running_before, retired)) {
            COMET_SPAN("step/prefill");
            clock_us += *prefill_us;
            run.last_prefill_us = *prefill_us;
        }
        observe(retired);
        if (scheduler.runningCount() == 0)
            continue;

        COMET_SPAN("step/decode");
        const StepCost cost = core.stepCost(scheduler.planStep());
        clock_us += cost.total_us;
        ++run.steps;
        run.step_us_sum += cost.total_us;
        run.running_sum += static_cast<double>(scheduler.runningCount());
        run.kv_util_sum += scheduler.kvUtilization();
        run.generated_tokens += scheduler.step();
        observe(scheduler.drainRetired());
    }

    run.makespan_us = clock_us;
    run.counters = scheduler.counters();
    return run;
}

} // namespace comet
