#include "comet/serve/trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comet/common/stats.h"
#include "comet/obs/trace_session.h"
#include "comet/serve/step_core.h"

namespace comet {

namespace {

/** Geometric-ish length around a mean, clamped to [16, 4 * mean]. */
int64_t
sampleLength(Rng &rng, int64_t mean)
{
    const double u = std::max(rng.uniform(), 1e-12);
    const double value = -std::log(u) * static_cast<double>(mean);
    // Round to nearest: truncation would bias sampled lengths low.
    return std::clamp<int64_t>(std::llround(value), 16, 4 * mean);
}

double
percentileOrNan(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return exactPercentile(std::move(values), p);
}

/** Multi-quantile variant: sorts the samples once. */
std::vector<double>
percentilesOrNan(std::vector<double> values,
                 const std::vector<double> &ps)
{
    if (values.empty()) {
        return std::vector<double>(
            ps.size(), std::numeric_limits<double>::quiet_NaN());
    }
    return exactPercentiles(std::move(values), ps);
}

} // namespace

std::vector<TracedRequest>
generateTrace(const TraceConfig &config)
{
    COMET_CHECK(config.request_rate_per_s > 0.0);
    COMET_CHECK(config.num_requests > 0);
    Rng rng(config.seed);
    std::vector<TracedRequest> trace;
    trace.reserve(static_cast<size_t>(config.num_requests));
    double clock_us = 0.0;
    for (int i = 0; i < config.num_requests; ++i) {
        // Exponential inter-arrival gaps (Poisson process).
        const double u = std::max(rng.uniform(), 1e-12);
        clock_us += -std::log(u) / config.request_rate_per_s * 1e6;
        TracedRequest request;
        request.id = i;
        request.arrival_us = clock_us;
        request.prompt_tokens =
            sampleLength(rng, config.mean_prompt_tokens);
        request.output_tokens =
            sampleLength(rng, config.mean_output_tokens);
        trace.push_back(request);
    }
    return trace;
}

double
TraceMetrics::ttftPercentileUs(double p) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.ttft_us);
    return percentileOrNan(std::move(values), p);
}

double
TraceMetrics::tpotPercentileUs(double p) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.tpot_us);
    return percentileOrNan(std::move(values), p);
}

std::vector<double>
TraceMetrics::ttftPercentilesUs(const std::vector<double> &ps) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.ttft_us);
    return percentilesOrNan(std::move(values), ps);
}

std::vector<double>
TraceMetrics::tpotPercentilesUs(const std::vector<double> &ps) const
{
    std::vector<double> values;
    values.reserve(per_request.size());
    for (const RequestLatency &latency : per_request)
        values.push_back(latency.tpot_us);
    return percentilesOrNan(std::move(values), ps);
}

double
TraceMetrics::ttftAttainment(double slo_us) const
{
    if (per_request.empty())
        return std::numeric_limits<double>::quiet_NaN();
    int64_t met = 0;
    for (const RequestLatency &latency : per_request) {
        if (latency.ttft_us <= slo_us)
            ++met;
    }
    return static_cast<double>(met) /
           static_cast<double>(per_request.size());
}

double
TraceMetrics::tpotAttainment(double slo_us) const
{
    int64_t eligible = 0;
    int64_t met = 0;
    for (const RequestLatency &latency : per_request) {
        if (latency.output_tokens < 2)
            continue;
        ++eligible;
        if (latency.tpot_us <= slo_us)
            ++met;
    }
    if (eligible == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(met) /
           static_cast<double>(eligible);
}

void
TraceMetrics::publishTo(obs::MetricsRegistry &registry) const
{
    registry.counter("serve.replay.completed")
        .add(static_cast<int64_t>(per_request.size()));
    registry.counter("serve.replay.preemptions").add(preemptions);
    registry.counter("serve.replay.reprefill_tokens")
        .add(reprefill_tokens);
    registry.counter("serve.replay.cancelled").add(cancelled);
    registry.counter("serve.replay.rejected").add(rejected);
}

TraceMetrics
mergeTraceMetrics(const std::vector<TraceMetrics> &parts)
{
    TraceMetrics merged;
    int64_t tokens = 0;
    for (const TraceMetrics &part : parts) {
        merged.per_request.insert(merged.per_request.end(),
                                  part.per_request.begin(),
                                  part.per_request.end());
        merged.makespan_us =
            std::max(merged.makespan_us, part.makespan_us);
        for (const RequestLatency &latency : part.per_request)
            tokens += latency.output_tokens;
        merged.preemptions += part.preemptions;
        merged.reprefill_tokens += part.reprefill_tokens;
        merged.cancelled += part.cancelled;
        merged.rejected += part.rejected;
        merged.peak_running += part.peak_running;
        merged.peak_queue_depth += part.peak_queue_depth;
        merged.peak_used_blocks += part.peak_used_blocks;
        merged.total_kv_blocks += part.total_kv_blocks;
    }
    if (merged.makespan_us > 0.0)
        merged.throughput_tokens_per_s =
            static_cast<double>(tokens) /
            (merged.makespan_us * 1e-6);
    if (merged.total_kv_blocks > 0)
        merged.peak_kv_utilization =
            static_cast<double>(merged.peak_used_blocks) /
            static_cast<double>(merged.total_kv_blocks);
    return merged;
}

TraceMetrics
replayTrace(const ServingEngine &engine,
            const std::vector<TracedRequest> &trace)
{
    COMET_CHECK(!trace.empty());
    // Scheduler ids are trace positions, so every per-request record
    // below is a vector indexed like the trace.
    std::vector<OfflineArrival> arrivals(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        OfflineArrival &arrival = arrivals[i];
        arrival.request.id = static_cast<int64_t>(i);
        arrival.request.prompt_tokens = trace[i].prompt_tokens;
        arrival.request.max_output_tokens = trace[i].output_tokens;
        arrival.arrival_us = trace[i].arrival_us;
        arrival.cancel_us = trace[i].cancel_us;
    }
    // The replay's pool is the per-GPU KV budget, not the TP group's
    // aggregate kvPoolBytes() the Server and the engine use: at TP > 1
    // it replays with a 1/tp pool. Kept as is because correcting it
    // moves every TP replay into another KV regime.
    const OfflineRun run = runOffline(engine, arrivals,
                                      engine.config().max_batch,
                                      engine.kvBudgetBytes());

    TraceMetrics metrics;
    metrics.per_request.reserve(run.finish_order.size());
    for (const int64_t position : run.finish_order) {
        const auto i = static_cast<size_t>(position);
        const OfflineOutcome &outcome = run.outcomes[i];
        RequestLatency latency;
        latency.id = trace[i].id;
        latency.output_tokens = outcome.generated_tokens;
        latency.ttft_us = outcome.first_token_us - trace[i].arrival_us;
        latency.total_us = outcome.finish_us - trace[i].arrival_us;
        latency.tpot_us =
            outcome.generated_tokens > 1
                ? (outcome.finish_us - outcome.first_token_us) /
                      static_cast<double>(outcome.generated_tokens - 1)
                : 0.0;
        metrics.per_request.push_back(latency);
    }
    metrics.makespan_us = run.makespan_us;
    metrics.throughput_tokens_per_s =
        run.makespan_us > 0.0
            ? static_cast<double>(run.generated_tokens) /
                  (run.makespan_us * 1e-6)
            : 0.0;
    const SchedulerCounters &counters = run.counters;
    metrics.preemptions = counters.preemptions;
    metrics.reprefill_tokens = counters.reprefill_tokens;
    metrics.cancelled = counters.cancelled + run.cancelled_unarrived;
    metrics.rejected = counters.rejected;
    metrics.peak_running = counters.peak_running;
    metrics.peak_queue_depth = counters.peak_queue_depth;
    metrics.peak_used_blocks = counters.peak_used_blocks;
    metrics.total_kv_blocks = run.total_kv_blocks;
    metrics.peak_kv_utilization =
        counters.peakKvUtilization(run.total_kv_blocks);
    metrics.publishTo(obs::MetricsRegistry::global());
    return metrics;
}

} // namespace comet
