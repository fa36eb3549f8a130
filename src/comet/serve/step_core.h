/**
 * @file
 * The one serving step core: how scheduler state turns into virtual
 * time.
 *
 * Every serving loop in the repository — the online Server, trace
 * replay and the offline throughput measurement — advances a
 * BatchScheduler and charges the modeled A100 for each admission wave
 * and each fused step. StepCore owns that scheduler together with the
 * two charges:
 *
 * - **Prefill.** A monolithic admission wave costs one prefill over
 *   each admitted request's `contextTokens() - 1 -
 *   prefix_matched_tokens` tokens: the prefill's forward pass emits
 *   the request's next token (the scheduler credits it at admission),
 *   and grafted prefix tokens are not recomputed. In chunked mode the
 *   prefill compute rides on the steps instead.
 * - **Step.** stepCost() costs a StepPlan in named parts: the fused
 *   GEMM over decode + chunk tokens (linear layers, LM head and TP
 *   all-reduce), the decode set's attention read, and each prefill
 *   chunk's attention over its request's growing KV prefix.
 *
 * The GEMM part depends only on the step's token count and is
 * memoized here, one memo per core. A core is owned by one loop
 * thread; the engine it reads is const and may be shared between
 * loops (cluster replicas do), which is why the memo lives in the
 * core and not in ServingEngine.
 *
 * runOffline() is the offline loop over the core, behind both
 * replayTrace and ServingEngine::measureThroughputAtBatch.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "comet/kvcache/kv_cache.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"

namespace comet {

/** Virtual cost of one fused step, split by layer. */
struct StepCost {
    /** Linear layers, LM head and TP all-reduce over the step's GEMM
     * tokens (memoized per token count). */
    double gemm_us = 0.0;
    /** Attention read of the decode set at its mean context. */
    double decode_attention_us = 0.0;
    /** Attention reads of the prefill chunks, summed. */
    double chunk_attention_us = 0.0;
    /** The step's latency: gemm_us, plus decode_attention_us, plus
     * each chunk's attention in plan order (that summation order is
     * what every virtual clock has always advanced by). */
    double total_us = 0.0;
};

/** A BatchScheduler plus the prefill and step charges (see the file
 * comment). Not thread-safe: one loop owns a core. */
class StepCore
{
  public:
    /** Schedules over @p cache (not owned; must outlive the core)
     * and costs against @p engine (not owned; must outlive the
     * core). */
    StepCore(const ServingEngine &engine, PagedKvCache *cache,
             BatchSchedulerConfig config);

    /** The scheduler the core charges for. @{ */
    BatchScheduler &scheduler() { return scheduler_; }
    const BatchScheduler &scheduler() const { return scheduler_; }
    /** @} */

    /**
     * The prefill charge of the wave admitted since running() held
     * @p running_before requests, where @p retired are the terminal
     * requests drained since then (a request whose credited first
     * token completes it retires at admission but still ran its
     * prefill). Empty when the wave prefills nothing at admission:
     * nobody was admitted, or chunked mode.
     */
    std::optional<double>
    prefillUs(size_t running_before,
              const std::vector<Request> &retired) const;

    /** Costs @p plan (which must process at least one token). */
    StepCost stepCost(const StepPlan &plan);

    /** Distinct GEMM token counts costed so far (memo misses; also
     * published as `serve.step.gemm_memo_misses`). */
    int64_t gemmMemoMisses() const
    {
        return static_cast<int64_t>(gemm_memo_.size());
    }

  private:
    const ServingEngine &engine_;
    BatchScheduler scheduler_;
    bool chunked_;
    std::map<int64_t, double> gemm_memo_;
};

/** One request of an offline run. */
struct OfflineArrival {
    /** The request as submitted; its id must equal its position in
     * the run's arrival vector. */
    Request request;
    double arrival_us = 0.0; ///< absolute virtual arrival time
    /** Absolute time the client abandons the request; 0 = never. */
    double cancel_us = 0.0;
};

/** The outcome of one offline request, indexed like the arrivals. */
struct OfflineOutcome {
    /** kFinished, kRejected or kCancelled once the run ends. */
    RequestState state = RequestState::kQueued;
    int64_t generated_tokens = 0; ///< tokens generated by the end
    double first_token_us = -1.0; ///< virtual time of token 0
    double finish_us = 0.0;       ///< virtual time of the last token
};

/** Everything an offline run measured. */
struct OfflineRun {
    std::vector<OfflineOutcome> outcomes; ///< indexed by position
    /** Positions of the finished requests, in completion order. */
    std::vector<int64_t> finish_order;
    double makespan_us = 0.0;     ///< virtual clock at the end
    int64_t generated_tokens = 0; ///< all tokens, cancelled ones too
    /** Requests abandoned before they arrived (never submitted). */
    int64_t cancelled_unarrived = 0;
    SchedulerCounters counters; ///< the scheduler's, at the end
    int64_t total_kv_blocks = 0; ///< pool size the run used
    /** Step statistics. @{ */
    int64_t steps = 0;            ///< steps executed
    double step_us_sum = 0.0;     ///< step latencies, summed
    double running_sum = 0.0;     ///< running batch, summed over steps
    double kv_util_sum = 0.0;     ///< KV utilization, summed over steps
    double last_prefill_us = 0.0; ///< the last admission wave's charge
    /** @} */
};

/**
 * The offline loop: a discrete-event simulation over one StepCore.
 * Each iteration submits the requests that have arrived (in vector
 * order, head-of-line: a later position never overtakes an earlier
 * one), cancels those whose abandon time has passed, admits and
 * charges the admitted wave's prefill, then costs and executes one
 * step. With nothing in the scheduler, the clock jumps to the next
 * arrival. The scheduler follows @p engine's admission policy,
 * watermark and chunk cap, with at most @p max_batch running
 * requests, over a KV pool of @p kv_pool_bytes full-model bytes.
 */
OfflineRun runOffline(const ServingEngine &engine,
                      const std::vector<OfflineArrival> &arrivals,
                      int64_t max_batch, double kv_pool_bytes);

} // namespace comet
