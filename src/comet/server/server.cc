#include "comet/server/server.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "comet/chaos/failpoint.h"
#include "comet/common/status.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

namespace comet {
namespace server {

namespace {

/** Latency histogram buckets, microseconds: 100 us .. 50 s in a
 * 1-2-5 progression (virtual-time TTFT/TPOT span this range across
 * the bench scenarios). */
std::vector<double>
latencyBucketsUs()
{
    return {1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4,
            1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7};
}

obs::Counter &
serverCounter(const std::string &prefix, const char *name)
{
    return obs::MetricsRegistry::global().counter(prefix + "." +
                                                  name);
}

} // namespace

Server::Server(const ServingEngine *engine, ServerConfig config)
    : engine_(engine), config_(std::move(config))
{
    COMET_CHECK(engine_ != nullptr);
    COMET_CHECK(config_.max_batch > 0);
    COMET_CHECK(config_.max_queued_total >= 0);
    COMET_CHECK(config_.chunked_prefill_tokens >= 0);
    COMET_CHECK(config_.step_token_budget >= 0);
    precision_ = servingPrecision(engine_->config().mode);

    KvCacheConfig cache_config;
    cache_config.bits_per_value = precision_.kv_bits;
    cache_config.block_tokens = engine_->config().kv_block_tokens;
    // The paged cache counts full-model blocks, so it must be sized
    // from the TP group's aggregate pool: kvBudgetBytes() alone is
    // the per-GPU shard and would shrink a TP=N server's admission
    // capacity N-fold relative to the engine's own scheduler.
    cache_config.memory_budget_bytes =
        std::max(engine_->kvPoolBytes(), 1.0);
    cache_config.enable_prefix_cache = config_.enable_prefix_cache;
    cache_ = std::make_unique<PagedKvCache>(engine_->config().model,
                                            cache_config);
    key_space_.bits_per_value = cache_config.bits_per_value;
    key_space_.block_tokens = cache_config.block_tokens;
    key_space_.quant_group_tokens = cache_config.quant_group_tokens;

    BatchSchedulerConfig sched_config;
    sched_config.max_batch = config_.max_batch;
    sched_config.admission = config_.admission;
    sched_config.watermark_blocks = config_.kv_watermark_blocks;
    sched_config.chunk_tokens = config_.chunked_prefill_tokens;
    sched_config.step_token_budget = config_.step_token_budget;
    core_ = std::make_unique<StepCore>(*engine_, cache_.get(),
                                       sched_config);

    fair_ = std::make_unique<FairAdmissionQueue>(config_.tenants);

    // One attainment row per tenant, fixed for the session (set up
    // before the loop thread starts; the loop owns stats_ after).
    stats_.tenant_slo.resize(config_.tenants.size());
    for (size_t t = 0; t < config_.tenants.size(); ++t)
        stats_.tenant_slo[t].tenant = config_.tenants[t].name;

    gate_ = std::make_shared<VirtualIngressGate>(config_.tenants,
                                                 config_.metrics_prefix);
    loop_thread_ = std::thread(&Server::loop, this);
}

Server::~Server() { stop(true); }

Server::Client
Server::connect()
{
    return gate_->connect();
}

void
Server::drain()
{
    gate_->drain();
}

void
Server::stop(bool cancel_in_flight)
{
    gate_->requestStop(cancel_in_flight);
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (loop_thread_.joinable())
        loop_thread_.join();
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    {
        std::lock_guard<std::mutex> lock(published_mutex_);
        stats = published_stats_;
    }
    const VirtualIngressGate::Counts counts = gate_->counts();
    stats.submitted = counts.submitted;
    stats.rejected += counts.early_rejected;
    return stats;
}

SchedulerCounters
Server::schedulerCounters() const
{
    std::lock_guard<std::mutex> lock(published_mutex_);
    return published_sched_;
}

double
Server::virtualClockUs() const
{
    return gate_->clockUs();
}

const std::vector<TenantConfig> &
Server::tenants() const
{
    return config_.tenants;
}

void
Server::waitSettled(double virtual_us) const
{
    gate_->waitSettled(virtual_us);
}

int64_t
Server::kvTotalBlocks() const
{
    return cache_->totalBlocks();
}

int64_t
Server::kvBlocksForTokens(int64_t tokens) const
{
    return cache_->blocksForTokens(tokens);
}

const PagedKvCache &
Server::kvCacheForAudit() const
{
    // Reading completion through the gate lock gives the caller a
    // happens-before edge over every loop-side cache mutation, so the
    // audit reads are race-free.
    COMET_CHECK_MSG(gate_->complete(),
                    "kvCacheForAudit() requires a drained or "
                    "stopped server");
    return *cache_;
}

// --------------------------------------------------------------------
// Serving loop
// --------------------------------------------------------------------

void
Server::loop()
{
    obs::configureFromEnv();
    COMET_SPAN("server/session");
    for (;;) {
        VirtualIngressGate::Wakeup wakeup;
        {
            COMET_SPAN("server/await");
            wakeup = gate_->awaitWork(!sessionIdle(),
                                      /*wake_on_floor=*/false);
        }
        if (!wakeup.incoming.empty()) {
            COMET_SPAN("server/accept");
            for (IngressRecord &record : wakeup.incoming)
                acceptArrival(std::move(record));
        }
        if (wakeup.stop && wakeup.cancel) {
            cancelEverything();
            publish(/*complete=*/true);
            return;
        }
        processCancellations(std::move(wakeup.cancels));
        processDueCancels();
        if (!sessionIdle()) {
            if (!stepOnce()) {
                // A stop-with-cancel interrupted a gate wait.
                cancelEverything();
                publish(/*complete=*/true);
                return;
            }
            publish(/*complete=*/false);
            continue;
        }
        if (wakeup.drain) {
            publish(/*complete=*/true);
            if (wakeup.stop)
                return;
            continue;
        }
        publish(/*complete=*/false);
    }
}

void
Server::acceptArrival(IngressRecord &&record)
{
    const StreamRequest &request = record.request;
    const int64_t id = request.id;
    COMET_CHECK_MSG(arrivals_.find(id) == arrivals_.end() &&
                        live_.find(id) == live_.end(),
                    "request ids must be unique per session");
    SubmitRecord submit;
    submit.cancel_at_us = request.cancel_at_us;
    PendingRequest &pending = submit.request;
    pending.id = id;
    pending.tenant = record.tenant;
    pending.arrival_us = request.arrival_us;
    pending.prompt_tokens = request.prompt_tokens;
    pending.max_output_tokens = request.max_output_tokens;
    pending.eos_output_tokens = request.eos_output_tokens;
    pending.stream = std::move(record.stream);
    // Prefix keys are a pure function of content + tenant key space;
    // only the 8-byte-per-block key chain rides along with the
    // request, the ids are dropped here.
    if (config_.enable_prefix_cache &&
        config_.tenants[static_cast<size_t>(record.tenant)]
            .prefix_caching &&
        !request.prompt_ids.empty()) {
        COMET_CHECK_MSG(static_cast<int64_t>(request.prompt_ids.size()) ==
                            request.prompt_tokens,
                        "prompt_ids must be prompt_tokens long");
        prefix::KeySpace space = key_space_;
        space.namespace_id = record.tenant;
        pending.prefix_block_keys =
            prefix::chainBlockKeys(space, request.prompt_ids);
    }
    arrival_order_.insert({pending.arrival_us, id});
    if (submit.cancel_at_us > 0.0)
        cancel_order_.insert({submit.cancel_at_us, id});
    arrivals_.emplace(id, std::move(submit));
}

bool
Server::commitClock(double target_us)
{
    if (gate_->waitToAdvance(target_us, /*replan=*/false) ==
        GateOutcome::kInterrupted)
        return false;
    clock_ = target_us;
    // Commit before any event delivery: a client that observes an
    // event (or connects) must never read a clock behind the events
    // it has seen.
    gate_->publish(clock_, /*complete=*/false);
    return true;
}

void
Server::ingestDueArrivals()
{
    while (!arrival_order_.empty() &&
           arrival_order_.begin()->first <= clock_) {
        const int64_t id = arrival_order_.begin()->second;
        arrival_order_.erase(arrival_order_.begin());
        auto it = arrivals_.find(id);
        COMET_CHECK(it != arrivals_.end());
        PendingRequest pending = std::move(it->second.request);
        arrivals_.erase(it);

        // Chaos hook: a client cancel/disconnect racing admission.
        // Only the loop thread fires it; the cancel it posts to the
        // gate is handed back by the next awaitWork and handled at
        // that iteration boundary, so the injected race replays
        // deterministically.
        if (COMET_FAILPOINT("server.ingress"))
            pending.stream->requestCancel();

        // A request that cannot fit the pool even running alone can
        // never be served: reject before it charges any fair share
        // (the same never-fits rule the scheduler applies).
        if (cache_->blocksForTokens(pending.prompt_tokens +
                                    pending.max_output_tokens) >
            cache_->totalBlocks()) {
            rejectPending(std::move(pending),
                          RejectReason::kTooLarge);
            continue;
        }
        if (config_.max_queued_total > 0 &&
            fair_->queuedCount() >= config_.max_queued_total) {
            rejectPending(std::move(pending),
                          RejectReason::kQueueFull);
            continue;
        }
        LiveRequest live;
        live.stream = pending.stream;
        live.tenant = pending.tenant;
        live.arrival_us = pending.arrival_us;
        const int64_t live_id = pending.id;
        const RejectReason verdict =
            fair_->offer(std::move(pending), clock_);
        if (verdict != RejectReason::kNone) {
            PendingRequest failed;
            failed.id = live_id;
            failed.stream = live.stream;
            rejectPending(std::move(failed), verdict);
            continue;
        }
        ++stats_.queued;
        serverCounter(config_.metrics_prefix, "queued").add();
        live_.emplace(live_id, std::move(live));
    }
}

void
Server::rejectPending(PendingRequest &&pending, RejectReason reason)
{
    COMET_CHECK(pending.stream != nullptr);
    ++stats_.rejected;
    serverCounter(config_.metrics_prefix, "rejected").add();
    StreamEvent event;
    event.kind = StreamEventKind::kRejected;
    event.virtual_us = clock_;
    event.reject_reason = reason;
    pending.stream->deliver(event);
    live_.erase(pending.id);
}

void
Server::injectFromFairQueue()
{
    COMET_SPAN("step/admit");
    for (;;) {
        scheduler().admit();
        // Preempted (or previously injected) work waiting on KV
        // capacity keeps strict priority: nothing new is injected
        // behind a blocked head.
        if (scheduler().queuedCount() > 0)
            break;
        if (scheduler().runningCount() >= config_.max_batch)
            break;
        PendingRequest next;
        std::vector<PendingRequest> expired;
        const bool got = fair_->pick(clock_, &next, &expired);
        for (PendingRequest &e : expired)
            rejectPending(std::move(e),
                          RejectReason::kDeadlineExpired);
        if (!got)
            break;
        auto it = live_.find(next.id);
        COMET_CHECK(it != live_.end());
        it->second.in_scheduler = true;
        Request request;
        request.id = next.id;
        request.prompt_tokens = next.prompt_tokens;
        request.max_output_tokens = next.max_output_tokens;
        request.eos_output_tokens = next.eos_output_tokens;
        // SLO-aware chunk ordering: a tenant with a TTFT budget gets
        // its prefill chunks scheduled by absolute deadline; no
        // budget (0) keeps FCFS order among the deadline-free.
        const TenantConfig &tenant_config =
            config_.tenants[static_cast<size_t>(next.tenant)];
        if (tenant_config.ttft_slo_us > 0.0) {
            request.deadline_us =
                next.arrival_us + tenant_config.ttft_slo_us;
        }
        if (!next.prefix_block_keys.empty()) {
            request.prefix_namespace = next.tenant;
            request.prefix_block_keys =
                std::move(next.prefix_block_keys);
        }
        scheduler().submit(request);
    }
}

bool
Server::stepOnce()
{
    COMET_SPAN("server/step");
    ingestDueArrivals();
    processDueCancels();

    // Nothing runnable yet: fast-forward the clock to the next
    // arrival (once the ingress gate allows it). The jump commits
    // only when the inbox is empty and every open horizon is
    // strictly past the target — then no arrival <= target can still
    // appear, and the target is provably the earliest arrival. Any
    // submission landing while the gate is held bounces back to the
    // outer loop, which ingests it and re-plans (it may be earlier
    // than the current target).
    if (scheduler().idle() && fair_->empty()) {
        if (arrival_order_.empty())
            return true;
        const double next_us = arrival_order_.begin()->first;
        if (next_us > clock_) {
            switch (gate_->waitToAdvance(next_us, /*replan=*/true)) {
              case GateOutcome::kInterrupted:
                return false;
              case GateOutcome::kReplan:
                return true; // the outer loop re-enters stepOnce
              case GateOutcome::kAdvance:
                clock_ = next_us;
                gate_->publish(clock_, /*complete=*/false);
                break;
            }
        }
        ingestDueArrivals();
        // Abandons scheduled inside the jump window fire before any
        // admission decision at the new clock.
        processDueCancels();
    }

    // Admission happens at the current virtual time; a monolithic
    // wave's prefill is charged before any of its tokens is visible.
    const size_t running_before = scheduler().running().size();
    injectFromFairQueue();
    const std::vector<Request> admit_retired =
        scheduler().drainRetired();
    if (const std::optional<double> prefill_us =
            core_->prefillUs(running_before, admit_retired)) {
        COMET_SPAN("step/prefill");
        if (!commitClock(clock_ + *prefill_us))
            return false;
    }
    deliverRunningProgress();
    deliverRetired(admit_retired);

    if (scheduler().runningCount() > 0) {
        COMET_SPAN("step/decode");
        const StepCost cost =
            core_->stepCost(scheduler().planStep());
        if (!commitClock(clock_ + cost.total_us))
            return false;
        scheduler().step();
        deliverRunningProgress();
        deliverRetired(scheduler().drainRetired());
    }
    return true;
}

void
Server::emitTokens(LiveRequest &live, int64_t generated_total)
{
    while (live.streamed_tokens < generated_total) {
        StreamEvent event;
        event.kind = StreamEventKind::kToken;
        event.token_index = live.streamed_tokens;
        event.virtual_us = clock_;
        live.stream->deliver(event);
        if (live.streamed_tokens == 0)
            live.first_token_us = clock_;
        live.last_token_us = clock_;
        ++live.streamed_tokens;
        ++stats_.streamed_tokens;
        serverCounter(config_.metrics_prefix, "streamed_tokens").add();
    }
}

void
Server::deliverRunningProgress()
{
    for (const Request &request : scheduler().running()) {
        auto it = live_.find(request.id);
        if (it == live_.end())
            continue; // cancelled under the scheduler's feet
        emitTokens(it->second, request.generated_tokens);
    }
}

void
Server::deliverRetired(const std::vector<Request> &retired)
{
    for (const Request &request : retired) {
        auto it = live_.find(request.id);
        if (it == live_.end())
            continue; // already cancelled and delivered
        LiveRequest &live = it->second;
        StreamEvent event;
        event.virtual_us = clock_;
        switch (request.state) {
          case RequestState::kFinished: {
            emitTokens(live, request.generated_tokens);
            event.kind = StreamEventKind::kFinished;
            ++stats_.completed;
            serverCounter(config_.metrics_prefix, "completed").add();
            const TenantConfig &tenant_config =
                config_.tenants[static_cast<size_t>(live.tenant)];
            const std::string &tenant = tenant_config.name;
            obs::MetricsRegistry &registry =
                obs::MetricsRegistry::global();
            const double ttft =
                live.first_token_us - live.arrival_us;
            registry
                .histogram(config_.metrics_prefix + ".tenant." +
                               tenant + ".ttft_us",
                           latencyBucketsUs())
                .observe(ttft);
            TenantSloStats &slo =
                stats_.tenant_slo[static_cast<size_t>(live.tenant)];
            ++slo.finished;
            if (tenant_config.ttft_slo_us > 0.0) {
                const bool ok = ttft <= tenant_config.ttft_slo_us;
                ++(ok ? slo.ttft_ok : slo.ttft_miss);
                serverCounter(config_.metrics_prefix,
                              ("tenant." + tenant +
                               (ok ? ".slo.ttft_ok"
                                   : ".slo.ttft_miss"))
                                  .c_str())
                    .add();
            }
            if (live.streamed_tokens > 1) {
                const double tpot =
                    (live.last_token_us - live.first_token_us) /
                    static_cast<double>(live.streamed_tokens - 1);
                registry
                    .histogram(config_.metrics_prefix + ".tenant." +
                                   tenant + ".tpot_us",
                               latencyBucketsUs())
                    .observe(tpot);
                if (tenant_config.tpot_slo_us > 0.0) {
                    const bool ok =
                        tpot <= tenant_config.tpot_slo_us;
                    ++(ok ? slo.tpot_ok : slo.tpot_miss);
                    serverCounter(config_.metrics_prefix,
                                  ("tenant." + tenant +
                                   (ok ? ".slo.tpot_ok"
                                       : ".slo.tpot_miss"))
                                      .c_str())
                        .add();
                }
            }
            break;
          }
          case RequestState::kRejected:
            event.kind = StreamEventKind::kRejected;
            event.reject_reason = RejectReason::kTooLarge;
            ++stats_.rejected;
            serverCounter(config_.metrics_prefix, "rejected").add();
            break;
          case RequestState::kCancelled:
            event.kind = StreamEventKind::kCancelled;
            ++stats_.cancelled;
            serverCounter(config_.metrics_prefix, "cancelled").add();
            break;
          default:
            COMET_CHECK_MSG(false,
                            "retired request in a live state");
        }
        live.stream->deliver(event);
        live_.erase(it);
    }
}

void
Server::processCancellations(std::vector<PostedCancel> cancels)
{
    if (cancels.empty())
        return;
    COMET_SPAN("server/cancels");
    sortUniqueCancels(&cancels);
    stats_.cancel_visits += static_cast<int64_t>(cancels.size());
    serverCounter(config_.metrics_prefix, "cancel_visits")
        .add(static_cast<int64_t>(cancels.size()));
    for (const PostedCancel &posted : cancels) {
        // This loop delivers every terminal event of an accepted
        // stream, and a post is never taken before its submission: a
        // stream that has not terminated is still held, and one that
        // has (it finished, was rejected, or an earlier post
        // cancelled it) makes the cancel moot.
        if (posted.stream->done())
            continue;
        COMET_CHECK(cancelOne(posted.id));
    }
    // The scheduler retired the cancelled ids too; their live
    // entries are gone, so this delivers nothing further.
    deliverRetired(scheduler().drainRetired());
}

void
Server::processDueCancels()
{
    bool any = false;
    while (!cancel_order_.empty() &&
           cancel_order_.begin()->first <= clock_) {
        const int64_t id = cancel_order_.begin()->second;
        cancel_order_.erase(cancel_order_.begin());
        // The request may have reached a terminal event before its
        // scheduled abandon time — the stale entry is a no-op.
        any = cancelOne(id) || any;
    }
    if (any)
        deliverRetired(scheduler().drainRetired());
}

bool
Server::cancelOne(int64_t id)
{
    TokenStreamPtr stream;
    auto arrival = arrivals_.find(id);
    if (arrival != arrivals_.end()) {
        stream = arrival->second.request.stream;
        arrival_order_.erase({arrival->second.request.arrival_us, id});
        if (arrival->second.cancel_at_us > 0.0)
            cancel_order_.erase({arrival->second.cancel_at_us, id});
        arrivals_.erase(arrival);
    } else {
        auto it = live_.find(id);
        if (it == live_.end())
            return false; // already terminal
        stream = it->second.stream;
        if (it->second.in_scheduler) {
            COMET_CHECK(scheduler().cancel(id).isOk());
        } else {
            PendingRequest removed;
            COMET_CHECK(fair_->removeById(id, &removed));
        }
        live_.erase(it);
    }
    ++stats_.cancelled;
    serverCounter(config_.metrics_prefix, "cancelled").add();
    StreamEvent event;
    event.kind = StreamEventKind::kCancelled;
    event.virtual_us = clock_;
    stream->deliver(event);
    return true;
}

void
Server::cancelEverything()
{
    COMET_SPAN("server/cancel_all");
    // A stop-with-cancel can interrupt a gate wait with submissions
    // still sitting in the inbox; pull them in first so every
    // accepted stream gets its terminal event.
    for (IngressRecord &record : gate_->takeInbox())
        acceptArrival(std::move(record));
    std::map<int64_t, TokenStreamPtr> streams;
    for (const auto &entry : arrivals_)
        streams.emplace(entry.first, entry.second.request.stream);
    for (const auto &entry : live_) {
        streams.emplace(entry.first, entry.second.stream);
        if (entry.second.in_scheduler)
            COMET_CHECK(scheduler().cancel(entry.first).isOk());
    }
    fair_->drainAll();
    scheduler().drainRetired();
    arrivals_.clear();
    arrival_order_.clear();
    cancel_order_.clear();
    live_.clear();
    for (const auto &entry : streams) {
        ++stats_.cancelled;
        serverCounter(config_.metrics_prefix, "cancelled").add();
        StreamEvent event;
        event.kind = StreamEventKind::kCancelled;
        event.virtual_us = clock_;
        entry.second->deliver(event);
    }
}

bool
Server::sessionIdle() const
{
    return arrivals_.empty() && fair_->empty() &&
           scheduler().idle() && live_.empty();
}

void
Server::publish(bool complete)
{
    const SchedulerCounters &counters = scheduler().counters();
    stats_.preemptions = counters.preemptions;
    stats_.reprefill_tokens = counters.reprefill_tokens;
    const prefix::PrefixCacheStats prefix_stats =
        cache_->prefixStats();
    stats_.prefix_hits = prefix_stats.hits;
    stats_.prefix_misses = prefix_stats.misses;
    stats_.prefix_matched_tokens = counters.prefix_matched_tokens;
    stats_.prefix_blocks_matched = prefix_stats.blocks_matched;
    stats_.prefix_blocks_evicted = prefix_stats.blocks_evicted;
    stats_.prefix_bytes_saved = prefix_stats.bytes_saved;
    {
        std::lock_guard<std::mutex> lock(published_mutex_);
        published_stats_ = stats_;
        published_sched_ = counters;
    }
    gate_->publish(clock_, complete);
}

} // namespace server
} // namespace comet
