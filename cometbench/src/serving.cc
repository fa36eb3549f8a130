/**
 * @file
 * The two open-loop serving workloads: `chat_slo` (one Server,
 * chunked prefill, mixed long-context + chat tenants) and
 * `prefix_cluster` (two prefix-caching replicas behind a
 * consistent-hash ClusterRouter). Both drive the stack through its
 * public client API from one client (the main thread), with the
 * benchmark's own span around every submit.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>

#include "common.h"

#include "comet/cluster/router.h"
#include "comet/common/logging.h"
#include "comet/obs/metrics.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace cometbench {

namespace {

using namespace comet;
using namespace comet::server;

/** Rate multipliers of the max-rate ladder, as multiples of the
 * workload's nominal rate. */
const std::vector<double> kLadder = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};

/** Attainment a ladder rung must reach. */
constexpr double kLadderAttainment = 0.9;

const char *const kBacklogRule =
    "a rung has a growing backlog when the median queueing TTFT of "
    "the last quarter of latency-tenant arrivals exceeds twice that "
    "of the first quarter and by more than half the tightest TTFT "
    "limit; a request without a first token waits until the session "
    "ends";

/** One serving workload's fixed shape. */
struct ServingSpec {
    const char *name;
    /** The open-loop workload at @p rate_scale times the nominal
     * arrival rate (same requests, arrivals compressed). */
    LoadgenConfig (*workload)(uint64_t seed, double rate_scale);
    EngineConfig engine;
    int replicas;          ///< 0 = one bare Server
    ServerConfig server;   ///< per-replica server template
    std::vector<int> latency_tenants; ///< percentile tenants
};

LoadgenConfig
chatWorkload(uint64_t seed, double rate_scale)
{
    // The mixedSloWorkload shape scaled to 8192 chat requests; the
    // long-context tenant keeps its rate over the longer session.
    LoadgenConfig config = mixedSloWorkload(seed, false);
    config.clients = 1;
    config.tenants[0].requests = 640;
    config.tenants[1].requests = 4096;
    config.tenants[2].requests = 4096;
    for (LoadgenTenant &tenant : config.tenants)
        tenant.arrival_rate_per_s *= rate_scale;
    return config;
}

LoadgenConfig
prefixWorkload(uint64_t seed, double rate_scale)
{
    LoadgenConfig config;
    config.seed = seed;
    config.clients = 1;
    struct Shape {
        const char *name;
        int64_t head, tail, pools;
        double rate;
        int64_t requests; ///< rate x the 600 s session
    };
    // Long shared heads (system prompts, documents, agent
    // scaffolds), short unique tails and short outputs.
    for (const Shape &shape : {Shape{"support", 512, 256, 8, 6.0, 3600},
                               Shape{"docs", 1024, 256, 8, 4.5, 2700},
                               Shape{"agents", 2048, 256, 8, 3.0, 1800}}) {
        LoadgenTenant tenant;
        tenant.admission.name = shape.name;
        tenant.admission.prefix_caching = true;
        tenant.admission.ttft_slo_us = 4e5;
        tenant.admission.tpot_slo_us = 5e4;
        tenant.arrival_rate_per_s = shape.rate * rate_scale;
        tenant.requests = shape.requests;
        tenant.prompt_min = shape.head;
        tenant.prompt_max = shape.head + shape.tail;
        tenant.output_min = 4;
        tenant.output_max = 32;
        tenant.shared_prompt_pools = shape.pools;
        config.tenants.push_back(tenant);
    }
    return config;
}

/** Random token ids (content-free prompts only need distinct keys). */
std::vector<int32_t>
tokenIds(Rng &rng, int64_t count)
{
    std::vector<int32_t> ids(static_cast<size_t>(count));
    for (int32_t &id : ids)
        id = static_cast<int32_t>(rng.uniformInt(128000));
    return ids;
}

/**
 * The open-loop request list of @p config, in arrival order. Each
 * tenant's arrivals are a stratified Poisson process (its gaps are
 * the exponential quantiles in seed-shuffled order), its prompt and
 * output lengths stratified uniform draws, and, with shared pools,
 * each prompt is its pool's head (prompt_min tokens, fixed per tenant
 * and pool) plus a unique tail. Scaling every rate scales the arrival
 * times and keeps everything else.
 */
std::vector<LoadgenRequest>
makeWorkload(const LoadgenConfig &config)
{
    Rng base(config.seed);
    std::vector<LoadgenRequest> requests;
    for (size_t t = 0; t < config.tenants.size(); ++t) {
        const LoadgenTenant &tenant = config.tenants[t];
        Rng rng = base.split();
        const int64_t n = tenant.requests;
        const std::vector<double> gaps =
            stratifiedExponential(n, 1e6 / tenant.arrival_rate_per_s, rng);
        const std::vector<int64_t> prompts = stratifiedUniformInts(
            n, tenant.prompt_min, tenant.prompt_max, rng);
        const std::vector<int64_t> outputs = stratifiedUniformInts(
            n, tenant.output_min, tenant.output_max, rng);
        const int64_t num_pools = tenant.shared_prompt_pools;
        std::vector<int64_t> pool(static_cast<size_t>(n));
        std::vector<std::vector<int32_t>> heads;
        if (num_pools > 0) {
            for (int64_t i = 0; i < n; ++i)
                pool[static_cast<size_t>(i)] = i % num_pools;
            rng.shuffle(pool);
            // The pool heads are the tenant's fixed system prompts:
            // independent of the seed, so replica placement (a hash
            // of the head) is a property of the tenants, not of the
            // draw.
            Rng head_rng(0x68656164ull + t); // "head"
            for (int64_t p = 0; p < num_pools; ++p)
                heads.push_back(tokenIds(head_rng, tenant.prompt_min));
        }
        double arrival_us = 0.0;
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
            arrival_us += gaps[i];
            LoadgenRequest request;
            request.tenant = static_cast<int>(t);
            request.arrival_us = arrival_us;
            request.prompt_tokens = prompts[i];
            request.eos_output_tokens = outputs[i];
            request.declared_output_tokens = tenant.output_max;
            if (num_pools > 0) {
                request.prompt_ids = heads[static_cast<size_t>(pool[i])];
                const std::vector<int32_t> tail =
                    tokenIds(rng, prompts[i] - tenant.prompt_min);
                request.prompt_ids.insert(request.prompt_ids.end(),
                                          tail.begin(), tail.end());
            }
            requests.push_back(std::move(request));
        }
    }
    std::stable_sort(requests.begin(), requests.end(),
                     [](const LoadgenRequest &a, const LoadgenRequest &b) {
                         return a.arrival_us < b.arrival_us;
                     });
    return requests;
}

EngineConfig
llama3Engine(int64_t kv_blocks)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    return engineConfigWithKvBlocks(config, kv_blocks);
}

ServingSpec
chatSpec()
{
    ServingSpec spec{"chat_slo", chatWorkload, llama3Engine(4096), 0,
                     {}, {1, 2}};
    spec.server.max_batch = 64;
    spec.server.chunked_prefill_tokens = 256;
    return spec;
}

ServingSpec
prefixSpec()
{
    ServingSpec spec{"prefix_cluster", prefixWorkload, llama3Engine(1024),
                     2, {}, {0, 1, 2}};
    spec.server.max_batch = 16;
    spec.server.chunked_prefill_tokens = 256;
    spec.server.enable_prefix_cache = true;
    return spec;
}

cluster::ClusterConfig
clusterConfig(const ServingSpec &spec, const ServingEngine *engine,
              const ServerConfig &server_config)
{
    cluster::ClusterConfig config;
    for (int r = 0; r < spec.replicas; ++r)
        config.replicas.push_back({engine, 1.0});
    config.server = server_config;
    config.policy = cluster::RoutingPolicy::kConsistentHash;
    return config;
}

/** Everything one pass observed. */
struct Session {
    /** Outcomes in request order, with the per-tenant rows (counts,
     * SLO attainment, goodput) of finalizeLoadgenReport. */
    LoadgenReport loadgen;
    double makespan_us = 0.0;
    double wall_s = 0.0;  ///< first submit to drained
    std::vector<double> submit_us;
    ServerStats stats;     ///< summed over replicas
    SchedulerCounters sched; ///< summed; peaks are the max
    int64_t kv_blocks = 0; ///< summed over replicas
    double kv_peak_util = 0.0; ///< max over replicas
    cluster::ClusterStats cluster;
    std::vector<int> placement; ///< replica per request (cluster)
};

/** Counts streams down to their terminal events. */
struct Completion {
    std::mutex mutex;
    std::condition_variable done;
    size_t open = 0;
};

/**
 * Submits every request through @p client, closes it, and returns when
 * every stream has ended. The client waits for the last terminal event
 * rather than in drain(): a thread blocked in drain() is woken at every
 * step the server settles, and those wake-ups (two context switches per
 * step) would make the measured wall time depend on how the machine
 * schedules the waiting thread.
 */
template <typename ClientT>
void
submitAll(ClientT client, const LoadgenConfig &config,
          const std::vector<LoadgenRequest> &requests,
          std::vector<RequestOutcome> &outcomes, Session &session)
{
    outcomes.assign(requests.size(), RequestOutcome{});
    session.submit_us.reserve(requests.size());
    Completion completion;
    completion.open = requests.size();
    for (size_t i = 0; i < requests.size(); ++i) {
        const LoadgenRequest &generated = requests[i];
        RequestOutcome *outcome = &outcomes[i];
        outcome->tenant = generated.tenant;
        outcome->arrival_us = generated.arrival_us;
        StreamRequest request;
        request.id = static_cast<int64_t>(i);
        request.tenant =
            config.tenants[static_cast<size_t>(generated.tenant)]
                .admission.name;
        request.prompt_tokens = generated.prompt_tokens;
        request.prompt_ids = generated.prompt_ids;
        request.max_output_tokens = generated.declared_output_tokens;
        request.eos_output_tokens = generated.eos_output_tokens;
        request.arrival_us = generated.arrival_us;
        request.callback = [outcome, &completion](const StreamEvent &event) {
            recordLoadgenEvent(outcome, event);
            if (event.kind == StreamEventKind::kToken)
                return;
            std::lock_guard<std::mutex> lock(completion.mutex);
            if (--completion.open == 0)
                completion.done.notify_one();
        };
        const double t0 = nowSeconds();
        {
            COMET_SPAN("bench/submit");
            client.submit(request);
        }
        session.submit_us.push_back((nowSeconds() - t0) * 1e6);
    }
    client.close();
    std::unique_lock<std::mutex> lock(completion.mutex);
    completion.done.wait(lock, [&] { return completion.open == 0; });
}

void
addCounters(Session &session, const ServerStats &stats,
            const SchedulerCounters &sched, int64_t kv_blocks)
{
    ServerStats &s = session.stats;
    s.submitted += stats.submitted;
    s.completed += stats.completed;
    s.rejected += stats.rejected;
    s.cancelled += stats.cancelled;
    s.streamed_tokens += stats.streamed_tokens;
    s.preemptions += stats.preemptions;
    s.reprefill_tokens += stats.reprefill_tokens;
    s.prefix_hits += stats.prefix_hits;
    s.prefix_misses += stats.prefix_misses;
    s.prefix_matched_tokens += stats.prefix_matched_tokens;
    s.prefix_blocks_evicted += stats.prefix_blocks_evicted;
    SchedulerCounters &c = session.sched;
    c.admitted += sched.admitted;
    c.preemptions += sched.preemptions;
    c.reprefill_tokens += sched.reprefill_tokens;
    c.prefill_chunks += sched.prefill_chunks;
    c.peak_running = std::max(c.peak_running, sched.peak_running);
    c.peak_queue_depth =
        std::max(c.peak_queue_depth, sched.peak_queue_depth);
    session.kv_blocks += kv_blocks;
    session.kv_peak_util =
        std::max(session.kv_peak_util,
                 static_cast<double>(sched.peak_used_blocks) /
                     static_cast<double>(kv_blocks));
}

Session
runSession(const ServingSpec &spec, const LoadgenConfig &config,
           const std::vector<LoadgenRequest> &requests)
{
    Session session;
    std::vector<RequestOutcome> outcomes;
    ServerConfig server_config = spec.server;
    server_config.tenants = loadgenTenants(config);
    const ServingEngine engine(spec.engine);
    if (spec.replicas == 0) {
        Server server(&engine, server_config);
        const double t0 = nowSeconds();
        submitAll(server.connect(), config, requests, outcomes, session);
        server.drain();
        session.wall_s = nowSeconds() - t0;
        session.makespan_us = server.virtualClockUs();
        addCounters(session, server.stats(), server.schedulerCounters(),
                    server.kvTotalBlocks());
        server.stop();
        session.loadgen = finalizeLoadgenReport(config, std::move(outcomes),
                                                session.makespan_us);
        return session;
    }
    cluster::ClusterRouter router(
        clusterConfig(spec, &engine, server_config));
    const double t0 = nowSeconds();
    submitAll(router.connect(), config, requests, outcomes, session);
    router.drain();
    session.wall_s = nowSeconds() - t0;
    session.makespan_us = router.virtualClockUs();
    for (int r = 0; r < spec.replicas; ++r) {
        addCounters(session, router.replicaStats(r),
                    router.replicaSchedulerCounters(r),
                    router.replicaKvCacheForAudit(r).totalBlocks());
    }
    session.cluster = router.stats();
    for (size_t i = 0; i < requests.size(); ++i)
        session.placement.push_back(
            router.placementOf(static_cast<int64_t>(i)));
    router.stop(false);
    session.loadgen = finalizeLoadgenReport(config, std::move(outcomes),
                                            session.makespan_us);
    return session;
}

/** Set-up cost of one session (engine plus server/router
 * construction): the median over @p reps timed batches of the mean
 * over @p batch set-ups built back to back and held alive, so one
 * sample spans far more than the timer's and the scheduler's noise.
 * Teardown is not timed. */
double
setupSeconds(const ServingSpec &spec, const LoadgenConfig &config,
             int reps, int batch)
{
    ServerConfig server_config = spec.server;
    server_config.tenants = loadgenTenants(config);
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        std::vector<std::unique_ptr<ServingEngine>> engines;
        std::vector<std::unique_ptr<Server>> servers;
        std::vector<std::unique_ptr<cluster::ClusterRouter>> routers;
        const double t0 = nowSeconds();
        for (int b = 0; b < batch; ++b) {
            engines.push_back(std::make_unique<ServingEngine>(spec.engine));
            if (spec.replicas == 0) {
                servers.push_back(std::make_unique<Server>(
                    engines.back().get(), server_config));
                continue;
            }
            routers.push_back(std::make_unique<cluster::ClusterRouter>(
                clusterConfig(spec, engines.back().get(), server_config)));
        }
        samples.push_back((nowSeconds() - t0) / batch);
        for (auto &server : servers)
            server->stop();
        for (auto &router : routers)
            router->stop();
    }
    return median(samples);
}

double
ttftUs(const RequestOutcome &o, double makespan_us)
{
    return o.terminal == StreamEventKind::kFinished
               ? o.first_token_us - o.arrival_us
               : makespan_us - o.arrival_us;
}

bool
isLatencyTenant(const ServingSpec &spec, int tenant)
{
    return std::find(spec.latency_tenants.begin(),
                     spec.latency_tenants.end(),
                     tenant) != spec.latency_tenants.end();
}

/** Share of requests sent (all tenants) that finished within their
 * tenant's TTFT and TPOT limits, as finalizeLoadgenReport judges
 * them. */
double
sloAttainment(const LoadgenReport &loadgen)
{
    int64_t met = 0;
    for (const LoadgenTenantReport &tenant : loadgen.tenants)
        met += tenant.slo_met;
    return static_cast<double>(met) /
           static_cast<double>(loadgen.outcomes.size());
}

/** Tokens of requests that met their tenant's limits per virtual
 * second, all tenants. */
double
goodputTokensPerS(const LoadgenReport &loadgen)
{
    double goodput = 0.0;
    for (const LoadgenTenantReport &tenant : loadgen.tenants)
        goodput += tenant.goodput_tokens_per_s;
    return goodput;
}

/** The backlog test (kBacklogRule); fills the two medians. */
bool
growingBacklog(const ServingSpec &spec, const LoadgenConfig &config,
               const Session &session, double *early_ms, double *late_ms)
{
    std::vector<double> ttfts; // latency tenants, arrival order
    double tightest = 0.0;
    for (int t : spec.latency_tenants) {
        const double limit =
            config.tenants[static_cast<size_t>(t)].admission.ttft_slo_us;
        tightest = tightest == 0.0 ? limit : std::min(tightest, limit);
    }
    for (const RequestOutcome &o : session.loadgen.outcomes) {
        if (isLatencyTenant(spec, o.tenant))
            ttfts.push_back(ttftUs(o, session.makespan_us));
    }
    const size_t quarter = ttfts.size() / 4;
    const double early = median(
        std::vector<double>(ttfts.begin(), ttfts.begin() + quarter));
    const double late = median(
        std::vector<double>(ttfts.end() - quarter, ttfts.end()));
    *early_ms = early / 1e3;
    *late_ms = late / 1e3;
    return late > 2.0 * early && late - early > 0.5 * tightest;
}

/** The output checks of one pass; returns its failed requests
 * (rejected, cancelled, or finished with another token count than
 * their EOS count). */
int64_t
checkSession(Report &report, const std::vector<LoadgenRequest> &requests,
             const Session &session, const std::string &label)
{
    const LoadgenReport &loadgen = session.loadgen;
    int64_t short_streams = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        const RequestOutcome &o = loadgen.outcomes[i];
        if (o.terminal == StreamEventKind::kFinished &&
            o.tokens != requests[i].eos_output_tokens)
            ++short_streams;
    }
    const auto sent = static_cast<int64_t>(requests.size());
    const int64_t finished = loadgen.completed;
    const int64_t rejected = loadgen.rejected;
    const int64_t cancelled = loadgen.cancelled;
    report.check(label + ": sent = finished + rejected + cancelled",
                 sent == finished + rejected + cancelled &&
                     session.stats.completed == finished &&
                     session.stats.rejected + session.cluster.rejected ==
                         rejected,
                 "sent=" + std::to_string(sent) + " finished=" +
                     std::to_string(finished) + " rejected=" +
                     std::to_string(rejected) + " cancelled=" +
                     std::to_string(cancelled));
    report.check(label + ": every finished stream delivers exactly its "
                         "EOS token count",
                 short_streams == 0,
                 std::to_string(short_streams) + " streams differ");
    return rejected + cancelled + short_streams;
}

bool
sameOutcomes(const Session &a, const Session &b)
{
    const std::vector<RequestOutcome> &xs = a.loadgen.outcomes;
    const std::vector<RequestOutcome> &ys = b.loadgen.outcomes;
    if (xs.size() != ys.size() || a.makespan_us != b.makespan_us)
        return false;
    for (size_t i = 0; i < xs.size(); ++i) {
        const RequestOutcome &x = xs[i], &y = ys[i];
        if (x.terminal != y.terminal || x.tokens != y.tokens ||
            x.first_token_us != y.first_token_us ||
            x.last_token_us != y.last_token_us)
            return false;
    }
    return true;
}

/** Digest of a session's virtual-time outcomes. */
Digest
outcomeDigest(const Session &session)
{
    Digest digest;
    for (const RequestOutcome &o : session.loadgen.outcomes) {
        digest.add(o.terminal);
        digest.add(o.tokens);
        digest.add(o.first_token_us);
        digest.add(o.last_token_us);
    }
    digest.add(session.makespan_us);
    return digest;
}

std::string
tenantLimits(const LoadgenConfig &config)
{
    std::ostringstream out;
    for (const LoadgenTenant &t : config.tenants) {
        out << t.admission.name << ": " << t.requests << " requests at "
            << t.arrival_rate_per_s << "/s, prompt " << t.prompt_min
            << "-" << t.prompt_max << ", output " << t.output_min << "-"
            << t.output_max << ", TTFT limit "
            << t.admission.ttft_slo_us / 1e3 << " ms, TPOT limit "
            << (t.admission.tpot_slo_us > 0.0
                    ? num(t.admission.tpot_slo_us / 1e3) + " ms"
                    : std::string("none"))
            << "; ";
    }
    return out.str();
}

double
nominalRate(const LoadgenConfig &config)
{
    double rate = 0.0;
    for (const LoadgenTenant &t : config.tenants)
        rate += t.arrival_rate_per_s;
    return rate;
}

void
runServing(const ServingSpec &spec, const Args &args, Report &report)
{
    const LoadgenConfig nominal = spec.workload(args.seed, 1.0);
    const std::vector<LoadgenRequest> requests =
        makeWorkload(nominal);
    int64_t prompt_tokens = 0;
    for (const LoadgenRequest &r : requests)
        prompt_tokens += r.prompt_tokens;

    report.note("clock", "latency and throughput metrics are virtual "
                         "time (the simulated A100); sim_wall_s, "
                         "cpu_tok_s and setup_s are wall clock");
    report.note("loop", "open loop, stratified Poisson arrivals "
                        "precomputed from the seed (each tenant's gaps "
                        "are the exponential quantiles in seed-shuffled "
                        "order; lengths are stratified uniform draws); "
                        "arrivals are virtual-time stamps, so generator "
                        "lateness is zero by construction");
    report.note("threads",
                "1 client (main thread) + " +
                    std::to_string(spec.replicas == 0
                                       ? 1
                                       : spec.replicas + 1) +
                    " server/router loop threads + COMET_THREADS=" +
                    std::to_string(args.threads) +
                    " (the pool's caller slot is a loop thread, so " +
                    std::to_string(args.threads - 1) +
                    " pool workers)");
    report.note("tenants", tenantLimits(nominal));
    std::string latency_names;
    for (int t : spec.latency_tenants)
        latency_names +=
            nominal.tenants[static_cast<size_t>(t)].admission.name + " ";
    report.note("percentile_tenants", latency_names);
    report.note("percentile_rule", kPercentileRule);

    if (!args.trace) {
        // The passes run in fresh child processes: in one process a
        // session runs slower after earlier sessions (each leaves
        // memory behind), so passes would not repeat the same work.
        // The last pass runs here and supplies the metrics.
        // Each pass also times set-up after its session, so the set-up
        // samples spread over the run like the passes do.
        constexpr int kSetupReps = 5, kSetupBatch = 32;
        const std::vector<ChildPass> children =
            repeatInChildren(args.seconds, 2, [&] {
                const Session session = runSession(spec, nominal, requests);
                return ChildPass{
                    session.wall_s,
                    setupSeconds(spec, nominal, kSetupReps, kSetupBatch),
                    outcomeDigest(session).value()};
            });
        const Session last = runSession(spec, nominal, requests);
        const double rss_mb = peakRssMb(); // one session's VmHWM
        const Digest digest = outcomeDigest(last);
        std::vector<double> walls, setups;
        bool deterministic = true;
        for (const ChildPass &child : children) {
            walls.push_back(child.wall_s);
            setups.push_back(child.setup_s);
            deterministic = deterministic && child.digest == digest.value();
        }
        walls.push_back(last.wall_s);
        setups.push_back(setupSeconds(spec, nominal, kSetupReps, kSetupBatch));
        const int64_t failed =
            checkSession(report, requests, last, "last pass");
        report.note("outcome_digest", digest.hex());
        report.check("virtual-time outcomes are bit-identical across "
                     "passes",
                     deterministic,
                     std::to_string(walls.size()) + " passes");
        std::vector<double> ttft, tpot;
        for (const RequestOutcome &o : last.loadgen.outcomes) {
            if (o.terminal != StreamEventKind::kFinished ||
                !isLatencyTenant(spec, o.tenant))
                continue;
            ttft.push_back(o.first_token_us - o.arrival_us);
            if (o.tokens >= 2)
                tpot.push_back((o.last_token_us - o.first_token_us) /
                               static_cast<double>(o.tokens - 1));
        }
        reportLatency(report, "ttft", ttft);
        reportLatency(report, "tpot", tpot);
        const auto sent = static_cast<int64_t>(requests.size());
        // Open loop: all streamed tokens per virtual second would be the
        // offered load, which the arrivals fix; goodput counts only the
        // tokens of requests that met their tenant's limits, so it
        // drops when latency does not keep up.
        report.metric("throughput_tok_s", goodputTokensPerS(last.loadgen),
                      "tok/s", last.stats.streamed_tokens);
        report.metric("served_frac",
                      static_cast<double>(last.stats.completed) /
                          static_cast<double>(sent),
                      "fraction", sent);
        // Every pass repeats identical work, so the fastest pass is
        // the workload's cost; interference from other processes on
        // the machine only ever adds time.
        const double wall = *std::min_element(walls.begin(), walls.end());
        std::string pass_walls;
        for (double w : walls)
            pass_walls += num(w) + " ";
        report.note("pass_wall_s",
                    pass_walls + "(sim_wall_s and cpu_tok_s use the "
                                 "fastest pass)");
        report.metric("sim_wall_s", wall, "s",
                      static_cast<int64_t>(walls.size()));
        report.metric("cpu_tok_s",
                      static_cast<double>(last.stats.streamed_tokens) /
                          wall,
                      "tok/s", static_cast<int64_t>(walls.size()));
        report.metric("setup_s", median(setups), "s",
                      static_cast<int64_t>(setups.size()) * kSetupReps *
                          kSetupBatch);
        report.metric("peak_rss_mb", rss_mb, "MiB", 1);
        report.setCounts(sent, failed);
        return;
    }

    // Traced run: an untraced pass (the end-to-end view and the
    // overhead baseline), the rate ladder, then the traced pass.
    const Session base = runSession(spec, nominal, requests);
    checkSession(report, requests, base, "untraced pass");
    std::map<std::string, double> layer;
    layer["slo_attainment"] = sloAttainment(base.loadgen);

    std::ostringstream ladder_note;
    double max_rate = 0.0;
    for (const double scale : kLadder) {
        const LoadgenConfig config = spec.workload(args.seed, scale);
        const std::vector<LoadgenRequest> rung_requests =
            makeWorkload(config);
        const Session rung = runSession(spec, config, rung_requests);
        checkSession(report, rung_requests, rung,
                     "ladder x" + num(scale));
        double early_ms = 0.0, late_ms = 0.0;
        const bool backlog =
            growingBacklog(spec, config, rung, &early_ms, &late_ms);
        const double attained = sloAttainment(rung.loadgen);
        const bool pass = attained >= kLadderAttainment && !backlog;
        if (pass)
            max_rate = std::max(max_rate, nominalRate(config));
        ladder_note << "x" << scale << " (" << nominalRate(config)
                    << "/s): attainment " << attained
                    << ", early/late median TTFT " << early_ms << "/"
                    << late_ms << " ms, backlog "
                    << (backlog ? "growing" : "steady") << ", "
                    << (pass ? "pass" : "fail") << "; ";
    }
    layer["max_rate_slo_rps"] = max_rate;
    report.note("rate_ladder", ladder_note.str());
    report.note("max_rate_rule",
                "highest ladder rate (multiples 0.5/1/1.5/2/3/4/6 of the "
                "nominal rate, same requests with arrivals compressed) "
                "with slo_attainment >= 0.9 and no growing backlog");
    report.note("backlog_rule", kBacklogRule);

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::TraceSession &tracer = obs::TraceSession::global();
    tracer.drain();
    tracer.start();
    const Session traced = runSession(spec, nominal, requests);
    tracer.stop();
    const std::vector<obs::SpanRecord> spans = tracer.drain();
    const int64_t failed =
        checkSession(report, requests, traced, "traced pass");
    report.check("traced pass reproduces the untraced outcomes",
                 sameOutcomes(base, traced));

    const Percentiles submit = summarize(traced.submit_us);
    layer["server.submit_us_p50"] = submit.p50;
    layer["server.submit_us_p99"] = submit.p99;
    layer["server.rejected"] = static_cast<double>(
        traced.stats.rejected + traced.cluster.rejected);
    layer["server.queue_peak"] =
        static_cast<double>(traced.sched.peak_queue_depth);
    if (spec.replicas > 0) {
        // Affinity: the request landed on a replica that already
        // served its (tenant, shared pool); pools are identified by
        // their first prompt page.
        std::set<std::tuple<int, std::vector<int32_t>, int>> served;
        std::vector<double> tokens(static_cast<size_t>(spec.replicas));
        int64_t affine = 0, repeat = 0;
        std::set<std::pair<int, std::vector<int32_t>>> seen;
        for (size_t i = 0; i < requests.size(); ++i) {
            const int replica = traced.placement[i];
            if (replica < 0)
                continue;
            const std::vector<int32_t> head(
                requests[i].prompt_ids.begin(),
                requests[i].prompt_ids.begin() + 16);
            const auto pool = std::make_pair(requests[i].tenant, head);
            if (seen.count(pool)) {
                ++repeat;
                affine += served.count({pool.first, head, replica});
            }
            seen.insert(pool);
            served.insert({pool.first, head, replica});
            tokens[static_cast<size_t>(replica)] += static_cast<double>(
                requests[i].prompt_tokens + requests[i].eos_output_tokens);
        }
        double mean_tokens = 0.0;
        for (double t : tokens)
            mean_tokens += t / static_cast<double>(tokens.size());
        layer["cluster.prefix_affinity"] =
            repeat > 0 ? static_cast<double>(affine) /
                             static_cast<double>(repeat)
                       : 0.0;
        layer["cluster.load_imbalance"] =
            *std::max_element(tokens.begin(), tokens.end()) / mean_tokens;
        layer["cluster.rerouted"] =
            static_cast<double>(traced.cluster.rerouted);
    }
    layer["serve.admitted"] = static_cast<double>(traced.sched.admitted);
    layer["serve.preemptions"] =
        static_cast<double>(traced.sched.preemptions);
    layer["serve.reprefill_frac"] =
        static_cast<double>(traced.sched.reprefill_tokens) /
        static_cast<double>(prompt_tokens);
    layer["serve.prefill_chunks"] =
        static_cast<double>(traced.sched.prefill_chunks);
    layer["serve.peak_running"] =
        static_cast<double>(traced.sched.peak_running);
    layer["kvcache.peak_util"] = traced.kv_peak_util;
    layer["kvcache.pool_blocks"] = static_cast<double>(traced.kv_blocks);
    const int64_t lookups =
        traced.stats.prefix_hits + traced.stats.prefix_misses;
    layer["prefix.hit_rate"] =
        lookups > 0 ? static_cast<double>(traced.stats.prefix_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    layer["prefix.token_frac"] =
        static_cast<double>(traced.stats.prefix_matched_tokens) /
        static_cast<double>(prompt_tokens);
    layer["prefix.blocks_inserted"] = static_cast<double>(
        registry.counterValue("prefix.blocks_inserted"));
    layer["prefix.blocks_evicted"] =
        static_cast<double>(traced.stats.prefix_blocks_evicted);
    layer["gpusim.tiles_scheduled"] = static_cast<double>(
        registry.counterValue("gpusim.tiles_scheduled"));
    layer["kernel.w4ax_tiles"] = static_cast<double>(
        registry.counterValue("kernel.w4ax.int4_tiles") +
        registry.counterValue("kernel.w4ax.int8_tiles"));
    layer["runtime.regions"] =
        static_cast<double>(registry.counterValue("runtime.regions"));
    layer["runtime.chunks_stolen"] = static_cast<double>(
        registry.counterValue("runtime.chunks_stolen"));

    // Observed shapes: mean running batch by Little's law over the
    // decode phase, mean context half-way through the output.
    double decode_us = 0.0, context = 0.0, prompt = 0.0;
    int64_t finished = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        const RequestOutcome &o = traced.loadgen.outcomes[i];
        if (o.terminal != StreamEventKind::kFinished)
            continue;
        ++finished;
        decode_us += o.last_token_us - o.first_token_us;
        prompt += static_cast<double>(requests[i].prompt_tokens);
        context += static_cast<double>(requests[i].prompt_tokens) +
                   static_cast<double>(o.tokens) / 2.0;
    }
    const ServingEngine engine(spec.engine);
    const int64_t replicas = std::max(spec.replicas, 1);
    const int64_t batch = std::max<int64_t>(
        1, std::llround(decode_us / traced.makespan_us /
                        static_cast<double>(replicas)));
    const auto mean_context = static_cast<int64_t>(
        std::llround(context / static_cast<double>(finished)));
    const auto mean_prompt = static_cast<int64_t>(
        std::llround(prompt / static_cast<double>(finished)));
    report.note("observed_shapes",
                "mean decode batch per replica " + std::to_string(batch) +
                    ", mean context " + std::to_string(mean_context) +
                    ", mean prompt " + std::to_string(mean_prompt));
    double parts_sum = 0.0, engine_step = 0.0;
    for (const auto &[name, value] : decodeStepSplit(
             engine, batch, mean_context, &parts_sum, &engine_step))
        layer[name] = value;
    report.check("virtual step split sums to the engine's decode step",
                 std::fabs(parts_sum - engine_step) <= 1e-9 * engine_step,
                 num(parts_sum) + " vs " + num(engine_step));
    engineCallWallUs(engine, mean_prompt, batch, mean_context, 200,
                     &layer["gpusim.prefill_call_us"],
                     &layer["gpusim.decode_call_us"]);

    layer["obs.trace_overhead"] = traced.wall_s / base.wall_s - 1.0;
    layer["obs.dropped_spans"] =
        static_cast<double>(tracer.droppedSpans());
    report.check("no spans dropped", tracer.droppedSpans() == 0);
    reportPerLayer(report, layer);

    const std::string stem =
        args.out_dir + "/" + spec.name + "-seed" +
        std::to_string(args.seed);
    const std::vector<SpanSelfTime> table = selfTimeTable(spans);
    report.check("Chrome trace written",
                 writeChromeTrace(stem + ".trace.json", spans));
    report.check("self-time table written",
                 writeSelfTimeTable(stem + ".selftime.tsv", table));
    report.note("trace_files", stem + ".trace.json, " + stem +
                                   ".selftime.tsv");
    report.note("self_time_top", selfTimeSummary(table, 8));
    report.setCounts(static_cast<int64_t>(requests.size()), failed);
}

} // namespace

void
runChatSlo(const Args &args, Report &report)
{
    runServing(chatSpec(), args, report);
}

void
runPrefixCluster(const Args &args, Report &report)
{
    runServing(prefixSpec(), args, report);
}

} // namespace cometbench
