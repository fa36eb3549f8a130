/**
 * @file
 * Chaos soak driver: the fault-injected, property-checked stress run
 * for the serving stack (DESIGN.md §11).
 *
 * Per seed it (1) generates a multi-tenant workload script, (2) arms
 * the standard fault schedule (allocator OOM, pool delays, ingress
 * cancels, forced preemptions, admission expiries), (3) replays the
 * script at COMET_THREADS=1 and 8 and requires every invariant to
 * hold with byte-identical event logs, and (4) runs the KV-cache and
 * scheduler model fuzzers under the same seed. A failing seed is
 * shrunk to a minimal step script and printed with a one-line repro
 * command.
 *
 * `--cluster` routes every script through a 4-replica ClusterRouter
 * instead (policy rotating per seed), with the routing-thread
 * failpoints armed — forced reroutes (`cluster.route`) and injected
 * mid-workload drains (`cluster.drain`) — and requires the same
 * bit-identical replay plus the cluster audits (token conservation
 * across drains, routing accounting, per-replica KV quiescence).
 *
 * `--probe` instead measures the disabled-failpoint fast path the
 * way bench_obs_overhead measures disabled spans, and enforces the
 * <= 1 ns/hit budget in optimized non-sanitizer builds. It is a run
 * of its own so that a noisy host can fail the wall-clock budget but
 * never a correctness soak.
 */
#include <algorithm>
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "comet/chaos/failpoint.h"
#include "comet/chaos/harness.h"
#include "comet/chaos/script.h"
#include "comet/cluster/placement.h"
#include "comet/common/table.h"
#include "comet/runtime/thread_pool.h"

namespace {

using namespace comet;
using namespace comet::chaos;

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define COMET_BENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COMET_BENCH_SANITIZED 1
#endif

/** ns/hit of a disabled failpoint: one relaxed atomic load. The
 * minimum over a few repetitions: interference from other processes
 * only ever adds time, so the fastest repetition is the one closest to
 * the probe's own cost. */
double
measureDisabledFailpointNs()
{
    FailPointRegistry::global().disarmAll();
    constexpr int kRepetitions = 5;
    constexpr int64_t kIters = 20'000'000;
    double best_ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int64_t i = 0; i < kIters; ++i) {
            if (COMET_FAILPOINT("soak.probe"))
                std::abort(); // never armed; keeps the branch live
            asm volatile("" ::: "memory");
        }
        const auto stop = std::chrono::steady_clock::now();
        const double ns_per_hit =
            std::chrono::duration<double, std::nano>(stop - start)
                .count() /
            static_cast<double>(kIters);
        best_ns = std::min(best_ns, ns_per_hit);
    }
    return best_ns;
}

/** The `--probe` run: prints the disabled-failpoint cost and fails
 * above the 1 ns/hit budget in optimized non-sanitizer builds. */
int
runFailpointProbe()
{
    const double disabled_ns = measureDisabledFailpointNs();
    std::printf("disabled failpoint: %.3f ns/hit (budget 1.0)\n",
                disabled_ns);
#if defined(NDEBUG) && !defined(COMET_BENCH_SANITIZED)
    if (disabled_ns > 1.0) {
        std::fprintf(stderr,
                     "FAIL: disabled failpoint costs %.3f ns/hit "
                     "(> 1 ns budget)\n",
                     disabled_ns);
        return 1;
    }
#endif
    return 0;
}

/** Replicas the cluster soak routes across. */
constexpr int kClusterReplicas = 4;

/** Cluster-soak policy for a seed: rotating through the three
 * routing policies spreads coverage without a separate flag. */
cluster::RoutingPolicy
clusterPolicyForSeed(uint64_t seed)
{
    switch (seed % 3) {
    case 0:
        return cluster::RoutingPolicy::kLeastLoaded;
    case 1:
        return cluster::RoutingPolicy::kConsistentHash;
    default:
        return cluster::RoutingPolicy::kWeightedRoundRobin;
    }
}

/** The cluster soak's fault schedule: the routing-thread failpoints
 * (forced reroutes, injected drains) plus pool delays — the
 * cluster-safe subset runClusterChaosScript keeps armed. */
ChaosFaultConfig
clusterFaults(uint64_t seed)
{
    ChaosFaultConfig faults;
    faults.seed = seed;
    faults.route_every = 7;
    faults.drain_every = 41;
    return faults;
}

/** One seed's faulted cluster double run (threads 1 vs 8): the
 * script routed through a 4-replica cluster with cluster.route and
 * cluster.drain armed. Empty string when every invariant held and
 * the event logs matched byte for byte. */
/** Mixed tensor-parallel degrees the `--tp --cluster` soak spreads
 * across the 4 replicas (replica r gets entry r % size). */
const std::vector<int> kHeterogeneousTp = {1, 2, 4, 2};

std::string
runClusterSoakSeed(uint64_t seed, int steps, bool prefix, bool tp)
{
    ChaosScriptConfig config;
    config.seed = seed;
    config.steps = steps;
    config.prefix = prefix;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    const ChaosFaultConfig faults = clusterFaults(seed);
    const cluster::RoutingPolicy policy = clusterPolicyForSeed(seed);
    const std::vector<int> tp_degrees =
        tp ? kHeterogeneousTp : std::vector<int>{};

    ThreadPool::setGlobalThreads(1);
    const ClusterChaosRunResult serial =
        runClusterChaosScript(script, config, &faults,
                              kClusterReplicas, policy, tp_degrees);
    ThreadPool::setGlobalThreads(8);
    const ClusterChaosRunResult pooled =
        runClusterChaosScript(script, config, &faults,
                              kClusterReplicas, policy, tp_degrees);
    ThreadPool::setGlobalThreads(0);

    if (!serial.ok)
        return "threads=1: " + serial.failure;
    if (!pooled.ok)
        return "threads=8: " + pooled.failure;
    if (serial.event_log != pooled.event_log)
        return "event logs diverge between threads=1 and threads=8";
    return "";
}

/** One seed's faulted double run (threads 1 vs 8). Empty string when
 * every invariant held and the logs matched. With `tp` the script
 * replays on a TP=2 engine with the tp.allreduce failpoint armed:
 * sharding and degraded links shift the virtual clock (scripts carry
 * time-triggered cancels, so streams legitimately differ from TP=1),
 * but the replay must stay byte-identical across thread counts. */
std::string
runSoakSeed(uint64_t seed, int steps, bool prefix, bool tp)
{
    ChaosScriptConfig config;
    config.seed = seed;
    config.steps = steps;
    config.prefix = prefix;
    config.tp_degree = tp ? 2 : 1;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    ChaosFaultConfig faults;
    faults.seed = seed;
    if (prefix)
        faults.graft_every = 23; // forced misses ride the soak too
    if (tp)
        faults.allreduce_every = 13;

    ThreadPool::setGlobalThreads(1);
    const ChaosRunResult serial =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(8);
    const ChaosRunResult pooled =
        runChaosScript(script, config, &faults);
    ThreadPool::setGlobalThreads(0);

    if (!serial.ok)
        return "threads=1: " + serial.failure;
    if (!pooled.ok)
        return "threads=8: " + pooled.failure;
    if (serial.event_log != pooled.event_log)
        return "event logs diverge between threads=1 and threads=8";
    return "";
}

/** Shrinks a failing seed's script and prints the minimal repro. */
void
reportFailure(uint64_t seed, int steps, bool prefix, bool clustered,
              bool tp, const std::string &failure)
{
    std::fprintf(stderr,
                 "FAILING SEED %" PRIu64 " (steps=%d%s%s%s): %s\n",
                 seed, steps, prefix ? ", prefix" : "",
                 clustered ? ", cluster" : "", tp ? ", tp" : "",
                 failure.c_str());
    ChaosScriptConfig config;
    config.seed = seed;
    config.steps = steps;
    config.prefix = prefix;
    if (tp && !clustered)
        config.tp_degree = 2;
    const std::vector<ChaosStep> script =
        generateChaosScript(config);
    ChaosFaultConfig faults;
    faults.seed = seed;
    if (clustered)
        faults = clusterFaults(seed);
    else if (prefix)
        faults.graft_every = 23;
    if (tp && !clustered)
        faults.allreduce_every = 13;
    const std::vector<int> tp_degrees =
        (tp && clustered) ? kHeterogeneousTp : std::vector<int>{};
    const auto fails = [&](const std::vector<ChaosStep> &candidate) {
        if (clustered)
            return !runClusterChaosScript(candidate, config, &faults,
                                          kClusterReplicas,
                                          clusterPolicyForSeed(seed),
                                          tp_degrees)
                        .ok;
        return !runChaosScript(candidate, config, &faults).ok;
    };
    // Shrink against the single-threaded replay: cheap, and any
    // surviving violation reproduces by construction.
    ThreadPool::setGlobalThreads(1);
    const std::vector<ChaosStep> shrunk =
        shrinkChaosScript(script, fails, /*max_runs=*/48);
    ThreadPool::setGlobalThreads(0);
    ChaosRunResult minimal;
    if (clustered) {
        const ClusterChaosRunResult cluster_minimal =
            runClusterChaosScript(shrunk, config, &faults,
                                  kClusterReplicas,
                                  clusterPolicyForSeed(seed),
                                  tp_degrees);
        minimal.ok = cluster_minimal.ok;
        minimal.failure = cluster_minimal.failure;
    } else {
        minimal = runChaosScript(shrunk, config, &faults);
    }
    if (!minimal.ok) {
        std::fprintf(stderr,
                     "minimal script (%zu of %zu steps), fails "
                     "with: %s\n%s",
                     shrunk.size(), script.size(),
                     minimal.failure.c_str(),
                     renderChaosScript(shrunk).c_str());
    } else {
        // The shrink budget ran out before isolating a subsequence
        // that still fails single-threaded (e.g. a threads=8-only
        // divergence); the full script is the repro.
        std::fprintf(stderr,
                     "script did not shrink single-threaded; full "
                     "%zu-step script is the repro\n",
                     script.size());
    }
    std::fprintf(stderr,
                 "repro: ./bench_chaos_soak --seed=%" PRIu64
                 " --seeds=1 --steps=%d%s%s%s\n",
                 seed, steps, prefix ? " --prefix" : "",
                 clustered ? " --cluster" : "", tp ? " --tp" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "seeded fault-injection soak of the serving stack: invariant "
        "audits plus bit-identical replay across thread counts",
        {{"--smoke", "reduced shapes for CI (2 seeds x 500 steps)"},
         {"--prefix", "prefix-cache mode: shared-prompt scripts, the "
                      "cache on, and the graft failpoint armed"},
         {"--cluster", "cluster mode: route every script through a "
                       "4-replica ClusterRouter with cluster.route "
                       "and cluster.drain armed"},
         {"--tp", "tensor-parallel mode: TP=2 engine with "
                  "tp.allreduce armed (log must match tp=1); with "
                  "--cluster, heterogeneous replica degrees 1/2/4/2"},
         {"--probe", "measure only the disabled-failpoint cost and "
                     "enforce its 1 ns/hit budget (optimized "
                     "non-sanitizer builds)"},
         {"--seed=", "first seed (default 1)"},
         {"--seeds=", "number of consecutive seeds (default 1)"},
         {"--steps=", "script steps per seed (default 10000)"}});
    const bool smoke = bench::smokeRequested(argc, argv);
    bool prefix = false;
    bool clustered = false;
    bool tp = false;
    bool probe = false;
    for (int i = 1; i < argc; ++i) {
        probe = probe || std::strcmp(argv[i], "--probe") == 0;
        prefix = prefix || std::strcmp(argv[i], "--prefix") == 0;
        clustered =
            clustered || std::strcmp(argv[i], "--cluster") == 0;
        tp = tp || std::strcmp(argv[i], "--tp") == 0;
    }
    const uint64_t first_seed = static_cast<uint64_t>(
        bench::flagValue(argc, argv, "--seed=", 1));
    const int64_t seeds =
        bench::flagValue(argc, argv, "--seeds=", smoke ? 2 : 1);
    const int steps = static_cast<int>(bench::flagValue(
        argc, argv, "--steps=", smoke ? 500 : 10000));

    if (probe)
        return runFailpointProbe();

    Table table(
        clustered
            ? std::vector<std::string>{"seed", "steps", "policy",
                                       "completed", "routed",
                                       "rerouted", "drains",
                                       "tokens", "replay"}
            : std::vector<std::string>{"seed", "steps", "completed",
                                       "rejected", "cancelled",
                                       "tokens", "grafted",
                                       "replay"});
    bool all_ok = true;
    for (int64_t i = 0; i < seeds; ++i) {
        const uint64_t seed = first_seed + static_cast<uint64_t>(i);
        if (clustered) {
            const std::string failure =
                runClusterSoakSeed(seed, steps, prefix, tp);
            if (!failure.empty()) {
                all_ok = false;
                reportFailure(seed, steps, prefix, true, tp,
                              failure);
                continue;
            }
            // Re-run once at the ambient thread count for the row.
            ChaosScriptConfig config;
            config.seed = seed;
            config.steps = steps;
            config.prefix = prefix;
            const ChaosFaultConfig faults = clusterFaults(seed);
            const cluster::RoutingPolicy policy =
                clusterPolicyForSeed(seed);
            const ClusterChaosRunResult result =
                runClusterChaosScript(
                    generateChaosScript(config), config, &faults,
                    kClusterReplicas, policy,
                    tp ? kHeterogeneousTp : std::vector<int>{});
            if (!result.ok) {
                all_ok = false;
                reportFailure(seed, steps, prefix, true, tp,
                              "ambient threads: " + result.failure);
                continue;
            }
            table.addRow(
                {std::to_string(seed), std::to_string(steps),
                 cluster::routingPolicyName(policy),
                 std::to_string(result.replica_completed),
                 std::to_string(result.cluster_stats.routed),
                 std::to_string(result.cluster_stats.rerouted),
                 std::to_string(result.cluster_stats.drains),
                 std::to_string(result.replica_streamed_tokens),
                 "bit-identical"});
            continue;
        }
        const std::string failure =
            runSoakSeed(seed, steps, prefix, tp);
        if (!failure.empty()) {
            all_ok = false;
            reportFailure(seed, steps, prefix, false, tp, failure);
            continue;
        }
        // The fuzzers ride the same seed for cheap extra coverage.
        const Status kv_fuzz =
            runKvModelFuzz(seed, smoke ? 300 : 2000, true);
        const Status sched_fuzz =
            runSchedulerFuzz(seed, smoke ? 300 : 2000, true);
        const Status prefix_fuzz =
            runPrefixFuzz(seed, smoke ? 300 : 2000, true);
        if (!kv_fuzz.isOk() || !sched_fuzz.isOk() ||
            !prefix_fuzz.isOk()) {
            all_ok = false;
            const Status &bad = !kv_fuzz.isOk()      ? kv_fuzz
                                : !sched_fuzz.isOk() ? sched_fuzz
                                                     : prefix_fuzz;
            std::fprintf(stderr,
                         "FAILING SEED %" PRIu64 " (model fuzz): "
                         "%s\nrepro: ./bench_chaos_soak "
                         "--seed=%" PRIu64 " --seeds=1 --steps=%d\n",
                         seed, bad.toString().c_str(), seed, steps);
            continue;
        }
        // Re-run once at the ambient thread count for the stats row.
        ChaosScriptConfig config;
        config.seed = seed;
        config.steps = steps;
        config.prefix = prefix;
        config.tp_degree = tp ? 2 : 1;
        ChaosFaultConfig faults;
        faults.seed = seed;
        if (prefix)
            faults.graft_every = 23;
        if (tp)
            faults.allreduce_every = 13;
        const ChaosRunResult result = runChaosScript(
            generateChaosScript(config), config, &faults);
        if (!result.ok) {
            all_ok = false;
            reportFailure(seed, steps, prefix, false, tp,
                          "ambient threads: " + result.failure);
            continue;
        }
        table.addRow({std::to_string(seed), std::to_string(steps),
                      std::to_string(result.stats.completed),
                      std::to_string(result.stats.rejected),
                      std::to_string(result.stats.cancelled),
                      std::to_string(result.stats.streamed_tokens),
                      std::to_string(
                          result.stats.prefix_matched_tokens),
                      "bit-identical"});
    }
    table.print();
    if (!all_ok) {
        std::fprintf(stderr, "chaos soak FAILED\n");
        return 1;
    }
    std::printf("chaos soak OK: %lld seed(s) x %d steps\n",
                static_cast<long long>(seeds), steps);
    return 0;
}
