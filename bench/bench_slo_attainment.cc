/**
 * @file
 * SLO-attainment bench for chunked prefill (DESIGN.md §14): runs the
 * canonical mixed workload — one long-context ingestion tenant whose
 * multi-thousand-token prompts monopolize monolithic prefill steps,
 * plus two interactive chat tenants with tight TTFT/TPOT budgets —
 * monolithic and chunked, and reports per-tenant latency percentiles
 * and SLO attainment. Gated in CI
 * (bench/baselines/BENCH_slo_attainment.json).
 *
 * Everything reported is virtual-time and therefore deterministic
 * for a fixed seed at any COMET_THREADS, so the chat tenants' TPOT
 * tail win — the reason chunked prefill exists — can be gated
 * without flaking across machines.
 *
 * Three correctness checks ride along (any failure exits 1):
 *  1. chunked and monolithic runs produce identical per-request
 *     terminals and token counts (chunking only reshapes time);
 *  2. back-to-back chunked runs render bit-identical reports;
 *  3. chunking genuinely improves the chat tenants' TPOT p99 on
 *     this workload.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_flags.h"
#include "bench_report.h"

#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

using namespace comet;
using namespace comet::server;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
        ++failures;
    }
}

/** LLaMA-3-8B at COMET W4A4KV4 with a pool large enough that the
 * long-context prompts admit without thrashing — the bench isolates
 * scheduling shape, not KV pressure. */
EngineConfig
servedEngine()
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    return engineConfigWithKvBlocks(config, 4096);
}

/** One full session against a fresh server at the given chunk size
 * (0 = monolithic); fills @p stats. */
LoadgenReport
runSession(const ServingEngine &engine, const LoadgenConfig &workload,
           int64_t chunk_tokens, ServerStats *stats)
{
    obs::MetricsRegistry::global().reset();
    ServerConfig config;
    config.tenants = loadgenTenants(workload);
    config.max_batch = 16;
    config.chunked_prefill_tokens = chunk_tokens;
    Server server(&engine, config);
    const LoadgenReport report = runLoadgen(&server, workload);
    *stats = server.stats();
    server.stop();
    return report;
}

/** Worst TPOT p99 across the chat tenants (rows 1 and 2). */
double
chatTpotP99(const LoadgenReport &report)
{
    return std::max(report.tenants[1].tpot_p99_us,
                    report.tenants[2].tpot_p99_us);
}

/** TTFT attainment of tenant @p row from the server's SLO counters,
 * in [0, 1] (1.0 when nothing finished). */
double
ttftAttainment(const ServerStats &stats, size_t row)
{
    const TenantSloStats &slo = stats.tenant_slo[row];
    const int64_t counted = slo.ttft_ok + slo.ttft_miss;
    return counted > 0 ? static_cast<double>(slo.ttft_ok) /
                             static_cast<double>(counted)
                       : 1.0;
}

/** TPOT attainment of tenant @p row; 1.0 when nothing measurable. */
double
tpotAttainment(const ServerStats &stats, size_t row)
{
    const TenantSloStats &slo = stats.tenant_slo[row];
    const int64_t counted = slo.tpot_ok + slo.tpot_miss;
    return counted > 0 ? static_cast<double>(slo.tpot_ok) /
                             static_cast<double>(counted)
                       : 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "SLO attainment on a mixed long-context + chat workload: "
        "chunked prefill vs monolithic, per-tenant TTFT/TPOT "
        "percentiles and attainment",
        {{"--smoke", "reduced request counts for CI"},
         {"--seed=", "workload seed (default 42)"},
         {"--chunk=", "prefill chunk tokens (default 256)"},
         {bench::BenchReport::kJsonFlag,
          bench::BenchReport::kJsonFlagHelp}});
    const bool smoke = bench::smokeRequested(argc, argv);
    const auto seed = static_cast<uint64_t>(
        bench::flagValue(argc, argv, "--seed=", 42));
    const auto chunk = static_cast<int64_t>(
        bench::flagValue(argc, argv, "--chunk=", 256));

    const ServingEngine engine(servedEngine());
    const LoadgenConfig workload = mixedSloWorkload(seed, smoke);

    std::printf("=== SLO attainment, chunked prefill vs monolithic "
                "(LLaMA-3-8B, COMET W4A4KV4, seed %llu, chunk %lld"
                "%s) ===\n\n",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(chunk),
                smoke ? ", smoke" : "");

    ServerStats mono_stats, chunked_stats, again_stats;
    const LoadgenReport mono =
        runSession(engine, workload, 0, &mono_stats);
    const LoadgenReport chunked =
        runSession(engine, workload, chunk, &chunked_stats);
    const LoadgenReport again =
        runSession(engine, workload, chunk, &again_stats);

    // 1. Chunking only reshapes virtual time: identical streams.
    check(mono.outcomes.size() == chunked.outcomes.size(),
          "chunked and monolithic saw the same workload");
    for (size_t i = 0; i < mono.outcomes.size(); ++i) {
        if (mono.outcomes[i].terminal !=
                chunked.outcomes[i].terminal ||
            mono.outcomes[i].tokens != chunked.outcomes[i].tokens) {
            check(false, "chunked and monolithic disagree on a "
                         "request's terminal or token count");
            break;
        }
    }
    check(mono.rejected == 0 && mono.cancelled == 0,
          "the workload is equality-safe (no clock-dependent "
          "verdicts)");
    // 2. Determinism of the chunked run itself.
    check(renderLoadgenReport(chunked) == renderLoadgenReport(again),
          "back-to-back chunked runs render identical reports");
    // 3. The win the subsystem exists for.
    const double mono_tail = chatTpotP99(mono);
    const double chunked_tail = chatTpotP99(chunked);
    check(chunked_tail < mono_tail,
          "chunking improves the chat tenants' TPOT p99");

    const double tail_win =
        chunked_tail > 0.0 ? mono_tail / chunked_tail : 0.0;

    std::printf("monolithic:\n%s\n",
                renderLoadgenReport(mono).c_str());
    std::printf("chunked (%lld tokens):\n%s\n",
                static_cast<long long>(chunk),
                renderLoadgenReport(chunked).c_str());
    std::printf("chat TPOT p99: %.1f us chunked vs %.1f us "
                "monolithic (%.2fx)\n",
                chunked_tail, mono_tail, tail_win);
    for (size_t t = 0; t < chunked_stats.tenant_slo.size(); ++t) {
        std::printf("%-8s ttft attainment %.1f%% (mono %.1f%%), "
                    "tpot attainment %.1f%% (mono %.1f%%)\n",
                    chunked_stats.tenant_slo[t].tenant.c_str(),
                    ttftAttainment(chunked_stats, t) * 100.0,
                    ttftAttainment(mono_stats, t) * 100.0,
                    tpotAttainment(chunked_stats, t) * 100.0,
                    tpotAttainment(mono_stats, t) * 100.0);
    }

    bench::BenchReport report("bench_slo_attainment");
    report.setConfig("seed", static_cast<int64_t>(seed));
    report.setConfig("smoke", smoke ? "true" : "false");
    report.setConfig("chunk_tokens", chunk);
    report.setConfig("requests", chunked.submitted);
    // All virtual-time deterministic: gate the tail win and the chat
    // tenants' attainment so a scheduling regression that quietly
    // starves decode behind prefill fails the perf leg.
    report.addMetric("chat_tpot_p99_win", tail_win, "x",
                     /*gate=*/true, /*higher_is_better=*/true);
    report.addMetric("chat_a_ttft_attainment",
                     ttftAttainment(chunked_stats, 1), "fraction",
                     true, true);
    report.addMetric("chat_b_ttft_attainment",
                     ttftAttainment(chunked_stats, 2), "fraction",
                     true, true);
    report.addMetric("chat_a_tpot_attainment",
                     tpotAttainment(chunked_stats, 1), "fraction",
                     true, true);
    report.addMetric("chat_b_tpot_attainment",
                     tpotAttainment(chunked_stats, 2), "fraction",
                     true, true);
    report.addMetric("chat_tpot_p99_us", chunked_tail, "us", false,
                     false);
    report.addMetric("longctx_ttft_attainment",
                     ttftAttainment(chunked_stats, 0), "fraction",
                     false, false);
    report.addMetric("makespan_us", chunked.makespan_us, "us", false,
                     false);
    // Loop work: posted cancels the three sessions examined. The
    // workload posts none, so any per-step scan reads nonzero.
    report.addMetric("server.cancel_visits",
                     static_cast<double>(mono_stats.cancel_visits +
                                         chunked_stats.cancel_visits +
                                         again_stats.cancel_visits),
                     "count", /*gate=*/true,
                     /*higher_is_better=*/false);
    report.writeIfRequested(argc, argv);

    if (failures > 0) {
        std::fprintf(stderr, "\n%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("\nAll equivalence, determinism and tail-win checks "
                "passed.\n");
    return 0;
}
