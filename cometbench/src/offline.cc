/**
 * @file
 * The `offline_tp` workload: the paper's offline-batch throughput
 * (Figure 10) for LLaMA-2-70B at COMET W4A4KV4 on two
 * tensor-parallel A100s, every request arriving at t = 0 and the KV
 * pool, not the 256-request batch cap, bounding the batch. Driven
 * through replayTrace.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common.h"

#include "comet/common/rng.h"
#include "comet/obs/metrics.h"
#include "comet/serve/trace.h"

namespace cometbench {

namespace {

using namespace comet;

constexpr int kRequests = 1024;
/** Full-model KV blocks the engine's memory is sized for: far fewer
 * requests of mean context fit than the 256-request batch cap. */
constexpr int64_t kKvBlocks = 10240;

EngineConfig
offlineEngine()
{
    EngineConfig config;
    config.model = LlmConfig::llama2_70b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.tensor_parallel = 2;
    config.input_tokens = 1024;
    config.output_tokens = 512;
    config.max_batch = 256;
    return engineConfigWithKvBlocks(config, kKvBlocks);
}

/** The batch: paper-like prompt and output lengths, all at t = 0. */
std::vector<TracedRequest>
offlineTrace(uint64_t seed)
{
    Rng rng(seed);
    const std::vector<int64_t> prompts =
        stratifiedUniformInts(kRequests, 512, 1536, rng);
    const std::vector<int64_t> outputs =
        stratifiedUniformInts(kRequests, 128, 900, rng);
    std::vector<TracedRequest> trace;
    for (int i = 0; i < kRequests; ++i) {
        TracedRequest request;
        request.id = i;
        request.arrival_us = 0.0;
        request.prompt_tokens = prompts[static_cast<size_t>(i)];
        request.output_tokens = outputs[static_cast<size_t>(i)];
        trace.push_back(request);
    }
    return trace;
}

struct Pass {
    TraceMetrics metrics;
    double wall_s = 0.0;
};

Pass
runPass(const std::vector<TracedRequest> &trace)
{
    Pass pass;
    const ServingEngine engine(offlineEngine());
    const double t0 = nowSeconds();
    {
        COMET_SPAN("bench/replay_trace");
        pass.metrics = replayTrace(engine, trace);
    }
    pass.wall_s = nowSeconds() - t0;
    return pass;
}

/** Set-up cost (engine construction): the median over @p reps timed
 * batches of the mean over @p batch engines built back to back and
 * held alive, so one sample spans far more than the timer's and the
 * scheduler's noise. */
double
setupSeconds(int reps, int batch)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        std::vector<std::unique_ptr<ServingEngine>> engines;
        const double t0 = nowSeconds();
        for (int b = 0; b < batch; ++b)
            engines.push_back(
                std::make_unique<ServingEngine>(offlineEngine()));
        samples.push_back((nowSeconds() - t0) / batch);
    }
    return median(samples);
}

/** The output checks of one pass; returns its failed requests
 * (rejected, cancelled, or finished with another token count than
 * their EOS count). */
int64_t
checkPass(Report &report, const std::vector<TracedRequest> &trace,
          const TraceMetrics &m, const std::string &label)
{
    const auto completed = static_cast<int64_t>(m.per_request.size());
    report.check(label + ": sent = finished + rejected + cancelled",
                 completed + m.rejected + m.cancelled ==
                     static_cast<int64_t>(trace.size()),
                 "finished=" + std::to_string(completed) +
                     " rejected=" + std::to_string(m.rejected) +
                     " cancelled=" + std::to_string(m.cancelled));
    int64_t wrong = 0;
    for (const RequestLatency &r : m.per_request) {
        if (r.output_tokens !=
            trace[static_cast<size_t>(r.id)].output_tokens)
            ++wrong;
    }
    report.check(label + ": every finished request generated exactly "
                         "its EOS token count",
                 wrong == 0, std::to_string(wrong) + " differ");
    return m.rejected + m.cancelled + wrong;
}

bool
sameMetrics(const TraceMetrics &a, const TraceMetrics &b)
{
    if (a.per_request.size() != b.per_request.size() ||
        a.makespan_us != b.makespan_us)
        return false;
    for (size_t i = 0; i < a.per_request.size(); ++i) {
        if (a.per_request[i].id != b.per_request[i].id ||
            a.per_request[i].ttft_us != b.per_request[i].ttft_us ||
            a.per_request[i].total_us != b.per_request[i].total_us)
            return false;
    }
    return true;
}

} // namespace

void
runOfflineTp(const Args &args, Report &report)
{
    const std::vector<TracedRequest> trace = offlineTrace(args.seed);
    report.note("clock", "latency and throughput metrics are virtual "
                         "time (two simulated A100s); sim_wall_s, "
                         "cpu_tok_s and setup_s are wall clock");
    report.note("loop", "offline batch: 1024 requests all arriving at "
                        "t=0, prompt 512-1536 and output 128-900 tokens "
                        "(stratified uniform lengths in seed-shuffled "
                        "order)");
    report.note("engine", "LLaMA-2-70B COMET W4A4KV4, tensor_parallel=2, "
                          "max_batch 256, memory sized by "
                          "engineConfigWithKvBlocks for " +
                              std::to_string(kKvBlocks) +
                              " full-model KV blocks");
    report.note("threads", "replay on the main thread + COMET_THREADS=" +
                               std::to_string(args.threads));
    report.note("percentile_tenants", "all requests (one offline tenant, "
                                      "no latency limits)");
    report.note("percentile_rule", kPercentileRule);
    const auto sent = static_cast<int64_t>(trace.size());

    if (!args.trace) {
        Pass first;
        // Each pass also times set-up after its replay, so the set-up
        // samples spread over the run like the passes do.
        constexpr int kSetupReps = 5, kSetupBatch = 256;
        std::vector<double> walls, setups;
        double rss_mb = 0.0; // VmHWM after set-up and the first pass
        bool deterministic = true;
        repeatFor(args.seconds, [&](int index) {
            Pass pass = runPass(trace);
            walls.push_back(pass.wall_s);
            setups.push_back(setupSeconds(kSetupReps, kSetupBatch));
            if (index == 0) {
                rss_mb = peakRssMb();
                first = std::move(pass);
            } else {
                deterministic = deterministic &&
                                sameMetrics(first.metrics, pass.metrics);
            }
        });
        const int64_t failed =
            checkPass(report, trace, first.metrics, "pass 1");
        // replayTrace sizes its cache from the per-GPU KV budget, not
        // the TP group's pool; record the pool it actually ran with.
        report.note("kv_pool_blocks",
                    std::to_string(first.metrics.total_kv_blocks) +
                        " blocks in the replay's cache");
        Digest digest;
        for (const RequestLatency &r : first.metrics.per_request) {
            digest.add(r.id);
            digest.add(r.ttft_us);
            digest.add(r.total_us);
            digest.add(r.output_tokens);
        }
        digest.add(first.metrics.makespan_us);
        report.note("outcome_digest", digest.hex());
        report.check("virtual-time outcomes are bit-identical across "
                     "passes",
                     deterministic,
                     std::to_string(walls.size()) + " passes");
        std::vector<double> ttft, tpot;
        int64_t tokens = 0;
        for (const RequestLatency &r : first.metrics.per_request) {
            ttft.push_back(r.ttft_us);
            if (r.output_tokens >= 2)
                tpot.push_back(r.tpot_us);
            tokens += r.output_tokens;
        }
        reportLatency(report, "ttft", ttft);
        reportLatency(report, "tpot", tpot);
        report.metric("throughput_tok_s",
                      first.metrics.throughput_tokens_per_s, "tok/s",
                      tokens);
        report.metric("served_frac",
                      static_cast<double>(first.metrics.per_request.size()) /
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
        report.metric("cpu_tok_s", static_cast<double>(tokens) / wall,
                      "tok/s", static_cast<int64_t>(walls.size()));
        report.metric("setup_s", median(setups), "s",
                      static_cast<int64_t>(setups.size()) * kSetupReps *
                          kSetupBatch);
        report.metric("peak_rss_mb", rss_mb, "MiB", 1);
        report.setCounts(sent, failed);
        return;
    }

    const Pass base = runPass(trace);
    checkPass(report, trace, base.metrics, "untraced pass");
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::TraceSession &tracer = obs::TraceSession::global();
    tracer.drain();
    tracer.start();
    const Pass traced = runPass(trace);
    tracer.stop();
    const std::vector<obs::SpanRecord> spans = tracer.drain();
    const int64_t failed =
        checkPass(report, trace, traced.metrics, "traced pass");
    report.check("traced pass reproduces the untraced outcomes",
                 sameMetrics(base.metrics, traced.metrics));

    const TraceMetrics &m = traced.metrics;
    std::map<std::string, double> layer;
    int64_t prompt_tokens = 0;
    for (const TracedRequest &r : trace)
        prompt_tokens += r.prompt_tokens;
    // replayTrace admits every completed request once and re-admits
    // each preempted one once more.
    layer["serve.admitted"] =
        static_cast<double>(static_cast<int64_t>(m.per_request.size()) +
                            m.preemptions);
    layer["serve.preemptions"] = static_cast<double>(m.preemptions);
    layer["serve.reprefill_frac"] =
        static_cast<double>(m.reprefill_tokens) /
        static_cast<double>(prompt_tokens);
    layer["serve.peak_running"] = static_cast<double>(m.peak_running);
    layer["server.queue_peak"] = 0.0;
    layer["kvcache.peak_util"] = m.peak_kv_utilization;
    layer["kvcache.pool_blocks"] = static_cast<double>(m.total_kv_blocks);
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
    for (const RequestLatency &r : m.per_request) {
        const TracedRequest &req = trace[static_cast<size_t>(r.id)];
        decode_us += r.total_us - r.ttft_us;
        prompt += static_cast<double>(req.prompt_tokens);
        context += static_cast<double>(req.prompt_tokens) +
                   static_cast<double>(r.output_tokens) / 2.0;
    }
    const double finished = static_cast<double>(m.per_request.size());
    const int64_t batch =
        std::max<int64_t>(1, std::llround(decode_us / m.makespan_us));
    const int64_t mean_context = std::llround(context / finished);
    const int64_t mean_prompt = std::llround(prompt / finished);
    report.note("observed_shapes",
                "mean decode batch " + std::to_string(batch) +
                    ", mean context " + std::to_string(mean_context) +
                    ", mean prompt " + std::to_string(mean_prompt));
    const ServingEngine engine(offlineEngine());
    double parts_sum = 0.0, engine_step = 0.0;
    for (const auto &[name, value] : decodeStepSplit(
             engine, batch, mean_context, &parts_sum, &engine_step))
        layer[name] = value;
    report.check("virtual step split sums to the engine's decode step",
                 std::fabs(parts_sum - engine_step) <= 1e-9 * engine_step,
                 num(parts_sum) + " vs " + num(engine_step));
    engineCallWallUs(engine, mean_prompt, batch, mean_context, 50,
                     &layer["gpusim.prefill_call_us"],
                     &layer["gpusim.decode_call_us"]);
    layer["obs.trace_overhead"] = traced.wall_s / base.wall_s - 1.0;
    layer["obs.dropped_spans"] =
        static_cast<double>(tracer.droppedSpans());
    report.check("no spans dropped", tracer.droppedSpans() == 0);
    reportPerLayer(report, layer);

    const std::string stem =
        args.out_dir + "/offline_tp-seed" + std::to_string(args.seed);
    const std::vector<SpanSelfTime> table = selfTimeTable(spans);
    report.check("Chrome trace written",
                 writeChromeTrace(stem + ".trace.json", spans));
    report.check("self-time table written",
                 writeSelfTimeTable(stem + ".selftime.tsv", table));
    report.note("trace_files",
                stem + ".trace.json, " + stem + ".selftime.tsv");
    report.note("self_time_top", selfTimeSummary(table, 8));
    report.setCounts(sent, failed);
}

} // namespace cometbench
