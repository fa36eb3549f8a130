/**
 * @file
 * The `numeric_decode` workload: closed-loop greedy decoding, one
 * stream at a time, through the packed W4A4KV4 path (QuantizedDecoder:
 * FMPQ activations, packed W4Ax GEMMs, channel-wise INT4 KV) on a
 * synthetic outlier-planted TinyTransformer. The only workload where
 * the kernel, quant, attention and simd layers do real work.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include <sched.h>

#include "common.h"

#include "comet/attention/decode_attention.h"
#include "comet/model/decoder_session.h"
#include "comet/model/quantized_decoder.h"
#include "comet/obs/metrics.h"

namespace cometbench {

namespace {

using namespace comet;

constexpr int kRequests = 1024;
constexpr int kMatchRequests = 128; ///< token_match sample
constexpr int kReplayTokens = 64;   ///< per-layer replay sample
/** Requests of the traced pass (and of its untraced twin): a prefix
 * of the workload, small enough that the pool's per-chunk spans stay
 * under the trace buffer cap. */
constexpr size_t kTracedRequests = 128;
/** Passes that start from their own timed set-up (setup_s is their
 * median); later passes reuse the last one, so that the run fits more
 * passes for the per-request minima. */
constexpr int kSetupSamples = 3;

TinyTransformerConfig
modelConfig()
{
    TinyTransformerConfig config;
    config.vocab_size = 128;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.outlier_fraction = 0.05;
    config.outlier_scale = 15.0;
    config.seed = 11;
    return config;
}

/** The model, its teacher-sampled calibration, and the packed
 * decoder every request copies its fresh state from. */
struct Setup {
    std::unique_ptr<TinyTransformer> model;
    std::unique_ptr<CalibrationData> calibration;
    std::unique_ptr<QuantizedDecoder> decoder;
};

Setup
buildSetup(uint64_t seed)
{
    Setup setup;
    setup.model =
        std::make_unique<TinyTransformer>(TinyTransformer::random(
            modelConfig()));
    Rng rng(seed ^ 0x63616c6962ull); // "calib"
    const Dataset calibration = sampleDataset(*setup.model, 4, 32, rng);
    setup.calibration = std::make_unique<CalibrationData>(
        CalibrationData::collect(*setup.model, calibration));
    setup.decoder = std::make_unique<QuantizedDecoder>(
        *setup.model, *setup.calibration);
    return setup;
}

struct Request {
    std::vector<int32_t> prompt;
    int64_t output_tokens = 0;
};

std::vector<Request>
makeRequests(uint64_t seed)
{
    Rng rng(seed);
    const std::vector<int64_t> prompts =
        stratifiedUniformInts(kRequests, 4, 8, rng);
    const std::vector<int64_t> outputs =
        stratifiedUniformInts(kRequests, 4, 8, rng);
    // Prompts are sampled from the model itself (in-distribution
    // text, like the calibration set), so token_match measures
    // quantization on the inputs the model expects.
    const TinyTransformer teacher = TinyTransformer::random(modelConfig());
    std::vector<Request> requests(kRequests);
    for (size_t i = 0; i < requests.size(); ++i) {
        requests[i].prompt = teacher.sampleSequence(prompts[i], rng);
        requests[i].output_tokens = outputs[i];
    }
    return requests;
}

int32_t
argmax(const std::vector<float> &logits)
{
    return static_cast<int32_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/** What one pass over the request list observed. */
struct Pass {
    std::vector<std::vector<int32_t>> tokens; ///< per request
    std::vector<double> ttft_us, step_us;
    /** Per decode step: the gap since the previous token was out. */
    std::vector<double> gap_us;
    /** Per request: the fresh decoder copy, prefill and decode. */
    std::vector<double> request_us;
    double wall_s = 0.0;
    int64_t bad_logits = 0;    ///< non-finite logit vectors
    int64_t bad_tokens = 0;    ///< tokens outside the vocabulary
    /** Per request: a non-finite logit vector or an out-of-vocabulary
     * token occurred. */
    std::vector<bool> corrupt;
    double context_sum = 0.0;  ///< decode contexts, for the mean
};

bool
finite(const std::vector<float> &logits)
{
    return std::all_of(logits.begin(), logits.end(),
                       [](float v) { return std::isfinite(v); });
}

Pass
runPass(const Setup &setup, const std::vector<Request> &requests)
{
    Pass pass;
    const int64_t vocab = modelConfig().vocab_size;
    const double start = nowSeconds();
    for (const Request &request : requests) {
        COMET_SPAN("bench/request");
        const double r0 = nowSeconds();
        QuantizedDecoder decoder(*setup.decoder); // fresh KV state
        std::vector<int32_t> out;
        const int64_t bad_before = pass.bad_logits + pass.bad_tokens;
        const double t0 = nowSeconds();
        std::vector<float> logits;
        {
            COMET_SPAN("bench/prefill");
            logits = decoder.prefill(request.prompt);
        }
        const double t_first = nowSeconds();
        pass.bad_logits += finite(logits) ? 0 : 1;
        out.push_back(argmax(logits));
        pass.ttft_us.push_back((t_first - t0) * 1e6);
        double t_last = t_first;
        while (static_cast<int64_t>(out.size()) < request.output_tokens) {
            pass.context_sum += static_cast<double>(decoder.position() + 1);
            const double s0 = nowSeconds();
            {
                COMET_SPAN("bench/decode_step");
                logits = decoder.step(out.back());
            }
            const double t_out = nowSeconds();
            pass.step_us.push_back((t_out - s0) * 1e6);
            pass.gap_us.push_back((t_out - t_last) * 1e6);
            t_last = t_out;
            pass.bad_logits += finite(logits) ? 0 : 1;
            out.push_back(argmax(logits));
        }
        pass.request_us.push_back((t_last - r0) * 1e6);
        for (int32_t token : out)
            pass.bad_tokens += (token < 0 || token >= vocab) ? 1 : 0;
        pass.corrupt.push_back(pass.bad_logits + pass.bad_tokens >
                               bad_before);
        pass.tokens.push_back(std::move(out));
    }
    pass.wall_s = nowSeconds() - start;
    return pass;
}

/** Per request with two or more output tokens, the mean of its
 * token-to-token gaps (@p gap_us in request order, as Pass keeps
 * them). */
std::vector<double>
tpotFromGaps(const std::vector<Request> &requests,
             const std::vector<double> &gap_us)
{
    std::vector<double> tpot_us;
    size_t next = 0;
    for (const Request &request : requests) {
        const auto steps = static_cast<size_t>(
            std::max<int64_t>(0, request.output_tokens - 1));
        double sum = 0.0;
        for (size_t i = 0; i < steps; ++i)
            sum += gap_us[next + i];
        next += steps;
        if (steps > 0)
            tpot_us.push_back(sum / static_cast<double>(steps));
    }
    return tpot_us;
}

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/** Moves the calling thread to @p cpu (no-op when that fails). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

/** The output checks of one pass; returns its failed requests (a
 * short stream, a non-finite logit vector or an out-of-vocabulary
 * token). */
int64_t
checkPass(Report &report, const std::vector<Request> &requests,
          const Pass &pass, const std::string &label)
{
    int64_t short_streams = 0, failed = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        const bool short_stream =
            static_cast<int64_t>(pass.tokens[i].size()) !=
            requests[i].output_tokens;
        short_streams += short_stream ? 1 : 0;
        failed += short_stream || pass.corrupt[i] ? 1 : 0;
    }
    report.check(label + ": sent = finished (closed loop, no "
                         "rejection path)",
                 pass.tokens.size() == requests.size());
    report.check(label + ": every stream delivers exactly its token "
                         "count",
                 short_streams == 0,
                 std::to_string(short_streams) + " differ");
    report.check(label + ": all logits finite", pass.bad_logits == 0,
                 std::to_string(pass.bad_logits) + " vectors");
    report.check(label + ": all tokens in vocabulary",
                 pass.bad_tokens == 0);
    return failed;
}

/**
 * Teacher-forced top-1 agreement of the unquantized DecoderSession
 * with the packed path: at every position of the packed path's
 * greedy continuation, does the reference pick the same next token
 * given the same context?
 */
double
tokenMatch(const Setup &setup, const std::vector<Request> &requests,
           const Pass &pass, int64_t *compared)
{
    int64_t same = 0, total = 0;
    for (int i = 0; i < kMatchRequests; ++i) {
        const std::vector<int32_t> &out =
            pass.tokens[static_cast<size_t>(i)];
        DecoderSession reference(*setup.model);
        std::vector<float> logits =
            reference.prefill(requests[static_cast<size_t>(i)].prompt);
        for (size_t j = 0; j < out.size(); ++j) {
            same += argmax(logits) == out[j] ? 1 : 0;
            ++total;
            if (j + 1 < out.size())
                logits = reference.step(out[j]);
        }
    }
    *compared = total;
    return static_cast<double>(same) / static_cast<double>(total);
}

/** Per-token wall of the decode step's layer calls, replayed through
 * the public entry points at the decode shapes. */
struct LayerReplay {
    double act_quant_us = 0.0;
    double gemm_us = 0.0;
    double kv_quant_us = 0.0;
    double attention_us = 0.0;
    W4AxGemmStats stats;        ///< one token's GEMM calls
    double bytes_per_token = 0.0; ///< computed from packed sizes
};

/** One token row of a calibration activation matrix. */
Tensor
activationRow(const CalibrationData &calibration, int64_t layer,
              ActSite site, int64_t token)
{
    const Tensor &acts = calibration.activations(layer, site);
    Tensor row(1, acts.cols());
    const int64_t r = token % acts.rows();
    for (int64_t c = 0; c < acts.cols(); ++c)
        row.at(0, c) = acts.at(r, c);
    return row;
}

LayerReplay
replayLayers(const Setup &setup, int64_t context_tokens)
{
    const TinyTransformerConfig mc = setup.model->config();
    const QuantizedDecoderConfig dc;
    W4AxGemmConfig gemm_config;
    gemm_config.tile_m = dc.tile_m;
    gemm_config.tile_n = dc.tile_n;
    gemm_config.tile_k = dc.tile_k;
    gemm_config.threads = dc.gemm_threads;
    AttentionConfig attn;
    attn.num_heads = mc.num_heads;
    attn.num_kv_heads = mc.num_kv_heads;
    attn.head_dim = mc.headDim();
    attn.chunk_tokens = 64;
    const KvCacheQuantizer kv_quantizer(dc.kv);

    // The decoder's per-(layer, site) quantizers and packed weights,
    // built the way QuantizedDecoder builds them; each site's weights
    // in call order (q, k, v | o | gate, up | down).
    struct Linear {
        ActSite site;
        W4AxGemm gemm;
        double bytes; ///< weights, scales and output, per call
    };
    std::vector<std::vector<FmpqActivationQuantizer>> sites;
    std::vector<std::vector<Linear>> layers;
    const std::vector<std::pair<WeightKind, ActSite>> order = {
        {WeightKind::kQ, ActSite::kQkv},   {WeightKind::kK, ActSite::kQkv},
        {WeightKind::kV, ActSite::kQkv},   {WeightKind::kO, ActSite::kO},
        {WeightKind::kGate, ActSite::kMlp}, {WeightKind::kUp, ActSite::kMlp},
        {WeightKind::kDown, ActSite::kDown}};
    for (int64_t l = 0; l < mc.num_layers; ++l) {
        std::vector<FmpqActivationQuantizer> layer_sites;
        for (int s = 0; s < kNumActSites; ++s)
            layer_sites.push_back(FmpqActivationQuantizer::calibrate(
                setup.calibration->activations(l, static_cast<ActSite>(s)),
                dc.fmpq));
        std::vector<Linear> linears;
        for (const auto &[kind, site] : order) {
            const FmpqActivationQuantizer &q =
                layer_sites[static_cast<size_t>(site)];
            BlockQuantizedWeight w = q.quantizeWeight(
                setup.model->weight({l, kind}));
            // Packed INT4 weights, their FP32 block scales, and the
            // FP32 output row.
            const double bytes =
                static_cast<double>(w.out_features * w.in_channels) / 2.0 +
                static_cast<double>(w.scales.numel() + w.out_features) *
                    sizeof(float);
            linears.push_back(
                {site, W4AxGemm(std::move(w), q.blockPrecisions(),
                                gemm_config),
                 bytes});
        }
        sites.push_back(std::move(layer_sites));
        layers.push_back(std::move(linears));
    }

    Rng rng(17);
    Tensor k_ctx(context_tokens, attn.kvDim());
    Tensor v_ctx(context_tokens, attn.kvDim());
    for (int64_t t = 0; t < context_tokens; ++t) {
        for (int64_t c = 0; c < attn.kvDim(); ++c) {
            k_ctx.at(t, c) = static_cast<float>(rng.gaussian());
            v_ctx.at(t, c) = static_cast<float>(rng.gaussian());
        }
    }
    std::vector<float> q_vec(static_cast<size_t>(attn.qDim()), 0.5f);

    std::vector<double> act, gemm, kvq, att;
    LayerReplay out;
    for (int token = 0; token < kReplayTokens; ++token) {
        double a = 0.0, g = 0.0, k = 0.0, at = 0.0;
        W4AxGemmStats stats;
        double bytes = 0.0;
        for (int64_t l = 0; l < mc.num_layers; ++l) {
            for (size_t i = 0; i < layers[static_cast<size_t>(l)].size();
                 ++i) {
                const Linear &linear = layers[static_cast<size_t>(l)][i];
                if (i == 3) {
                    // Attention sits between the v and o projections.
                    double t0 = nowSeconds();
                    std::optional<QuantizedKv> qk, qv;
                    {
                        COMET_SPAN("bench/kv_quant");
                        qk.emplace(kv_quantizer.quantize(k_ctx));
                        qv.emplace(kv_quantizer.quantize(v_ctx));
                    }
                    double t1 = nowSeconds();
                    k += (t1 - t0) * 1e6;
                    {
                        COMET_SPAN("bench/attention");
                        const std::vector<float> o = decodeAttentionQuantized(
                            attn, q_vec, *qk, *qv, kv_quantizer);
                        (void)o;
                    }
                    at += (nowSeconds() - t1) * 1e6;
                }
                const Tensor h = activationRow(*setup.calibration, l,
                                               linear.site, token);
                const FmpqActivationQuantizer &q =
                    sites[static_cast<size_t>(l)]
                         [static_cast<size_t>(linear.site)];
                double t0 = nowSeconds();
                std::optional<MixedQuantizedActivation> quantized;
                {
                    COMET_SPAN("bench/act_quant");
                    quantized.emplace(q.quantize(h));
                }
                const MixedQuantizedActivation &qa = *quantized;
                double t1 = nowSeconds();
                a += (t1 - t0) * 1e6;
                {
                    COMET_SPAN("bench/gemm");
                    const Tensor y = linear.gemm.run(qa, &stats);
                    (void)y;
                }
                g += (nowSeconds() - t1) * 1e6;
                double act_bytes =
                    static_cast<double>(qa.scales.numel()) * sizeof(float);
                for (BlockPrecision p : qa.precisions)
                    act_bytes += static_cast<double>(qa.block_size) *
                                 (p == BlockPrecision::kInt4 ? 0.5 : 1.0);
                bytes += linear.bytes + act_bytes;
            }
        }
        act.push_back(a);
        gemm.push_back(g);
        kvq.push_back(k);
        att.push_back(at);
        out.stats = stats;
        out.bytes_per_token = bytes;
    }
    out.act_quant_us = median(act);
    out.gemm_us = median(gemm);
    out.kv_quant_us = median(kvq);
    out.attention_us = median(att);
    return out;
}

} // namespace

void
runNumericDecode(const Args &args, Report &report)
{
    const std::vector<Request> requests = makeRequests(args.seed);
    const TinyTransformerConfig mc = modelConfig();
    report.note("clock", "all timings are wall clock on this CPU (the "
                         "packed W4A4KV4 path runs for real; there is no "
                         "simulated clock)");
    report.note("loop", "closed loop, one stream at a time: 1024 "
                        "requests, prompt 4-8 teacher-sampled tokens, "
                        "greedy output 4-8 tokens (stratified lengths); each request starts from a "
                        "fresh copy of the packed decoder");
    report.note("model", "TinyTransformer vocab 128, hidden 64, 4 heads "
                         "(2 KV), 2 layers, intermediate 128, 5% outlier "
                         "channels x15; calibration 4 teacher-sampled "
                         "sequences of 32 tokens; FMPQ block 16, INT4 KV "
                         "group 32");
    report.note("threads", "main thread + COMET_THREADS=" +
                               std::to_string(args.threads));
    report.note("percentile_tenants", "all requests");
    report.note("percentile_rule", kPercentileRule);
    const auto sent = static_cast<int64_t>(requests.size());

    // The set-up is timed several times, and setup_s is the median.
    std::vector<double> setups;
    Setup setup;
    const auto build = [&] {
        const double t0 = nowSeconds();
        setup = buildSetup(args.seed);
        setups.push_back(nowSeconds() - t0);
    };

    if (!args.trace) {
        Pass first;
        std::vector<double> walls;
        // Per request (and per decode step), the fastest of its
        // identical runs across passes.
        std::vector<double> ttft_us, gap_us, request_us, step_us;
        // Per pass, its own p99s.
        std::vector<double> ttft_p99_us, tpot_p99_us;
        bool replay_same = true;
        double rss_mb = 0.0; // VmHWM after set-up and the first pass
        // On a shared host each core's speed drifts with what its
        // neighbours run, so single-threaded passes rotate over the
        // allowed CPUs and the per-request minima below take the
        // fastest core. (Pool workers would inherit the first pin.)
        const std::vector<int> cpus =
            args.threads == 1 ? allowedCpus() : std::vector<int>{};
        repeatFor(args.seconds, [&](int index) {
            if (!cpus.empty())
                pinTo(cpus[static_cast<size_t>(index) % cpus.size()]);
            if (index < kSetupSamples)
                build();
            Pass pass = runPass(setup, requests);
            walls.push_back(pass.wall_s);
            ttft_p99_us.push_back(summarize(pass.ttft_us).p99);
            tpot_p99_us.push_back(
                summarize(tpotFromGaps(requests, pass.gap_us)).p99);
            if (index == 0) {
                rss_mb = peakRssMb();
                ttft_us = pass.ttft_us;
                gap_us = pass.gap_us;
                request_us = pass.request_us;
                step_us = pass.step_us;
                first = std::move(pass);
                return;
            }
            replay_same = replay_same && pass.tokens == first.tokens;
            const auto keepMin = [](std::vector<double> &best,
                                    const std::vector<double> &sample) {
                for (size_t i = 0; i < best.size(); ++i)
                    best[i] = std::min(best[i], sample[i]);
            };
            keepMin(ttft_us, pass.ttft_us);
            keepMin(gap_us, pass.gap_us);
            keepMin(request_us, pass.request_us);
            keepMin(step_us, pass.step_us);
        });
        const int64_t failed =
            checkPass(report, requests, first, "pass 1");
        Digest digest;
        for (const std::vector<int32_t> &out : first.tokens) {
            for (int32_t token : out)
                digest.add(token);
            digest.add(static_cast<int32_t>(-1));
        }
        report.note("outcome_digest", digest.hex());
        report.check("replaying the prompts in-process yields identical "
                     "tokens",
                     replay_same,
                     std::to_string(walls.size()) + " passes");
        // Wall-clock latencies: every pass repeats identical work, so a
        // request's TTFT, and each of its token gaps, is its fastest
        // run (interference from other processes on the machine only
        // ever adds time). The p99 cannot be read off those minima: it would
        // be the 1% of requests that were slow in every pass, which
        // flips with how much of the run the machine was slow. It is
        // each pass's own p99, median over the passes.
        report.note("latency_rule",
                    "p50: each request's TTFT, and each token-to-token "
                    "gap, is the minimum over the run's " +
                        std::to_string(walls.size()) +
                        " passes of identical work, TPOT is the mean of a "
                        "request's gap minima, and p50 is taken over the "
                        "requests; p99: each pass's p99 over its requests, "
                        "median over the passes");
        reportLatency(report, "ttft", ttft_us, median(ttft_p99_us));
        reportLatency(report, "tpot", tpotFromGaps(requests, gap_us),
                      median(tpot_p99_us));
        int64_t tokens = 0;
        for (const auto &out : first.tokens)
            tokens += static_cast<int64_t>(out.size());
        // The same rule for the totals: the machine's speed drifts
        // over seconds, within a pass too, so a request's (a decode
        // step's) fastest run filters that drift better than the
        // fastest whole pass does.
        double wall = 0.0, decode_s = 0.0;
        for (double us : request_us)
            wall += us / 1e6;
        for (double us : step_us)
            decode_s += us / 1e6;
        std::string pass_walls;
        for (double w : walls)
            pass_walls += num(w) + " ";
        report.note("pass_wall_s",
                    pass_walls + "(whole passes, for reference; sim_wall_s "
                                 "sums each request's fastest run and "
                                 "cpu_tok_s each decode step's)");
        report.metric("throughput_tok_s", static_cast<double>(tokens) / wall,
                      "tok/s", tokens);
        report.metric("served_frac",
                      static_cast<double>(first.tokens.size()) /
                          static_cast<double>(sent),
                      "fraction", sent);
        report.metric("sim_wall_s", wall, "s",
                      static_cast<int64_t>(walls.size()));
        report.metric("cpu_tok_s",
                      static_cast<double>(step_us.size()) / decode_s,
                      "tok/s",
                      static_cast<int64_t>(first.step_us.size()));
        report.metric("setup_s", median(setups), "s",
                      static_cast<int64_t>(setups.size()));
        report.metric("peak_rss_mb", rss_mb, "MiB", 1);
        report.setCounts(sent, failed);
        return;
    }

    build();
    const Pass base = runPass(setup, requests);
    const int64_t failed =
        checkPass(report, requests, base, "untraced pass");
    const std::vector<Request> subset(requests.begin(),
                                      requests.begin() + kTracedRequests);
    const Pass base_subset = runPass(setup, subset);
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::TraceSession &tracer = obs::TraceSession::global();
    tracer.drain();
    tracer.start();
    const Pass traced = runPass(setup, subset);
    const int64_t mean_context = std::max<int64_t>(
        1, std::llround(base.context_sum /
                        static_cast<double>(base.step_us.size())));
    const LayerReplay replay = replayLayers(setup, mean_context);
    tracer.stop();
    const std::vector<obs::SpanRecord> spans = tracer.drain();
    checkPass(report, subset, traced, "traced pass");
    report.check("replaying the prompts in-process yields identical "
                 "tokens",
                 traced.tokens == base_subset.tokens &&
                     std::equal(traced.tokens.begin(), traced.tokens.end(),
                                base.tokens.begin()));
    report.note("traced_pass", "the first " +
                                   std::to_string(kTracedRequests) +
                                   " requests, traced and untraced");

    std::map<std::string, double> layer;
    layer["model.prefill_ms"] = median(base.ttft_us) / 1e3;
    const Percentiles step = summarize(base.step_us);
    layer["model.step_ms_p50"] = step.p50 / 1e3;
    layer["model.step_ms_p99"] = step.p99 / 1e3;
    const double replayed = replay.act_quant_us + replay.gemm_us +
                            replay.kv_quant_us + replay.attention_us;
    layer["model.step_coverage"] = replayed / step.p50;
    layer["kernel.gemm_us"] = replay.gemm_us;
    layer["kernel.w4ax_tiles"] = static_cast<double>(
        registry.counterValue("kernel.w4ax.int4_tiles") +
        registry.counterValue("kernel.w4ax.int8_tiles"));
    layer["kernel.int4_tile_frac"] = replay.stats.w4a4TileFraction();
    layer["kernel.mac_ops_per_token"] = static_cast<double>(
        replay.stats.int4_mac_ops + replay.stats.int8_mac_ops);
    layer["kernel.conv_instr_per_token"] =
        static_cast<double>(replay.stats.conversion_instructions);
    layer["kernel.bytes_per_token"] = replay.bytes_per_token;
    layer["quant.act_quant_us"] = replay.act_quant_us;
    layer["quant.kv_quant_us"] = replay.kv_quant_us;
    layer["attention.decode_us"] = replay.attention_us;
    layer["attention.kv_bytes_per_token"] =
        decodeAttentionKvBytes(
            AttentionConfig{mc.num_heads, mc.num_kv_heads, mc.headDim(), 64},
            mean_context, 4.0) *
        static_cast<double>(mc.num_layers);
    layer["gpusim.tiles_scheduled"] = static_cast<double>(
        registry.counterValue("gpusim.tiles_scheduled"));
    layer["runtime.regions"] =
        static_cast<double>(registry.counterValue("runtime.regions"));
    layer["runtime.chunks_stolen"] = static_cast<double>(
        registry.counterValue("runtime.chunks_stolen"));
    int64_t compared = 0;
    layer["token_match"] = tokenMatch(setup, requests, base, &compared);
    report.note("token_match_sample",
                std::to_string(compared) + " greedy tokens of the first " +
                    std::to_string(kMatchRequests) +
                    " requests, teacher-forced against the unquantized "
                    "DecoderSession");
    report.note("layer_replay",
                "per-token layer costs replay one decode step's public "
                "calls (FMPQ quantize + W4AxGemm::run per projection, "
                "KvCacheQuantizer::quantize + decodeAttentionQuantized per "
                "layer) at the mean decode context of " +
                    std::to_string(mean_context) +
                    " tokens, median of " + std::to_string(kReplayTokens) +
                    " tokens; kernel.bytes_per_token is computed from the "
                    "packed weight and activation sizes, not measured");
    layer["obs.trace_overhead"] = traced.wall_s / base_subset.wall_s - 1.0;
    layer["obs.dropped_spans"] =
        static_cast<double>(tracer.droppedSpans());
    report.check("no spans dropped", tracer.droppedSpans() == 0);
    reportPerLayer(report, layer);

    const std::string stem =
        args.out_dir + "/numeric_decode-seed" + std::to_string(args.seed);
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
