#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "comet/common/logging.h"
#include "comet/common/status.h"
#include "comet/common/stats.h"
#include "comet/model/layer_shapes.h"

namespace cometbench {

using comet::obs::SpanRecord;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
median(std::vector<double> values)
{
    COMET_CHECK(!values.empty());
    return comet::exactPercentile(std::move(values), 50.0);
}

const char *const kPercentileRule =
    "p50/p99 interpolate linearly between closest ranks; p99 is "
    "reported only when at least 10 samples rank above it (n >= 1000)";

Percentiles
summarize(const std::vector<double> &samples)
{
    Percentiles out;
    out.n = static_cast<int64_t>(samples.size());
    if (samples.empty())
        return out;
    const std::vector<double> ps =
        comet::exactPercentiles(samples, {50.0, 99.0});
    out.p50 = ps[0];
    out.p99 = ps[1];
    const auto rank = static_cast<int64_t>(
        std::floor(0.99 * static_cast<double>(out.n - 1)));
    out.beyond_p99 = out.n - 1 - rank;
    out.p99_supported = out.beyond_p99 >= 10;
    return out;
}

namespace {

bool
validName(const std::string &name)
{
    static const std::regex pattern("[A-Za-z0-9_.-]+");
    return std::regex_match(name, pattern);
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, int64_t n)
{
    if (!validName(name))
        check("metric name " + name + " matches [A-Za-z0-9_.-]+", false);
    if (!std::isfinite(value))
        check("metric " + name + " is finite", false);
    metrics_[name] = Entry{value, unit, n};
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    checks_.push_back({name, {ok, detail}});
}

void
Report::note(const std::string &key, const std::string &value)
{
    notes_.push_back({key, value});
}

void
Report::setCounts(int64_t attempted, int64_t failed)
{
    attempted_ = attempted;
    failed_ = failed;
}

bool
Report::correct() const
{
    for (const auto &entry : checks_) {
        if (!entry.second.first)
            return false;
    }
    return attempted_ > 0;
}

std::string
Report::json(const Args &args) const
{
    std::ostringstream out;
    out << "{\"workload\":" << quote(args.workload)
        << ",\"seed\":" << args.seed
        << ",\"trace\":" << (args.trace ? 1 : 0)
        << ",\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << attempted_
        << ",\"failed\":" << failed_ << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        out << (first ? "" : ",") << quote(name)
            << ":{\"value\":" << num(entry.value)
            << ",\"unit\":" << quote(entry.unit)
            << ",\"n\":" << entry.n << "}";
        first = false;
    }
    out << "},\"checks\":[";
    first = true;
    for (const auto &entry : checks_) {
        out << (first ? "" : ",") << "{\"name\":" << quote(entry.first)
            << ",\"ok\":" << (entry.second.first ? "true" : "false")
            << ",\"detail\":" << quote(entry.second.second) << "}";
        first = false;
    }
    out << "],\"notes\":{";
    first = true;
    for (const auto &entry : notes_) {
        out << (first ? "" : ",") << quote(entry.first) << ":"
            << quote(entry.second);
        first = false;
    }
    out << "}}";
    return out.str();
}

void
reportLatency(Report &report, const std::string &stem,
              const std::vector<double> &samples_us,
              std::optional<double> p99_us)
{
    const Percentiles pct = summarize(samples_us);
    report.check(stem + " has samples", pct.n > 0);
    report.check(stem + "_p99_ms is supported (>= 10 samples beyond)",
                 pct.p99_supported,
                 "n=" + std::to_string(pct.n) + " beyond=" +
                     std::to_string(pct.beyond_p99));
    report.metric(stem + "_p50_ms", pct.p50 / 1e3, "ms", pct.n);
    report.metric(stem + "_p99_ms", p99_us.value_or(pct.p99) / 1e3, "ms",
                  pct.n);
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        {
            {"server.submit_us_p50", "us"},
            {"server.submit_us_p99", "us"},
            {"server.rejected", "count"},
            {"server.queue_peak", "count"},
            {"cluster.prefix_affinity", "fraction"},
            {"cluster.load_imbalance", "ratio"},
            {"cluster.rerouted", "count"},
            {"serve.admitted", "count"},
            {"serve.preemptions", "count"},
            {"serve.reprefill_frac", "fraction"},
            {"serve.prefill_chunks", "count"},
            {"serve.peak_running", "count"},
            {"kvcache.peak_util", "fraction"},
            {"kvcache.pool_blocks", "count"},
            {"prefix.hit_rate", "fraction"},
            {"prefix.token_frac", "fraction"},
            {"prefix.blocks_inserted", "count"},
            {"prefix.blocks_evicted", "count"},
            {"gpusim.tiles_scheduled", "count"},
            {"gpusim.prefill_call_us", "us"},
            {"gpusim.decode_call_us", "us"},
            {"gpusim.qkv_us", "us"},
            {"gpusim.out_us", "us"},
            {"gpusim.gate_up_us", "us"},
            {"gpusim.down_us", "us"},
            {"gpusim.lm_head_us", "us"},
            {"attention.decode_read_us", "us"},
            {"attention.decode_us", "us"},
            {"attention.kv_bytes_per_token", "B"},
            {"tp.allreduce_us", "us"},
            {"tp.allreduce_share", "fraction"},
            {"model.prefill_ms", "ms"},
            {"model.step_ms_p50", "ms"},
            {"model.step_ms_p99", "ms"},
            {"model.step_coverage", "fraction"},
            {"kernel.gemm_us", "us"},
            {"kernel.w4ax_tiles", "count"},
            {"kernel.int4_tile_frac", "fraction"},
            {"kernel.mac_ops_per_token", "count"},
            {"kernel.conv_instr_per_token", "count"},
            {"kernel.bytes_per_token", "B"},
            {"quant.act_quant_us", "us"},
            {"quant.kv_quant_us", "us"},
            {"runtime.regions", "count"},
            {"runtime.chunks_stolen", "count"},
            {"obs.trace_overhead", "fraction"},
            {"obs.dropped_spans", "count"},
            {"slo_attainment", "fraction"},
            {"max_rate_slo_rps", "1/s"},
            {"token_match", "fraction"},
        };
    return list;
}

void
reportPerLayer(Report &report, const std::map<std::string, double> &values)
{
    for (const auto &[name, unit] : perLayerMetrics()) {
        const auto it = values.find(name);
        report.metric(name, it == values.end() ? 0.0 : it->second, unit,
                      1);
    }
    for (const auto &entry : values) {
        const bool declared = std::any_of(
            perLayerMetrics().begin(), perLayerMetrics().end(),
            [&](const auto &decl) { return decl.first == entry.first; });
        report.check("per-layer metric " + entry.first + " is declared",
                     declared);
    }
}

std::vector<SpanSelfTime>
selfTimeTable(const std::vector<SpanRecord> &spans)
{
    // Per thread, walk spans in (begin, longest-first) order keeping
    // a stack of open ancestors; each span's duration is charged
    // against its innermost enclosing span's self time.
    std::map<int, std::vector<const SpanRecord *>> by_thread;
    for (const SpanRecord &span : spans)
        by_thread[span.tid].push_back(&span);
    std::map<std::string, SpanSelfTime> rows;
    for (auto &[tid, list] : by_thread) {
        std::sort(list.begin(), list.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      if (a->begin_ns != b->begin_ns)
                          return a->begin_ns < b->begin_ns;
                      return a->end_ns > b->end_ns;
                  });
        std::vector<const SpanRecord *> open;
        for (const SpanRecord *span : list) {
            while (!open.empty() && open.back()->end_ns <= span->begin_ns)
                open.pop_back();
            const double dur_ms =
                static_cast<double>(span->end_ns - span->begin_ns) / 1e6;
            SpanSelfTime &row = rows[span->name];
            row.name = span->name;
            ++row.count;
            row.total_ms += dur_ms;
            row.self_ms += dur_ms;
            if (!open.empty())
                rows[open.back()->name].self_ms -= dur_ms;
            open.push_back(span);
        }
    }
    std::vector<SpanSelfTime> table;
    for (auto &entry : rows)
        table.push_back(entry.second);
    std::sort(table.begin(), table.end(),
              [](const SpanSelfTime &a, const SpanSelfTime &b) {
                  if (a.self_ms != b.self_ms)
                      return a.self_ms > b.self_ms;
                  return a.name < b.name;
              });
    return table;
}

bool
writeChromeTrace(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
    bool first = true;
    for (const SpanRecord &span : spans) {
        std::fprintf(file,
                     "%s{\"name\":\"%s\",\"cat\":\"comet\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"depth\":%d}}",
                     first ? "" : ",\n", span.name,
                     static_cast<double>(span.begin_ns) / 1e3,
                     static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                     span.tid, span.depth);
        first = false;
    }
    std::fputs("]}\n", file);
    return std::fclose(file) == 0;
}

bool
writeSelfTimeTable(const std::string &path,
                   const std::vector<SpanSelfTime> &table)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fputs("span\tcount\ttotal_ms\tself_ms\n", file);
    for (const SpanSelfTime &row : table) {
        std::fprintf(file, "%s\t%lld\t%.3f\t%.3f\n", row.name.c_str(),
                     static_cast<long long>(row.count), row.total_ms,
                     row.self_ms);
    }
    return std::fclose(file) == 0;
}

std::string
selfTimeSummary(const std::vector<SpanSelfTime> &table, size_t rows)
{
    std::ostringstream out;
    for (size_t i = 0; i < std::min(rows, table.size()); ++i) {
        out << table[i].name << " self " << table[i].self_ms << " ms ("
            << table[i].count << " spans, total " << table[i].total_ms
            << " ms); ";
    }
    return out.str();
}

std::map<std::string, double>
decodeStepSplit(const comet::ServingEngine &engine, int64_t batch,
                int64_t context_tokens, double *parts_sum_us,
                double *engine_step_us)
{
    using namespace comet;
    const EngineConfig &config = engine.config();
    const GemmCostModel cost(config.gpu, config.calibration);
    const ServingPrecision precision = servingPrecision(config.mode);
    // The engine's deployed COMET kernel features (ServingEngine
    // charges the linear layers with this W4A4 share).
    CometKernelFeatures features;
    features.w4a4_fraction = 0.84;
    const auto tp = static_cast<int64_t>(config.tensor_parallel);
    const double layers = static_cast<double>(config.model.num_layers);
    std::map<std::string, double> out;
    static const std::map<std::string, std::string> names = {
        {"qkv_proj", "gpusim.qkv_us"},
        {"o_proj", "gpusim.out_us"},
        {"gate_up_proj", "gpusim.gate_up_us"},
        {"up_proj", "gpusim.gate_up_us"},
        {"down_proj", "gpusim.down_us"},
    };
    double sum = 0.0;
    for (const LayerGemm &gemm : decoderLayerGemms(config.model, batch)) {
        // Megatron sharding as the engine applies it: the first
        // projection of each block is column-parallel, the second
        // row-parallel.
        GemmShape shape = gemm.shape;
        if (gemm.name == "qkv_proj" || gemm.name == "gate_up_proj" ||
            gemm.name == "up_proj")
            shape.n = std::max<int64_t>(shape.n / tp, 1);
        else
            shape.k = std::max<int64_t>(shape.k / tp, 1);
        const double us =
            cost.estimate(shape, precision.gemm_kind, features).total_us *
            layers;
        out[names.at(gemm.name)] += us;
        sum += us;
    }
    const double lm_head =
        cost.estimate({batch,
                       std::max<int64_t>(config.model.vocab_size / tp, 1),
                       config.model.hidden_size},
                      GemmKernelKind::kCublasW16A16)
            .total_us;
    const double attention =
        engine.attentionReadLatencyUs(batch, context_tokens);
    const double allreduce = engine.allReduceLatencyUs(batch);
    out["gpusim.lm_head_us"] = lm_head;
    out["attention.decode_read_us"] = attention;
    out["tp.allreduce_us"] = allreduce;
    sum += lm_head + attention + allreduce;
    *parts_sum_us = sum;
    *engine_step_us = engine.decodeStepLatencyUs(batch, context_tokens);
    out["tp.allreduce_share"] = allreduce / *engine_step_us;
    return out;
}

void
engineCallWallUs(const comet::ServingEngine &engine, int64_t prompt_tokens,
                 int64_t batch, int64_t context_tokens, int calls,
                 double *prefill_call_us, double *decode_call_us)
{
    std::vector<double> prefill, decode;
    const std::vector<int64_t> prompts{prompt_tokens};
    volatile double sink = 0.0;
    for (int i = 0; i < calls; ++i) {
        double t0 = nowSeconds();
        {
            COMET_SPAN("bench/engine_prefill");
            sink = sink + engine.prefillLatencyUs(prompts);
        }
        double t1 = nowSeconds();
        prefill.push_back((t1 - t0) * 1e6);
        t0 = nowSeconds();
        {
            COMET_SPAN("bench/engine_decode");
            sink = sink + engine.decodeStepLatencyUs(batch, context_tokens);
        }
        t1 = nowSeconds();
        decode.push_back((t1 - t0) * 1e6);
    }
    *prefill_call_us = median(prefill);
    *decode_call_us = median(decode);
}

std::vector<int64_t>
stratifiedUniformInts(int64_t n, int64_t lo, int64_t hi, comet::Rng &rng)
{
    std::vector<int64_t> out(static_cast<size_t>(n));
    const double span = static_cast<double>(hi - lo + 1);
    for (int64_t i = 0; i < n; ++i) {
        const double q = (static_cast<double>(i) + 0.5) /
                         static_cast<double>(n);
        out[static_cast<size_t>(i)] =
            lo + static_cast<int64_t>(std::floor(q * span));
    }
    rng.shuffle(out);
    return out;
}

std::vector<double>
stratifiedExponential(int64_t n, double mean, comet::Rng &rng)
{
    std::vector<double> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        const double q = (static_cast<double>(i) + 0.5) /
                         static_cast<double>(n);
        out[static_cast<size_t>(i)] = -std::log(1.0 - q) * mean;
    }
    rng.shuffle(out);
    return out;
}

uint64_t
Digest::value() const
{
    return hash_;
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

int
repeatFor(double seconds, const std::function<void(int)> &pass)
{
    const double start = nowSeconds();
    int passes = 0;
    while (passes < 2 || nowSeconds() - start < seconds)
        pass(passes++);
    return passes;
}

std::vector<ChildPass>
repeatInChildren(double seconds, int min_passes,
                 const std::function<ChildPass()> &pass)
{
    std::fflush(nullptr); // a child must not inherit unflushed output
    std::vector<ChildPass> results;
    const double start = nowSeconds();
    while (static_cast<int>(results.size()) < min_passes ||
           nowSeconds() - start < seconds) {
        int fds[2];
        COMET_CHECK_MSG(pipe(fds) == 0, "pipe failed");
        const pid_t pid = fork();
        COMET_CHECK_MSG(pid >= 0, "fork failed");
        if (pid == 0) {
            close(fds[0]);
            const ChildPass result = pass();
            const bool sent = write(fds[1], &result, sizeof(result)) ==
                              static_cast<ssize_t>(sizeof(result));
            _exit(sent ? 0 : 1);
        }
        close(fds[1]);
        ChildPass result;
        const bool received = read(fds[0], &result, sizeof(result)) ==
                              static_cast<ssize_t>(sizeof(result));
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        COMET_CHECK_MSG(received && WIFEXITED(status) &&
                            WEXITSTATUS(status) == 0,
                        "a benchmark pass failed in its child process");
        results.push_back(result);
    }
    return results;
}

} // namespace cometbench
