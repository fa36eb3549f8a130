/**
 * @file
 * Shared pieces of the benchmark program: the run arguments, the one
 * percentile rule every workload reports under, wall-clock and memory
 * probes, the traced-run span analysis, and the report every workload
 * fills and main() prints as JSON.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "comet/common/rng.h"
#include "comet/obs/trace_session.h"
#include "comet/serve/engine.h"

namespace cometbench {

/** Command-line arguments of one run. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< measured-phase budget, wall seconds
    bool trace = false;    ///< traced run: per-layer metrics
    /** Pool size: COMET_THREADS when the environment sets it, else the
     * workload's split. */
    int threads = 0;
    std::string out_dir = "."; ///< where the traced run writes files
};

/** Steady-clock seconds. */
double nowSeconds();

/** Process peak resident set (VmHWM), MiB. */
double peakRssMb();

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/**
 * The benchmark's percentile rule, shared by every workload: p50 and
 * p99 by linear interpolation between closest ranks
 * (comet::exactPercentiles); p99 counts as supported only when at
 * least 10 samples rank above its interpolation point.
 */
struct Percentiles {
    int64_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    int64_t beyond_p99 = 0; ///< samples ranked above the p99 point
    bool p99_supported = false;
};

/** Summarizes @p samples under the rule above (empty -> n = 0). */
Percentiles summarize(const std::vector<double> &samples);

/** Text of the percentile rule, recorded in every run's notes. */
extern const char *const kPercentileRule;

/**
 * One run's result: metrics (name, value, unit, sample count),
 * output checks, attempted/failed counts, and free-form notes
 * (configuration, limits, rules) that the report prints verbatim.
 */
class Report
{
  public:
    /** Records metric @p name (must match [A-Za-z0-9_.-]+). */
    void metric(const std::string &name, double value,
                const std::string &unit, int64_t n);
    /** Records an output check; any failed check makes the run
     * incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
    /** Records a configuration or rule note. */
    void note(const std::string &key, const std::string &value);
    /** Operations attempted and failed in the measured phase. */
    void setCounts(int64_t attempted, int64_t failed);

    bool correct() const;
    /** The whole report as one line of JSON. */
    std::string json(const Args &args) const;

  private:
    struct Entry {
        double value;
        std::string unit;
        int64_t n;
    };
    std::map<std::string, Entry> metrics_;
    std::vector<std::pair<std::string, std::pair<bool, std::string>>>
        checks_;
    std::vector<std::pair<std::string, std::string>> notes_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** Records the percentile metrics-with-n of one latency family
 * (`<stem>_p50_ms`, `<stem>_p99_ms`) from microsecond samples, and a
 * check that p99 is supported by the sample. @p p99_us, when given,
 * is reported as the p99 instead (numeric_decode's wall-clock p99,
 * taken per pass from samples of the same size). */
void reportLatency(Report &report, const std::string &stem,
                   const std::vector<double> &samples_us,
                   std::optional<double> p99_us = std::nullopt);

/** Names of the per-layer metrics every traced run emits, in the
 * order BENCHMARK.json declares them. Workloads set the ones their
 * layers exercise; the rest are reported as 0 (the layer did no
 * work on that workload). */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics();

/** Fills every declared per-layer metric that @p values does not
 * set with 0, then records them all. */
void reportPerLayer(Report &report,
                    const std::map<std::string, double> &values);

/** Self time of one span name in a drained trace. */
struct SpanSelfTime {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0; ///< summed duration
    double self_ms = 0.0;  ///< duration minus direct child spans
};

/**
 * Aggregates drained spans by name: total duration and self time
 * (a span's duration minus the durations of its direct children on
 * the same thread), sorted by self time, largest first.
 */
std::vector<SpanSelfTime>
selfTimeTable(const std::vector<comet::obs::SpanRecord> &spans);

/** Writes drained spans as Chrome trace-event JSON; false on I/O
 * error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<comet::obs::SpanRecord> &spans);

/** Writes the self-time table as tab-separated text; false on I/O
 * error. */
bool writeSelfTimeTable(const std::string &path,
                        const std::vector<SpanSelfTime> &table);

/** The @p rows largest self-time rows as one line of text. */
std::string selfTimeSummary(const std::vector<SpanSelfTime> &table,
                            size_t rows);

/**
 * The virtual decode-step split of @p engine at @p batch sequences
 * and mean context @p context_tokens, per layer, in microseconds
 * (`gpusim.qkv_us`, `gpusim.out_us`, `gpusim.gate_up_us`,
 * `gpusim.down_us`, `gpusim.lm_head_us`, `attention.decode_read_us`,
 * `tp.allreduce_us`, `tp.allreduce_share`), computed from the public
 * cost API (GemmCostModel over decoderLayerGemms, sharded the way
 * the engine shards them, plus the engine's attention and
 * all-reduce terms). Also returns the sum of the parts next to
 * ServingEngine::decodeStepLatencyUs so callers can check they
 * agree.
 */
std::map<std::string, double>
decodeStepSplit(const comet::ServingEngine &engine, int64_t batch,
                int64_t context_tokens, double *parts_sum_us,
                double *engine_step_us);

/**
 * Wall microseconds per ServingEngine cost call, measured with the
 * benchmark's own spans (`bench/engine_prefill`,
 * `bench/engine_decode`): the median over @p calls calls of
 * prefillLatencyUs({prompt_tokens}) and decodeStepLatencyUs(batch,
 * context).
 */
void engineCallWallUs(const comet::ServingEngine &engine,
                      int64_t prompt_tokens, int64_t batch,
                      int64_t context_tokens, int calls,
                      double *prefill_call_us, double *decode_call_us);

/**
 * Stratified sampling: the @p n draws are the distribution's quantiles
 * at (i + 0.5) / n, in an order shuffled by @p rng. Every seed then
 * yields the same marginal distribution (and the same totals) in a
 * different arrangement, so seed-to-seed differences in the results
 * come from the arrangement, not from sampling noise in the totals.
 * @{ */
std::vector<int64_t> stratifiedUniformInts(int64_t n, int64_t lo,
                                           int64_t hi, comet::Rng &rng);
std::vector<double> stratifiedExponential(int64_t n, double mean,
                                          comet::Rng &rng);
/** @} */

/** FNV-1a digest of a run's virtual-time outcomes (or token ids),
 * recorded as the `outcome_digest` note so runs can be compared
 * bit for bit. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
        for (size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= bytes[i];
            hash_ *= 1099511628211ull;
        }
    }
    uint64_t value() const;
    std::string hex() const;

  private:
    uint64_t hash_ = 1469598103934665603ull;
};

/** Formats a double with all its digits. */
std::string num(double value);

/** Runs @p pass (given its index) repeatedly until @p seconds of
 * wall time passed, at least twice; returns the passes run. */
int repeatFor(double seconds, const std::function<void(int)> &pass);

/** What a pass run in a child process reports back. */
struct ChildPass {
    double wall_s = 0.0;
    double setup_s = 0.0; ///< the set-up figure timed after the pass
    uint64_t digest = 0;  ///< Digest::value() of its virtual outcomes
};

/**
 * Runs @p pass in a fresh child process, one child at a time, until
 * @p seconds of wall time passed, at least @p min_passes times, and
 * returns what each child reported. Each pass then starts from a fresh
 * process state, not from the heap and threads an earlier pass left.
 * The caller must not have started any thread (the children fork from
 * it); a child that fails aborts the run.
 */
std::vector<ChildPass>
repeatInChildren(double seconds, int min_passes,
                 const std::function<ChildPass()> &pass);

/** The four workloads. Each fills @p report with its metrics
 * (end-to-end when args.trace is false, per-layer when true) and
 * its output checks. @{ */
void runChatSlo(const Args &args, Report &report);
void runPrefixCluster(const Args &args, Report &report);
void runOfflineTp(const Args &args, Report &report);
void runNumericDecode(const Args &args, Report &report);
/** @} */

} // namespace cometbench
