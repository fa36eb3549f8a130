/**
 * @file
 * Machine-readable bench reports: the `--json=FILE` emitter behind the
 * perf-trajectory gate (scripts/check_bench.py).
 *
 * Schema (stable; bump `schema_version` on breaking change):
 *
 *     {
 *       "schema_version": 1,
 *       "bench": "bench_kernel_micro",
 *       "git_sha": "<short sha or 'unknown'>",
 *       "config": { "<key>": "<value>", ... },
 *       "metrics": [
 *         { "name": "...", "value": <number>, "unit": "...",
 *           "gate": true|false,
 *           "direction": "lower_is_better"|"higher_is_better" },
 *         ...
 *       ]
 *     }
 *
 * Conventions:
 *  - *Gated* metrics are deterministic (instruction counts, simulated
 *    cost-model throughput): check_bench.py fails CI when they regress
 *    more than its threshold against the committed BENCH_*.json
 *    baseline. Raw CPU timings stay ungated — they inform trends but
 *    would flake CI across machines.
 *  - `config` records everything that must match for a comparison to
 *    be meaningful (shapes, smoke mode, ...). check_bench.py refuses
 *    to diff reports whose configs differ. Machine-dependent values
 *    (e.g. the active SIMD mode) belong in ungated metric names or
 *    stay out of config.
 *  - `git_sha` is informational provenance, never compared.
 *  - writeIfRequested appends an ungated `wall_ms` metric: the bench
 *    process's wall clock from start-up to the report write, so each
 *    report records what the run cost on the machine it ran on.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "comet/common/status.h"

namespace comet {
namespace bench {

/** When the bench process started: initialized before main() runs,
 * because some benches only build their report after the work. */
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/** One reported metric. */
struct BenchMetric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool gate = false;             ///< enforced by check_bench.py
    bool higher_is_better = false; ///< regression direction
};

/** Collects config and metrics for one bench run and writes the JSON
 * report. */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name)
        : bench_(std::move(bench_name))
    {
    }

    /** Records one config key (stringified); comparisons require
     * identical config maps. @{ */
    void
    setConfig(const std::string &key, const std::string &value)
    {
        config_.emplace_back(key, value);
    }

    void
    setConfig(const std::string &key, int64_t value)
    {
        setConfig(key, std::to_string(value));
    }
    /** @} */

    /** Adds one metric row. */
    void
    addMetric(const std::string &name, double value,
              const std::string &unit, bool gate,
              bool higher_is_better)
    {
        metrics_.push_back(
            BenchMetric{name, value, unit, gate, higher_is_better});
    }

    /** Writes the report to @p path (aborts on I/O failure — a CI
     * gate that silently loses its input is worse than a crash). */
    void
    write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        COMET_CHECK_MSG(out != nullptr,
                        "cannot open --json output file");
        std::fprintf(out, "{\n  \"schema_version\": 1,\n");
        std::fprintf(out, "  \"bench\": %s,\n",
                     quoted(bench_).c_str());
        std::fprintf(out, "  \"git_sha\": %s,\n",
                     quoted(gitSha()).c_str());
        std::fprintf(out, "  \"config\": {");
        for (size_t i = 0; i < config_.size(); ++i) {
            std::fprintf(out, "%s\n    %s: %s",
                         i == 0 ? "" : ",",
                         quoted(config_[i].first).c_str(),
                         quoted(config_[i].second).c_str());
        }
        std::fprintf(out, "%s},\n", config_.empty() ? "" : "\n  ");
        std::fprintf(out, "  \"metrics\": [");
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const BenchMetric &m = metrics_[i];
            std::fprintf(
                out,
                "%s\n    { \"name\": %s, \"value\": %.17g, "
                "\"unit\": %s, \"gate\": %s, \"direction\": %s }",
                i == 0 ? "" : ",", quoted(m.name).c_str(), m.value,
                quoted(m.unit).c_str(), m.gate ? "true" : "false",
                quoted(m.higher_is_better ? "higher_is_better"
                                          : "lower_is_better")
                    .c_str());
        }
        std::fprintf(out, "%s]\n}\n", metrics_.empty() ? "" : "\n  ");
        COMET_CHECK_MSG(std::fclose(out) == 0,
                        "error writing --json output file");
    }

    /** Writes the report, plus the ungated `wall_ms` metric, when
     * `--json=FILE` was passed; returns whether it was. Call after all
     * metrics are recorded. */
    bool
    writeIfRequested(int argc, char **argv) const
    {
        std::string path;
        bool requested = false;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strncmp(arg, "--json=", 7) == 0) {
                requested = true;
                path = arg + 7; // last occurrence wins
            }
        }
        if (!requested)
            return false;
        COMET_CHECK_MSG(!path.empty(), "--json needs a file path");
        BenchReport timed = *this;
        timed.addMetric("wall_ms",
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() -
                            kProcessStart)
                            .count(),
                        "ms", /*gate=*/false,
                        /*higher_is_better=*/false);
        timed.write(path);
        return true;
    }

    /** The help-table entry benches list for this flag. */
    static constexpr const char *kJsonFlag = "--json=";
    static constexpr const char *kJsonFlagHelp =
        "write a machine-readable report to FILE "
        "(see scripts/check_bench.py)";

  private:
    /** JSON string literal with minimal escaping (quotes, backslash,
     * control characters — enough for names, units and sha strings). */
    static std::string
    quoted(const std::string &text)
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
        out += '"';
        return out;
    }

    /** Provenance: `COMET_GIT_SHA` when set (CI exports it), else a
     * best-effort `git rev-parse`, else "unknown". */
    static std::string
    gitSha()
    {
        if (const char *env = std::getenv("COMET_GIT_SHA");
            env != nullptr && env[0] != '\0')
            return env;
#if !defined(_WIN32)
        if (std::FILE *pipe =
                ::popen("git rev-parse --short HEAD 2>/dev/null",
                        "r")) {
            char buf[64] = {};
            const size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
            ::pclose(pipe);
            std::string sha(buf, n);
            while (!sha.empty() &&
                   (sha.back() == '\n' || sha.back() == '\r'))
                sha.pop_back();
            if (!sha.empty())
                return sha;
        }
#endif
        return "unknown";
    }

    std::string bench_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<BenchMetric> metrics_;
};

} // namespace bench
} // namespace comet
