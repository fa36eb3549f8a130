/**
 * @file
 * Benchmark program entry point:
 *
 *   cometbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--out <dir>]
 *
 * Runs one workload and prints its report (metrics with unit and
 * sample count, output checks, configuration notes) as one JSON line
 * on stdout. Exit status 0 means the run completed; whether its
 * outputs were correct is the report's `correct` field. run.py builds
 * this program and turns the report into the benchmark's result line.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.h"

#include "comet/runtime/thread_pool.h"

namespace {

using cometbench::Args;
using cometbench::Report;

struct Workload {
    void (*run)(const Args &, Report &);
    /** COMET_THREADS of the workload's thread split (client + loop
     * threads + pool workers stay within 4 cores), used when the
     * environment does not set COMET_THREADS. */
    int threads;
};

const std::map<std::string, Workload> &
workloads()
{
    static const std::map<std::string, Workload> table = {
        {"chat_slo", {cometbench::runChatSlo, 2}},
        {"prefix_cluster", {cometbench::runPrefixCluster, 1}},
        {"offline_tp", {cometbench::runOfflineTp, 4}},
        {"numeric_decode", {cometbench::runNumericDecode, 1}},
    };
    return table;
}

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "cometbench: %s\nusage: cometbench --workload "
                 "<chat_slo|prefix_cluster|offline_tp|numeric_decode> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
                 message);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--out")
            args.out_dir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    const auto it = workloads().find(args.workload);
    if (it == workloads().end())
        usage(("unknown workload '" + args.workload + "'").c_str());
    args.threads = std::getenv("COMET_THREADS") != nullptr
                       ? comet::ThreadPool::resolveThreads(0)
                       : it->second.threads;
    // The pool is created on first use from COMET_THREADS, so no
    // thread exists yet when a workload forks its passes.
    setenv("COMET_THREADS", std::to_string(args.threads).c_str(), 1);

    Report report;
    it->second.run(args, report);
    std::printf("%s\n", report.json(args).c_str());
    return 0;
}
