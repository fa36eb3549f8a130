/**
 * @file
 * Unit tests for the bench --json report emitter (bench_report.h):
 * schema fields, escaping, and the --json flag plumbing that
 * scripts/check_bench.py consumes.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../bench/bench_report.h"

namespace comet {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(BenchReport, EmitsSchemaFields)
{
    bench::BenchReport report("bench_unit_test");
    report.setConfig("smoke", "true");
    report.setConfig("span_values", static_cast<int64_t>(1024));
    report.addMetric("fast_conv_instructions_per_word", 3.0,
                     "instructions", /*gate=*/true,
                     /*higher_is_better=*/false);
    report.addMetric("throughput", 123.5, "vals/s", /*gate=*/false,
                     /*higher_is_better=*/true);
    const std::string path = tempPath("report.json");
    report.write(path);
    const std::string json = slurp(path);

    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"bench_unit_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
    EXPECT_NE(json.find("\"smoke\": \"true\""), std::string::npos);
    EXPECT_NE(json.find("\"span_values\": \"1024\""),
              std::string::npos);
    EXPECT_NE(
        json.find("\"name\": \"fast_conv_instructions_per_word\""),
        std::string::npos);
    EXPECT_NE(json.find("\"gate\": true"), std::string::npos);
    EXPECT_NE(json.find("\"gate\": false"), std::string::npos);
    EXPECT_NE(json.find("\"direction\": \"lower_is_better\""),
              std::string::npos);
    EXPECT_NE(json.find("\"direction\": \"higher_is_better\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchReport, EmptyReportIsStillWellFormed)
{
    bench::BenchReport report("bench_empty");
    const std::string path = tempPath("empty.json");
    report.write(path);
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"config\": {}"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\": []"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchReport, QuotesSpecialCharacters)
{
    bench::BenchReport report("bench \"quoted\"\\slash");
    const std::string path = tempPath("quoted.json");
    report.write(path);
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"bench \\\"quoted\\\"\\\\slash\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchReport, WriteIfRequestedHonorsLastJsonFlag)
{
    bench::BenchReport report("bench_flagged");
    report.addMetric("m", 1.0, "u", true, true);
    const std::string first = tempPath("first.json");
    const std::string last = tempPath("last.json");
    const std::string arg1 = "--json=" + first;
    const std::string arg2 = "--json=" + last;
    char prog[] = "bench";
    char smoke[] = "--smoke";
    char *argv[] = {prog, const_cast<char *>(arg1.c_str()), smoke,
                    const_cast<char *>(arg2.c_str())};
    EXPECT_TRUE(report.writeIfRequested(4, argv));
    // Only the last --json= path is written.
    std::ifstream check_first(first);
    EXPECT_FALSE(check_first.good());
    const std::string json = slurp(last);
    EXPECT_NE(json.find("\"bench_flagged\""), std::string::npos);
    // The bench's wall clock rides along, ungated.
    EXPECT_NE(json.find("{ \"name\": \"wall_ms\", \"value\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"unit\": \"ms\", \"gate\": false"),
              std::string::npos);
    std::remove(last.c_str());
}

TEST(BenchReport, WriteIfRequestedNoFlagIsNoOp)
{
    bench::BenchReport report("bench_noflag");
    char prog[] = "bench";
    char smoke[] = "--smoke";
    char *argv[] = {prog, smoke};
    EXPECT_FALSE(report.writeIfRequested(2, argv));
}

TEST(BenchReportDeathTest, EmptyJsonPathAborts)
{
    bench::BenchReport report("bench_bad");
    char prog[] = "bench";
    char flag[] = "--json=";
    char *argv[] = {prog, flag};
    EXPECT_DEATH(report.writeIfRequested(2, argv), "file path");
}

TEST(BenchReportDeathTest, UnwritablePathAborts)
{
    bench::BenchReport report("bench_bad");
    EXPECT_DEATH(report.write("/nonexistent-dir/report.json"),
                 "json output");
}

} // namespace
} // namespace comet
