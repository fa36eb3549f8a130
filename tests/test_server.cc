/**
 * @file
 * Tests for the online serving front-end: streaming, fairness-gated
 * admission, explicit backpressure, cancellation, drain/stop, and
 * virtual-time determinism.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace server {
namespace {

/** A small KV-bound engine every test serves against. */
EngineConfig
testEngineConfig(int64_t kv_blocks = 2048)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    return engineConfigWithKvBlocks(config, kv_blocks);
}

ServerConfig
oneTenantConfig(const std::string &name = "t")
{
    ServerConfig config;
    TenantConfig tenant;
    tenant.name = name;
    config.tenants = {tenant};
    config.max_batch = 16;
    return config;
}

StreamRequest
streamRequest(int64_t id, double arrival_us, int64_t prompt = 64,
              int64_t output = 4, const std::string &tenant = "t")
{
    StreamRequest request;
    request.id = id;
    request.tenant = tenant;
    request.prompt_tokens = prompt;
    request.max_output_tokens = output;
    request.eos_output_tokens = output;
    request.arrival_us = arrival_us;
    return request;
}

/**
 * Counts the events of a callback-mode stream and runs @p on_token at
 * each token, on the serving loop thread: a cancel requested there lands
 * at a deterministic point of the session. Read after drain().
 */
struct Tally {
    std::atomic<int64_t> tokens{0};
    std::atomic<int> terminals{0};
    std::function<void(int64_t token_index)> on_token;
};

StreamRequest
tallied(StreamRequest request, Tally *tally)
{
    request.callback = [tally](const StreamEvent &event) {
        if (isTerminal(event.kind)) {
            ++tally->terminals;
            return;
        }
        ++tally->tokens;
        if (tally->on_token)
            tally->on_token(event.token_index);
    };
    return request;
}

/** Metrics start from a clean slate in every test. */
class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::MetricsRegistry::global().reset();
    }
};

TEST_F(ServerTest, StreamsTokensAndFinishes)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 64, 4));
    client.close();

    StreamEvent event;
    int64_t tokens = 0;
    double last_us = -1.0;
    StreamEventKind terminal = StreamEventKind::kToken;
    while (stream->next(&event)) {
        if (event.kind == StreamEventKind::kToken) {
            EXPECT_EQ(event.token_index, tokens);
            EXPECT_GE(event.virtual_us, last_us);
            last_us = event.virtual_us;
            ++tokens;
        } else {
            terminal = event.kind;
        }
    }
    EXPECT_EQ(tokens, 4);
    EXPECT_EQ(terminal, StreamEventKind::kFinished);
    EXPECT_GT(last_us, 0.0);

    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.queued, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.streamed_tokens, 4);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_GT(server.virtualClockUs(), 0.0);
    server.stop();
}

TEST_F(ServerTest, CallbackDeliveryMatchesPullDelivery)
{
    const ServingEngine engine(testEngineConfig());
    std::vector<StreamEvent> seen;
    {
        Server server(&engine, oneTenantConfig());
        Server::Client client = server.connect();
        StreamRequest request = streamRequest(1, 0.0, 64, 3);
        request.callback = [&](const StreamEvent &event) {
            seen.push_back(event);
        };
        client.submit(request);
        client.close();
        server.drain();
        server.stop();
    }
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0].kind, StreamEventKind::kToken);
    EXPECT_EQ(seen[3].kind, StreamEventKind::kFinished);

    // The same request through a pull stream sees the same virtual
    // timestamps.
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 64, 3));
    client.close();
    server.drain();
    StreamEvent event;
    size_t i = 0;
    while (stream->next(&event)) {
        ASSERT_LT(i, seen.size());
        EXPECT_EQ(event.kind, seen[i].kind);
        EXPECT_DOUBLE_EQ(event.virtual_us, seen[i].virtual_us);
        ++i;
    }
    EXPECT_EQ(i, seen.size());
    server.stop();
}

TEST_F(ServerTest, UnknownTenantRejectsImmediately)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig("real"));
    Server::Client client = server.connect();
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 64, 4, "fake"));
    EXPECT_TRUE(stream->done());
    EXPECT_EQ(stream->terminalKind(), StreamEventKind::kRejected);
    EXPECT_EQ(stream->terminalReason(),
              RejectReason::kUnknownTenant);
    client.close();
    server.drain();
    EXPECT_EQ(server.stats().rejected, 1);
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "server.rejected"),
              1);
    server.stop();
}

TEST_F(ServerTest, SubmitAfterDrainRejectsShuttingDown)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    server.drain();
    TokenStreamPtr stream = client.submit(streamRequest(1, 0.0));
    EXPECT_TRUE(stream->done());
    EXPECT_EQ(stream->terminalKind(), StreamEventKind::kRejected);
    EXPECT_EQ(stream->terminalReason(),
              RejectReason::kShuttingDown);
    server.stop();
}

TEST_F(ServerTest, BoundedQueueRejectsOverload)
{
    const ServingEngine engine(testEngineConfig());
    ServerConfig config = oneTenantConfig();
    config.tenants[0].max_queued = 1;
    config.max_batch = 1;
    Server server(&engine, config);
    Server::Client client = server.connect();
    // Eight arrivals at the same instant against batch 1 + queue 1:
    // the overflow must come back as explicit kQueueFull rejects.
    std::vector<TokenStreamPtr> streams;
    for (int64_t i = 0; i < 8; ++i)
        streams.push_back(
            client.submit(streamRequest(i, 0.0, 64, 8)));
    client.close();
    server.drain();
    int64_t rejected = 0;
    int64_t completed = 0;
    for (const TokenStreamPtr &stream : streams) {
        ASSERT_TRUE(stream->done());
        if (stream->terminalKind() == StreamEventKind::kRejected) {
            EXPECT_EQ(stream->terminalReason(),
                      RejectReason::kQueueFull);
            ++rejected;
        } else {
            EXPECT_EQ(stream->terminalKind(),
                      StreamEventKind::kFinished);
            ++completed;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(completed, 0);
    EXPECT_EQ(rejected + completed, 8);
    EXPECT_EQ(server.stats().rejected, rejected);
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "server.rejected"),
              rejected);
    server.stop();
}

TEST_F(ServerTest, TooLargeRequestsRejectWithReason)
{
    const ServingEngine engine(testEngineConfig(64));
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    // 64 blocks x 16 tokens = 1024 tokens of KV; this asks for 4096.
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 2048, 2048));
    client.close();
    server.drain();
    ASSERT_TRUE(stream->done());
    EXPECT_EQ(stream->terminalKind(), StreamEventKind::kRejected);
    EXPECT_EQ(stream->terminalReason(), RejectReason::kTooLarge);
    server.stop();
}

TEST_F(ServerTest, CancelDeliversCancelledTerminal)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 64, 64));
    // The ingress gate still holds the clock at this request's
    // arrival, so no token can have been produced yet: the cancel
    // deterministically lands before the generation completes.
    stream->requestCancel();
    client.close();
    StreamEvent event;
    StreamEventKind terminal = StreamEventKind::kToken;
    while (stream->next(&event))
        terminal = event.kind;
    EXPECT_EQ(terminal, StreamEventKind::kCancelled);
    server.drain();
    EXPECT_EQ(server.stats().cancelled, 1);
    server.stop();
}

TEST_F(ServerTest, StopCancelsInFlightWorkDeterministically)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    std::vector<TokenStreamPtr> streams;
    for (int64_t i = 0; i < 4; ++i)
        streams.push_back(
            client.submit(streamRequest(i, 0.0, 64, 64)));
    // The handle is never closed: the ingress gate holds the virtual
    // clock, so no request can finish. stop(true) must cancel all
    // four deterministically, not hang.
    server.stop(/*cancel_in_flight=*/true);
    for (const TokenStreamPtr &stream : streams) {
        ASSERT_TRUE(stream->done());
        EXPECT_EQ(stream->terminalKind(),
                  StreamEventKind::kCancelled);
    }
    EXPECT_EQ(server.stats().cancelled, 4);
}

TEST_F(ServerTest, WeightedTenantsShareAdmissionUnderContention)
{
    const ServingEngine engine(testEngineConfig(512));
    ServerConfig config;
    TenantConfig heavy;
    heavy.name = "heavy";
    heavy.weight = 3.0;
    TenantConfig light;
    light.name = "light";
    light.weight = 1.0;
    config.tenants = {heavy, light};
    config.max_batch = 2;
    Server server(&engine, config);
    Server::Client client = server.connect();
    std::vector<TokenStreamPtr> heavy_streams;
    std::vector<TokenStreamPtr> light_streams;
    for (int64_t i = 0; i < 8; ++i) {
        heavy_streams.push_back(client.submit(
            streamRequest(2 * i, 0.0, 64, 8, "heavy")));
        light_streams.push_back(client.submit(
            streamRequest(2 * i + 1, 0.0, 64, 8, "light")));
    }
    client.close();
    server.drain();
    // Everything completes; the heavy tenant's median first-token
    // time must not be worse than the light tenant's.
    double heavy_first_sum = 0.0;
    double light_first_sum = 0.0;
    StreamEvent event;
    for (const TokenStreamPtr &stream : heavy_streams) {
        ASSERT_TRUE(stream->next(&event));
        heavy_first_sum += event.virtual_us;
    }
    for (const TokenStreamPtr &stream : light_streams) {
        ASSERT_TRUE(stream->next(&event));
        light_first_sum += event.virtual_us;
    }
    EXPECT_LT(heavy_first_sum, light_first_sum);
    server.stop();
}

TEST_F(ServerTest, BackToBackSessionsAreBitIdentical)
{
    const ServingEngine engine(testEngineConfig(1024));
    LoadgenConfig workload;
    workload.seed = 7;
    workload.clients = 4;
    LoadgenTenant tenant;
    tenant.admission.name = "t";
    tenant.arrival_rate_per_s = 50.0;
    tenant.requests = 24;
    tenant.prompt_min = 32;
    tenant.prompt_max = 128;
    tenant.output_min = 2;
    tenant.output_max = 16;
    workload.tenants = {tenant};

    ServerConfig config;
    config.tenants = loadgenTenants(workload);
    config.max_batch = 8;

    obs::MetricsRegistry::global().reset();
    Server first(&engine, config);
    const LoadgenReport report_a = runLoadgen(&first, workload);
    const double clock_a = first.virtualClockUs();
    const SchedulerCounters sched_a = first.schedulerCounters();
    first.stop();

    obs::MetricsRegistry::global().reset();
    Server second(&engine, config);
    const LoadgenReport report_b = runLoadgen(&second, workload);
    const double clock_b = second.virtualClockUs();
    const SchedulerCounters sched_b = second.schedulerCounters();
    second.stop();

    EXPECT_EQ(clock_a, clock_b);
    EXPECT_EQ(sched_a.admitted, sched_b.admitted);
    EXPECT_EQ(sched_a.preemptions, sched_b.preemptions);
    EXPECT_EQ(renderLoadgenReport(report_a),
              renderLoadgenReport(report_b));
    ASSERT_EQ(report_a.outcomes.size(), report_b.outcomes.size());
    for (size_t i = 0; i < report_a.outcomes.size(); ++i) {
        EXPECT_EQ(report_a.outcomes[i].tokens,
                  report_b.outcomes[i].tokens);
        EXPECT_EQ(report_a.outcomes[i].first_token_us,
                  report_b.outcomes[i].first_token_us);
        EXPECT_EQ(report_a.outcomes[i].last_token_us,
                  report_b.outcomes[i].last_token_us);
    }
}

TEST_F(ServerTest, LoadgenAccountingMatchesServerMetrics)
{
    const ServingEngine engine(testEngineConfig(256));
    LoadgenConfig workload;
    workload.seed = 11;
    workload.clients = 4;
    LoadgenTenant tenant;
    tenant.admission.name = "t";
    tenant.admission.max_queued = 2;
    tenant.arrival_rate_per_s = 500.0; // overload: forces rejects
    tenant.requests = 32;
    tenant.prompt_min = 64;
    tenant.prompt_max = 128;
    tenant.output_min = 4;
    tenant.output_max = 16;
    workload.tenants = {tenant};

    ServerConfig config;
    config.tenants = loadgenTenants(workload);
    config.max_batch = 4;

    Server server(&engine, config);
    const LoadgenReport report = runLoadgen(&server, workload);
    EXPECT_GT(report.rejected, 0);
    EXPECT_EQ(report.completed + report.rejected,
              report.submitted);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected, report.rejected);
    EXPECT_EQ(stats.completed, report.completed);
    EXPECT_EQ(stats.streamed_tokens, report.tokens);
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "server.rejected"),
              report.rejected);
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "server.streamed_tokens"),
              report.tokens);
    server.stop();
}

TEST_F(ServerTest, DrainIsIdempotentAndStopIsIdempotent)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    server.drain();
    server.drain();
    server.stop();
    server.stop();
}

TEST_F(ServerTest, CancelMidStreamAfterTokensHaveFlowed)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client submitter = server.connect();
    Server::Client gater = server.connect();
    TokenStreamPtr stream =
        submitter.submit(streamRequest(1, 0.0, 64, 64));
    submitter.close();
    // Dole out virtual time in thin slices, advancing only once the
    // loop has caught up to the previous slice: generation can never
    // run more than one slice ahead of the consumer, so after three
    // tokens the cancel provably lands long before the 64-token
    // completion.
    StreamEvent event;
    double horizon_us = 0.0;
    for (int consumed = 0; consumed < 3;) {
        if (stream->tryNext(&event)) {
            ASSERT_EQ(event.kind, StreamEventKind::kToken);
            ++consumed;
            continue;
        }
        horizon_us += 50.0;
        gater.advanceTo(horizon_us);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stream->requestCancel();
    gater.close();
    server.drain();
    int64_t tokens = 3;
    StreamEventKind terminal = StreamEventKind::kToken;
    while (stream->next(&event)) {
        terminal = event.kind;
        if (event.kind == StreamEventKind::kToken)
            ++tokens;
    }
    EXPECT_EQ(terminal, StreamEventKind::kCancelled);
    EXPECT_LT(tokens, 64);
    EXPECT_EQ(server.stats().cancelled, 1);
    EXPECT_EQ(server.stats().streamed_tokens, tokens);
    server.stop();
}

TEST_F(ServerTest, DisconnectedStreamStillCompletesServerSide)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    {
        Server::Client client = server.connect();
        TokenStreamPtr stream =
            client.submit(streamRequest(1, 0.0, 64, 4));
        client.close();
        stream.reset(); // the consumer disconnects mid-stream
    }
    // The server keeps its own reference: the request runs to
    // completion and the accounting is unaffected by the vanished
    // reader.
    server.drain();
    EXPECT_EQ(server.stats().completed, 1);
    EXPECT_EQ(server.stats().streamed_tokens, 4);
    server.stop();
}

TEST_F(ServerTest, DoubleCloseIsIdempotentAndLateCancelIsANoOp)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    TokenStreamPtr stream =
        client.submit(streamRequest(1, 0.0, 64, 2));
    client.close();
    client.close(); // a second close must be a harmless no-op
    server.drain();
    ASSERT_TRUE(stream->done());
    EXPECT_EQ(stream->terminalKind(), StreamEventKind::kFinished);
    // Cancelling an already-finished stream cannot resurrect it or
    // double-count a terminal (idempotent from the consumer side).
    stream->requestCancel();
    stream->requestCancel();
    server.stop();
    EXPECT_EQ(server.stats().completed, 1);
    EXPECT_EQ(server.stats().cancelled, 0);
}

// ---- Posted cancels in every request state ----
//
// Each target is cancelled from a callback on the loop thread, so the
// cancel is posted at a known point of the virtual timeline and lands
// at the next iteration boundary. Every target ends with exactly one
// terminal event, and the loop examines exactly the posted ids.

TEST_F(ServerTest, PostedCancelReachesARequestThatHasNotArrived)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    // Holds the clock at 0 until target_stream is set: the target's
    // far arrival alone would release the trigger's first token.
    Server::Client gater = server.connect();
    Tally trigger, target;
    TokenStreamPtr target_stream;
    trigger.on_token = [&](int64_t index) {
        if (index == 0)
            target_stream->requestCancel();
    };
    client.submit(tallied(streamRequest(1, 0.0, 64, 4), &trigger));
    target_stream =
        client.submit(tallied(streamRequest(2, 1e9, 64, 4), &target));
    client.close();
    gater.close();
    server.drain();
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kCancelled);
    EXPECT_EQ(target.tokens, 0);
    EXPECT_EQ(target.terminals, 1);
    EXPECT_EQ(trigger.tokens, 4);
    EXPECT_EQ(trigger.terminals, 1);
    // The abandoned arrival never moved the clock.
    EXPECT_LT(server.virtualClockUs(), 1e9);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.queued, 1);
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, PostedCancelReachesAFairQueuedRequest)
{
    const ServingEngine engine(testEngineConfig());
    ServerConfig config = oneTenantConfig();
    config.max_batch = 1; // the target waits behind the trigger
    Server server(&engine, config);
    Server::Client client = server.connect();
    Tally trigger, target;
    TokenStreamPtr target_stream;
    // By the trigger's fourth token the loop has taken the target and
    // queued it at its arrival; the full batch keeps it there.
    trigger.on_token = [&](int64_t index) {
        if (index == 3)
            target_stream->requestCancel();
    };
    client.submit(tallied(streamRequest(1, 0.0, 64, 8), &trigger));
    target_stream =
        client.submit(tallied(streamRequest(2, 0.0, 64, 8), &target));
    client.close();
    server.drain();
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kCancelled);
    EXPECT_EQ(target.tokens, 0);
    EXPECT_EQ(target.terminals, 1);
    EXPECT_EQ(trigger.tokens, 8);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.queued, 2);
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, PostedCancelStopsARunningRequestAtTheNextBoundary)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    Tally target;
    TokenStreamPtr target_stream;
    target.on_token = [&](int64_t index) {
        if (index == 2)
            target_stream->requestCancel();
    };
    target_stream =
        client.submit(tallied(streamRequest(1, 0.0, 64, 32), &target));
    client.close();
    server.drain();
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kCancelled);
    // Posted during the step that streamed token 2, handled before
    // the next step.
    EXPECT_EQ(target.tokens, 3);
    EXPECT_EQ(target.terminals, 1);
    EXPECT_EQ(server.stats().cancelled, 1);
    EXPECT_EQ(server.stats().cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, PostedCancelReachesARequestPreemptedBackToTheQueue)
{
    // 12 blocks of 16 tokens hold both 32-token prompts, but not both
    // requests at 96 tokens of context: the later one is preempted
    // and cannot re-admit until the trigger retires.
    const ServingEngine engine(testEngineConfig(12));
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    Tally trigger, target;
    TokenStreamPtr target_stream;
    int64_t target_tokens_at_cancel = -1;
    trigger.on_token = [&](int64_t index) {
        if (index == 100) {
            target_tokens_at_cancel = target.tokens;
            target_stream->requestCancel();
        }
    };
    client.submit(tallied(streamRequest(1, 0.0, 32, 128), &trigger));
    target_stream = client.submit(
        tallied(streamRequest(2, 0.0, 32, 128), &target));
    client.close();
    server.drain();
    EXPECT_EQ(trigger.tokens, 128);
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kCancelled);
    EXPECT_EQ(target.terminals, 1);
    // Preempted mid-decode: it had streamed tokens, and none came
    // after the preemption.
    EXPECT_GT(target.tokens, 0);
    EXPECT_LT(target.tokens, 128);
    EXPECT_EQ(target.tokens, target_tokens_at_cancel);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.preemptions, 1);
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, PostedCancelOfAFinishedRequestIsCountedAndMoot)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    Tally trigger, target;
    TokenStreamPtr target_stream;
    trigger.on_token = [&](int64_t index) {
        if (index == 6)
            target_stream->requestCancel();
    };
    client.submit(tallied(streamRequest(1, 0.0, 64, 8), &trigger));
    target_stream =
        client.submit(tallied(streamRequest(2, 0.0, 64, 2), &target));
    client.close();
    server.drain();
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kFinished);
    EXPECT_EQ(target.tokens, 2);
    EXPECT_EQ(target.terminals, 1);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 2);
    EXPECT_EQ(stats.cancelled, 0);
    EXPECT_EQ(stats.cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, CancellingTwiceEndsTheStreamOnce)
{
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    Server::Client gater = server.connect(); // see the test above
    Tally trigger, target;
    TokenStreamPtr target_stream;
    trigger.on_token = [&](int64_t index) {
        if (index == 0) {
            // Both posts land in one batch and fold into one visit.
            target_stream->requestCancel();
            target_stream->requestCancel();
        }
    };
    client.submit(tallied(streamRequest(1, 0.0, 64, 4), &trigger));
    target_stream =
        client.submit(tallied(streamRequest(2, 1e9, 64, 4), &target));
    client.close();
    gater.close();
    server.drain();
    EXPECT_EQ(target_stream->terminalKind(),
              StreamEventKind::kCancelled);
    EXPECT_EQ(target.terminals, 1);
    EXPECT_EQ(server.stats().cancelled, 1);
    EXPECT_EQ(server.stats().cancel_visits, 1);
    server.stop();
}

TEST_F(ServerTest, NoCancelsMeansNoCancelVisitsHoweverManyRequests)
{
    // Ten thousand arrivals spread over the session: a loop that
    // scanned its streams for cancels every iteration would visit on
    // the order of 10^7 of them; a loop driven by posted cancels
    // visits none.
    const ServingEngine engine(testEngineConfig());
    Server server(&engine, oneTenantConfig());
    Server::Client client = server.connect();
    constexpr int64_t kRequests = 10000;
    for (int64_t i = 0; i < kRequests; ++i) {
        client.submit(streamRequest(i, 100.0 * static_cast<double>(i),
                                    16, 1));
    }
    client.close();
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.cancel_visits, 0);
    EXPECT_EQ(obs::MetricsRegistry::global().counterValue(
                  "server.cancel_visits"),
              0);
    server.stop();
}

} // namespace
} // namespace server
} // namespace comet
