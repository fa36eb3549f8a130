/**
 * @file
 * Tests for the virtual-time ingress gate: the floor rule on the gate
 * itself, and the gate's end-to-end contract on both front ends that
 * use it (a Server and a one-replica ClusterRouter).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "comet/cluster/router.h"
#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/server/ingress_gate.h"
#include "comet/server/server.h"

namespace comet {
namespace server {
namespace {

EngineConfig
testEngineConfig()
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    return engineConfigWithKvBlocks(config, 2048);
}

ServerConfig
oneTenantConfig()
{
    ServerConfig config;
    TenantConfig tenant;
    tenant.name = "t";
    config.tenants = {tenant};
    config.max_batch = 16;
    return config;
}

StreamRequest
streamRequest(int64_t id, double arrival_us, int64_t output = 2)
{
    StreamRequest request;
    request.id = id;
    request.tenant = "t";
    request.prompt_tokens = 64;
    request.max_output_tokens = output;
    request.eos_output_tokens = output;
    request.arrival_us = arrival_us;
    return request;
}

std::shared_ptr<VirtualIngressGate>
makeGate()
{
    return std::make_shared<VirtualIngressGate>(
        oneTenantConfig().tenants, "gate_test");
}

TEST(VirtualIngressGate, FloorCoversSubmissionsStillInTheInbox)
{
    std::shared_ptr<VirtualIngressGate> gate = makeGate();
    VirtualIngressGate::Client a = gate->connect();
    VirtualIngressGate::Client b = gate->connect();
    b.advanceTo(100.0);
    // A submits and closes before the loop takes its record: the
    // closed horizon is infinite, but the record still bounds the
    // floor.
    a.submit(streamRequest(1, 10.0));
    a.close();
    EXPECT_EQ(gate->floor(), 10.0);
    // Once the loop took the record, the open horizon rules again.
    EXPECT_EQ(gate->takeInbox().size(), 1u);
    EXPECT_EQ(gate->floor(), 100.0);
    b.close();
    EXPECT_EQ(gate->floor(),
              std::numeric_limits<double>::infinity());
}

TEST(VirtualIngressGate, NoClientYetIsNotEveryClientClosed)
{
    std::shared_ptr<VirtualIngressGate> gate = makeGate();
    EXPECT_EQ(gate->floor(), 0.0);
    EXPECT_FALSE(gate->promiseFloor(0.0));
    EXPECT_TRUE(gate->promiseFloor(50.0));
    // A client connecting after a promise starts at it.
    VirtualIngressGate::Client late = gate->connect();
    EXPECT_EQ(gate->floor(), 50.0);
    late.close();
}

TEST(VirtualIngressGate, ReplanningWaitsBounceOnIngressCommitsDoNot)
{
    std::shared_ptr<VirtualIngressGate> gate = makeGate();
    VirtualIngressGate::Client a = gate->connect();
    a.submit(streamRequest(1, 10.0));
    a.close();
    // A fast-forward must take the inbox first (the record may be
    // earlier than its target)...
    EXPECT_EQ(gate->waitToAdvance(50.0, /*replan=*/true),
              GateOutcome::kReplan);
    // ...while a step commit takes it after the move: only open
    // horizons hold it, and none is left.
    EXPECT_EQ(gate->waitToAdvance(50.0, /*replan=*/false),
              GateOutcome::kAdvance);
    gate->waitSettled(50.0);
    gate->requestStop(/*cancel_in_flight=*/true);
    EXPECT_EQ(gate->waitToAdvance(60.0, /*replan=*/false),
              GateOutcome::kInterrupted);
}

TEST(VirtualIngressGate, CancelsArePostedAndHandedOutWithTheInbox)
{
    std::shared_ptr<VirtualIngressGate> gate = makeGate();
    VirtualIngressGate::Client a = gate->connect();
    TokenStreamPtr first = a.submit(streamRequest(7, 10.0));
    TokenStreamPtr second = a.submit(streamRequest(3, 10.0));
    // Posted out of id order, one of them twice.
    first->requestCancel();
    second->requestCancel();
    first->requestCancel();
    // A cancel wakes a re-planning wait like a submission does.
    EXPECT_EQ(gate->waitToAdvance(50.0, /*replan=*/true),
              GateOutcome::kReplan);
    VirtualIngressGate::Wakeup wakeup =
        gate->awaitWork(/*busy=*/false, /*wake_on_floor=*/false);
    ASSERT_EQ(wakeup.incoming.size(), 2u);
    ASSERT_EQ(wakeup.cancels.size(), 3u);
    EXPECT_EQ(wakeup.cancels[0].id, 7);
    EXPECT_EQ(wakeup.cancels[0].stream, first);
    sortUniqueCancels(&wakeup.cancels);
    ASSERT_EQ(wakeup.cancels.size(), 2u);
    EXPECT_EQ(wakeup.cancels[0].id, 3);
    EXPECT_EQ(wakeup.cancels[0].stream, second);
    EXPECT_EQ(wakeup.cancels[1].id, 7);
    EXPECT_EQ(wakeup.cancels[1].stream, first);
    // Taken once: the next wakeup carries nothing.
    a.close();
    gate->requestStop(/*cancel_in_flight=*/false);
    EXPECT_TRUE(gate->awaitWork(false, false).cancels.empty());
}

// ---- The gate's contract on both front ends ----

using cluster::ClusterRouter;

/** Builds @p Front (a Server or a one-replica ClusterRouter) over
 * @p engine with the one-tenant config. */
template <typename Front>
std::unique_ptr<Front>
makeFront(const ServingEngine *engine)
{
    if constexpr (std::is_same_v<Front, Server>) {
        return std::make_unique<Server>(engine, oneTenantConfig());
    } else {
        cluster::ClusterConfig config;
        cluster::ReplicaSpec spec;
        spec.engine = engine;
        config.replicas = {spec};
        config.server = oneTenantConfig();
        return std::make_unique<ClusterRouter>(config);
    }
}


template <typename Front>
void
checkGateHoldsTheClock(const ServingEngine &engine)
{
    auto front = makeFront<Front>(&engine);
    Server::Client active = front->connect();
    Server::Client idle = front->connect();
    TokenStreamPtr stream = active.submit(streamRequest(1, 1000.0));
    active.close();
    // The idle client's horizon is still 0: the front end must not
    // advance the virtual clock to the arrival, no matter how much
    // wall time passes (a hard determinism invariant, so this
    // cannot flake).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_LT(front->virtualClockUs(), 1000.0);
    EXPECT_FALSE(stream->done());
    idle.close();
    front->drain();
    EXPECT_TRUE(stream->done());
    EXPECT_EQ(stream->terminalKind(), StreamEventKind::kFinished);
    front->stop();
}

template <typename Front>
void
checkGateWaitReplans(const ServingEngine &engine)
{
    // Regression for a determinism race: with the loop blocked in
    // the fast-forward toward a known arrival, a submission with an
    // EARLIER virtual arrival lands in the inbox. The gate must
    // re-plan and serve the newcomer at its own arrival time — the
    // virtual timeline cannot depend on whether the submission beat
    // the loop's last inbox take.
    auto run = [&](bool let_gate_block_first) {
        auto front = makeFront<Front>(&engine);
        Server::Client a = front->connect();
        Server::Client b = front->connect();
        TokenStreamPtr late = a.submit(streamRequest(1, 50000.0));
        a.close();
        if (let_gate_block_first) {
            // Give the loop wall time to enter the fast-forward
            // gate toward 50 ms before the earlier arrival shows up.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        TokenStreamPtr early = b.submit(streamRequest(2, 1000.0));
        b.close();
        front->drain();
        std::vector<double> times;
        StreamEvent event;
        while (early->next(&event))
            times.push_back(event.virtual_us);
        while (late->next(&event))
            times.push_back(event.virtual_us);
        front->stop();
        return times;
    };

    const std::vector<double> eager = run(false);
    const std::vector<double> delayed = run(true);
    ASSERT_EQ(eager.size(), delayed.size());
    for (size_t i = 0; i < eager.size(); ++i)
        EXPECT_DOUBLE_EQ(eager[i], delayed[i]);
    // The earlier request was served at its own arrival, not at the
    // fast-forward target it raced.
    ASSERT_GE(delayed.size(), 1u);
    EXPECT_LT(delayed[0], 50000.0);
}

template <typename Front>
void
checkLateConnect(const ServingEngine &engine)
{
    // A keeper handle holds the gate at 1 s of virtual time, so the
    // first request can finish while the session stays open.
    constexpr double kKeeperUs = 1e6;
    auto front = makeFront<Front>(&engine);
    Server::Client keeper = front->connect();
    Server::Client a = front->connect();
    keeper.advanceTo(kKeeperUs);
    TokenStreamPtr first = a.submit(streamRequest(1, 0.0));
    a.close();
    StreamEvent event;
    while (first->next(&event)) {
    }
    EXPECT_EQ(first->terminalKind(), StreamEventKind::kFinished);

    // A client joining mid-session starts gating at the virtual
    // present (for the router: the floor it already promised its
    // replicas, here the keeper's horizon). Submitting there must
    // work: the handle can neither stall the session on a horizon of
    // 0 nor rewind the gate below decisions already made.
    Server::Client b = front->connect();
    TokenStreamPtr second = b.submit(streamRequest(2, kKeeperUs));
    b.close();
    keeper.close();
    front->drain();
    EXPECT_EQ(second->terminalKind(), StreamEventKind::kFinished);
    EXPECT_GE(front->virtualClockUs(), kKeeperUs);
    ASSERT_TRUE(second->next(&event));
    EXPECT_GE(event.virtual_us, kKeeperUs);
    front->stop();
}

template <typename Front>
void
checkSubmitAfterClose(const ServingEngine &engine)
{
    auto front = makeFront<Front>(&engine);
    Server::Client client = front->connect();
    Server::Client other = front->connect();
    client.close();
    TokenStreamPtr closed = client.submit(streamRequest(1, 0.0));
    ASSERT_TRUE(closed->done());
    EXPECT_EQ(closed->terminalKind(), StreamEventKind::kRejected);
    StreamEvent event;
    ASSERT_TRUE(closed->next(&event));
    EXPECT_EQ(event.reject_reason, RejectReason::kShuttingDown);
    // Once the front end drains, every handle rejects — including
    // one that is still open.
    front->drain();
    TokenStreamPtr drained = other.submit(streamRequest(2, 0.0));
    ASSERT_TRUE(drained->next(&event));
    EXPECT_EQ(event.reject_reason, RejectReason::kShuttingDown);
    EXPECT_EQ(front->stats().rejected, 2);
    front->stop();
}

class FrontEndGateTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::MetricsRegistry::global().reset(); }

    const ServingEngine engine_{testEngineConfig()};
};

// Each contract runs once per front end: ServerTest keeps the names
// these tests had when only the Server used the gate.
class ServerTest : public FrontEndGateTest
{
};
class ClusterRouterGateTest : public FrontEndGateTest
{
};

TEST_F(ServerTest, IngressGateHoldsTheClockForOpenClients)
{
    checkGateHoldsTheClock<Server>(engine_);
}

TEST_F(ClusterRouterGateTest, IngressGateHoldsTheClockForOpenClients)
{
    checkGateHoldsTheClock<ClusterRouter>(engine_);
}

TEST_F(ServerTest, GateWaitReplansForEarlierSubmissions)
{
    checkGateWaitReplans<Server>(engine_);
}

TEST_F(ClusterRouterGateTest, GateWaitReplansForEarlierSubmissions)
{
    checkGateWaitReplans<ClusterRouter>(engine_);
}

TEST_F(ServerTest, LateConnectStartsAtTheVirtualPresent)
{
    checkLateConnect<Server>(engine_);
}

TEST_F(ClusterRouterGateTest, LateConnectStartsAtTheVirtualPresent)
{
    checkLateConnect<ClusterRouter>(engine_);
}

TEST_F(ServerTest, SubmitAfterCloseIsRejectedShuttingDown)
{
    checkSubmitAfterClose<Server>(engine_);
}

TEST_F(ClusterRouterGateTest, SubmitAfterCloseIsRejectedShuttingDown)
{
    checkSubmitAfterClose<ClusterRouter>(engine_);
}

} // namespace
} // namespace server
} // namespace comet
