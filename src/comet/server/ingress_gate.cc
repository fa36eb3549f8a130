#include "comet/server/ingress_gate.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "comet/common/status.h"
#include "comet/obs/metrics.h"

namespace comet {
namespace server {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

} // namespace

void
sortUniqueCancels(std::vector<PostedCancel> *cancels)
{
    // Ids are unique per session, so one id is one stream.
    std::sort(cancels->begin(), cancels->end(),
              [](const PostedCancel &a, const PostedCancel &b) {
                  return a.id < b.id;
              });
    cancels->erase(
        std::unique(cancels->begin(), cancels->end(),
                    [](const PostedCancel &a, const PostedCancel &b) {
                        return a.id == b.id;
                    }),
        cancels->end());
}

TokenStreamPtr
VirtualIngressGate::Client::submit(const StreamRequest &request)
{
    COMET_CHECK_MSG(valid(), "submit() on an unconnected handle");
    return gate_->submit(index_, request);
}

void
VirtualIngressGate::Client::advanceTo(double horizon_us)
{
    COMET_CHECK_MSG(valid(), "advanceTo() on an unconnected handle");
    gate_->advance(index_, horizon_us);
}

void
VirtualIngressGate::Client::close()
{
    COMET_CHECK_MSG(valid(), "close() on an unconnected handle");
    gate_->advance(index_, kInfinity);
}

VirtualIngressGate::VirtualIngressGate(
    const std::vector<TenantConfig> &tenants,
    const std::string &metrics_prefix)
    : metrics_prefix_(metrics_prefix), inbox_floor_us_(kInfinity)
{
    for (const TenantConfig &tenant : tenants)
        tenants_.push_back(tenant.name);
}

VirtualIngressGate::Client
VirtualIngressGate::connect()
{
    Client client;
    client.gate_ = this;
    std::lock_guard<std::mutex> lock(mutex_);
    COMET_CHECK_MSG(!draining_, "connect() on a draining/stopped "
                                "front end");
    client.index_ = horizons_.size();
    horizons_.push_back(std::max(clock_us_, promised_us_));
    return client;
}

TokenStreamPtr
VirtualIngressGate::submit(size_t client, const StreamRequest &request)
{
    COMET_CHECK(request.id >= 0);
    COMET_CHECK(request.prompt_tokens > 0);
    COMET_CHECK(request.max_output_tokens > 0);
    COMET_CHECK(request.eos_output_tokens >= 0);
    COMET_CHECK(request.arrival_us >= 0.0);
    COMET_CHECK_MSG(request.cancel_at_us == 0.0 ||
                        request.cancel_at_us >= request.arrival_us,
                    "cancel_at_us must be 0 or >= arrival_us");

    TokenStreamPtr stream =
        request.callback
            ? std::make_shared<TokenStream>(request.callback)
            : std::make_shared<TokenStream>();
    // Install the cancel hook before the request can possibly reach
    // the loop, so no cancellation is ever lost. Both captures are
    // weak: the stream owns the hook, and a stream may outlive its
    // front end.
    std::weak_ptr<VirtualIngressGate> weak = weak_from_this();
    std::weak_ptr<TokenStream> weak_stream = stream;
    stream->setCancelPoke([weak, weak_stream, id = request.id] {
        std::shared_ptr<VirtualIngressGate> gate = weak.lock();
        TokenStreamPtr self = weak_stream.lock();
        if (gate && self)
            gate->postCancel(id, std::move(self));
    });
    IngressRecord record;
    record.request = request;
    record.request.callback = nullptr;
    record.stream = stream;
    record.tenant = tenantIndex(request.tenant);

    RejectReason early = RejectReason::kNone;
    double reject_clock_us = 0.0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counts_.submitted;
        obs::MetricsRegistry::global()
            .counter(metrics_prefix_ + ".submitted")
            .add();
        COMET_CHECK(client < horizons_.size());
        double &horizon = horizons_[client];
        if (draining_ || horizon == kInfinity) {
            early = RejectReason::kShuttingDown;
        } else if (record.tenant < 0) {
            early = RejectReason::kUnknownTenant;
        } else {
            COMET_CHECK_MSG(
                request.arrival_us >= horizon,
                "arrival times must be nondecreasing per client");
            horizon = request.arrival_us;
            inbox_floor_us_ =
                std::min(inbox_floor_us_, request.arrival_us);
            inbox_.push_back(std::move(record));
            cv_.notify_all();
        }
        if (early != RejectReason::kNone) {
            ++counts_.early_rejected;
            obs::MetricsRegistry::global()
                .counter(metrics_prefix_ + ".rejected")
                .add();
            reject_clock_us = clock_us_;
        }
    }
    if (early != RejectReason::kNone) {
        StreamEvent event;
        event.kind = StreamEventKind::kRejected;
        event.virtual_us = reject_clock_us;
        event.reject_reason = early;
        stream->deliver(event);
    }
    return stream;
}

void
VirtualIngressGate::advance(size_t client, double horizon_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    COMET_CHECK(client < horizons_.size());
    double &horizon = horizons_[client];
    horizon = std::max(horizon, horizon_us);
    cv_.notify_all();
}

int
VirtualIngressGate::tenantIndex(const std::string &name) const
{
    for (size_t i = 0; i < tenants_.size(); ++i) {
        if (tenants_[i] == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
VirtualIngressGate::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    cv_.notify_all();
    done_cv_.wait(lock, [&] { return complete_; });
}

void
VirtualIngressGate::requestStop(bool cancel_in_flight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    stop_requested_ = true;
    cancel_on_stop_ |= cancel_in_flight;
    cv_.notify_all();
}

void
VirtualIngressGate::poke()
{
    std::lock_guard<std::mutex> lock(mutex_);
    poked_ = true;
    cv_.notify_all();
}

void
VirtualIngressGate::postCancel(int64_t id, TokenStreamPtr stream)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cancels_.push_back({id, std::move(stream)});
    poked_ = true;
    cv_.notify_all();
}

void
VirtualIngressGate::waitSettled(double virtual_us) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    settled_cv_.wait(lock, [&] { return settled_us_ >= virtual_us; });
}

double
VirtualIngressGate::clockUs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clock_us_;
}

VirtualIngressGate::Counts
VirtualIngressGate::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

bool
VirtualIngressGate::complete() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return complete_;
}

VirtualIngressGate::Wakeup
VirtualIngressGate::awaitWork(bool busy, bool wake_on_floor)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
        const bool wake =
            busy || stop_requested_ || poked_ || !inbox_.empty() ||
            (draining_ && !complete_) ||
            (wake_on_floor && floorLocked() > promised_us_);
        // Parked with no pending work: future events can only come
        // from submissions at or beyond the open horizons, so that
        // floor is settled (re-evaluated as horizons advance).
        if (!wake)
            advanceSettledLocked(openFloorLocked());
        return wake;
    });
    Wakeup wakeup;
    wakeup.incoming = takeInboxLocked();
    wakeup.cancels.swap(cancels_);
    poked_ = false;
    wakeup.stop = stop_requested_;
    wakeup.cancel = cancel_on_stop_;
    wakeup.drain = draining_;
    return wakeup;
}

std::vector<IngressRecord>
VirtualIngressGate::takeInbox()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return takeInboxLocked();
}

GateOutcome
VirtualIngressGate::waitToAdvance(double target_us, bool replan)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ingress = [&] {
        return replan && (poked_ || !inbox_.empty());
    };
    cv_.wait(lock, [&] {
        if (interruptedLocked())
            return true;
        // While parked here no event below min(target, floor) can
        // still be produced: the pending move delivers at >= target
        // once committed, and later submissions arrive at or beyond
        // the open horizons. A re-planning wait takes the inbox
        // before any move, so its arrivals bound the settle too; a
        // committing wait takes them after the move, at >= target.
        // Publishing this lets a cluster router await per-replica
        // quiescence while the gate is held.
        advanceSettledLocked(std::min(
            target_us, replan ? floorLocked() : openFloorLocked()));
        return ingress() || openFloorLocked() > target_us;
    });
    if (interruptedLocked())
        return GateOutcome::kInterrupted;
    if (ingress())
        return GateOutcome::kReplan;
    advanceSettledLocked(target_us);
    return GateOutcome::kAdvance;
}

void
VirtualIngressGate::publish(double clock_us, bool complete)
{
    std::lock_guard<std::mutex> lock(mutex_);
    clock_us_ = clock_us;
    // Everything delivered so far is stamped <= the clock and future
    // deliveries are stamped >= it, so events below it are settled.
    advanceSettledLocked(clock_us);
    if (complete) {
        complete_ = true;
        // A complete session delivers nothing further.
        advanceSettledLocked(kInfinity);
        done_cv_.notify_all();
    }
}

double
VirtualIngressGate::floor() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return floorLocked();
}

bool
VirtualIngressGate::promiseFloor(double floor_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (floor_us <= promised_us_)
        return false;
    promised_us_ = floor_us;
    return true;
}

std::vector<IngressRecord>
VirtualIngressGate::takeInboxLocked()
{
    std::vector<IngressRecord> taken;
    taken.swap(inbox_);
    inbox_floor_us_ = kInfinity;
    return taken;
}

double
VirtualIngressGate::openFloorLocked() const
{
    // A drained gate takes no further submissions.
    if (draining_)
        return kInfinity;
    // No client yet: the session has not started, and the first
    // handle will start where connect() puts it — never read the
    // empty set as "every client closed".
    if (horizons_.empty())
        return std::max(clock_us_, promised_us_);
    double floor = kInfinity;
    for (double horizon : horizons_)
        floor = std::min(floor, horizon);
    return floor;
}

double
VirtualIngressGate::floorLocked() const
{
    return std::min(openFloorLocked(), inbox_floor_us_);
}

bool
VirtualIngressGate::interruptedLocked() const
{
    return stop_requested_ && cancel_on_stop_;
}

void
VirtualIngressGate::advanceSettledLocked(double settled_us)
{
    if (settled_us > settled_us_) {
        settled_us_ = settled_us;
        settled_cv_.notify_all();
    }
}

} // namespace server
} // namespace comet
