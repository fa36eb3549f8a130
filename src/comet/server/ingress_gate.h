/**
 * @file
 * The conservative virtual-time ingress gate shared by Server and
 * cluster::ClusterRouter.
 *
 * Both front ends turn racy host concurrency (client threads
 * submitting whenever they like) into a virtual timeline that replays
 * bit-identically. The gate is the one place that does this. It owns
 * the client handles and their horizons, the submit-side checks, the
 * inbox of submissions the front end's loop has not taken yet, the
 * drain/stop flags, and the wait that decides when the loop may move
 * its virtual clock.
 *
 * ## Horizons and the floor rule
 *
 * Each client submits with nondecreasing virtual arrival times. A
 * handle's *horizon* is its last submitted (or explicitly advanced)
 * arrival: a promise that every arrival still coming through it is at
 * or after the horizon. Closing a handle moves its horizon to
 * infinity.
 *
 * The gate's *floor* is the least virtual time at which a not yet
 * taken arrival can still exist:
 *
 *     floor = min(open horizons, arrivals still in the inbox)
 *
 * read under the gate's one lock. The inbox term matters: a client
 * may submit and then close before the loop takes the submission, and
 * the closed horizon alone would then promise a floor above an
 * arrival the loop has not seen. Before any client connects the floor
 * is where a new handle would start (see connect()).
 *
 * ## Advancing the clock
 *
 * The loop never moves its clock to T until every open horizon is
 * strictly past T (equal arrivals through one handle are legal, so a
 * horizon exactly at T could still produce more arrivals at T). A
 * fast-forward to the next known arrival additionally re-plans when
 * any submission or poke lands while it waits: the newcomer may be
 * earlier than the planned target. By the time a loop decides
 * anything at clock T it has therefore taken every arrival <= T that
 * will ever exist (classic conservative discrete-event
 * synchronization).
 *
 * ## Settled horizon
 *
 * The gate also tracks a *settled horizon*: every stream event the
 * front end stamps strictly below it has been delivered. It advances
 * at committed clock moves, while the loop is parked (bounded by the
 * open horizons), and jumps to infinity at session completion. The
 * cluster router waits on it (Server::waitSettled) to read replica
 * load that is a pure function of the workload.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comet/server/admission.h"
#include "comet/server/streaming.h"

namespace comet {
namespace server {

/** One request as a client submits it. */
struct StreamRequest {
    /** Caller-assigned id, unique across the whole session (the load
     * generator derives them deterministically per client). */
    int64_t id = 0;
    std::string tenant;        ///< tenant to account admission under
    int64_t prompt_tokens = 0; ///< prompt length to prefill
    /**
     * Prompt token ids — the content the prefix cache keys on. When
     * non-empty it must be exactly prompt_tokens long; empty keeps
     * the request content-free (no prefix caching for it, everything
     * else unchanged). Only consulted when the server has the prefix
     * cache on and the tenant opted in (TenantConfig::prefix_caching);
     * the server derives the block keys when it accepts the request
     * and does not retain the ids past that.
     */
    std::vector<int32_t> prompt_ids;
    /** Declared generation bound (what admission reserves against). */
    int64_t max_output_tokens = 0;
    /** Actual EOS length when the workload models one; 0 = run to
     * the declared bound. */
    int64_t eos_output_tokens = 0;
    /** Virtual arrival time, microseconds; nondecreasing per client
     * handle. */
    double arrival_us = 0.0;
    /**
     * Virtual time at which the client abandons the request
     * (>= arrival_us); 0 = never. The loop cancels the request at the
     * first scheduling boundary whose clock reaches this time, so —
     * unlike the wall-clock TokenStream::requestCancel() — the cancel
     * lands at a deterministic point of the virtual timeline and
     * replays bit-identically (the chaos harness's workload scripts
     * model client cancel/disconnect through it).
     */
    double cancel_at_us = 0.0;
    /** Optional token callback; empty selects pull-mode streaming. */
    TokenStream::Callback callback;
};

/** An accepted submission on its way from a client thread to the
 * front end's loop. */
struct IngressRecord {
    StreamRequest request; ///< as submitted, callback cleared
    TokenStreamPtr stream; ///< the stream returned to the client
    int tenant = 0;        ///< index into the gate's tenant set
};

/** A client's cancellation request, posted to the gate of the front
 * end that owns the stream (see VirtualIngressGate::postCancel). */
struct PostedCancel {
    int64_t id = 0;        ///< the request id the stream was submitted as
    TokenStreamPtr stream; ///< the stream that asked to cancel
};

/** Sorts @p cancels by request id and folds repeated posts of one
 * id into one: the order a loop handles a batch of posted cancels
 * in, whatever order the clients posted them. */
void sortUniqueCancels(std::vector<PostedCancel> *cancels);

/** How a gate wait for a clock advance resolved. */
enum class GateOutcome {
    kAdvance,     ///< safe to commit the clock move
    kReplan,      ///< new submissions/pokes: re-plan the target
    kInterrupted, ///< stop-with-cancel ended the session
};

/**
 * The ingress gate (see the file comment). Thread-safe; held by
 * shared_ptr so that streams which outlive their front end can still
 * poke it safely.
 */
class VirtualIngressGate
    : public std::enable_shared_from_this<VirtualIngressGate>
{
  public:
    /**
     * A client's submission handle (Server::Client and
     * ClusterRouter::Client name this type). Copyable value type.
     * Submissions through one handle must carry nondecreasing arrival
     * times; close the handle when no more submissions are coming so
     * the gate can release.
     */
    class Client
    {
      public:
        /** An unconnected handle (submit on it is invalid). */
        Client() = default;

        /**
         * Submits a request and returns its stream. Never fails and
         * never blocks on capacity: structurally invalid submissions
         * (unknown tenant, closed handle, draining front end) come
         * back as an already terminated stream with the
         * corresponding RejectReason, and overload verdicts arrive
         * asynchronously on the stream.
         */
        TokenStreamPtr submit(const StreamRequest &request);

        /** Promises that no submission with arrival_us earlier than
         * @p horizon_us is still coming through this handle. */
        void advanceTo(double horizon_us);

        /** Final horizon: no more submissions through this handle
         * (idempotent; further submits reject kShuttingDown). */
        void close();

        /** True when the handle is connected to a front end. */
        bool valid() const { return gate_ != nullptr; }

      private:
        friend class VirtualIngressGate;
        VirtualIngressGate *gate_ = nullptr;
        size_t index_ = 0;
    };

    /** What woke the loop (see awaitWork). */
    struct Wakeup {
        std::vector<IngressRecord> incoming; ///< the inbox, taken
        /** Cancellations posted since the last wakeup, in posting
         * order (duplicates possible: a stream may cancel twice). */
        std::vector<PostedCancel> cancels;
        bool stop = false;   ///< requestStop() was called
        bool cancel = false; ///< ... with cancel_in_flight
        bool drain = false;  ///< ingress is closed
    };

    /** Submit-path counters. */
    struct Counts {
        int64_t submitted = 0;      ///< submit() calls (any verdict)
        int64_t early_rejected = 0; ///< rejected before the loop
    };

    /**
     * A gate accepting the tenants named in @p tenants and counting
     * submissions into `<metrics_prefix>.submitted` and early
     * rejects into `<metrics_prefix>.rejected`.
     */
    VirtualIngressGate(const std::vector<TenantConfig> &tenants,
                       const std::string &metrics_prefix);

    // ---- Any thread ----

    /**
     * Registers a client. Its horizon starts at the published clock,
     * or at the floor the front end already promised downstream if
     * that is later (see promiseFloor), so a late client can neither
     * hold the gate below decisions already made nor submit into the
     * virtual past.
     */
    Client connect();

    /** Closes ingress and blocks until the loop marks the session
     * complete. */
    void drain();

    /** Closes ingress and asks the loop to exit; @p cancel_in_flight
     * is sticky (a later stop(true) tightens an earlier stop(false),
     * never the reverse). */
    void requestStop(bool cancel_in_flight);

    /** Wakes the loop (and bounces a re-planning gate wait): the
     * front end has loop-side work that is not a cancellation (the
     * cluster router's drain requests). */
    void poke();

    /**
     * Posts a cancellation of request @p id (whose stream is
     * @p stream) for the loop and wakes it like poke(). Every stream
     * submit() hands out posts here from TokenStream::requestCancel(),
     * so the loop visits only the ids clients actually cancelled.
     * The post and the submission it names are taken by the same
     * awaitWork() or a later one, never an earlier one.
     */
    void postCancel(int64_t id, TokenStreamPtr stream);

    /** Blocks until the settled horizon reaches @p virtual_us. */
    void waitSettled(double virtual_us) const;

    /** The clock the loop last published, microseconds. */
    double clockUs() const;

    /** Submit-path counters. */
    Counts counts() const;

    /** True once the loop marked the session complete; taking the
     * gate lock here orders the caller after every loop-side write
     * before the mark. */
    bool complete() const;

    // ---- The front end's loop thread ----

    /**
     * Parks until there is something to do, then takes the inbox and
     * the posted cancellations. Wakes at once when @p busy; otherwise
     * on a submission, a poke or posted cancel, a stop, an unfinished
     * drain, or — with @p wake_on_floor — the floor rising past the
     * promised floor. While parked the settled horizon follows the
     * open horizons.
     */
    Wakeup awaitWork(bool busy, bool wake_on_floor);

    /** Takes the inbox without waiting (stop-with-cancel). */
    std::vector<IngressRecord> takeInbox();

    /**
     * Waits until the clock may move to @p target_us: every open
     * horizon is strictly past it. With @p replan (a fast-forward to
     * the next known arrival) a submission or poke landing first
     * returns kReplan; without it (committing a step whose decisions
     * are already made) inbox records are taken after the move, so
     * they land at >= @p target_us and do not hold it. Returns
     * kInterrupted on stop-with-cancel. kAdvance settles the target.
     */
    GateOutcome waitToAdvance(double target_us, bool replan);

    /** Publishes the loop's clock (it settles everything below it);
     * @p complete additionally marks the session complete, settles
     * everything and wakes drain() callers. */
    void publish(double clock_us, bool complete);

    /** The floor (see the file comment). */
    double floor() const;

    /** Raises the floor promised downstream to @p floor_us; returns
     * false when that promise was already made. */
    bool promiseFloor(double floor_us);

  private:
    TokenStreamPtr submit(size_t client, const StreamRequest &request);
    void advance(size_t client, double horizon_us);
    int tenantIndex(const std::string &name) const;
    std::vector<IngressRecord> takeInboxLocked();
    double openFloorLocked() const;
    double floorLocked() const;
    bool interruptedLocked() const;
    void advanceSettledLocked(double settled_us);

    std::vector<std::string> tenants_;
    std::string metrics_prefix_;

    mutable std::mutex mutex_;
    /** The loop waits here (for work, horizons, pokes). */
    std::condition_variable cv_;
    /** waitSettled() callers wait here. */
    mutable std::condition_variable settled_cv_;
    /** drain() callers wait here for session completion. */
    std::condition_variable done_cv_;
    std::vector<IngressRecord> inbox_;
    /** Cancellations posted since the last awaitWork(). */
    std::vector<PostedCancel> cancels_;
    /** Least arrival in inbox_ (infinity when empty). */
    double inbox_floor_us_;
    std::vector<double> horizons_; ///< per-client horizons
    bool draining_ = false;        ///< ingress closed
    bool stop_requested_ = false;  ///< loop asked to exit
    bool cancel_on_stop_ = false;  ///< stop cancels in-flight work
    bool poked_ = false;           ///< a poke or a posted cancel
    bool complete_ = false;        ///< all accepted work terminal
    Counts counts_;
    double clock_us_ = 0.0;   ///< published loop clock
    double settled_us_ = 0.0; ///< settled horizon; monotone
    double promised_us_ = 0.0; ///< floor promised downstream
};

} // namespace server
} // namespace comet
