/**
 * @file
 * The resilient serving front-end over the exec plane: multi-tenant
 * admission control with bounded per-tenant queues and deterministic
 * priority-ordered load-shedding, per-request deadlines with
 * cooperative cancellation, a retry policy with per-tenant budgets and
 * exponential backoff over the typed camp::Error taxonomy, and exact
 * CPU fallback as the terminal recovery step.
 *
 * Determinism contract: all serving *decisions* (admit / shed / evict /
 * dispatch order / deadline / retry / fallback) are computed in virtual
 * time — a single-threaded event ledger advanced by request arrival
 * stamps and by the device's own cost estimates — never by wall-clock
 * or thread timing. Products are still genuinely computed by the
 * device: the engine copies each wave's cache misses into a pooled
 * exec::WaveBuffer it owns and runs it through
 * Device::mul_batch_wave, and a device throw reaches every product of
 * the wave as its typed ErrorCode. The exec plane's bit-identity and
 * position-seeded fault-stream contracts make the full outcome — the
 * shed set included — identical at any CAMP_THREADS or CAMP_SHARDS.
 *
 * Two execution modes share that one decision engine (DESIGN.md §15):
 *
 *  - Virtual (default): waves execute inline at dispatch; the
 *    support::VirtualClock is the ledger itself. This is the oracle.
 *  - Wall (ServeConfig::wall_clock): a wave the engine would join
 *    before returning runs inline; only a wave that outlives the pump
 *    gets its own worker thread, up to max_inflight_waves waves in
 *    flight; a support::WallClock stamps every
 *    settlement so the report carries the per-request wall-vs-virtual
 *    skew. Decisions still run on the virtual ledger, so a wall run
 *    settles exactly the set the virtual oracle computes — the
 *    differential property tests/test_serve_async.cpp asserts.
 *
 * Clients drive the engine either batch-style (process) or
 * incrementally (submit_async / finish): submit_async admits the
 * request immediately, returns a Handle, and pumps the engine up to
 * the request's arrival stamp — settling (and firing the callbacks of)
 * everything that virtually completed before it. The engine only runs
 * inside submit_async/finish/process calls; Handle::wait from another
 * thread blocks until one of them settles the request.
 *
 * What a session retains: the engine holds one copy of each live
 * request (admitted, not yet settled) and recycles it at settlement,
 * so operand storage is bounded by the live requests, which the
 * serve.live_requests gauge counts. Each settled outcome, product
 * included, is stored once, in the report's outcomes; a handle the
 * client still holds at settlement gets its own copy.
 */
#ifndef CAMP_SERVE_SERVER_HPP
#define CAMP_SERVE_SERVER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/device.hpp"
#include "mpapca/ledger.hpp"
#include "serve/config.hpp"
#include "serve/workload.hpp"
#include "support/clock.hpp"
#include "support/errors.hpp"
#include "support/opcache.hpp"

namespace camp::serve {

namespace detail {
class Engine;
struct HandleState;
} // namespace detail

/** Terminal disposition of one request. */
enum class RequestStatus
{
    Completed,        ///< exact product delivered before the deadline
    ShedAdmission,    ///< refused at admission (queue/backlog full)
    ShedEvicted,      ///< admitted, then evicted for higher priority
    RejectedDeadline, ///< deadline infeasible at admission
    TimedOut,         ///< dropped at dispatch or completed too late
    Failed,           ///< fatal (non-retryable) error
};

const char* request_status_name(RequestStatus status);

/** Per-request result record, in workload order. */
struct Outcome
{
    std::uint64_t id = 0;
    RequestStatus status = RequestStatus::Completed;
    ErrorCode error = ErrorCode::Ok;
    /** Hint attached to shed outcomes: how long (on the serving
     * clock) until a retry is likely to be admitted. */
    support::Clock::duration retry_after{0};
    std::uint64_t latency_us = 0; ///< completion - arrival (virtual)
    /** Clock stamp at settlement: equals the virtual settle time on a
     * VirtualClock, the real elapsed time on a WallClock. */
    std::uint64_t wall_completion_us = 0;
    /** wall_completion_us minus the virtual settle time — identically
     * zero in virtual mode, the reconciliation signal in wall mode. */
    std::int64_t skew_us = 0;
    unsigned attempts = 0;        ///< device dispatches consumed
    bool fallback = false;        ///< served by the exact CPU path
    bool faulty_seen = false;     ///< a device answer failed validation
    mpn::Natural product;         ///< set only when Completed
};

/** Per-tenant conservation counters. */
struct TenantCounters
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed_admission = 0;
    std::uint64_t shed_evicted = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;        ///< budgeted re-dispatches
    std::uint64_t fallbacks = 0;      ///< exact-CPU products computed
                                      ///< (even if delivered late)
    std::uint64_t faulty_results = 0; ///< device answers flagged faulty
    /** Completed inside the virtual deadline but past it on the wall
     * clock — the reconciliation gap. Observational only: not part of
     * conserved(), always zero in virtual mode. */
    std::uint64_t wall_late = 0;
};

/** One tenant's report: counters plus the latency distribution of its
 * completed requests (virtual microseconds, nearest-rank percentiles). */
struct TenantReport
{
    std::string name;
    Priority priority = Priority::Normal;
    TenantCounters counters;
    std::vector<std::uint64_t> latencies_us; ///< sorted
    std::uint64_t p50_us = 0;
    std::uint64_t p95_us = 0;
    std::uint64_t p99_us = 0;
};

/** Everything the serving engine observed. */
struct ServeReport
{
    std::vector<Outcome> outcomes; ///< workload order
    std::vector<TenantReport> tenants;
    TenantCounters totals;
    std::vector<std::uint64_t> shed_ids;    ///< admission + evicted
    std::vector<std::uint64_t> timeout_ids; ///< rejected + timed out
    std::uint64_t waves = 0;
    std::uint64_t virtual_end_us = 0; ///< clock when the last request
                                      ///< settled
    std::uint64_t wall_end_us = 0; ///< serving-clock stamp at finish
                                   ///< (== virtual_end_us when virtual)

    const TenantReport* tenant(const std::string& name) const;

    /** The ledger identities that make the accounting trustworthy:
     * submitted == admitted + shed_admission + rejected_deadline and
     * admitted == completed + shed_evicted + timeouts + failed, per
     * tenant and in total. */
    bool conserved() const;

    /** Human-readable per-tenant summary table. */
    std::string table() const;
};

class Server
{
  public:
    /**
     * Completion handle for one submit_async request. Cheap to copy
     * (shared state). A handle the client holds when its request
     * settles gets its own copy of the outcome, product included, so
     * outcome() stays valid after finish() and after the Server is
     * destroyed. A handle dropped before then costs no copy: its
     * callback still fires, with the report's outcome.
     */
    class Handle
    {
      public:
        Handle() = default;

        bool valid() const { return state_ != nullptr; }

        /** True once the request settled (non-blocking). */
        bool settled() const;

        /** Block until the request settles. The engine only advances
         * inside submit_async/finish/process calls, so waiting on the
         * engine's own thread without one of those pending on another
         * thread would deadlock — wait from a different thread, or
         * structure the client to call finish() first. */
        void wait() const;

        /** The settled outcome; calls wait() first. */
        const Outcome& outcome() const;

        /**
         * Register a completion callback, fired exactly once with the
         * settled outcome — immediately (on the calling thread) when
         * the request already settled, otherwise on the engine thread
         * inside whichever submit_async/finish call settles it. The
         * callback must not call back into the Server (the engine is
         * mid-pump). Replaces any previously registered callback.
         */
        void on_settle(std::function<void(const Outcome&)> callback);

      private:
        friend class Server;
        explicit Handle(std::shared_ptr<detail::HandleState> state)
            : state_(std::move(state))
        {
        }

        std::shared_ptr<detail::HandleState> state_;
    };

    /**
     * @p device executes every wave (not owned; must outlive the
     * server). @p fault_sink, when given, receives a thread-safe fold
     * of the fault/recovery counters after every wave
     * (Ledger::fold_fault_stats), so several servers may share one
     * ledger. @p clock, when given, overrides the server-owned clock
     * (config.wall_clock selects WallClock vs VirtualClock otherwise)
     * — the sanctioned way to share one clock with a BreakerDevice.
     */
    explicit Server(ServeConfig config, exec::Device& device,
                    mpapca::Ledger* fault_sink = nullptr,
                    support::Clock* clock = nullptr);

    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Serve @p workload (already sorted by arrival; generate_workload
     * output qualifies) to completion and report. Deterministic for
     * equal (config, workload, device config) triples. Throws when an
     * async session opened by submit_async is still unfinished. */
    ServeReport process(const std::vector<Request>& workload);

    /**
     * Async client edge: admit @p request (opening a session if none
     * is open) and return its completion handle. Requests must arrive
     * in nondecreasing arrival_us order — the event ledger cannot run
     * backwards. Pumps the engine to the request's arrival stamp, so
     * earlier requests whose virtual completion precedes it settle
     * (and fire their callbacks) during this call.
     */
    Handle submit_async(const Request& request);

    /** Drain the open async session to completion — every admitted
     * request settles — and return the report. Throws when no session
     * is open. */
    ServeReport finish();

    const ServeConfig& config() const { return config_; }

    /** The serving clock (virtual ledger or wall, per config). */
    support::Clock& clock() { return *clock_; }

    /** Counters of this server's product cache (all zero when
     * config().use_opcache is false). The cache is per-server — never
     * shared across servers — so differential runs of the same
     * workload see identical hit patterns (DESIGN.md §16). */
    support::OpCacheStats opcache_stats() const;

  private:
    ServeConfig config_;
    exec::Device& device_;
    mpapca::Ledger* fault_sink_;
    std::unique_ptr<support::Clock> owned_clock_;
    support::Clock* clock_;
    std::unique_ptr<support::OpCache> opcache_;
    std::unique_ptr<detail::Engine> engine_;
};

} // namespace camp::serve

#endif // CAMP_SERVE_SERVER_HPP
