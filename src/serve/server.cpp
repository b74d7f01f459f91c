#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exec/wave.hpp"
#include "mpn/mul.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace camp::serve {

using mpn::Natural;

namespace metrics = support::metrics;

const char*
request_status_name(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Completed: return "completed";
    case RequestStatus::ShedAdmission: return "shed-admission";
    case RequestStatus::ShedEvicted: return "shed-evicted";
    case RequestStatus::RejectedDeadline: return "rejected-deadline";
    case RequestStatus::TimedOut: return "timed-out";
    case RequestStatus::Failed: return "failed";
    }
    return "unknown";
}

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile of a sorted sample. */
std::uint64_t
percentile(const std::vector<std::uint64_t>& sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(
                                              1, rank)) -
                  1];
}

/** Trace span names live as long as the ring (pointers are stored,
 * never copied), so per-tenant settle spans need interned names. The
 * registry leaks by design — tenant cardinality is tiny. Called once
 * per tenant, when the engine first sees it (TenantState::settle_span),
 * never per settle. */
const char*
settle_span_name(const std::string& tenant)
{
    static std::mutex mutex;
    static auto* names = new std::unordered_map<
        std::string, std::unique_ptr<std::string>>();
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<std::string>& name = (*names)[tenant];
    if (name == nullptr)
        name = std::make_unique<std::string>("serve.settle." + tenant);
    return name->c_str();
}

} // namespace

const TenantReport*
ServeReport::tenant(const std::string& name) const
{
    for (const TenantReport& report : tenants)
        if (report.name == name)
            return &report;
    return nullptr;
}

namespace {

bool
counters_conserved(const TenantCounters& c)
{
    return c.submitted == c.admitted + c.shed_admission +
                              c.rejected_deadline &&
           c.admitted == c.completed + c.shed_evicted + c.timeouts +
                             c.failed;
}

} // namespace

bool
ServeReport::conserved() const
{
    if (!counters_conserved(totals))
        return false;
    for (const TenantReport& report : tenants)
        if (!counters_conserved(report.counters))
            return false;
    return true;
}

std::string
ServeReport::table() const
{
    Table table({"tenant", "prio", "submitted", "completed", "shed",
                 "timeout", "failed", "retries", "fallbacks", "p50 us",
                 "p99 us"});
    for (const TenantReport& report : tenants) {
        const TenantCounters& c = report.counters;
        table.add_row({report.name, priority_name(report.priority),
                       std::to_string(c.submitted),
                       std::to_string(c.completed),
                       std::to_string(c.shed_admission +
                                      c.shed_evicted),
                       std::to_string(c.timeouts +
                                      c.rejected_deadline),
                       std::to_string(c.failed),
                       std::to_string(c.retries),
                       std::to_string(c.fallbacks),
                       std::to_string(report.p50_us),
                       std::to_string(report.p99_us)});
    }
    std::ostringstream out;
    out << "== serving report ==\n"
        << table.to_string() << "waves: " << waves
        << ", virtual end: " << virtual_end_us << " us, conserved: "
        << (conserved() ? "yes" : "NO") << "\n";
    return out.str();
}

namespace detail {

/** Shared completion state behind one Server::Handle. */
struct HandleState
{
    std::mutex mutex;
    std::condition_variable cv;
    bool settled = false;
    /** Copied (product included) at settlement when the client still
     * holds the handle; left empty for a dropped one. */
    Outcome outcome;
    std::function<void(const Outcome&)> callback;
};

namespace {

/** One live request: the engine's own copy of it, held from admission
 * until it settles, then returned to the free list. A recycled slot
 * keeps its limb capacity. */
struct RequestSlot
{
    Request req;
    std::size_t index = 0; ///< arrival position in the report
    std::shared_ptr<HandleState> handle; ///< null: no handle asked for
};

/** One admitted request travelling through the server. */
struct Entry
{
    RequestSlot* slot = nullptr;
    std::size_t tenant = 0;          ///< tenant-state index
    std::uint64_t deadline_us = 0;   ///< effective (default applied)
    double cost_us = 1.0;            ///< device estimate
    unsigned attempts = 0;
    double ready_us = 0.0;           ///< earliest dispatch (retries)
    bool faulty_seen = false;
    bool from_cache = false; ///< product served by the opcache
    Natural cached_product;  ///< set when from_cache
    /** Product-cache key, built once at the first dispatch the cache
     * admits; empty material = not built. Moved into the cache on
     * insert. */
    support::OpKey cache_key;
};

/** Product-cache key for one request's operand pair. The leading
 * size(a) word makes (a, b) unambiguous in the flat material. */
support::OpKey
product_key(const Request& req)
{
    const std::vector<mpn::Limb>& a = req.a.limbs();
    const std::vector<mpn::Limb>& b = req.b.limbs();
    std::vector<std::uint64_t> material;
    material.reserve(a.size() + b.size() + 1);
    material.push_back(a.size());
    material.insert(material.end(), a.begin(), a.end());
    material.insert(material.end(), b.begin(), b.end());
    return support::make_key(support::OpTag::Product,
                             std::move(material));
}

/** Outcome of one entry's pass through the device. */
struct ExecResult
{
    Natural product;
    ErrorCode error = ErrorCode::Ok;
    bool faulty = false;
    std::uint64_t injected = 0;
};

struct TenantState
{
    std::string name;
    const char* settle_span = nullptr; ///< interned "serve.settle.<name>"
    Priority priority = Priority::Normal;
    TenantCounters counters;
    std::uint64_t retry_budget = 0;
    std::size_t queued = 0; ///< entries in the ready set
    std::vector<std::uint64_t> latencies_us;
};

/** Dispatch/eviction ordering: priority class first, then FIFO. The
 * triple is unique per request (ids are), so every ordering decision
 * is total — the determinism the shed-set contract rides on. */
struct EntryKey
{
    int priority;
    std::uint64_t arrival;
    std::uint64_t id;

    bool
    operator<(const EntryKey& other) const
    {
        if (priority != other.priority)
            return priority < other.priority;
        if (arrival != other.arrival)
            return arrival < other.arrival;
        return id < other.id;
    }
};

EntryKey
key_of(const Entry& entry)
{
    const Request& req = entry.slot->req;
    return {static_cast<int>(req.priority), req.arrival_us, req.id};
}

/** One wave from dispatch to its completion event. Pooled by the
 * engine: entries, results, the wave buffer and the run_wave scratch
 * keep their capacity from wave to wave. */
struct Wave
{
    std::vector<Entry> entries;
    std::vector<ExecResult> results; ///< filled by harvest()
    exec::WaveBuffer buffer; ///< the cache misses' operands and products
    std::vector<std::size_t> items;
    std::vector<std::uint64_t> indices;
    exec::WaveRun run;  ///< the device call's outcome
    std::thread worker; ///< a wall wave outliving its pump
    double completion_us = 0.0;
    std::uint64_t injected = 0;
};

/** Process-wide serve.live_requests gauge (requests admitted to some
 * engine and not yet settled) and its high-water mark. Gauge has no
 * add(), so a count under a mutex feeds it; that keeps the gauge exact
 * when several engines run on different threads. */
void
add_live_requests(std::int64_t delta)
{
    static std::mutex mutex;
    static std::int64_t live = 0;
    static metrics::Gauge& gauge = metrics::gauge("serve.live_requests");
    static metrics::Gauge& high_water =
        metrics::gauge("serve.live_requests.high_water");
    std::lock_guard<std::mutex> lock(mutex);
    live += delta;
    gauge.set(live);
    high_water.update_max(live);
}

} // namespace

/**
 * The one decision engine behind both Server::process and
 * Server::submit_async, and the single owner of every live request
 * (its RequestSlot) and of every wave in flight (its pooled Wave). All
 * state mutation happens on the caller's thread (arrive/pump/finish
 * are never called concurrently); the only cross-thread traffic is a
 * wall-mode wave's worker, which touches nothing but its own Wave and
 * the device until complete_wave joins it, and Handle waiters on their
 * own HandleState mutexes.
 *
 * Incremental pumping reproduces the classic batch event loop exactly:
 * pump_to(T) processes every completion/retry event at times <= T and
 * dispatches only at times strictly before T — because arrivals at T
 * itself may still be coming (burst clumps land many requests on one
 * stamp), and the batch loop admits every arrival at an instant before
 * it dispatches at that instant. finish() pumps with T = infinity.
 */
class Engine
{
  public:
    Engine(const ServeConfig& config, exec::Device& device,
           mpapca::Ledger* fault_sink, support::Clock& clock,
           support::OpCache* opcache)
        : config_(config), device_(device), fault_sink_(fault_sink),
          clock_(clock), opcache_(opcache),
          cap_bits_(device.base_cap_bits()),
          host_device_(device.kind() == exec::DeviceKind::Host),
          karatsuba_limbs_(mpn::mul_tuning().karatsuba)
    {
    }

    ~Engine()
    {
        // Abandoned session: waves may still be executing; join them
        // so no worker outlives the Wave it writes into.
        for (Wave* wave : inflight_)
            if (wave->worker.joinable())
                wave->worker.join();
        add_live_requests(-static_cast<std::int64_t>(
            slots_.size() - free_slots_.size()));
    }

    std::shared_ptr<HandleState>
    arrive(const Request& request, bool want_handle)
    {
        if (request.arrival_us < last_arrival_us_)
            throw InvalidArgument(
                "requests must be submitted in nondecreasing "
                "arrival_us order");
        last_arrival_us_ = request.arrival_us;
        pump_to(static_cast<double>(request.arrival_us));
        vnow_ = std::max(vnow_,
                         static_cast<double>(request.arrival_us));
        RequestSlot& slot = take_slot(request);
        slot.index = report_.outcomes.size();
        report_.outcomes.emplace_back();
        // The local reference keeps a handle settled by admission
        // below counted as held, so it gets its own outcome copy.
        std::shared_ptr<HandleState> handle;
        if (want_handle) {
            handle = std::make_shared<HandleState>();
            slot.handle = handle;
        }
        admit(slot);
        return handle;
    }

    ServeReport finish()
    {
        pump_to(kInfinity);
        CAMP_ASSERT(ready_.empty() && inflight_.empty());
        return assemble_report();
    }

  private:
    /** Copy @p request into a free slot (the request's one copy while
     * it is live). */
    RequestSlot&
    take_slot(const Request& request)
    {
        RequestSlot* slot;
        if (free_slots_.empty()) {
            slots_.emplace_back();
            slot = &slots_.back();
        } else {
            slot = free_slots_.back();
            free_slots_.pop_back();
        }
        slot->req = request;
        add_live_requests(1);
        return *slot;
    }

    /** The request settled: hand its outcome to a handle, then recycle
     * the slot. */
    void
    release_slot(RequestSlot& slot)
    {
        std::shared_ptr<HandleState> handle = std::move(slot.handle);
        const std::size_t index = slot.index;
        free_slots_.push_back(&slot);
        add_live_requests(-1);
        if (handle == nullptr)
            return;
        const Outcome& outcome = report_.outcomes[index];
        // Only the engine's reference left: the client dropped the
        // handle, and nobody can copy it again. Such a handle costs no
        // outcome copy; its callback reads the report's outcome.
        const bool held = handle.use_count() > 1;
        std::function<void(const Outcome&)> callback;
        {
            std::lock_guard<std::mutex> lock(handle->mutex);
            if (held)
                handle->outcome = outcome; // deep copy, product included
            handle->settled = true;
            callback = std::move(handle->callback);
            handle->callback = nullptr;
        }
        handle->cv.notify_all();
        if (callback)
            callback(outcome);
    }

    double
    cost_estimate(const Request& req) const
    {
        const double seconds =
            device_
                .cost(std::max<std::uint64_t>(1, req.a.bits()),
                      std::max<std::uint64_t>(1, req.b.bits()))
                .seconds;
        return std::max(1.0, seconds * 1e6);
    }

    std::size_t
    tenant_of(const Request& req)
    {
        // Look up first: a known tenant costs no map-node allocation.
        const auto it = tenant_index_.find(req.tenant);
        if (it != tenant_index_.end())
            return it->second;
        TenantState state;
        state.name = req.tenant;
        state.settle_span = settle_span_name(req.tenant);
        state.priority = req.priority;
        state.retry_budget = config_.limits.retry_budget;
        tenant_index_.emplace(req.tenant, tenants_.size());
        tenants_.push_back(std::move(state));
        return tenants_.size() - 1;
    }

    /** Product-cache admission (DESIGN.md §16). On a host device a
     * product below Karatsuba size costs less than a cache round trip
     * (key build, hash, full-material compare, checksum, insert), so
     * only requests whose smaller operand reaches the Karatsuba
     * threshold use the cache. Simulated and modelled devices cache
     * every product: theirs stand for accelerator work. */
    bool
    cache_admits(const Request& req) const
    {
        return !host_device_ ||
               std::min(req.a.size(), req.b.size()) >= karatsuba_limbs_;
    }

    void
    settle(const Entry& entry, RequestStatus status, ErrorCode error,
           double when, Natural product = Natural(),
           bool fallback = false,
           support::Clock::duration retry_after =
               support::Clock::duration{0})
    {
        const std::uint64_t when_us = static_cast<std::uint64_t>(when);
        const Request& req = entry.slot->req;
        // The serving clock follows the settlement ledger: a virtual
        // clock is steered to the settle stamp (settles are
        // time-ordered, so now_us == when_us and the skew is
        // identically zero); a wall clock ignores the steer and
        // reports real elapsed time.
        clock_.advance_to_us(when_us);
        const std::uint64_t wall_us = clock_.now_us();

        Outcome& outcome = report_.outcomes[entry.slot->index];
        outcome.id = req.id;
        outcome.status = status;
        outcome.error = error;
        outcome.retry_after = retry_after;
        outcome.attempts = entry.attempts;
        outcome.fallback = fallback;
        outcome.faulty_seen = entry.faulty_seen;
        outcome.wall_completion_us = wall_us;
        outcome.skew_us = static_cast<std::int64_t>(wall_us) -
                          static_cast<std::int64_t>(when_us);
        virtual_end_ = std::max(virtual_end_, when);
        TenantState& tenant = tenants_[entry.tenant];
        TenantCounters& c = tenant.counters;
        switch (status) {
        case RequestStatus::Completed: {
            const std::uint64_t latency = when_us - req.arrival_us;
            outcome.latency_us = latency;
            outcome.product = std::move(product);
            tenant.latencies_us.push_back(latency);
            ++c.completed;
            // Wall reconciliation: virtually on time, but the wall
            // stamp missed the deadline — the pipeline's honesty
            // metric. Never set on a virtual clock (wall_us ==
            // when_us <= deadline there).
            if (entry.deadline_us != 0 && wall_us > entry.deadline_us)
                ++c.wall_late;
            break;
        }
        case RequestStatus::ShedAdmission:
            ++c.shed_admission;
            report_.shed_ids.push_back(req.id);
            break;
        case RequestStatus::ShedEvicted:
            ++c.shed_evicted;
            report_.shed_ids.push_back(req.id);
            break;
        case RequestStatus::RejectedDeadline:
            ++c.rejected_deadline;
            report_.timeout_ids.push_back(req.id);
            break;
        case RequestStatus::TimedOut:
            ++c.timeouts;
            report_.timeout_ids.push_back(req.id);
            break;
        case RequestStatus::Failed:
            ++c.failed;
            break;
        }
        // Counts CPU products *computed*, not just delivered — a
        // fallback that lands past its deadline still did the work, and
        // the ledger fold (which sees every fallback) must agree with
        // the report exactly.
        if (fallback)
            ++c.fallbacks;

        {
            support::trace::Span span(tenant.settle_span, "serve");
            span.arg("status",
                     static_cast<double>(static_cast<int>(status)));
            span.arg("skew_us",
                     static_cast<double>(outcome.skew_us));
        }

        release_slot(*entry.slot);
    }

    /** Backlog-drain hint for Unavailable outcomes. */
    support::Clock::duration
    retry_after_hint() const
    {
        double wait = queued_cost_us_;
        // device_free_us_ is the dispatch pipeline's tail: the virtual
        // stamp the last dispatched wave completes at.
        if (device_free_us_ > vnow_)
            wait += device_free_us_ - vnow_;
        return support::Clock::duration(std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(wait)));
    }

    // --- admission -------------------------------------------------
    void
    admit(RequestSlot& slot)
    {
        const Request& req = slot.req;
        const std::size_t t = tenant_of(req);
        TenantState& tenant = tenants_[t];
        ++tenant.counters.submitted;

        Entry entry;
        entry.slot = &slot;
        entry.tenant = t;
        entry.cost_us = cost_estimate(req);
        entry.deadline_us = req.deadline_us;
        if (entry.deadline_us == 0 &&
            config_.default_deadline.count() != 0)
            entry.deadline_us =
                req.arrival_us + static_cast<std::uint64_t>(
                                     config_.default_deadline.count());

        // Deadline feasibility: a request that cannot finish by its
        // deadline even on an idle device is refused outright — never
        // silently computed.
        if (entry.deadline_us != 0 &&
            (static_cast<double>(req.arrival_us) + entry.cost_us >
             static_cast<double>(entry.deadline_us))) {
            settle(entry, RequestStatus::RejectedDeadline,
                   ErrorCode::DeadlineExceeded, vnow_);
            return;
        }

        // Bounded per-tenant queue.
        if (tenant.queued >= config_.limits.max_queue_depth) {
            settle(entry, RequestStatus::ShedAdmission,
                   ErrorCode::Unavailable, vnow_, Natural(), false,
                   retry_after_hint());
            return;
        }

        // Global backlog bound: over the limit, evict strictly
        // lower-priority queued work first (worst class, youngest
        // arrival); if no such victim frees enough room, shed the
        // arrival itself.
        while (queued_cost_us_ + entry.cost_us >
               config_.max_backlog_us) {
            std::size_t victim = ready_.size();
            for (std::size_t i = 0; i < ready_.size(); ++i) {
                if (key_of(ready_[i]).priority <=
                    static_cast<int>(req.priority))
                    continue; // only strictly lower classes evict
                if (victim == ready_.size() ||
                    key_of(ready_[victim]) < key_of(ready_[i]))
                    victim = i;
            }
            if (victim == ready_.size())
                break;
            Entry evicted = std::move(ready_[victim]);
            ready_.erase(ready_.begin() +
                         static_cast<std::ptrdiff_t>(victim));
            queued_cost_us_ -= evicted.cost_us;
            --tenants_[evicted.tenant].queued;
            settle(evicted, RequestStatus::ShedEvicted,
                   ErrorCode::Unavailable, vnow_, Natural(), false,
                   retry_after_hint());
        }
        if (queued_cost_us_ + entry.cost_us > config_.max_backlog_us) {
            settle(entry, RequestStatus::ShedAdmission,
                   ErrorCode::Unavailable, vnow_, Natural(), false,
                   retry_after_hint());
            return;
        }

        ++tenant.counters.admitted;
        ++tenant.queued;
        queued_cost_us_ += entry.cost_us;
        ready_.push_back(std::move(entry));
    }

    // --- retry / fallback ------------------------------------------
    void
    complete_exact(Entry& entry, Natural product, double when,
                   bool fallback)
    {
        if (entry.deadline_us != 0 &&
            when > static_cast<double>(entry.deadline_us)) {
            // Cooperative cancellation: the product exists but arrived
            // late; the client sees a timeout, never a stale answer.
            settle(entry, RequestStatus::TimedOut,
                   ErrorCode::DeadlineExceeded, when, Natural(),
                   fallback);
            return;
        }
        settle(entry, RequestStatus::Completed, ErrorCode::Ok, when,
               std::move(product), fallback);
    }

    void
    cpu_fallback(Entry& entry, double when)
    {
        ++wave_fallbacks_;
        complete_exact(entry, entry.slot->req.a * entry.slot->req.b,
                       when, /*fallback=*/true);
    }

    void
    retry_or_fallback(Entry& entry, double when)
    {
        TenantState& tenant = tenants_[entry.tenant];
        if (entry.attempts < config_.max_attempts &&
            tenant.retry_budget > 0) {
            const support::Clock::duration backoff =
                config_.backoff_base *
                static_cast<std::int64_t>(
                    1ull << (entry.attempts - 1));
            const double ready_at =
                when + static_cast<double>(backoff.count());
            if (entry.deadline_us == 0 ||
                ready_at < static_cast<double>(entry.deadline_us)) {
                --tenant.retry_budget;
                ++tenant.counters.retries;
                ++wave_retries_;
                entry.ready_us = ready_at;
                ++tenant.queued;
                queued_cost_us_ += entry.cost_us;
                ready_.push_back(std::move(entry));
                return;
            }
            // A backoff that outlives the deadline is pointless;
            // serve the exact product now instead.
        }
        cpu_fallback(entry, when);
    }

    // --- dispatch --------------------------------------------------
    bool
    dispatchable() const
    {
        if (inflight_.size() >= config_.max_inflight_waves)
            return false;
        for (const Entry& entry : ready_)
            if (entry.ready_us <= vnow_)
                return true;
        return false;
    }

    /** Form and launch one wave at vnow_. @p target is the running
     * pump's horizon: a wall-mode wave whose modelled completion lies
     * at or before it is joined inside this pump anyway, so it runs
     * inline; only a wave that outlives the pump gets a worker. */
    void
    dispatch(double target)
    {
        // Select up to wave_size dispatchable entries in key order.
        picked_.clear();
        while (picked_.size() < config_.wave_size) {
            std::size_t best = ready_.size();
            for (std::size_t i = 0; i < ready_.size(); ++i) {
                if (ready_[i].ready_us > vnow_)
                    continue;
                if (std::find(picked_.begin(), picked_.end(), i) !=
                    picked_.end())
                    continue;
                if (best == ready_.size() ||
                    key_of(ready_[i]) < key_of(ready_[best]))
                    best = i;
            }
            if (best == ready_.size())
                break;
            picked_.push_back(best);
        }
        CAMP_ASSERT(!picked_.empty());
        std::sort(picked_.begin(), picked_.end());
        Wave& wave = acquire_wave();
        for (auto it = picked_.rbegin(); it != picked_.rend(); ++it) {
            wave.entries.push_back(std::move(ready_[*it]));
            ready_.erase(ready_.begin() +
                         static_cast<std::ptrdiff_t>(*it));
        }
        std::reverse(wave.entries.begin(), wave.entries.end());
        std::sort(wave.entries.begin(), wave.entries.end(),
                  [](const Entry& a, const Entry& b) {
                      return key_of(a) < key_of(b);
                  });

        // Entries that survive the gates are compacted to the front of
        // wave.entries in place.
        double wave_cost = 0.0;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < wave.entries.size(); ++i) {
            Entry& entry = wave.entries[i];
            const Request& req = entry.slot->req;
            --tenants_[entry.tenant].queued;
            queued_cost_us_ -= entry.cost_us;
            // Deadline gate at dispatch: expired work is dropped, not
            // computed.
            if (entry.deadline_us != 0 &&
                static_cast<double>(entry.deadline_us) <= vnow_) {
                settle(entry, RequestStatus::TimedOut,
                       ErrorCode::DeadlineExceeded, vnow_);
                continue;
            }
            // Capability gate: an oversized operand would poison the
            // whole coalesced batch with InvalidArgument; fail it
            // individually instead.
            if (cap_bits_ != 0 &&
                (req.a.bits() > cap_bits_ || req.b.bits() > cap_bits_)) {
                settle(entry, RequestStatus::Failed,
                       ErrorCode::InvalidArgument, vnow_);
                continue;
            }
            ++entry.attempts;
            wave_cost += entry.cost_us;
            // Product-cache lookup, on the engine thread in virtual
            // event order — the hit pattern is a pure function of the
            // dispatch sequence, identical across threads/shards/wall
            // vs virtual (the differential-oracle contract). A hit
            // keeps its model cost in wave_cost, so the virtual
            // timeline — and with it every shed/deadline decision —
            // is byte-identical with the cache off. The key is built
            // once and kept in the entry for the insert at completion.
            if (opcache_ != nullptr && cache_admits(req)) {
                if (entry.cache_key.material.empty())
                    entry.cache_key = product_key(req);
                if (const auto hit = opcache_->lookup(entry.cache_key)) {
                    entry.from_cache = true;
                    // Copy-on-return: cached limbs stay immutable.
                    entry.cached_product =
                        Natural::from_limbs(hit->parts[0]);
                }
            }
            if (kept != i)
                wave.entries[kept] = std::move(entry);
            ++kept;
        }
        wave.entries.erase(wave.entries.begin() +
                               static_cast<std::ptrdiff_t>(kept),
                           wave.entries.end());
        if (wave.entries.empty()) {
            release_wave(wave);
            return; // everything expired; no device work
        }

        support::trace::Span span("serve.wave", "serve");
        span.arg("count", static_cast<double>(wave.entries.size()));
        span.arg("cost_us", wave_cost);

        // Real execution: the misses' operands are copied into the
        // wave's own buffer, item k = the k-th miss in entry order, and
        // that order is also each product's fault-seed index. Cache
        // hits skip the device entirely.
        for (const Entry& entry : wave.entries)
            if (!entry.from_cache)
                wave.buffer.add(entry.slot->req.a, entry.slot->req.b);
        // Pipelined service: the device starts this wave when it
        // finishes the previous one (in-order pipeline); with
        // max_inflight_waves == 1 this is exactly vnow + cost.
        wave.completion_us = std::max(vnow_, device_free_us_) +
                             std::max(1.0, wave_cost);
        if (wave.buffer.size() == 0) {
            // Every entry hit the cache: nothing to run, and the
            // results can be materialized immediately in either mode.
            harvest(wave);
        } else if (config_.wall_clock && wave.completion_us > target) {
            // Wall mode, and the wave outlives this pump: execute it
            // on its own worker, overlapping the client; results are
            // harvested at the wave's virtual completion event.
            static metrics::Counter& async_waves =
                metrics::counter("serve.waves.async");
            async_waves.add();
            wave.worker = std::thread([this, &wave] { run(wave); });
        } else {
            // Virtual mode, or a wall wave this pump reaches the
            // completion of (and would join before returning): run it
            // inline; harvest now and hold the results until the
            // completion event.
            run(wave);
            harvest(wave);
        }
        device_free_us_ = wave.completion_us;
        ++report_.waves;
        static metrics::Counter& waves = metrics::counter("serve.waves");
        waves.add();
        inflight_.push_back(&wave);
    }

    /** A pooled wave, empty. At most max_inflight_waves exist: one is
     * taken only when fewer than that are in flight. */
    Wave&
    acquire_wave()
    {
        if (free_waves_.empty()) {
            waves_.push_back(std::make_unique<Wave>());
            return *waves_.back();
        }
        Wave& wave = *free_waves_.back();
        free_waves_.pop_back();
        return wave;
    }

    void
    release_wave(Wave& wave)
    {
        wave.entries.clear();
        wave.injected = 0;
        free_waves_.push_back(&wave);
    }

    /** The wave's device call, on whichever thread runs the wave;
     * run_wave turns a device throw into the typed error that
     * harvest() hands to every product of the wave. */
    void
    run(Wave& wave)
    {
        wave.run = exec::run_wave(device_, wave.buffer, wave.items,
                                  wave.indices, 0, "serve.wave.device");
    }

    /** Resolve the wave into results: cache hits materialize from the
     * entry's cached product, misses take their product out of the
     * wave buffer in item order (or the wave's typed error). The
     * buffer is then free for the next wave. */
    void
    harvest(Wave& wave)
    {
        wave.results.clear();
        wave.results.resize(wave.entries.size());
        std::size_t item = 0;
        for (std::size_t i = 0; i < wave.entries.size(); ++i) {
            ExecResult& res = wave.results[i];
            if (wave.entries[i].from_cache) {
                // Verified cache hit: exact product, never faulty,
                // nothing injected — the device never saw it.
                res.product =
                    std::move(wave.entries[i].cached_product);
                continue;
            }
            res.error = wave.run.error;
            if (res.error == ErrorCode::Ok) {
                const sim::BatchProductStats& stats =
                    wave.run.result.per_product[item];
                // Delivery edge: the product leaves the wave's
                // lifetime here.
                res.product = wave.buffer.take_result(item);
                res.faulty = stats.faulty;
                res.injected = stats.injected;
                wave.injected += res.injected;
            }
            ++item;
        }
        CAMP_ASSERT(item == wave.buffer.size());
        wave.buffer.reset();
    }

    // --- wave completion -------------------------------------------
    void
    complete_wave()
    {
        Wave& wave = *inflight_.front();
        inflight_.erase(inflight_.begin());
        if (wave.worker.joinable()) {
            // A wall wave that outlived its pump: the join is the
            // synchronization edge — after it, the worker's products
            // and its run outcome are ours to read.
            wave.worker.join();
            harvest(wave);
        }
        wave_retries_ = 0;
        wave_fallbacks_ = 0;
        std::uint64_t wave_faulty = 0;
        const double when = wave.completion_us;
        for (std::size_t i = 0; i < wave.entries.size(); ++i) {
            Entry& entry = wave.entries[i];
            ExecResult& res = wave.results[i];
            if (res.error != ErrorCode::Ok) {
                if (error_retryable(res.error))
                    retry_or_fallback(entry, when);
                else
                    settle(entry, RequestStatus::Failed, res.error,
                           when);
                continue;
            }
            if (res.faulty) {
                ++wave_faulty;
                entry.faulty_seen = true;
                ++tenants_[entry.tenant].counters.faulty_results;
                if (config_.retry_on_faulty) {
                    retry_or_fallback(entry, when);
                    continue;
                }
            }
            // Populate the product cache from clean device results
            // only — a flagged-faulty product must never be served to
            // a later repeat, and hits need no re-insert (lookup
            // already refreshed their LRU position). Only entries the
            // cache admitted at dispatch carry a key.
            if (!entry.cache_key.material.empty() && !entry.from_cache &&
                !res.faulty) {
                support::OpValue value;
                value.parts.push_back(res.product.limbs());
                opcache_->insert(std::move(entry.cache_key),
                                 std::move(value));
            }
            complete_exact(entry, std::move(res.product), when,
                           /*fallback=*/false);
        }
        if (fault_sink_ != nullptr) {
            mpapca::FaultStats delta;
            delta.injected = wave.injected;
            // Every result is validated: device products by the exec
            // plane's fault check, cache hits by the opcache's
            // checksum + full operand compare — so the ledger keeps
            // the checks == attempts conservation identity.
            delta.checks = wave.results.size();
            delta.detected = wave_faulty;
            delta.retried = wave_retries_;
            delta.fallbacks = wave_fallbacks_;
            fault_sink_->fold_fault_stats(delta);
        }
        release_wave(wave);
    }

    // --- the virtual-time event loop -------------------------------
    /**
     * Advance the engine through every event strictly inside
     * (vnow, target]: complete due waves, dispatch at instants before
     * @p target (arrivals at target itself may still be coming — the
     * caller admits, then a later pump dispatches). Leaves
     * vnow_ <= target; the caller raises vnow_ to the arrival stamp.
     */
    void
    pump_to(double target)
    {
        for (;;) {
            if (vnow_ < target && dispatchable()) {
                dispatch(target);
                continue;
            }
            double t_next = kInfinity;
            if (!inflight_.empty())
                t_next = inflight_.front()->completion_us;
            // Only *future* retry wakeups are events; an entry already
            // ready (ready_us <= vnow_) is the dispatch gate's job and
            // must not pin t_next to a past stamp.
            if (inflight_.size() < config_.max_inflight_waves)
                for (const Entry& entry : ready_)
                    if (entry.ready_us > vnow_ &&
                        entry.ready_us < target)
                        t_next = std::min(t_next, entry.ready_us);
            if (t_next == kInfinity || t_next > target)
                break;
            vnow_ = std::max(vnow_, t_next);
            while (!inflight_.empty() &&
                   inflight_.front()->completion_us <= vnow_)
                complete_wave();
        }
    }

    // --- report assembly -------------------------------------------
    ServeReport
    assemble_report()
    {
        ServeReport report = std::move(report_);
        report_ = ServeReport();
        report.virtual_end_us =
            static_cast<std::uint64_t>(virtual_end_);
        report.wall_end_us = clock_.now_us();
        std::sort(report.shed_ids.begin(), report.shed_ids.end());
        std::sort(report.timeout_ids.begin(),
                  report.timeout_ids.end());
        for (TenantState& tenant : tenants_) {
            TenantReport tenant_report;
            tenant_report.name = tenant.name;
            tenant_report.priority = tenant.priority;
            tenant_report.counters = tenant.counters;
            std::sort(tenant.latencies_us.begin(),
                      tenant.latencies_us.end());
            tenant_report.latencies_us =
                std::move(tenant.latencies_us);
            tenant_report.p50_us =
                percentile(tenant_report.latencies_us, 0.50);
            tenant_report.p95_us =
                percentile(tenant_report.latencies_us, 0.95);
            tenant_report.p99_us =
                percentile(tenant_report.latencies_us, 0.99);

            const TenantCounters& c = tenant_report.counters;
            const std::string prefix =
                "serve.tenant." + tenant.name + ".";
            metrics::counter(prefix + "submitted").add(c.submitted);
            metrics::counter(prefix + "admitted").add(c.admitted);
            metrics::counter(prefix + "completed").add(c.completed);
            metrics::counter(prefix + "shed")
                .add(c.shed_admission + c.shed_evicted);
            metrics::counter(prefix + "timeouts")
                .add(c.timeouts + c.rejected_deadline);
            metrics::counter(prefix + "failed").add(c.failed);
            metrics::counter(prefix + "retries").add(c.retries);
            metrics::counter(prefix + "fallbacks").add(c.fallbacks);
            metrics::counter(prefix + "wall_late").add(c.wall_late);
            metrics::Histogram& latency =
                metrics::histogram(prefix + "latency_us");
            for (const std::uint64_t sample :
                 tenant_report.latencies_us)
                latency.record(sample);

            report.totals.submitted += c.submitted;
            report.totals.admitted += c.admitted;
            report.totals.completed += c.completed;
            report.totals.shed_admission += c.shed_admission;
            report.totals.shed_evicted += c.shed_evicted;
            report.totals.rejected_deadline += c.rejected_deadline;
            report.totals.timeouts += c.timeouts;
            report.totals.failed += c.failed;
            report.totals.retries += c.retries;
            report.totals.fallbacks += c.fallbacks;
            report.totals.faulty_results += c.faulty_results;
            report.totals.wall_late += c.wall_late;
            report.tenants.push_back(std::move(tenant_report));
        }
        return report;
    }

    const ServeConfig& config_;
    exec::Device& device_;
    mpapca::Ledger* fault_sink_;
    support::Clock& clock_;
    support::OpCache* opcache_; ///< per-server; nullptr = disabled
    std::uint64_t cap_bits_;
    bool host_device_;            ///< device_.kind() == Host
    std::size_t karatsuba_limbs_; ///< cache admission floor on a host

    /** Live-request storage: entries point into this deque (stable
     * addresses), and settled slots wait in free_slots_ for reuse, so
     * it holds the session's peak of live requests, not its total. */
    std::deque<RequestSlot> slots_;
    std::vector<RequestSlot*> free_slots_;
    ServeReport report_;

    std::vector<TenantState> tenants_;
    std::unordered_map<std::string, std::size_t> tenant_index_;
    std::vector<Entry> ready_;
    /** dispatch()'s selection; engine-owned so its capacity recycles
     * wave over wave. */
    std::vector<std::size_t> picked_;
    /** The wave pool (stable addresses: a worker holds its Wave) and
     * the waves in flight, in completion order. */
    std::vector<std::unique_ptr<Wave>> waves_;
    std::vector<Wave*> free_waves_;
    std::vector<Wave*> inflight_;
    double queued_cost_us_ = 0.0;
    double device_free_us_ = 0.0; ///< in-order pipeline tail
    double vnow_ = 0.0;
    double virtual_end_ = 0.0;
    std::uint64_t last_arrival_us_ = 0;
    std::uint64_t wave_retries_ = 0;
    std::uint64_t wave_fallbacks_ = 0;
};

} // namespace detail

bool
Server::Handle::settled() const
{
    CAMP_ASSERT(state_ != nullptr);
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->settled;
}

void
Server::Handle::wait() const
{
    CAMP_ASSERT(state_ != nullptr);
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [this] { return state_->settled; });
}

const Outcome&
Server::Handle::outcome() const
{
    wait();
    return state_->outcome;
}

void
Server::Handle::on_settle(std::function<void(const Outcome&)> callback)
{
    CAMP_ASSERT(state_ != nullptr);
    std::unique_lock<std::mutex> lock(state_->mutex);
    if (state_->settled) {
        lock.unlock();
        if (callback)
            callback(state_->outcome);
        return;
    }
    state_->callback = std::move(callback);
}

Server::Server(ServeConfig config, exec::Device& device,
               mpapca::Ledger* fault_sink, support::Clock* clock)
    : config_(std::move(config)), device_(device),
      fault_sink_(fault_sink)
{
    if (config_.wave_size == 0)
        throw InvalidArgument("wave_size must be >= 1");
    if (config_.max_attempts == 0)
        throw InvalidArgument("max_attempts must be >= 1");
    if (!(config_.max_backlog_us > 0.0))
        throw InvalidArgument("max_backlog_us must be positive");
    if (config_.limits.max_queue_depth == 0)
        throw InvalidArgument("max_queue_depth must be >= 1");
    if (config_.backoff_base.count() <= 0)
        throw InvalidArgument("backoff_base must be >= 1us");
    if (config_.max_inflight_waves == 0)
        throw InvalidArgument("max_inflight_waves must be >= 1");
    if (clock != nullptr) {
        clock_ = clock;
    } else {
        if (config_.wall_clock)
            owned_clock_ = std::make_unique<support::WallClock>();
        else
            owned_clock_ = std::make_unique<support::VirtualClock>();
        clock_ = owned_clock_.get();
    }
    if (config_.use_opcache)
        // Per-server product cache: each server starts cold, so two
        // servers fed the same workload observe the same hit pattern
        // — the property every differential test relies on.
        opcache_ = std::make_unique<support::OpCache>(
            support::OpCache::env_max_bytes(), true, 8,
            "opcache.serve");
}

Server::~Server() = default;

ServeReport
Server::process(const std::vector<Request>& workload)
{
    if (engine_ != nullptr)
        throw InvalidArgument(
            "process() while an async session is open; finish() it "
            "first");
    support::trace::Span process_span("serve.process", "serve");
    process_span.arg("requests",
                     static_cast<double>(workload.size()));

    // Arrival order is the event order; require it sorted so virtual
    // time never runs backwards.
    for (std::size_t i = 1; i < workload.size(); ++i)
        if (workload[i].arrival_us < workload[i - 1].arrival_us)
            throw InvalidArgument(
                "workload must be sorted by arrival time");

    detail::Engine engine(config_, device_, fault_sink_, *clock_,
                          opcache_.get());
    for (const Request& request : workload)
        engine.arrive(request, /*want_handle=*/false);
    return engine.finish();
}

Server::Handle
Server::submit_async(const Request& request)
{
    if (engine_ == nullptr)
        engine_ = std::make_unique<detail::Engine>(
            config_, device_, fault_sink_, *clock_, opcache_.get());
    return Handle(engine_->arrive(request, /*want_handle=*/true));
}

support::OpCacheStats
Server::opcache_stats() const
{
    if (opcache_ == nullptr)
        return support::OpCacheStats{};
    return opcache_->stats();
}

ServeReport
Server::finish()
{
    if (engine_ == nullptr)
        throw InvalidArgument(
            "finish() without an open async session");
    ServeReport report = engine_->finish();
    engine_.reset();
    return report;
}

} // namespace camp::serve
