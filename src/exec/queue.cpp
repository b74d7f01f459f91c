#include "exec/queue.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

bool
SubmitQueue::Future::ready() const
{
    CAMP_ASSERT(slot_ != nullptr);
    std::lock_guard<std::mutex> lock(state_->mutex);
    return slot_->ready;
}

void
SubmitQueue::Future::await(std::unique_lock<std::mutex>& lock)
{
    while (!slot_->ready) {
        // Somebody has to run the batch; on a serial host that
        // somebody is us. A claimed slot belongs to a flush someone
        // already begun — running another batch cannot resolve it, so
        // wait for the owner to publish. An unclaimed slot is still on
        // the fill side: flush it ourselves.
        if (slot_->claimed)
            state_->cv.wait(lock);
        else
            queue_->flush_locked(lock);
    }
    if (slot_->error != ErrorCode::Ok)
        throw_error(slot_->error, slot_->error_message);
}

const Natural&
SubmitQueue::Future::get()
{
    CAMP_ASSERT(slot_ != nullptr);
    std::unique_lock<std::mutex> lock(state_->mutex);
    await(lock);
    CAMP_ASSERT(!slot_->taken);
    return slot_->product;
}

Natural
SubmitQueue::Future::take()
{
    CAMP_ASSERT(slot_ != nullptr);
    std::unique_lock<std::mutex> lock(state_->mutex);
    await(lock);
    CAMP_ASSERT(!slot_->taken);
    slot_->taken = true;
    return std::move(slot_->product);
}

ErrorCode
SubmitQueue::Future::error() const
{
    CAMP_ASSERT(slot_ != nullptr);
    std::lock_guard<std::mutex> lock(state_->mutex);
    CAMP_ASSERT(slot_->ready);
    return slot_->error;
}

std::uint64_t
SubmitQueue::Future::injected() const
{
    CAMP_ASSERT(slot_ != nullptr);
    std::lock_guard<std::mutex> lock(state_->mutex);
    CAMP_ASSERT(slot_->ready);
    return slot_->injected;
}

bool
SubmitQueue::Future::faulty() const
{
    CAMP_ASSERT(slot_ != nullptr);
    std::lock_guard<std::mutex> lock(state_->mutex);
    CAMP_ASSERT(slot_->ready);
    return slot_->faulty;
}

SubmitQueue::Ticket::~Ticket()
{
    // A valid ticket owns a claimed wave whose futures only resolve
    // through run_flush; silently dropping it would strand waiters.
    CAMP_ASSERT(!valid_);
}

SubmitQueue::SubmitQueue(Device& device, std::size_t max_pending,
                         unsigned parallelism, unsigned inflight_waves)
    : device_(device), max_pending_(max_pending),
      parallelism_(parallelism), inflight_waves_(inflight_waves),
      state_(std::make_shared<State>())
{
    if (inflight_waves_ == 0)
        throw InvalidArgument("inflight_waves must be >= 1");
    // One buffer fills while up to inflight_waves execute.
    state_->buffers.reserve(inflight_waves_ + 1);
    for (unsigned i = 0; i < inflight_waves_ + 1; ++i)
        state_->buffers.push_back(std::make_unique<Buffer>());
    state_->fill = 0;
    // Descending ids so the first flush promotes buffer 1 to fill —
    // a steady one-wave-deep workload ping-pongs between 0/1 with
    // warm wave storage on both, exactly the PR-8 double buffer.
    state_->free_buffers.reserve(inflight_waves_);
    for (unsigned i = inflight_waves_; i > 0; --i)
        state_->free_buffers.push_back(i);
}

SubmitQueue::Future
SubmitQueue::submit(const Natural& a, const Natural& b)
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    // The one operand copy of the zero-copy path: into the fill-side
    // pooled wave, whose storage the whole dispatch chain then shares.
    state_->buffers[state_->fill]->wave.add(a, b);
    auto slot = std::make_shared<Slot>();
    state_->slots.push_back(slot);
    ++state_->stats.submitted;
    // Auto-flush at the watermark, but only when a ring slot is free
    // right now — submit must not block on backpressure.
    if (max_pending_ != 0 && state_->slots.size() >= max_pending_ &&
        !state_->free_buffers.empty())
        flush_locked(lock);
    return Future(this, state_, std::move(slot));
}

SubmitQueue::Ticket
SubmitQueue::begin_flush_locked(std::unique_lock<std::mutex>& lock)
{
    CAMP_ASSERT(lock.owns_lock());
    Ticket ticket;
    if (state_->slots.empty())
        return ticket;
    // Slot-id backpressure: no more than inflight_waves flushes may be
    // begun at once; the next begin waits for a published wave to
    // return its buffer to the ring.
    state_->cv.wait(lock,
                    [this] { return !state_->free_buffers.empty(); });
    if (state_->slots.empty())
        return ticket; // someone else claimed the set while we waited
    Buffer& claimed = *state_->buffers[state_->fill];
    claimed.slots.clear();
    claimed.slots.swap(state_->slots);
    for (const std::shared_ptr<Slot>& slot : claimed.slots)
        slot->claimed = true;
    CAMP_ASSERT(claimed.wave.size() == claimed.slots.size());
    ticket.buffer_ = state_->fill;
    ticket.count_ = claimed.slots.size();
    ticket.valid_ = true;
    state_->fill = state_->free_buffers.back();
    state_->free_buffers.pop_back();
    if (state_->flushing != 0)
        ++state_->stats.overlapped;
    ++state_->flushing;
    return ticket;
}

SubmitQueue::Ticket
SubmitQueue::begin_flush()
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    return begin_flush_locked(lock);
}

std::size_t
SubmitQueue::run_flush(Ticket ticket)
{
    if (!ticket.valid_)
        return 0;
    ticket.valid_ = false;
    Buffer& buffer = *state_->buffers[ticket.buffer_];
    WaveBuffer& wave = buffer.wave;
    std::vector<std::shared_ptr<Slot>>& slots = buffer.slots;

    // Run the coalesced batch outside the lock (the claimed buffer is
    // exclusively ours until published). A device throw must not
    // strand the waiters: the error is recorded on every slot of this
    // flush, category preserved, and each Future rethrows it typed
    // from get().
    std::vector<std::size_t>& items = buffer.items;
    std::vector<std::uint64_t>& indices = buffer.indices;
    items.resize(slots.size());
    indices.resize(slots.size());
    std::iota(items.begin(), items.end(), std::size_t{0});
    std::iota(indices.begin(), indices.end(), std::uint64_t{0});
    sim::BatchResult result;
    ErrorCode error = ErrorCode::Ok;
    std::string error_message;
    {
        support::trace::Span span("exec.queue.flush", "exec");
        span.arg("count", static_cast<double>(slots.size()));
        try {
            result = device_.mul_batch_wave(wave, items, indices,
                                            parallelism_);
        } catch (const std::exception& e) {
            error = error_code_of(e);
            error_message = e.what();
        }
    }

    // Per-wave metrics register once (support/metrics.hpp contract).
    namespace metrics = support::metrics;
    std::unique_lock<std::mutex> lock(state_->mutex);
    QueueStats& stats = state_->stats;
    if (error != ErrorCode::Ok) {
        for (const std::shared_ptr<Slot>& slot : slots) {
            slot->error = error;
            slot->error_message = error_message;
            slot->ready = true;
        }
        stats.failed += slots.size();
        static metrics::Counter& failed =
            metrics::counter("exec.queue.failed");
        failed.add(slots.size());
    } else {
        CAMP_ASSERT(result.per_product.size() == slots.size());
        for (std::size_t i = 0; i < slots.size(); ++i) {
            // Delivery edge: the product leaves the wave's lifetime
            // here.
            slots[i]->product = wave.take_result(i);
            slots[i]->injected = result.per_product[i].injected;
            slots[i]->faulty = result.per_product[i].faulty;
            slots[i]->ready = true;
        }
        stats.largest_batch =
            std::max<std::uint64_t>(stats.largest_batch, slots.size());
        stats.sim_cycles += result.cycles;
        stats.sim_tasks += result.tasks;
        stats.injected += result.injected;
        stats.faulty += result.faulty;
        static metrics::Counter& coalesced =
            metrics::counter("exec.queue.coalesced");
        static metrics::Gauge& batch_max =
            metrics::gauge("exec.queue.batch_max");
        coalesced.add(slots.size());
        batch_max.update_max(static_cast<std::int64_t>(slots.size()));
    }
    const std::size_t count = slots.size();
    ++stats.flushes;
    static metrics::Counter& flushes =
        metrics::counter("exec.queue.flushes");
    flushes.add();
    wave.reset();
    slots.clear();
    state_->free_buffers.push_back(ticket.buffer_);
    CAMP_ASSERT(state_->flushing > 0);
    --state_->flushing;
    state_->cv.notify_all();
    return count;
}

std::size_t
SubmitQueue::flush()
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    if (state_->slots.empty()) {
        // Nothing of ours to run, but earlier begun flushes may still
        // be executing; preserve the classic "flush() returns with the
        // device quiet" contract by waiting them out.
        state_->cv.wait(lock,
                        [this] { return state_->flushing == 0; });
        return 0;
    }
    return flush_locked(lock);
}

std::size_t
SubmitQueue::flush_locked(std::unique_lock<std::mutex>& lock)
{
    Ticket ticket = begin_flush_locked(lock);
    if (!ticket.valid())
        return 0;
    lock.unlock();
    const std::size_t count = run_flush(std::move(ticket));
    lock.lock();
    return count;
}

void
SubmitQueue::wait_all()
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    for (;;) {
        if (!state_->slots.empty()) {
            flush_locked(lock);
            continue;
        }
        if (state_->flushing != 0) {
            state_->cv.wait(lock, [this] {
                return state_->flushing == 0 ||
                       !state_->slots.empty();
            });
            continue;
        }
        return;
    }
}

std::size_t
SubmitQueue::pending() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->slots.size();
}

unsigned
SubmitQueue::inflight_flushes() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->flushing;
}

QueueStats
SubmitQueue::stats() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->stats;
}

} // namespace camp::exec
