#include "exec/queue.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/metrics.hpp"

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
        // somebody is us. While a flush runs, this slot may be in it:
        // wait for it to publish, then look again. With no flush
        // running, an unready slot is on the fill side: flush it.
        if (state_->flushing)
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

SubmitQueue::SubmitQueue(Device& device, std::size_t max_pending,
                         unsigned parallelism)
    : device_(device), max_pending_(max_pending),
      parallelism_(parallelism), state_(std::make_shared<State>())
{
}

SubmitQueue::Future
SubmitQueue::submit(const Natural& a, const Natural& b)
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    // The one operand copy of the zero-copy path: into the fill-side
    // pooled wave, whose storage the whole dispatch chain then shares.
    state_->waves[state_->fill].add(a, b);
    auto slot = std::make_shared<Slot>();
    state_->slots.push_back(slot);
    ++state_->stats.submitted;
    // Auto-flush at the watermark, but only when no flush is running
    // right now: submit must not wait for one.
    if (max_pending_ != 0 && state_->slots.size() >= max_pending_ &&
        !state_->flushing)
        flush_locked(lock);
    return Future(this, state_, std::move(slot));
}

std::size_t
SubmitQueue::flush_locked(std::unique_lock<std::mutex>& lock)
{
    CAMP_ASSERT(lock.owns_lock());
    State& state = *state_;
    state.cv.wait(lock, [&state] { return !state.flushing; });
    if (state.slots.empty())
        return 0; // someone else flushed the set while we waited
    WaveBuffer& wave = state.waves[state.fill];
    CAMP_ASSERT(wave.size() == state.slots.size());
    state.fill ^= 1u;
    state.flushing_slots.swap(state.slots);
    state.flushing = true;
    std::vector<std::shared_ptr<Slot>>& slots = state.flushing_slots;

    // Run the coalesced batch outside the lock (the flushing side is
    // exclusively ours until published). A device throw must not
    // strand the waiters: run_wave records it, category preserved, and
    // every Future of this flush rethrows it typed from get().
    lock.unlock();
    WaveRun run = run_wave(device_, wave, state.items, state.indices,
                           parallelism_, "exec.queue.flush");
    lock.lock();

    // Per-wave metrics register once (support/metrics.hpp contract).
    namespace metrics = support::metrics;
    QueueStats& stats = state.stats;
    if (run.error != ErrorCode::Ok) {
        for (const std::shared_ptr<Slot>& slot : slots) {
            slot->error = run.error;
            slot->error_message = run.message;
            slot->ready = true;
        }
        stats.failed += slots.size();
        static metrics::Counter& failed =
            metrics::counter("exec.queue.failed");
        failed.add(slots.size());
    } else {
        const sim::BatchResult& result = run.result;
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
    state.flushing = false;
    state.cv.notify_all();
    return count;
}

std::size_t
SubmitQueue::flush()
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    if (state_->slots.empty()) {
        // Nothing of ours to run, but a flush may still be executing;
        // keep the "flush() returns with the device quiet" contract by
        // waiting it out.
        state_->cv.wait(lock, [this] { return !state_->flushing; });
        return 0;
    }
    return flush_locked(lock);
}

void
SubmitQueue::wait_all()
{
    std::unique_lock<std::mutex> lock(state_->mutex);
    for (;;) {
        if (!state_->slots.empty())
            flush_locked(lock);
        else if (state_->flushing)
            state_->cv.wait(lock);
        else
            return;
    }
}

std::size_t
SubmitQueue::pending() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->slots.size();
}

QueueStats
SubmitQueue::stats() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->stats;
}

} // namespace camp::exec
