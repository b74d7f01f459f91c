#include "support/thread_pool.hpp"

#include <chrono>

#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/metrics.hpp"

namespace camp::support {

namespace {

/** Worker identity of the calling thread (global pool helpers). */
thread_local ThreadPool* t_worker_pool = nullptr;
thread_local int t_worker_index = -1;

/** SerialGuard nesting depth. */
thread_local unsigned t_serial_depth = 0;

/** Registered-once pool metric handles. */
struct PoolMetrics
{
    metrics::Counter* submits;
    metrics::Counter* steals;
    metrics::Counter* inject_pops;
    metrics::Gauge* queue_depth_max;
};

PoolMetrics&
pool_metrics()
{
    static PoolMetrics* m = [] {
        auto* pm = new PoolMetrics;
        pm->submits = &metrics::counter("pool.submits");
        pm->steals = &metrics::counter("pool.steals");
        pm->inject_pops = &metrics::counter("pool.inject_pops");
        pm->queue_depth_max = &metrics::gauge("pool.queue_depth_max");
        return pm;
    }();
    return *m;
}

} // namespace

unsigned
hardware_threads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned
thread_count_from_env()
{
    return env_positive_unsigned("CAMP_THREADS", hardware_threads());
}

unsigned
env_thread_count()
{
    static const unsigned count = thread_count_from_env();
    return count;
}

ThreadPool::ThreadPool(unsigned executors)
{
    const unsigned workers = executors > 1 ? executors - 1 : 0;
    queues_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        sleep_cv_.notify_all();
    }
    for (std::thread& t : threads_)
        t.join();
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(env_thread_count());
    return pool;
}

void
ThreadPool::submit(Task task)
{
    WorkerQueue* queue = &inject_;
    if (t_worker_pool == this && t_worker_index >= 0)
        queue = queues_[static_cast<std::size_t>(t_worker_index)].get();
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(queue->mutex);
        queue->tasks.push_back(std::move(task));
        depth = queue->tasks.size();
    }
    PoolMetrics& pm = pool_metrics();
    pm.submits->add();
    pm.queue_depth_max->update_max(static_cast<std::int64_t>(depth));
    // Notify under the sleep mutex so a worker cannot scan-empty and
    // fall asleep between our push and our notify.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
}

bool
ThreadPool::try_run_one(int self)
{
    Task task;
    bool found = false;
    // Own queue first, newest task (LIFO: depth-first locality).
    if (self >= 0) {
        WorkerQueue& own = *queues_[static_cast<std::size_t>(self)];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.back());
            own.tasks.pop_back();
            found = true;
        }
    }
    // Steal oldest task from a victim (FIFO: biggest unit of work).
    if (!found) {
        const std::size_t n = queues_.size();
        const std::size_t start =
            self >= 0 ? static_cast<std::size_t>(self) + 1 : 0;
        for (std::size_t k = 0; k < n && !found; ++k) {
            WorkerQueue& victim = *queues_[(start + k) % n];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = std::move(victim.tasks.front());
                victim.tasks.pop_front();
                found = true;
            }
        }
        if (found)
            pool_metrics().steals->add();
    }
    if (!found) {
        std::lock_guard<std::mutex> lock(inject_.mutex);
        if (!inject_.tasks.empty()) {
            task = std::move(inject_.tasks.front());
            inject_.tasks.pop_front();
            found = true;
        }
        if (found)
            pool_metrics().inject_pops->add();
    }
    if (!found)
        return false;
    execute(task);
    return true;
}

void
ThreadPool::execute(Task& task)
{
    std::exception_ptr error;
    try {
        task.fn();
    } catch (...) {
        error = std::current_exception();
    }
    task.group->task_done(error);
}

void
ThreadPool::worker_loop(unsigned index)
{
    t_worker_pool = this;
    t_worker_index = static_cast<int>(index);
    while (!stop_.load(std::memory_order_acquire)) {
        if (try_run_one(static_cast<int>(index)))
            continue;
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (stop_.load(std::memory_order_acquire))
            break;
        // Timed wait: a submit between our empty scan and this wait is
        // already covered by submit's notify-under-mutex; the timeout
        // only bounds shutdown latency and subtask bursts from helpers.
        sleep_cv_.wait_for(lock, std::chrono::microseconds(500));
    }
    t_worker_pool = nullptr;
    t_worker_index = -1;
}

void
TaskGroup::run(std::function<void()> fn)
{
    pending_.fetch_add(1, std::memory_order_acq_rel);
    ThreadPool::Task task{std::move(fn), this};
    if (!pool_.parallel()) {
        ThreadPool::execute(task); // serial pool: run inline
        return;
    }
    pool_.submit(std::move(task));
}

void
TaskGroup::drain()
{
    const int self = t_worker_pool == &pool_ ? t_worker_index : -1;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (pool_.try_run_one(self))
            continue;
        // Nothing runnable: our tasks are in flight on other threads.
        // task_done() notifies under done_mutex_, so this cannot miss
        // the last completion.
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }
    // The final task_done() decrements pending_ while holding
    // done_mutex_ and notifies before releasing it; taking the mutex
    // here orders our caller's possible destruction of this group
    // after that notify has completed.
    std::lock_guard<std::mutex> lock(done_mutex_);
}

void
TaskGroup::wait()
{
    drain();
    std::lock_guard<std::mutex> lock(done_mutex_);
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
TaskGroup::task_done(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(done_mutex_);
    if (error && !first_error_)
        first_error_ = error;
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    done_cv_.notify_all();
}

ScratchArena&
ScratchArena::tls()
{
    static thread_local ScratchArena arena;
    return arena;
}

ScratchArena::~ScratchArena()
{
    // Runs at thread exit; the global arena is leaked, so it is always
    // alive here.
    for (Block& block : blocks_)
        LimbArena::global().release(block.words, block.capacity);
    blocks_.clear();
}

std::uint64_t*
ScratchArena::alloc(std::size_t n)
{
    // Bump blocks come from the global limb arena; it rounds up to a
    // size class and the full class capacity is usable bump space.
    const auto arena_block = [](std::size_t min_words) -> Block {
        const std::size_t cap = LimbArena::size_class_words(min_words);
        return {LimbArena::global().alloc(cap), cap};
    };
    if (blocks_.empty())
        blocks_.push_back(arena_block(kFirstBlockWords));
    if (blocks_[block_].capacity - used_ < n) {
        // Tail of the current block is wasted until the frame unwinds;
        // move to (or create) a next block that fits.
        ++block_;
        if (block_ == blocks_.size()) {
            blocks_.push_back(
                arena_block(std::max(blocks_.back().capacity * 2, n)));
        } else if (blocks_[block_].capacity < n) {
            // Block is beyond every live frame mark, safe to regrow.
            LimbArena::global().release(blocks_[block_].words,
                                        blocks_[block_].capacity);
            blocks_[block_] = arena_block(n);
        }
        used_ = 0;
    }
    std::uint64_t* p = blocks_[block_].words + used_;
    used_ += n;
    // High-water accounting: words live right now = full blocks below
    // the cursor plus the current block's bump offset. blocks_ stays
    // tiny (doubling growth), so the walk is a handful of adds.
    std::size_t live = used_;
    for (std::size_t i = 0; i < block_; ++i)
        live += blocks_[i].capacity;
    if (live > high_water_words_) {
        high_water_words_ = live;
        static metrics::Gauge& hw =
            metrics::gauge("mpn.scratch.high_water_words");
        hw.update_max(static_cast<std::int64_t>(live));
    }
    return p;
}

void
ScratchArena::release(Mark m)
{
    CAMP_ASSERT(m.block < blocks_.size() || blocks_.empty());
    block_ = m.block;
    used_ = m.used;
}

SerialGuard::SerialGuard()
{
    ++t_serial_depth;
}

SerialGuard::~SerialGuard()
{
    CAMP_ASSERT(t_serial_depth > 0);
    --t_serial_depth;
}

bool
parallel_allowed()
{
    return t_serial_depth == 0;
}

} // namespace camp::support
