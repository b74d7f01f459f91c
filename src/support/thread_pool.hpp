/**
 * @file
 * Work-stealing thread pool and TLS scratch arena for the hot
 * multiplication recursion (ROADMAP: "as fast as the hardware allows").
 *
 * The pool runs a fixed set of workers (CAMP_THREADS env, default
 * hardware_threads()); CAMP_THREADS=1 means zero workers and every
 * TaskGroup::run() executes inline, which is the exact serial code
 * path. Fork/join is expressed with TaskGroup: a task may itself open
 * a TaskGroup and wait() on it without deadlocking, because wait()
 * *helps* — it pops and executes pool tasks until the group drains —
 * so every blocked join converts into useful work (the classic
 * help-first work-stealing join).
 *
 * Determinism contract: the pool never changes *what* is computed,
 * only *where*. Callers must give each task a disjoint output region
 * and combine results after wait() in program order; under that
 * discipline an N-thread run is bit-identical to CAMP_THREADS=1
 * (tests/test_mpn_mul.cpp fuzzes exactly this).
 */
#ifndef CAMP_SUPPORT_THREAD_POOL_HPP
#define CAMP_SUPPORT_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace camp::support {

/** std::thread::hardware_concurrency() clamped to >= 1. */
unsigned hardware_threads();

/**
 * CAMP_THREADS as a positive integer below 2^32, hardware_threads()
 * when unset; junk, 0, an empty value or overflow throw
 * camp::InvalidArgument naming the variable. Reads the environment on
 * every call.
 */
unsigned thread_count_from_env();

/**
 * Worker-thread budget: thread_count_from_env(), read once and cached.
 * This is the *total* executor count including the thread that calls
 * wait() (which helps), so the global pool spawns one fewer worker.
 */
unsigned env_thread_count();

class TaskGroup;

/** Fixed-size work-stealing pool; see file comment for the model. */
class ThreadPool
{
  public:
    /** @p executors total executors; spawns executors - 1 workers. */
    explicit ThreadPool(unsigned executors);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Process-wide pool sized by env_thread_count(); never destroyed
     * before exit so TLS worker state stays valid. */
    static ThreadPool& global();

    /** Worker threads owned by the pool (0 => fully serial). */
    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /** Total executors: workers plus the helping submitter. */
    unsigned executors() const { return workers() + 1; }

    /** True when TaskGroup::run() may actually fork. */
    bool parallel() const { return workers() > 0; }

  private:
    friend class TaskGroup;

    struct Task
    {
        std::function<void()> fn;
        TaskGroup* group = nullptr;
    };

    /** One mutex-guarded deque per worker plus an injection queue for
     * external submitters; owners pop LIFO, thieves steal FIFO. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void submit(Task task);
    bool try_run_one(int self);
    static void execute(Task& task);
    void worker_loop(unsigned index);

    std::vector<std::unique_ptr<WorkerQueue>> queues_; ///< [workers]
    WorkerQueue inject_;                               ///< external submits
    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/**
 * Fork/join scope: run() submits (or executes inline on a serial
 * pool), wait() helps until every submitted task finished and
 * rethrows the first captured exception. The destructor waits too, so
 * a group can never outlive its tasks' captured references.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool& pool = ThreadPool::global())
        : pool_(pool)
    {
    }

    /** Drains remaining tasks; a pending task exception is dropped
     * here (call wait() to observe it). */
    ~TaskGroup() { drain(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /** Submit @p fn; executes inline when the pool has no workers. */
    void run(std::function<void()> fn);

    /** Help-execute pool tasks until every run() task of this group
     * completed; rethrows the first task exception. */
    void wait();

  private:
    friend class ThreadPool;

    void drain();
    void task_done(std::exception_ptr error);

    ThreadPool& pool_;
    std::atomic<std::uint64_t> pending_{0};
    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    std::exception_ptr first_error_;
};

/**
 * Thread-local bump allocator for the multiplication recursion's
 * temporaries. ScratchFrame marks/releases LIFO; blocks are cached
 * for the lifetime of the thread, so steady-state hot paths allocate
 * nothing from the system. Pointers stay valid until the owning frame
 * unwinds (blocks are chained, never reallocated).
 *
 * Since the memory-plane refactor (DESIGN.md §14) the bump blocks come
 * from LimbArena::global() rather than the system allocator, so scratch
 * shows up in the shared `arena.*` accounting and dead threads hand
 * their blocks back to the process-wide pool.
 */
class ScratchArena
{
  public:
    /** The calling thread's arena. */
    static ScratchArena& tls();

    /** Returns every cached block to LimbArena::global(). */
    ~ScratchArena();

    /** Bump-allocate @p n 64-bit words (uninitialized). */
    std::uint64_t* alloc(std::size_t n);

    /** Most words ever simultaneously live in this thread's arena
     * (block tails wasted by oversize requests included). The global
     * cross-thread maximum is the "mpn.scratch.high_water_words"
     * gauge. */
    std::size_t high_water_words() const { return high_water_words_; }

  private:
    friend class ScratchFrame;

    struct Mark
    {
        std::size_t block;
        std::size_t used;
    };

    Mark mark() const { return {block_, used_}; }
    void release(Mark m);
    ScratchArena() = default;

    static constexpr std::size_t kFirstBlockWords = 1 << 12;

    struct Block
    {
        std::uint64_t* words = nullptr; ///< owned by LimbArena::global()
        std::size_t capacity = 0;
    };

    std::vector<Block> blocks_;
    std::size_t block_ = 0; ///< current block index
    std::size_t used_ = 0;  ///< words used in current block
    std::size_t high_water_words_ = 0;
};

/** RAII LIFO frame over the calling thread's scratch arena. */
class ScratchFrame
{
  public:
    ScratchFrame() : arena_(ScratchArena::tls()), mark_(arena_.mark()) {}
    ~ScratchFrame() { arena_.release(mark_); }

    ScratchFrame(const ScratchFrame&) = delete;
    ScratchFrame& operator=(const ScratchFrame&) = delete;

    /** Words live until this frame unwinds. */
    std::uint64_t* alloc(std::size_t n) { return arena_.alloc(n); }

  private:
    ScratchArena& arena_;
    ScratchArena::Mark mark_;
};

/**
 * RAII region that disables pool forking on the calling thread (and,
 * because fork decisions happen before any task is spawned, on the
 * whole recursion below it). Tests use this to get the exact serial
 * result in-process for parallel-equals-serial comparisons.
 */
class SerialGuard
{
  public:
    SerialGuard();
    ~SerialGuard();
    SerialGuard(const SerialGuard&) = delete;
    SerialGuard& operator=(const SerialGuard&) = delete;
};

/** False inside a SerialGuard on this thread. */
bool parallel_allowed();

} // namespace camp::support

#endif // CAMP_SUPPORT_THREAD_POOL_HPP
