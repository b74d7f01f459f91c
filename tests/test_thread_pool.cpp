/**
 * @file
 * Thread-pool tests: fork/join recursion (a task may open its own
 * TaskGroup and wait without deadlock, because wait() helps), exception
 * propagation across the join, work stealing under multi-submitter
 * contention, the serial inline path, the TLS scratch arena's LIFO
 * frame discipline, SerialGuard, and the CAMP_THREADS parse.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scoped_env.hpp"
#include "support/thread_pool.hpp"

using namespace camp::support;

TEST(ThreadPool, EnvAndHardwareCountsSane)
{
    EXPECT_GE(hardware_threads(), 1u);
    EXPECT_GE(env_thread_count(), 1u);
    ThreadPool& pool = ThreadPool::global();
    EXPECT_EQ(pool.executors(), pool.workers() + 1);
    EXPECT_EQ(pool.parallel(), pool.workers() > 0);
}

TEST(ThreadPool, ThreadsEnvRejectsJunkEmptyAndOverflow)
{
    // The parse the cached env_thread_count() runs once. It used to
    // read junk, 0 and "4x" as "all cores" or 4.
    const auto parse = [] { thread_count_from_env(); };
    expect_env_rejects("CAMP_THREADS", kJunkValues, parse);
    expect_env_rejects("CAMP_THREADS", {"4x", "4.5", "4294967296"}, parse);
    const ScopedEnv ok("CAMP_THREADS", "3");
    EXPECT_EQ(thread_count_from_env(), 3u);
}

TEST(ThreadPool, SerialPoolRunsInlineOnCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.workers(), 0u);
    EXPECT_FALSE(pool.parallel());
    const std::thread::id self = std::this_thread::get_id();
    int order = 0;
    TaskGroup group(pool);
    group.run([&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        EXPECT_EQ(order, 0);
        order = 1;
    });
    // Inline execution: the task already ran, before wait().
    EXPECT_EQ(order, 1);
    group.run([&] { order = 2; });
    group.wait();
    EXPECT_EQ(order, 2);
}

namespace {

/** Fork/join Fibonacci: every level opens a TaskGroup inside a pool
 * task, the worst case for a blocking join. */
std::uint64_t
fib_forked(ThreadPool& pool, unsigned n)
{
    if (n < 2)
        return n;
    std::uint64_t left = 0;
    TaskGroup group(pool);
    group.run([&pool, n, &left] { left = fib_forked(pool, n - 1); });
    const std::uint64_t right = fib_forked(pool, n - 2);
    group.wait();
    return left + right;
}

} // namespace

TEST(ThreadPool, RecursiveForkJoinDoesNotDeadlock)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 3u);
    // fib(18) = 2584: thousands of nested groups across 4 executors.
    EXPECT_EQ(fib_forked(pool, 18), 2584u);
    // Pool stays healthy for a second wave.
    EXPECT_EQ(fib_forked(pool, 10), 55u);
}

TEST(ThreadPool, ExceptionPropagatesThroughWait)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> survivors{0};
    group.run([] { throw std::runtime_error("task boom"); });
    for (int i = 0; i < 8; ++i)
        group.run([&survivors] { ++survivors; });
    EXPECT_THROW(group.wait(), std::runtime_error);
    // The failing task does not cancel its siblings.
    EXPECT_EQ(survivors.load(), 8);
    // A rethrown error is consumed: the group is reusable.
    group.run([&survivors] { ++survivors; });
    EXPECT_NO_THROW(group.wait());
    EXPECT_EQ(survivors.load(), 9);
}

TEST(ThreadPool, DestructorDrainsWithoutThrowing)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    {
        TaskGroup group(pool);
        for (int i = 0; i < 16; ++i)
            group.run([&ran] { ++ran; });
        group.run([] { throw std::runtime_error("dropped"); });
        // No wait(): ~TaskGroup must drain and swallow the error.
    }
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, StealingUnderMultiSubmitterContention)
{
    // Several external threads hammer one pool concurrently; every
    // task forks children onto the submitting worker's own deque, so
    // finishing requires cross-queue steals.
    ThreadPool pool(4);
    constexpr int kSubmitters = 3;
    constexpr int kTasks = 64;
    constexpr int kChildren = 8;
    std::atomic<std::uint64_t> total{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &total] {
            TaskGroup group(pool);
            for (int i = 0; i < kTasks; ++i)
                group.run([&pool, &total] {
                    TaskGroup inner(pool);
                    for (int c = 0; c < kChildren; ++c)
                        inner.run([&total] { ++total; });
                    inner.wait();
                    ++total;
                });
            group.wait();
        });
    }
    for (std::thread& t : submitters)
        t.join();
    EXPECT_EQ(total.load(),
              std::uint64_t(kSubmitters) * kTasks * (kChildren + 1));
}

TEST(ThreadPool, ScratchArenaFramesAreLifo)
{
    ScratchFrame outer;
    std::uint64_t* a = outer.alloc(16);
    a[0] = 1;
    a[15] = 2;
    std::uint64_t* reused = nullptr;
    {
        ScratchFrame inner;
        std::uint64_t* b = inner.alloc(32);
        EXPECT_NE(a, b);
        b[31] = 3;
        reused = b;
    }
    // Inner frame released: the same words come back immediately.
    ScratchFrame again;
    EXPECT_EQ(again.alloc(32), reused);
    // Outer allocations survived the inner frame's lifetime.
    EXPECT_EQ(a[0], 1u);
    EXPECT_EQ(a[15], 2u);
}

TEST(ThreadPool, ScratchArenaPointersStableAcrossGrowth)
{
    ScratchFrame frame;
    // Force the arena through several block boundaries; earlier
    // pointers must stay valid (blocks are chained, never moved).
    std::vector<std::uint64_t*> ptrs;
    for (std::size_t n : {100u, 5000u, 20000u, 100000u}) {
        std::uint64_t* p = frame.alloc(n);
        p[0] = n;
        p[n - 1] = n + 1;
        ptrs.push_back(p);
    }
    std::size_t i = 0;
    for (std::size_t n : {100u, 5000u, 20000u, 100000u}) {
        EXPECT_EQ(ptrs[i][0], n);
        EXPECT_EQ(ptrs[i][n - 1], n + 1);
        ++i;
    }
}

TEST(ThreadPool, SerialGuardNestsAndRestores)
{
    EXPECT_TRUE(parallel_allowed());
    {
        SerialGuard outer;
        EXPECT_FALSE(parallel_allowed());
        {
            SerialGuard inner;
            EXPECT_FALSE(parallel_allowed());
        }
        EXPECT_FALSE(parallel_allowed());
    }
    EXPECT_TRUE(parallel_allowed());
}

TEST(ThreadPool, SerialGuardIsPerThread)
{
    SerialGuard guard;
    EXPECT_FALSE(parallel_allowed());
    bool other_thread_parallel = false;
    std::thread([&] { other_thread_parallel = parallel_allowed(); })
        .join();
    EXPECT_TRUE(other_thread_parallel);
}

TEST(ThreadPool, PoolTasksSeeIndependentArenas)
{
    ThreadPool pool(3);
    // Each task runs a full frame cycle on whatever thread executes
    // it; the TLS arenas must never hand out overlapping live words.
    std::atomic<int> failures{0};
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i)
        group.run([&failures, i] {
            ScratchFrame frame;
            std::uint64_t* p = frame.alloc(512);
            for (int w = 0; w < 512; ++w)
                p[w] = static_cast<std::uint64_t>(i) * 1000 + w;
            for (int w = 0; w < 512; ++w)
                if (p[w] != static_cast<std::uint64_t>(i) * 1000 + w)
                    ++failures;
        });
    group.wait();
    EXPECT_EQ(failures.load(), 0);
}
