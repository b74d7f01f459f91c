#include "support/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "support/env.hpp"

namespace camp::support::trace {

namespace {

/** Process-wide trace state; leaked on purpose (exit-time writers from
 * late atexit handlers must still find it alive). */
struct TraceState
{
    std::string path;         ///< CAMP_TRACE value, empty when unset
    std::size_t capacity = 0; ///< ring size in events
    std::vector<Event> ring;
    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> enabled{false};
    std::chrono::steady_clock::time_point epoch;
    std::atomic<std::uint32_t> next_tid{0};
};

void write_at_exit();

TraceState&
state()
{
    static TraceState* s = [] {
        const std::size_t capacity = capacity_from_env();
        auto* st = new TraceState;
        st->epoch = std::chrono::steady_clock::now();
        if (const char* env = std::getenv("CAMP_TRACE")) {
            if (env[0] != '\0')
                st->path = env;
        }
        st->capacity = capacity;
        st->ring.resize(st->capacity);
        st->enabled.store(!st->path.empty(),
                          std::memory_order_release);
        if (!st->path.empty())
            std::atexit(write_at_exit);
        return st;
    }();
    return *s;
}

void
write_at_exit()
{
    TraceState& s = state();
    if (!s.path.empty())
        write_json(s.path);
}

} // namespace

std::size_t
capacity_from_env()
{
    return static_cast<std::size_t>(
        env_positive_u64("CAMP_TRACE_BUF", std::uint64_t{1} << 16));
}

bool
enabled()
{
    return state().enabled.load(std::memory_order_relaxed);
}

void
set_enabled(bool on)
{
    state().enabled.store(on, std::memory_order_release);
}

const std::string&
env_path()
{
    return state().path;
}

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - state().epoch)
            .count());
}

std::uint32_t
thread_ordinal()
{
    static thread_local std::uint32_t tid =
        state().next_tid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
emit(const Event& event)
{
    TraceState& s = state();
    if (!s.enabled.load(std::memory_order_relaxed))
        return;
    const std::uint64_t slot =
        s.next.fetch_add(1, std::memory_order_relaxed);
    s.ring[slot % s.capacity] = event;
}

std::size_t
capacity()
{
    return state().capacity;
}

std::uint64_t
total_emitted()
{
    return state().next.load(std::memory_order_relaxed);
}

void
reset()
{
    TraceState& s = state();
    s.next.store(0, std::memory_order_relaxed);
    for (Event& e : s.ring)
        e = Event{};
}

void
Span::finish()
{
    event_.dur_ns = now_ns() - event_.start_ns;
    event_.tid = thread_ordinal();
    emit(event_);
}

bool
write_json(const std::string& path)
{
    TraceState& s = state();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::uint64_t total = s.next.load(std::memory_order_acquire);
    const std::uint64_t kept =
        total < s.capacity ? total : s.capacity;
    // Oldest retained event first (chronological within each thread).
    const std::uint64_t first = total - kept;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    bool wrote_any = false;
    for (std::uint64_t i = 0; i < kept; ++i) {
        const Event& e = s.ring[(first + i) % s.capacity];
        if (e.name == nullptr)
            continue; // torn or never-written slot
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f",
                     wrote_any ? "," : "", e.name, e.cat, e.tid,
                     static_cast<double>(e.start_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3);
        if (e.args > 0) {
            std::fprintf(f, ", \"args\": {");
            for (int a = 0; a < e.args; ++a)
                std::fprintf(f, "%s\"%s\": %.6g", a == 0 ? "" : ", ",
                             e.arg_name[a], e.arg_value[a]);
            std::fprintf(f, "}");
        }
        std::fprintf(f, "}");
        wrote_any = true;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
}

} // namespace camp::support::trace
