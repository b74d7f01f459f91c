/**
 * @file
 * Structured tracing: scoped spans with thread attribution, collected
 * in a fixed-capacity lock-free ring buffer and exported as Chrome
 * `chrome://tracing` / Perfetto-loadable JSON. This is the software
 * analogue of the paper's per-stage instrumentation (Fig. 2 breakdown):
 * every layer of the stack — mpn kernels, the simulated pipeline, the
 * MPApca runtime, the thread pool — opens spans, and
 * `tools/trace_report` renders the per-stage table from the export.
 *
 * Cost model: tracing is OFF unless the CAMP_TRACE environment variable
 * names an output file (or a test/bench calls set_enabled(true)); a
 * disabled Span construct/destruct is one relaxed atomic load and no
 * stores — cheap enough to leave in release hot paths (perf_smoke
 * measures and records the per-span cost in BENCH_perf_smoke.json).
 * Enabled spans pay one steady_clock read at each end plus one
 * fetch_add into the ring. The ring keeps the most recent
 * `capacity()` events (default 1 << 16, override CAMP_TRACE_BUF);
 * wrap-around overwrites the oldest. Export is intended from quiescent
 * points (atexit, after joins) — in-flight writers during write_json()
 * can tear at most the events still being written.
 */
#ifndef CAMP_SUPPORT_TRACE_HPP
#define CAMP_SUPPORT_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace camp::support::trace {

/** One completed span. Names must be string literals (or otherwise
 * outlive the ring): the ring stores pointers, never copies. */
struct Event
{
    const char* name = nullptr;
    const char* cat = nullptr;
    std::uint64_t start_ns = 0; ///< since process trace epoch
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0; ///< small per-thread ordinal
    static constexpr int kMaxArgs = 2;
    const char* arg_name[kMaxArgs] = {nullptr, nullptr};
    double arg_value[kMaxArgs] = {0, 0};
    int args = 0;
};

/** True when spans are being recorded (CAMP_TRACE set or programmatic
 * override). The hot-path check every Span performs. */
bool enabled();

/** Force tracing on/off regardless of CAMP_TRACE (benches/tests). */
void set_enabled(bool on);

/** CAMP_TRACE value, or empty when unset. */
const std::string& env_path();

/** Monotonic nanoseconds since the process trace epoch. */
std::uint64_t now_ns();

/** Small dense ordinal of the calling thread (0 = first seen). */
std::uint32_t thread_ordinal();

/** Record one completed event (no-op when disabled). */
void emit(const Event& event);

/** Ring capacity in events. */
std::size_t capacity();

/** CAMP_TRACE_BUF as a positive event count, 1 << 16 when unset; junk,
 * 0, an empty value or overflow throw camp::InvalidArgument naming the
 * variable. Reads the environment on every call; the ring is sized from
 * it once, on first use. */
std::size_t capacity_from_env();

/** Events emitted since the last reset (monotonic; may exceed
 * capacity(), in which case the oldest were overwritten). */
std::uint64_t total_emitted();

/** Drop all recorded events (tests/benches; not thread-safe against
 * concurrent emitters). */
void reset();

/**
 * Write the retained events as Chrome-tracing JSON
 * (`{"traceEvents": [...]}`, "X" complete events, microsecond
 * timestamps). Returns false when the file cannot be opened.
 */
bool write_json(const std::string& path);

/**
 * RAII span. Construction samples the clock only when tracing is
 * enabled; destruction emits. A null @p name makes the span inert —
 * callers gate noisy sites with `cond ? "name" : nullptr`. Arguments
 * show up under "args" in the trace viewer:
 *
 *     trace::Span span("mpn.mul", "mpn");
 *     span.arg("bits", static_cast<double>(bits));
 */
class Span
{
  public:
    Span(const char* name, const char* cat)
    {
        if (name != nullptr && enabled()) {
            event_.name = name;
            event_.cat = cat;
            event_.start_ns = now_ns();
            active_ = true;
        }
    }

    ~Span()
    {
        if (active_)
            finish();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Attach a numeric argument (first Event::kMaxArgs kept). */
    void
    arg(const char* key, double value)
    {
        if (active_ && event_.args < Event::kMaxArgs) {
            event_.arg_name[event_.args] = key;
            event_.arg_value[event_.args] = value;
            ++event_.args;
        }
    }

    /** True when this span is recording (tracing was enabled at
     * construction). */
    bool active() const { return active_; }

  private:
    void finish();

    Event event_;
    bool active_ = false;
};

} // namespace camp::support::trace

#endif // CAMP_SUPPORT_TRACE_HPP
