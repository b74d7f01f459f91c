/**
 * @file
 * Observability-layer tests: trace ring semantics (disabled/inert
 * spans, wrap-around, thread attribution, Chrome-JSON export, the
 * CAMP_TRACE_BUF parse) and the
 * metrics registry (stable references, counter/gauge/histogram
 * behavior cross-checked against a local model over >= 1000 randomized
 * operations, snapshot/table/json rendering, reset).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_seed.hpp"
#include "scoped_env.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace trace = camp::support::trace;
namespace metrics = camp::support::metrics;

namespace {

/** RAII save/restore of the global tracing switch so tests cannot
 * leak state into each other. */
struct TraceEnabledGuard
{
    bool saved = trace::enabled();
    ~TraceEnabledGuard() { trace::set_enabled(saved); }
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
count_occurrences(const std::string& text, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(Trace, DisabledSpanEmitsNothing)
{
    TraceEnabledGuard guard;
    trace::set_enabled(false);
    const std::uint64_t before = trace::total_emitted();
    {
        trace::Span span("test.off", "test");
        span.arg("x", 1.0);
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(trace::total_emitted(), before);
}

TEST(Trace, NullNameSpanIsInertEvenWhenEnabled)
{
    TraceEnabledGuard guard;
    trace::set_enabled(true);
    const std::uint64_t before = trace::total_emitted();
    {
        trace::Span span(nullptr, "test");
        span.arg("x", 1.0);
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(trace::total_emitted(), before);
    trace::set_enabled(false);
}

TEST(Trace, EnabledSpanRecordsAndExportsArgs)
{
    TraceEnabledGuard guard;
    trace::set_enabled(true);
    trace::reset();
    {
        trace::Span span("test.args", "testcat");
        EXPECT_TRUE(span.active());
        span.arg("bits", 1234.0);
        span.arg("count", 7.0);
        span.arg("dropped", 9.0); // beyond kMaxArgs: silently ignored
    }
    EXPECT_EQ(trace::total_emitted(), 1u);
    trace::set_enabled(false);

    const std::string path = "test_observability_args.json";
    ASSERT_TRUE(trace::write_json(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"test.args\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\": \"testcat\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"bits\": 1234"), std::string::npos);
    EXPECT_NE(text.find("\"count\": 7"), std::string::npos);
    EXPECT_EQ(text.find("dropped"), std::string::npos);
}

TEST(Trace, SpanDurationCoversEnclosedWork)
{
    TraceEnabledGuard guard;
    trace::set_enabled(true);
    trace::reset();
    {
        trace::Span span("test.timed", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    trace::set_enabled(false);
    const std::string path = "test_observability_timed.json";
    ASSERT_TRUE(trace::write_json(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    const std::size_t at = text.find("\"name\": \"test.timed\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t dur_at = text.find("\"dur\": ", at);
    ASSERT_NE(dur_at, std::string::npos);
    // ts/dur are microseconds; 5 ms of sleep is at least 4000 us.
    EXPECT_GE(std::strtod(text.c_str() + dur_at + 7, nullptr), 4000.0);
}

TEST(Trace, BufferEnvRejectsJunkEmptyAndOverflow)
{
    // The parse behind the ring's size. It used to ignore junk and read
    // "1e9" as 1.
    const auto parse = [] { trace::capacity_from_env(); };
    expect_env_rejects("CAMP_TRACE_BUF", kJunkValues, parse);
    expect_env_rejects("CAMP_TRACE_BUF", {"1e9", "64k", "0x100"}, parse);
    const ScopedEnv ok("CAMP_TRACE_BUF", "4096");
    EXPECT_EQ(trace::capacity_from_env(), 4096u);
}

TEST(Trace, RingWrapKeepsMostRecentCapacityEvents)
{
    if (trace::capacity() > (1u << 20))
        GTEST_SKIP() << "CAMP_TRACE_BUF too large for the wrap sweep";
    TraceEnabledGuard guard;
    trace::set_enabled(true);
    trace::reset();
    const std::size_t extra = 500;
    const std::size_t total = trace::capacity() + extra;
    for (std::size_t i = 0; i < total; ++i) {
        trace::Span span("test.wrap", "test");
        span.arg("i", static_cast<double>(i));
    }
    EXPECT_EQ(trace::total_emitted(), total);
    trace::set_enabled(false);
    const std::string path = "test_observability_wrap.json";
    ASSERT_TRUE(trace::write_json(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    // Exactly capacity() events retained; the oldest `extra` were
    // overwritten, so the first retained index is `extra`.
    EXPECT_EQ(count_occurrences(text, "\"ph\": \"X\""),
              trace::capacity());
    EXPECT_EQ(text.find("\"i\": 0}"), std::string::npos);
    EXPECT_NE(text.find("\"i\": " + std::to_string(extra)),
              std::string::npos);
    trace::reset();
    EXPECT_EQ(trace::total_emitted(), 0u);
}

TEST(Trace, ThreadsGetDistinctOrdinals)
{
    TraceEnabledGuard guard;
    trace::set_enabled(true);
    trace::reset();
    {
        trace::Span span("test.tid", "test");
    }
    std::thread worker([] { trace::Span span("test.tid", "test"); });
    worker.join();
    trace::set_enabled(false);
    const std::string path = "test_observability_tid.json";
    ASSERT_TRUE(trace::write_json(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    std::set<long> tids;
    for (std::size_t pos = text.find("\"tid\": ");
         pos != std::string::npos; pos = text.find("\"tid\": ", pos + 1))
        tids.insert(std::strtol(text.c_str() + pos + 7, nullptr, 10));
    EXPECT_GE(tids.size(), 2u);
    trace::reset();
}

TEST(Trace, WriteJsonFailsOnUnopenablePath)
{
    EXPECT_FALSE(
        trace::write_json("/nonexistent-dir-camp-test/out.json"));
}

TEST(Metrics, FindOrCreateReturnsStableReference)
{
    metrics::Counter& a = metrics::counter("test.stable.counter");
    metrics::Counter& b = metrics::counter("test.stable.counter");
    EXPECT_EQ(&a, &b);
    metrics::Gauge& g1 = metrics::gauge("test.stable.gauge");
    metrics::Gauge& g2 = metrics::gauge("test.stable.gauge");
    EXPECT_EQ(&g1, &g2);
    metrics::Histogram& h1 = metrics::histogram("test.stable.hist");
    metrics::Histogram& h2 = metrics::histogram("test.stable.hist");
    EXPECT_EQ(&h1, &h2);
}

TEST(Metrics, FuzzAgainstLocalModel)
{
    // >= 1000 randomized operations applied simultaneously to the
    // registry metrics and to a plain local model; every aggregate
    // (counter value, gauge value, histogram buckets/count/sum/max)
    // must match exactly at the end.
    const std::uint64_t seed = fuzz_seed(0x0b5e12ull);
    camp::Rng rng(seed);
    metrics::Counter& counter = metrics::counter("test.fuzz.counter");
    metrics::Gauge& gauge = metrics::gauge("test.fuzz.gauge");
    metrics::Histogram& hist = metrics::histogram("test.fuzz.hist");
    counter.reset();
    gauge.reset();
    hist.reset();

    std::uint64_t model_counter = 0;
    std::int64_t model_gauge = 0;
    std::uint64_t model_buckets[metrics::Histogram::kBuckets] = {};
    std::uint64_t model_count = 0, model_sum = 0, model_max = 0;

    for (int iter = 0; iter < 1000; ++iter) {
        const std::uint64_t add = rng.below(1000);
        counter.add(add);
        model_counter += add;

        const std::int64_t gv =
            static_cast<std::int64_t>(rng.below(1u << 20)) - (1 << 19);
        if (rng.below(2) == 0) {
            gauge.set(gv);
            model_gauge = gv;
        } else {
            gauge.update_max(gv);
            model_gauge = std::max(model_gauge, gv);
        }

        // Mix tiny and huge samples so every bucket regime is hit.
        std::uint64_t v = rng.next() >> (rng.below(64));
        if (iter % 13 == 0)
            v = 0;
        hist.record(v);
        int b = 0;
        if (v > 0)
            b = std::min(64 - __builtin_clzll(v),
                         metrics::Histogram::kBuckets - 1);
        model_buckets[b] += 1;
        model_count += 1;
        model_sum += v;
        model_max = std::max(model_max, v);
    }

    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (replay: CAMP_FUZZ_SEED=<seed>)");
    EXPECT_EQ(counter.value(), model_counter);
    EXPECT_EQ(gauge.value(), model_gauge);
    EXPECT_EQ(hist.count(), model_count);
    EXPECT_EQ(hist.sum(), model_sum);
    EXPECT_EQ(hist.max(), model_max);
    for (int b = 0; b < metrics::Histogram::kBuckets; ++b)
        EXPECT_EQ(hist.bucket(b), model_buckets[b]) << "bucket " << b;
    const double expect_mean =
        model_count == 0
            ? 0.0
            : static_cast<double>(model_sum) /
                  static_cast<double>(model_count);
    EXPECT_DOUBLE_EQ(hist.mean(), expect_mean);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    metrics::Histogram& hist =
        metrics::histogram("test.hist.boundaries");
    hist.reset();
    hist.record(0); // bucket 0
    hist.record(1); // bucket 1: [1, 2)
    hist.record(2); // bucket 2: [2, 4)
    hist.record(3); // bucket 2
    hist.record(4); // bucket 3: [4, 8)
    hist.record(~0ull); // clamped into the last bucket
    EXPECT_EQ(hist.bucket(0), 1u);
    EXPECT_EQ(hist.bucket(1), 1u);
    EXPECT_EQ(hist.bucket(2), 2u);
    EXPECT_EQ(hist.bucket(3), 1u);
    EXPECT_EQ(hist.bucket(metrics::Histogram::kBuckets - 1), 1u);
    EXPECT_EQ(hist.count(), 6u);
    EXPECT_EQ(hist.max(), ~0ull);
}

TEST(Metrics, SnapshotSortedAndRenderingFilters)
{
    metrics::counter("test.render.hits").add(3);
    metrics::counter("test.render.zero"); // registered, stays 0
    metrics::gauge("test.render.depth").set(11);
    metrics::histogram("test.render.sizes").record(100);

    const std::vector<metrics::SnapshotEntry> snap =
        metrics::Registry::instance().snapshot();
    EXPECT_TRUE(std::is_sorted(
        snap.begin(), snap.end(),
        [](const auto& a, const auto& b) { return a.name < b.name; }));
    const auto has = [&](const std::string& name) {
        return std::any_of(snap.begin(), snap.end(), [&](const auto& e) {
            return e.name == name;
        });
    };
    EXPECT_TRUE(has("test.render.hits"));
    EXPECT_TRUE(has("test.render.zero"));

    const std::string table =
        metrics::Registry::instance().render_table("test.render.");
    EXPECT_NE(table.find("test.render.hits"), std::string::npos);
    EXPECT_NE(table.find("test.render.depth"), std::string::npos);
    EXPECT_EQ(table.find("test.render.zero"), std::string::npos);
    const std::string full = metrics::Registry::instance().render_table(
        "test.render.", /*include_zero=*/true);
    EXPECT_NE(full.find("test.render.zero"), std::string::npos);

    const std::string json = metrics::Registry::instance().to_json();
    EXPECT_NE(json.find("\"test.render.hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.render.sizes\""), std::string::npos);
}

TEST(Metrics, RegistryResetZeroesButKeepsReferences)
{
    metrics::Counter& c = metrics::counter("test.reset.counter");
    metrics::Gauge& g = metrics::gauge("test.reset.gauge");
    metrics::Histogram& h = metrics::histogram("test.reset.hist");
    c.add(5);
    g.set(9);
    h.record(42);
    metrics::Registry::instance().reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    c.add(2); // references stay live after reset
    EXPECT_EQ(metrics::counter("test.reset.counter").value(), 2u);
}
