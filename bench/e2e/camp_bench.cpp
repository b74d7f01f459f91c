/**
 * @file
 * camp_bench: the host-truthful end-to-end benchmark (README.md in this
 * directory has the metric and workload tables).
 *
 * One process and one client thread run one workload:
 *   serve-small  wall-mode serve::Server over exec::CpuDevice, 40k
 *                requests of 64-4096-bit operands, 30% repeats;
 *   serve-large  the same server over a 4-shard cpu ShardedScheduler,
 *                3k unique requests of 16k-256k-bit operands;
 *   pi-1m        apps::pi::compute_pi(1'000'000);
 *   rsa-4096     apps::rsa::decrypt with an encrypt round trip.
 *
 * Only calls into the program's public functions are timed. Set-up
 * (input generation, device and server construction, one warm-up
 * repetition, RSA key generation) runs several times and reports its
 * median as setup_s; the timed repetitions then run for --seconds.
 * Every output is checked: served products against a serial mpn
 * reference computed before any timing, pi against its known prefix
 * and the digest of the 1M-digit string, RSA by decrypt(encrypt(m)).
 *
 * --trace 1 alternates untraced and traced repetitions of the same
 * workload (their difference is the cost of the bench's own spans),
 * then runs the per-layer replay suite: the serve mixes through
 * serve, exec and raw mpn, the pi steps, RSA key generation and
 * Montgomery products, and the limb kernels against the multiplier
 * roof. Spans are recorded by this file only, kept in memory and
 * written as Chrome-trace JSON at the end; the program's own
 * support::trace stays off in both runs.
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, and the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1). A wrong result exits 1.
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "apps/pi/chudnovsky.hpp"
#include "apps/rsa/rsa.hpp"
#include "exec/cpu_device.hpp"
#include "exec/queue.hpp"
#include "exec/scheduler.hpp"
#include "exec/wave.hpp"
#include "mpn/kernels/kernels.hpp"
#include "mpn/mont.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "mpn/view.hpp"
#include "mpz/integer.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/config.hpp"
#include "support/arena.hpp"
#include "support/metrics.hpp"
#include "support/opcache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

#ifndef CAMP_BENCH_BUILD_TYPE
#define CAMP_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

namespace exec = camp::exec;
namespace kernels = camp::mpn::kernels;
namespace pi = camp::apps::pi;
namespace rsa = camp::apps::rsa;
namespace serve = camp::serve;
namespace support = camp::support;
using camp::mpn::Limb;
using camp::mpn::LimbView;
using camp::mpn::Natural;

// ---- constants --------------------------------------------------------

/** Set-up instances per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Products per timed block of the raw mpn loops: blocks keep the
 * digesting of results outside the timed region without holding every
 * product of a large mix in memory at once. */
constexpr std::size_t kBlock = 256;

/** Repetitions of each replay path in the layer suite (median). */
constexpr int kReplayReps = 3;

constexpr std::uint64_t kPiDigits = 1000000;
constexpr std::uint64_t kPiWarmDigits = 100000;
constexpr std::uint64_t kRsaBits = 4096;

/** The RSA key comes from this fixed seed, the messages from --seed:
 * the prime search's length varies several-fold from seed to seed,
 * and setup_s should not. */
constexpr std::uint64_t kRsaKeySeed = 3;

/** pi to 50 decimals, and the FNV-1a-64 digest of the whole
 * compute_pi(1'000'000) string ("3." included) recorded from the
 * program this benchmark was written against. */
constexpr const char* kPiPrefix =
    "3.14159265358979323846264338327950288419716939937510";
constexpr std::uint64_t kPi1mDigest = 0x72649a0db1afb2c0ULL;

// ---- time and statistics ----------------------------------------------

using SteadyClock = std::chrono::steady_clock;

std::uint64_t
now_ns()
{
    static const SteadyClock::time_point epoch = SteadyClock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - epoch)
            .count());
}

double
seconds_between(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Keep a computed buffer alive past the optimizer. */
inline void
clobber(const void* p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/** Median over samples of the time per call of @p fn, in ns. */
template <class F>
double
ns_per_call(F&& fn, std::size_t inner)
{
    std::vector<double> samples;
    for (int s = 0; s < 11; ++s) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < inner; ++i)
            fn();
        samples.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(inner));
    }
    return median(samples);
}

/**
 * Repetitions of @p rep (which returns its own timed seconds) until the
 * next one would overrun @p budget_s; at least @p min_reps.
 */
template <class F>
std::vector<double>
timed_reps(double budget_s, std::size_t min_reps, F&& rep)
{
    std::vector<double> durations;
    const std::uint64_t start = now_ns();
    for (;;) {
        durations.push_back(rep());
        const double spent = seconds_between(start, now_ns());
        if (durations.size() >= min_reps &&
            spent + median(durations) > budget_s)
            return durations;
    }
}

/**
 * Untraced and traced repetitions in adjacent pairs within @p budget_s;
 * returns the cost of the bench's spans in percent, the median over
 * pairs of traced / untraced - 1, so host drift cancels within a pair.
 */
template <class F>
double
span_overhead_pct(double budget_s, F&& rep)
{
    std::vector<double> ratios;
    double pair_s = 0;
    const std::uint64_t start = now_ns();
    for (;;) {
        const double plain = rep(false);
        const double traced = rep(true);
        ratios.push_back(traced / plain - 1.0);
        pair_s = std::max(pair_s, plain + traced);
        if (seconds_between(start, now_ns()) + pair_s > budget_s)
            return 100.0 * median(ratios);
    }
}

/** Median over kSetups instances of @p setup (returns its seconds). */
template <class F>
double
median_setup(F&& setup)
{
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i)
        times.push_back(setup());
    return median(times);
}

// ---- result digests ---------------------------------------------------

struct Digest
{
    std::uint64_t hash = 0;
    std::size_t limbs = 0;

    friend bool operator==(const Digest&, const Digest&) = default;
};

Digest
digest(LimbView v)
{
    return {support::fnv1a_words(v.ptr, v.len), v.len};
}

Digest
digest(const Natural& n)
{
    return digest(LimbView(n));
}

std::uint64_t
fnv1a_bytes(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

// ---- bench-side spans -------------------------------------------------

/** Lanes of the Chrome trace: synchronous spans of the client thread,
 * and the submit-to-settle interval of each served request (these
 * overlap each other, so they get their own lane). */
constexpr std::uint32_t kLaneClient = 0;
constexpr std::uint32_t kLaneRequests = 1;

struct SpanRecord
{
    const char* name = nullptr;
    const char* layer = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t request = -1;
    std::int64_t wave = -1;
    std::int64_t count = -1;
    std::uint32_t lane = kLaneClient;
};

/** In-memory span log, written out once the benchmark ends. Recording
 * is a branch when off and a vector append when on. */
class SpanLog
{
  public:
    bool on = false;

    void
    record(const SpanRecord& span)
    {
        if (on)
            spans_.push_back(span);
    }

    void clear() { spans_.clear(); }

    void reserve(std::size_t n) { spans_.reserve(n); }

    std::size_t size() const { return spans_.size(); }

    /** Chrome-trace JSON, one "X" event per line in the layout of
     * support::trace::write_json, so tools/trace_report reads it. */
    bool write_chrome(const std::string& path) const;

    /** Per-layer self time of the client lane (span duration minus the
     * part its nested child spans cover) plus the request lane. */
    void print_self_time() const;

  private:
    std::vector<SpanRecord> spans_;
};

SpanLog g_spans;

/** RAII span on the client lane; inert while the log is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char* name, const char* layer)
    {
        if (g_spans.on) {
            span_.name = name;
            span_.layer = layer;
            span_.start_ns = now_ns();
        }
    }

    ~ScopedSpan()
    {
        if (span_.name != nullptr) {
            span_.end_ns = now_ns();
            g_spans.record(span_);
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecord span_;
};

bool
SpanLog::write_chrome(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    bool first = true;
    for (const SpanRecord& s : spans_) {
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"layer\": \"%s\"",
                     first ? "" : ",", s.name, s.layer, s.lane,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     s.layer);
        if (s.request >= 0)
            std::fprintf(f, ", \"request\": %lld",
                         static_cast<long long>(s.request));
        if (s.wave >= 0)
            std::fprintf(f, ", \"wave\": %lld",
                         static_cast<long long>(s.wave));
        if (s.count >= 0)
            std::fprintf(f, ", \"count\": %lld",
                         static_cast<long long>(s.count));
        std::fprintf(f, "}}");
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
SpanLog::print_self_time() const
{
    struct LayerTime
    {
        std::uint64_t spans = 0;
        double self_ms = 0;
        double total_ms = 0;
    };
    std::vector<std::pair<std::string, LayerTime>> layers;
    auto slot = [&layers](const char* layer) -> LayerTime& {
        for (auto& entry : layers)
            if (entry.first == layer)
                return entry.second;
        layers.emplace_back(layer, LayerTime{});
        return layers.back().second;
    };

    // One client thread records these, so they nest strictly: a span
    // that starts inside the open span on top of the stack ends inside
    // it too.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].lane == kLaneClient)
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  const SpanRecord& x = spans_[a];
                  const SpanRecord& y = spans_[b];
                  if (x.start_ns != y.start_ns)
                      return x.start_ns < y.start_ns;
                  return x.end_ns > y.end_ns;
              });
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    std::vector<std::size_t> open;
    for (const std::size_t i : order) {
        while (!open.empty() &&
               spans_[open.back()].end_ns <= spans_[i].start_ns)
            open.pop_back();
        if (!open.empty() && spans_[i].end_ns <= spans_[open.back()].end_ns)
            child_ns[open.back()] += spans_[i].end_ns - spans_[i].start_ns;
        open.push_back(i);
    }
    double client_self_ms = 0;
    for (const std::size_t i : order) {
        const SpanRecord& s = spans_[i];
        const double dur_ms =
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        LayerTime& t = slot(s.layer);
        ++t.spans;
        t.total_ms += dur_ms;
        t.self_ms += dur_ms - static_cast<double>(child_ns[i]) / 1e6;
        client_self_ms += dur_ms - static_cast<double>(child_ns[i]) / 1e6;
    }
    std::printf("# self time per layer (client lane, %zu spans)\n",
                order.size());
    std::printf("# %-10s %10s %14s %14s %8s\n", "layer", "spans",
                "self ms", "span ms", "self %");
    for (const auto& [layer, t] : layers)
        std::printf("# %-10s %10llu %14.3f %14.3f %7.2f%%\n",
                    layer.c_str(), static_cast<unsigned long long>(t.spans),
                    t.self_ms, t.total_ms,
                    100.0 * ratio(t.self_ms, client_self_ms));
    std::uint64_t requests = 0;
    double request_ms = 0;
    for (const SpanRecord& s : spans_)
        if (s.lane == kLaneRequests) {
            ++requests;
            request_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        }
    if (requests > 0)
        std::printf("# request lane: %llu submit-to-settle spans, mean "
                    "%.3f ms\n",
                    static_cast<unsigned long long>(requests),
                    request_ms / static_cast<double>(requests));
}

// ---- run state and output ---------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string out_dir = "bench-out";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Run
{
    Options opt;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< not completed, or wrong
    std::uint64_t wrong = 0;  ///< completed with a wrong result
    std::vector<Metric> metrics;

    void
    add(const char* name, double value, const char* unit)
    {
        metrics.push_back({name, value, unit});
        std::printf("%s %.10g %s\n", name, value, unit);
    }

    /** Count one verified operation. */
    void
    check(bool completed, bool exact)
    {
        ++attempted;
        if (!completed || !exact)
            ++failed;
        if (completed && !exact)
            ++wrong;
    }

    bool correct() const { return failed == 0 && wrong == 0; }
};

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
metrics_json(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

std::string
host_json(const Run& run)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"nproc\": %u, \"pool_executors\": %u, \"simd\": \"%s\", "
        "\"build\": \"%s\", \"compiler\": \"%s\", \"seed\": %llu}",
        support::hardware_threads(),
        support::ThreadPool::global().executors(),
        kernels::tier_name(kernels::active_tier()),
        json_escape(CAMP_BENCH_BUILD_TYPE).c_str(),
        json_escape(__VERSION__).c_str(),
        static_cast<unsigned long long>(run.opt.seed));
    return buf;
}

/** Append this run as one line of <out>/camp_bench.jsonl. */
void
write_results(const Run& run)
{
    std::filesystem::create_directories(run.opt.out_dir);
    const std::string path = run.opt.out_dir + "/camp_bench.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path);
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
        "\"trace\": %d, \"host\": %s, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"wrong_results\": %llu, "
        "\"fail_frac\": %.17g, \"metrics\": %s}\n",
        run.opt.workload.c_str(),
        static_cast<unsigned long long>(run.opt.seed), run.opt.seconds,
        run.opt.trace ? 1 : 0, host_json(run).c_str(),
        run.correct() ? "true" : "false",
        static_cast<unsigned long long>(run.attempted),
        static_cast<unsigned long long>(run.failed),
        static_cast<unsigned long long>(run.wrong),
        ratio(static_cast<double>(run.failed),
              static_cast<double>(run.attempted)),
        metrics_json(run.metrics).c_str());
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- serving ----------------------------------------------------------

serve::WorkloadSpec
small_spec(std::uint64_t seed)
{
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 40000;
    spec.min_bits = 64;
    spec.max_bits = 4096;
    spec.square_fraction = 0.2;
    spec.repeat_fraction = 0.3;
    spec.deadline_fraction = 0.0;
    return spec;
}

serve::WorkloadSpec
large_spec(std::uint64_t seed)
{
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 3000;
    spec.min_bits = 16384;
    spec.max_bits = 262144;
    // About 2 requests per arrival event against ~240 us of modelled
    // device time each: the virtual queue stays near half load. At the
    // generator's default spacing it grows without bound, and latency
    // would measure how long the run is rather than the service.
    spec.mean_interarrival_us = 1000.0;
    spec.square_fraction = 0.2;
    spec.repeat_fraction = 0.0;
    spec.deadline_fraction = 0.0;
    return spec;
}

/**
 * Wall mode with four overlapping waves. Backlog and queue depth are
 * pinned out of reach so nothing is shed: the shed set would come from
 * CpuDevice::cost's hand-picked constant, not from this host.
 */
serve::ServeConfig
serve_config(std::size_t requests)
{
    serve::ServeConfig config;
    config.wall_clock = true;
    config.max_inflight_waves = 4;
    config.max_backlog_us = 1e12;
    config.limits.max_queue_depth = requests;
    return config;
}

std::unique_ptr<exec::Device>
make_serve_device(bool sharded)
{
    if (!sharded)
        return std::make_unique<exec::CpuDevice>();
    exec::ShardPolicy policy;
    policy.shards = 4;
    policy.backends = {"cpu"};
    return std::make_unique<exec::ShardedScheduler>(
        camp::sim::default_config(), policy);
}

/** A generated mix and the digests of its serial reference products. */
struct ServeInput
{
    std::vector<serve::Request> workload;
    std::vector<Digest> ref;
    double serial_s = 0; ///< timed reference products
};

/** The oracle: every product computed serially through mpn, timed in
 * blocks, before any other timing of the run. */
ServeInput
make_serve_input(const serve::WorkloadSpec& spec)
{
    ServeInput in;
    in.workload = serve::generate_workload(spec);
    const std::size_t n = in.workload.size();
    in.ref.resize(n);
    support::SerialGuard serial;
    std::vector<Natural> block(kBlock);
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t count = std::min(kBlock, n - start);
        SpanRecord span{"mpn.mul_serial_block", "mpn", now_ns()};
        for (std::size_t k = 0; k < count; ++k)
            block[k] = in.workload[start + k].a * in.workload[start + k].b;
        span.end_ns = now_ns();
        span.count = static_cast<std::int64_t>(count);
        g_spans.record(span);
        in.serial_s += seconds_between(span.start_ns, span.end_ns);
        for (std::size_t k = 0; k < count; ++k)
            in.ref[start + k] = digest(block[k]);
    }
    return in;
}

/** The same products fanned out over the pool with one TaskGroup per
 * block; returns the timed seconds. */
double
pooled_products(Run& run, const ServeInput& in)
{
    const std::size_t n = in.workload.size();
    const std::size_t tasks = support::ThreadPool::global().executors();
    std::vector<Natural> block(kBlock);
    double seconds = 0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t count = std::min(kBlock, n - start);
        SpanRecord span{"mpn.mul_pooled_block", "mpn", now_ns()};
        {
            support::TaskGroup group;
            for (std::size_t t = 0; t < tasks; ++t)
                group.run([&, t] {
                    for (std::size_t k = t; k < count; k += tasks)
                        block[k] = in.workload[start + k].a *
                                   in.workload[start + k].b;
                });
            group.wait();
        }
        span.end_ns = now_ns();
        span.count = static_cast<std::int64_t>(count);
        g_spans.record(span);
        seconds += seconds_between(span.start_ns, span.end_ns);
        for (std::size_t k = 0; k < count; ++k)
            run.check(true, digest(block[k]) == in.ref[start + k]);
    }
    return seconds;
}

/** What one serving repetition observed. */
struct ServeRep
{
    double total_s = 0;  ///< Server construction through finish()
    double wall_s = 0;   ///< first submit_async through finish()
    double finish_s = 0; ///< inside finish()
    std::uint64_t completed = 0;
    std::uint64_t waves = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double submit_p50_us = 0;
    double submit_p99_us = 0;
    double opcache_hit_ratio = 0;
    double model_over_wall = 0;
    double skew_p50_us = 0;
    double allocs_per_req = 0;
};

/**
 * One closed-loop repetition: a fresh Server, the client submits every
 * request in arrival order (stamping steady_clock just before
 * submit_async and again in on_settle), then finish(). Products are
 * checked against the reference after the clock stops.
 */
ServeRep
serve_rep(Run& run, const ServeInput& in, exec::Device& device,
          bool traced)
{
    const std::vector<serve::Request>& workload = in.workload;
    const std::size_t n = workload.size();
    std::vector<std::uint64_t> sent(n, 0);
    std::vector<std::uint64_t> settled(n, 0);
    std::vector<double> submit_us(n, 0.0);
    support::metrics::Counter& allocs =
        support::metrics::counter("mpn.alloc.count");
    const std::uint64_t allocs_before = allocs.value();

    const std::uint64_t t_construct = now_ns();
    serve::Server server(serve_config(n), device);
    const std::uint64_t t_first = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t0 = now_ns();
        serve::Server::Handle handle = server.submit_async(workload[i]);
        const std::uint64_t t1 = now_ns();
        handle.on_settle(
            [&settled, i](const serve::Outcome&) { settled[i] = now_ns(); });
        sent[i] = t0;
        submit_us[i] = static_cast<double>(t1 - t0) / 1e3;
        if (traced)
            g_spans.record({"serve.submit_async", "serve", t0, t1,
                            static_cast<std::int64_t>(workload[i].id)});
    }
    const std::uint64_t t_finish = now_ns();
    const serve::ServeReport report = server.finish();
    const std::uint64_t t_end = now_ns();

    ServeRep rep;
    rep.total_s = seconds_between(t_construct, t_end);
    rep.wall_s = seconds_between(t_first, t_end);
    rep.finish_s = seconds_between(t_finish, t_end);
    rep.waves = report.waves;
    rep.allocs_per_req = static_cast<double>(allocs.value() - allocs_before) /
                         static_cast<double>(n);
    if (traced) {
        g_spans.record({"serve.finish", "serve", t_finish, t_end});
        for (std::size_t i = 0; i < n; ++i)
            if (settled[i] != 0)
                g_spans.record({"serve.request", "serve", sent[i],
                                settled[i],
                                static_cast<std::int64_t>(workload[i].id),
                                -1, -1, kLaneRequests});
    }

    std::vector<double> latency_ms;
    std::vector<double> skew_us;
    latency_ms.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const serve::Outcome& outcome = report.outcomes[i];
        const bool completed =
            outcome.status == serve::RequestStatus::Completed;
        run.check(completed,
                  completed && digest(outcome.product) == in.ref[i]);
        if (!completed)
            continue;
        ++rep.completed;
        latency_ms.push_back(static_cast<double>(settled[i] - sent[i]) /
                             1e6);
        skew_us.push_back(static_cast<double>(outcome.skew_us));
    }
    rep.p50_ms = percentile(latency_ms, 0.50);
    rep.p90_ms = percentile(latency_ms, 0.90);
    rep.submit_p50_us = percentile(submit_us, 0.50);
    rep.submit_p99_us = percentile(submit_us, 0.99);
    rep.skew_p50_us = median(skew_us);
    const support::OpCacheStats cache = server.opcache_stats();
    rep.opcache_hit_ratio =
        ratio(static_cast<double>(cache.hits),
              static_cast<double>(cache.hits + cache.misses));
    rep.model_over_wall = ratio(static_cast<double>(report.virtual_end_us),
                                static_cast<double>(report.wall_end_us));
    return rep;
}

/** setup_s instance: generate the mix, build the device, run one warm
 * repetition. Leaves the device built for the timed repetitions. */
double
serve_setup(Run& run, const serve::WorkloadSpec& spec, const ServeInput& in,
            bool sharded, std::unique_ptr<exec::Device>& device)
{
    const std::uint64_t t0 = now_ns();
    // Regenerated only to time it: @p in holds the same mix together
    // with its reference digests.
    const std::vector<serve::Request> generated =
        serve::generate_workload(spec);
    device = make_serve_device(sharded);
    const double prepare_s = seconds_between(t0, now_ns());
    clobber(generated.data());
    return prepare_s + serve_rep(run, in, *device, false).total_s;
}

void
run_serve_workload(Run& run, bool large)
{
    const serve::WorkloadSpec spec =
        large ? large_spec(run.opt.seed) : small_spec(run.opt.seed);
    const ServeInput in = make_serve_input(spec);
    std::unique_ptr<exec::Device> device;
    const double setup_s = median_setup(
        [&] { return serve_setup(run, spec, in, large, device); });

    if (run.opt.trace) {
        // Two spans per request; reserved so appends never reallocate
        // inside a timed repetition.
        g_spans.reserve(2 * in.workload.size() + 16);
        run.add("trace.bench_overhead_pct",
                span_overhead_pct(run.opt.seconds,
                                  [&](bool trace_rep) {
                                      if (trace_rep)
                                          g_spans.clear(); // last rep only
                                      g_spans.on = trace_rep;
                                      ScopedSpan span("bench.serve_rep",
                                                      "bench");
                                      return serve_rep(run, in, *device,
                                                       trace_rep)
                                          .wall_s;
                                  }),
                "%");
        return;
    }

    std::vector<double> rps, p50, p90;
    const std::vector<double> walls = timed_reps(run.opt.seconds, 3, [&] {
        const ServeRep rep = serve_rep(run, in, *device, false);
        rps.push_back(static_cast<double>(rep.completed) / rep.wall_s);
        p50.push_back(rep.p50_ms);
        p90.push_back(rep.p90_ms);
        return rep.wall_s;
    });
    std::printf("# %zu reps x %zu requests; latency_tail_ms is the p90 of "
                "each rep\n",
                walls.size(), in.workload.size());
    run.add("setup_s", setup_s, "s");
    run.add("ops_per_s", median(rps), "1/s");
    run.add("latency_p50_ms", median(p50), "ms");
    run.add("latency_tail_ms", median(p90), "ms");
}

// ---- exec replays -----------------------------------------------------

/** Run @p body over the mix in arrival order, @p wave_n requests per
 * wave; @p body returns its timed seconds. */
template <class F>
double
for_each_wave(const ServeInput& in, std::size_t wave_n, F&& body)
{
    const std::size_t n = in.workload.size();
    double seconds = 0;
    std::int64_t wave = 0;
    for (std::size_t start = 0; start < n; start += wave_n, ++wave)
        seconds += body(start, std::min(wave_n, n - start), wave);
    return seconds;
}

/** SubmitQueue submit plus flush, one flush per wave. */
double
replay_queue(Run& run, const ServeInput& in, exec::Device& device,
             std::size_t wave_n, bool traced)
{
    exec::SubmitQueue queue(device);
    std::vector<exec::SubmitQueue::Future> futures;
    return for_each_wave(in, wave_n, [&](std::size_t start,
                                         std::size_t count,
                                         std::int64_t wave) {
        futures.clear();
        const std::uint64_t t0 = now_ns();
        for (std::size_t k = 0; k < count; ++k)
            futures.push_back(queue.submit(in.workload[start + k].a,
                                           in.workload[start + k].b));
        queue.flush();
        const std::uint64_t t1 = now_ns();
        if (traced)
            g_spans.record({"exec.queue.wave", "exec", t0, t1, -1, wave,
                            static_cast<std::int64_t>(count)});
        for (std::size_t k = 0; k < count; ++k)
            run.check(true,
                      digest(futures[k].take()) == in.ref[start + k]);
        return seconds_between(t0, t1);
    });
}

/** WaveBuffer fill plus Device::mul_batch_wave (the zero-copy path). */
double
replay_wave(Run& run, const ServeInput& in, exec::Device& device,
            std::size_t wave_n, bool traced, const char* span_name)
{
    exec::WaveBuffer buffer;
    std::vector<std::size_t> items;
    std::vector<std::uint64_t> indices;
    return for_each_wave(in, wave_n, [&](std::size_t start,
                                         std::size_t count,
                                         std::int64_t wave) {
        items.resize(count);
        indices.resize(count);
        for (std::size_t k = 0; k < count; ++k) {
            items[k] = k;
            indices[k] = k;
        }
        const std::uint64_t t0 = now_ns();
        buffer.reset();
        for (std::size_t k = 0; k < count; ++k)
            buffer.add(in.workload[start + k].a, in.workload[start + k].b);
        device.mul_batch_wave(buffer, items, indices, 0);
        const std::uint64_t t1 = now_ns();
        if (traced)
            g_spans.record({span_name, "exec", t0, t1, -1, wave,
                            static_cast<std::int64_t>(count)});
        for (std::size_t k = 0; k < count; ++k)
            run.check(true, digest(buffer.result(k)) == in.ref[start + k]);
        return seconds_between(t0, t1);
    });
}

/** Device::mul_batch over copied operand pairs (the copying path). */
double
replay_copy(Run& run, const ServeInput& in, exec::Device& device,
            std::size_t wave_n, bool traced)
{
    std::vector<std::pair<Natural, Natural>> pairs;
    return for_each_wave(in, wave_n, [&](std::size_t start,
                                         std::size_t count,
                                         std::int64_t wave) {
        pairs.clear();
        for (std::size_t k = 0; k < count; ++k)
            pairs.emplace_back(in.workload[start + k].a,
                               in.workload[start + k].b);
        const std::uint64_t t0 = now_ns();
        const camp::sim::BatchResult result = device.mul_batch(pairs, 0);
        const std::uint64_t t1 = now_ns();
        if (traced)
            g_spans.record({"exec.copy.wave", "exec", t0, t1, -1, wave,
                            static_cast<std::int64_t>(count)});
        for (std::size_t k = 0; k < count; ++k)
            run.check(true,
                      digest(result.products[k]) == in.ref[start + k]);
        return seconds_between(t0, t1);
    });
}

// ---- the per-layer suite ----------------------------------------------

double
us_per_req(double seconds, const ServeInput& in)
{
    return seconds * 1e6 / static_cast<double>(in.workload.size());
}

/** Medians of a few serving repetitions (spans in the first only). */
std::vector<ServeRep>
serve_reps(Run& run, const ServeInput& in, exec::Device& device, int reps)
{
    std::vector<ServeRep> out;
    for (int r = 0; r < reps; ++r)
        out.push_back(serve_rep(run, in, device, r == 0));
    return out;
}

template <class F>
double
median_of(const std::vector<ServeRep>& reps, F&& field)
{
    std::vector<double> v;
    for (const ServeRep& rep : reps)
        v.push_back(field(rep));
    return median(v);
}

std::size_t
wave_size_of(double reqs_per_wave)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(reqs_per_wave)));
}

/** Median over kReplayReps of each replay path, interleaved so host
 * drift lands on every path alike; spans in the first round only. */
template <class... Paths>
std::vector<double>
replay_medians(Paths&&... paths)
{
    constexpr std::size_t kPaths = sizeof...(Paths);
    std::vector<std::vector<double>> times(kPaths);
    for (int r = 0; r < kReplayReps; ++r) {
        std::size_t p = 0;
        ((times[p++].push_back(paths(r == 0))), ...);
    }
    std::vector<double> out;
    for (const auto& t : times)
        out.push_back(median(t));
    return out;
}

void
suite_serve_small(Run& run)
{
    ScopedSpan phase("bench.suite.serve_small", "bench");
    const ServeInput in = make_serve_input(small_spec(run.opt.seed));
    const double pooled_s = pooled_products(run, in);
    exec::CpuDevice cpu;
    const std::vector<ServeRep> reps = serve_reps(run, in, cpu, 3);
    const double serve_us = median_of(
        reps, [&](const ServeRep& r) { return us_per_req(r.wall_s, in); });
    const double reqs_per_wave = median_of(reps, [](const ServeRep& r) {
        return ratio(static_cast<double>(r.completed),
                     static_cast<double>(r.waves));
    });
    const std::size_t wave_n = wave_size_of(reqs_per_wave);
    const std::vector<double> replay = replay_medians(
        [&](bool t) { return replay_queue(run, in, cpu, wave_n, t); },
        [&](bool t) {
            return replay_wave(run, in, cpu, wave_n, t, "exec.wave.wave");
        },
        [&](bool t) { return replay_copy(run, in, cpu, wave_n, t); });
    const double queue_us = us_per_req(replay[0], in);
    const double wave_us = us_per_req(replay[1], in);
    const double pooled_us = us_per_req(pooled_s, in);

    run.add("serve.submit_call_us.p50",
            median_of(reps, [](const ServeRep& r) { return r.submit_p50_us; }),
            "us");
    run.add("serve.submit_call_us.p99",
            median_of(reps, [](const ServeRep& r) { return r.submit_p99_us; }),
            "us");
    run.add("serve.us_per_req", serve_us, "us");
    run.add("serve.reqs_per_wave", reqs_per_wave, "count");
    run.add("serve.opcache_hit_ratio",
            median_of(reps,
                      [](const ServeRep& r) { return r.opcache_hit_ratio; }),
            "ratio");
    run.add("serve.model_over_wall",
            median_of(reps,
                      [](const ServeRep& r) { return r.model_over_wall; }),
            "ratio");
    run.add("serve.skew_p50_us",
            median_of(reps, [](const ServeRep& r) { return r.skew_p50_us; }),
            "us");
    run.add("serve.overhead_us_per_req", serve_us - queue_us, "us");
    run.add("exec.queue_us_per_req", queue_us, "us");
    run.add("exec.wave_us_per_req", wave_us, "us");
    run.add("exec.copy_us_per_req", us_per_req(replay[2], in), "us");
    run.add("exec.queue_overhead_us_per_req", queue_us - wave_us, "us");
    run.add("mpn.mul_serial_us_per_req", us_per_req(in.serial_s, in), "us");
    run.add("mpn.mul_pooled_us_per_req", pooled_us, "us");
    run.add("mpn.alloc_per_req",
            median_of(reps, [](const ServeRep& r) { return r.allocs_per_req; }),
            "count");
    run.add("stack.overhead_x", ratio(serve_us, pooled_us), "x");
}

void
suite_serve_large(Run& run)
{
    ScopedSpan phase("bench.suite.serve_large", "bench");
    const ServeInput in = make_serve_input(large_spec(run.opt.seed));
    const double pooled_s = pooled_products(run, in);
    std::unique_ptr<exec::Device> sharded = make_serve_device(true);
    const std::vector<ServeRep> reps = serve_reps(run, in, *sharded, 1);
    const ServeRep& rep = reps.front();
    const std::size_t wave_n = wave_size_of(
        ratio(static_cast<double>(rep.completed),
              static_cast<double>(rep.waves)));

    // A fresh scheduler for the replay, so its shard counters cover
    // exactly the replayed waves.
    exec::CpuDevice cpu;
    exec::ShardPolicy policy;
    policy.shards = 4;
    policy.backends = {"cpu"};
    exec::ShardedScheduler scheduler(camp::sim::default_config(), policy);
    const std::vector<double> replay = replay_medians(
        [&](bool t) {
            return replay_wave(run, in, cpu, wave_n, t, "exec.wave.wave");
        },
        [&](bool t) { return replay_copy(run, in, cpu, wave_n, t); },
        [&](bool t) {
            return replay_wave(run, in, scheduler, wave_n, t,
                               "exec.sharded.wave");
        });
    double max_products = 0;
    double sum_products = 0;
    for (std::size_t i = 0; i < scheduler.shard_count(); ++i) {
        const double products =
            static_cast<double>(scheduler.shard_stats(i).products);
        max_products = std::max(max_products, products);
        sum_products += products;
    }
    const double serve_us = us_per_req(rep.wall_s, in);
    const double pooled_us = us_per_req(pooled_s, in);

    run.add("serve.finish_ms.large", rep.finish_s * 1e3, "ms");
    run.add("serve.us_per_req.large", serve_us, "us");
    run.add("serve.opcache_hit_ratio.large", rep.opcache_hit_ratio, "ratio");
    run.add("exec.wave_over_copy.large", ratio(replay[1], replay[0]), "x");
    run.add("exec.sharded_over_cpu.large", ratio(replay[0], replay[2]), "x");
    run.add("exec.shard_imbalance.large",
            ratio(max_products,
                  sum_products / static_cast<double>(scheduler.shard_count())),
            "x");
    run.add("mpn.mul_serial_us_per_req.large", us_per_req(in.serial_s, in),
            "us");
    run.add("mpn.mul_pooled_us_per_req.large", pooled_us, "us");
    run.add("stack.overhead_x.large", ratio(serve_us, pooled_us), "x");
}

/** Known prefix and, at 1M digits, the recorded whole-string digest. */
bool
pi_exact(const std::string& digits, std::uint64_t count)
{
    const std::size_t prefix = std::strlen(kPiPrefix);
    if (digits.size() != count + 2 ||
        digits.compare(0, prefix, kPiPrefix) != 0)
        return false;
    return count != kPiDigits || fnv1a_bytes(digits) == kPi1mDigest;
}

/** One timed step of the pi replay: runs @p step under a span and adds
 * its seconds to @p bucket. */
template <class F>
auto
pi_step(const char* name, double& bucket, F&& step)
{
    const std::uint64_t t0 = now_ns();
    auto result = step();
    const std::uint64_t t1 = now_ns();
    g_spans.record({name, "pi", t0, t1});
    bucket += seconds_between(t0, t1);
    return result;
}

/** Seconds per step of one compute_pi replay. */
struct PiSteps
{
    double split = 0, pow10 = 0, mul = 0, isqrt = 0, div = 0, to_decimal = 0;

    double total() const
    {
        return split + pow10 + mul + isqrt + div + to_decimal;
    }
};

/** compute_pi step by step through public calls: binary splitting,
 * then finalize_pi's scale / sqrt / multiply / divide / convert.
 * Returns the digit string so the caller can hold it to compute_pi's. */
std::string
replay_pi(PiSteps& t)
{
    constexpr std::uint64_t kGuard = 10;
    const pi::SplitTriple split = pi_step("pi.split", t.split, [] {
        return pi::binary_split(0, pi::terms_for_digits(kPiDigits));
    });
    const Natural scale = pi_step("pi.pow10", t.pow10, [] {
        return Natural::pow10(kPiDigits + kGuard);
    });
    const Natural sqrt_arg = pi_step(
        "pi.mul", t.mul, [&] { return Natural(10005) * scale * scale; });
    const Natural root = pi_step("pi.isqrt", t.isqrt,
                                 [&] { return Natural::isqrt(sqrt_arg); });
    const Natural numerator = pi_step("pi.mul", t.mul, [&] {
        return Natural(426880) * root * split.q.abs();
    });
    const Natural quotient = pi_step(
        "pi.div", t.div, [&] { return numerator / split.t.abs(); });
    const Natural guard = pi_step("pi.pow10", t.pow10,
                                  [] { return Natural::pow10(kGuard); });
    const Natural scaled =
        pi_step("pi.div", t.div, [&] { return quotient / guard; });
    return pi_step("pi.to_decimal", t.to_decimal, [&] {
        return "3." + scaled.to_decimal().substr(1);
    });
}

/** A warm-up compute_pi, then two rounds of compute_pi and its replay
 * in opposite order. pi.steps_over_total is the median over rounds of
 * replay ÷ whole, each pair adjacent in time so host drift cancels;
 * the warm-up keeps the first round from paying for cold caches. */
void
suite_pi(Run& run)
{
    ScopedSpan phase("bench.suite.pi", "bench");
    auto timed_whole = [&run] {
        ScopedSpan span("pi.compute_pi", "pi");
        const std::uint64_t t0 = now_ns();
        const std::string whole = pi::compute_pi(kPiDigits);
        const double s = seconds_between(t0, now_ns());
        run.check(true, pi_exact(whole, kPiDigits));
        return s;
    };
    timed_whole();
    std::vector<PiSteps> rounds(2);
    std::vector<double> step_ratio;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        double whole_s = r == 0 ? timed_whole() : 0.0;
        const bool identical = pi_exact(replay_pi(rounds[r]), kPiDigits);
        if (r != 0)
            whole_s = timed_whole();
        step_ratio.push_back(ratio(rounds[r].total(), whole_s));
        run.check(true, identical);
        if (!identical)
            std::fprintf(stderr, "camp_bench: the pi replay's digits differ "
                                 "from compute_pi; the replay mirrors "
                                 "finalize_pi and must follow it\n");
    }
    auto step_median = [&rounds](double PiSteps::*field) {
        std::vector<double> v;
        for (const PiSteps& t : rounds)
            v.push_back(t.*field);
        return median(v);
    };
    run.add("pi.split_s", step_median(&PiSteps::split), "s");
    run.add("pi.pow10_s", step_median(&PiSteps::pow10), "s");
    run.add("pi.isqrt_s", step_median(&PiSteps::isqrt), "s");
    run.add("pi.mul_s", step_median(&PiSteps::mul), "s");
    run.add("pi.div_s", step_median(&PiSteps::div), "s");
    run.add("pi.to_decimal_s", step_median(&PiSteps::to_decimal), "s");
    run.add("pi.steps_over_total", median(step_ratio), "ratio");
}

/** A random value one bit shorter than the modulus, so below it. */
Natural
rsa_message(camp::Rng& rng, const rsa::KeyPair& key)
{
    return Natural::random_bits(rng, key.n.bits() - 1);
}

void
suite_rsa(Run& run)
{
    ScopedSpan phase("bench.suite.rsa", "bench");
    const std::uint64_t t0 = now_ns();
    rsa::KeyPair key;
    {
        ScopedSpan span("rsa.keygen", "rsa");
        key = rsa::generate_key(kRsaBits, kRsaKeySeed);
    }
    const double keygen_s = seconds_between(t0, now_ns());

    const support::OpCacheStats before = support::OpCache::global().stats();
    camp::Rng rng(run.opt.seed ^ 0x5a5a5a5aull);
    for (int i = 0; i < 8; ++i) {
        const Natural message = rsa_message(rng, key);
        const Natural cipher = rsa::encrypt(message, key);
        ScopedSpan span("rsa.decrypt", "rsa");
        run.check(true, rsa::decrypt(cipher, key) == message);
    }
    const support::OpCacheStats after = support::OpCache::global().stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);

    const std::size_t nn = key.n.size();
    camp::mpn::MontCtx ctx(key.n.data(), nn);
    std::vector<Limb> a(nn, 0), b(nn, 0), r(nn, 0);
    const Natural x = rsa_message(rng, key);
    const Natural y = rsa_message(rng, key);
    std::copy(x.limbs().begin(), x.limbs().end(), a.begin());
    std::copy(y.limbs().begin(), y.limbs().end(), b.begin());
    double mont_ns = 0;
    {
        ScopedSpan span("mpn.mont_mul_64", "mpn");
        mont_ns = ns_per_call(
            [&] {
                ctx.mul(r.data(), a.data(), b.data());
                clobber(r.data());
            },
            2000);
    }

    run.add("rsa.keygen_s", keygen_s, "s");
    run.add("support.opcache.rsa_hit_ratio", ratio(hits, hits + misses),
            "ratio");
    run.add("mpn.mont_mul_64_ns", mont_ns, "ns");
}

/** x = lo(x * y) + hi(x * y): one 64x64->128-bit multiply and add. */
inline void
mul_fold(std::uint64_t& x, std::uint64_t y)
{
    const unsigned __int128 p = static_cast<unsigned __int128>(x) * y;
    x = static_cast<std::uint64_t>(p) + static_cast<std::uint64_t>(p >> 64);
}

/**
 * The multiplier roof: ns per 64x64->128-bit multiply-add over eight
 * independent chains held in registers, enough to keep the multiplier
 * issuing every cycle. A limb-product kernel cannot beat this rate.
 */
double
mulx_roof_ns(camp::Rng& rng)
{
    constexpr std::size_t kIters = std::size_t{1} << 16;
    const std::uint64_t seed = rng.next() | 1;
    const std::uint64_t y = rng.next() | 1;
    std::uint64_t sink = 0;
    const double per_loop = ns_per_call(
        [&] {
            std::uint64_t x0 = seed, x1 = seed + 2, x2 = seed + 4,
                          x3 = seed + 6, x4 = seed + 8, x5 = seed + 10,
                          x6 = seed + 12, x7 = seed + 14;
            for (std::size_t i = 0; i < kIters; ++i) {
                mul_fold(x0, y);
                mul_fold(x1, y);
                mul_fold(x2, y);
                mul_fold(x3, y);
                mul_fold(x4, y);
                mul_fold(x5, y);
                mul_fold(x6, y);
                mul_fold(x7, y);
            }
            sink ^= x0 ^ x1 ^ x2 ^ x3 ^ x4 ^ x5 ^ x6 ^ x7;
            clobber(&sink);
        },
        1);
    return per_loop / static_cast<double>(kIters * 8);
}

void
suite_kernels(Run& run)
{
    ScopedSpan phase("bench.suite.kernels", "bench");
    camp::Rng rng(run.opt.seed ^ 0x6b65726eull);
    constexpr std::size_t kLimbs = 64;
    std::vector<Limb> a(kLimbs), b(kLimbs), r(2 * kLimbs);
    for (std::size_t i = 0; i < kLimbs; ++i) {
        a[i] = rng.next();
        b[i] = rng.next();
    }
    const kernels::KernelTable& table = kernels::active();
    double basecase_ns = 0, mul_ns = 0, sqr_ns = 0, roof_ns = 0;
    {
        ScopedSpan span("kernels.basecase_64", "kernels");
        basecase_ns = ns_per_call(
            [&] {
                table.mul_basecase(r.data(), a.data(), kLimbs, b.data(),
                                   kLimbs);
                clobber(r.data());
            },
            2000);
    }
    {
        ScopedSpan span("host.mulx", "kernels");
        roof_ns = mulx_roof_ns(rng);
    }
    {
        ScopedSpan span("mpn.mul_64", "mpn");
        mul_ns = ns_per_call(
            [&] {
                camp::mpn::mul(r.data(), a.data(), kLimbs, b.data(), kLimbs);
                clobber(r.data());
            },
            2000);
    }
    {
        ScopedSpan span("mpn.sqr_64", "mpn");
        sqr_ns = ns_per_call(
            [&] {
                camp::mpn::sqr(r.data(), a.data(), kLimbs);
                clobber(r.data());
            },
            2000);
    }

    const std::uint64_t big_bits = std::uint64_t{1} << 20;
    const Natural big_a = Natural::random_bits(rng, big_bits);
    const Natural big_b = Natural::random_bits(rng, big_bits);
    std::vector<double> serial_ms, pooled_ms;
    Natural serial_product, pooled_product;
    for (int i = 0; i < 5; ++i) {
        {
            ScopedSpan span("mpn.mul_1m_serial", "mpn");
            support::SerialGuard serial;
            const std::uint64_t t0 = now_ns();
            serial_product = big_a * big_b;
            serial_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
        }
        {
            ScopedSpan span("mpn.mul_1m_pooled", "mpn");
            const std::uint64_t t0 = now_ns();
            pooled_product = big_a * big_b;
            pooled_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
        }
        run.check(true, serial_product == pooled_product);
    }

    run.add("kernels.basecase_64_ns", basecase_ns, "ns");
    run.add("host.mulx_ns", roof_ns, "ns");
    run.add("kernels.basecase_64_roof_frac",
            ratio(static_cast<double>(kLimbs * kLimbs) * roof_ns,
                  basecase_ns),
            "ratio");
    run.add("kernels.simd_tier",
            static_cast<double>(static_cast<int>(kernels::active_tier())),
            "tier");
    run.add("mpn.mul_64_ns", mul_ns, "ns");
    run.add("mpn.sqr_64_ns", sqr_ns, "ns");
    run.add("mpn.sqr_over_mul_64", ratio(sqr_ns, mul_ns), "ratio");
    run.add("mpn.mul_1m_serial_ms", median(serial_ms), "ms");
    run.add("mpn.mul_1m_pooled_ms", median(pooled_ms), "ms");
}

void
layer_suite(Run& run)
{
    suite_serve_small(run);
    suite_serve_large(run);
    suite_pi(run);
    suite_rsa(run);
    suite_kernels(run);
    run.add("support.arena.high_water_mb",
            static_cast<double>(
                support::LimbArena::global().stats().high_water_bytes) /
                (1024.0 * 1024.0),
            "MB");
}

// ---- pi and RSA workloads ---------------------------------------------

/** Decrypts per rsa-4096 repetition (about two seconds): enough for a
 * per-repetition p90 that host hiccups in one repetition cannot move. */
constexpr int kRsaBatch = 32;

/**
 * Timed repetitions shared by pi-1m and rsa-4096; @p rep runs one and
 * returns the seconds of each of its operations. With --trace 1 they
 * come in untraced/traced pairs. Otherwise the latency tail is, as on
 * the serve workloads, the median over repetitions of each one's p90;
 * where a repetition is a single operation (pi-1m) it is the slowest.
 */
template <class Rep>
void
run_op_workload(Run& run, double setup_s, Rep&& rep)
{
    auto rep_seconds = [&] {
        const std::vector<double> op_s = rep();
        double total = 0;
        for (const double s : op_s)
            total += s;
        return std::make_pair(op_s, total);
    };
    if (run.opt.trace) {
        run.add("trace.bench_overhead_pct",
                span_overhead_pct(run.opt.seconds,
                                  [&](bool trace_rep) {
                                      g_spans.on = trace_rep;
                                      return rep_seconds().second;
                                  }),
                "%");
        return;
    }
    std::vector<double> ops, rep_p90;
    const std::vector<double> reps = timed_reps(run.opt.seconds, 1, [&] {
        const auto [op_s, total] = rep_seconds();
        ops.insert(ops.end(), op_s.begin(), op_s.end());
        rep_p90.push_back(percentile(op_s, 0.90));
        return total;
    });
    double total = 0;
    for (const double s : reps)
        total += s;
    const bool single = ops.size() == reps.size();
    std::printf("# %zu reps x %zu ops; latency_tail_ms is %s\n", reps.size(),
                ops.size() / reps.size(),
                single ? "the slowest rep" : "the p90 of each rep");
    run.add("setup_s", setup_s, "s");
    run.add("ops_per_s", static_cast<double>(ops.size()) / total, "1/s");
    run.add("latency_p50_ms", median(ops) * 1e3, "ms");
    run.add("latency_tail_ms",
            (single ? percentile(reps, 1.0) : median(rep_p90)) * 1e3, "ms");
}

void
run_pi_workload(Run& run)
{
    // compute_pi takes no input but the digit count, so the seed
    // changes nothing here.
    const double setup_s = median_setup([&] {
        const std::uint64_t t0 = now_ns();
        const std::string warm = pi::compute_pi(kPiWarmDigits);
        const double s = seconds_between(t0, now_ns());
        run.check(true, pi_exact(warm, kPiWarmDigits));
        return s;
    });
    run_op_workload(run, setup_s, [&] {
        ScopedSpan span("pi.compute_pi", "pi");
        const std::uint64_t t0 = now_ns();
        const std::string digits = pi::compute_pi(kPiDigits);
        const double s = seconds_between(t0, now_ns());
        run.check(true, pi_exact(digits, kPiDigits));
        return std::vector<double>{s};
    });
}

void
run_rsa_workload(Run& run)
{
    rsa::KeyPair key;
    const double setup_s = median_setup([&] {
        const std::uint64_t t0 = now_ns();
        key = rsa::generate_key(kRsaBits, kRsaKeySeed);
        return seconds_between(t0, now_ns());
    });
    camp::Rng rng(run.opt.seed);
    run_op_workload(run, setup_s, [&] {
        std::vector<double> op_s;
        for (int i = 0; i < kRsaBatch; ++i) {
            const Natural message = rsa_message(rng, key);
            const Natural cipher = rsa::encrypt(message, key);
            ScopedSpan span("rsa.decrypt", "rsa");
            const std::uint64_t t0 = now_ns();
            const Natural plain = rsa::decrypt(cipher, key);
            op_s.push_back(seconds_between(t0, now_ns()));
            run.check(true, plain == message);
        }
        return op_s;
    });
}

// ---- command line -----------------------------------------------------

const char* const kWorkloads[] = {"serve-small", "serve-large", "pi-1m",
                                  "rsa-4096"};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "camp_bench: %s\n"
                 "usage: camp_bench --workload "
                 "<serve-small|serve-large|pi-1m|rsa-4096>\n"
                 "                  [--seed <u64>] [--seconds <s>] "
                 "[--trace <0|1>] [--out <dir>]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parse_u64(const char* flag, const char* text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " needs an unsigned integer").c_str());
    return v;
}

Options
parse_options(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parse_u64("--seed", value);
        } else if (flag == "--seconds") {
            char* end = nullptr;
            opt.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                usage("--seconds needs a number in (0, 3600]");
        } else if (flag == "--trace") {
            const std::uint64_t t = parse_u64("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
        } else if (flag == "--out") {
            opt.out_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  opt.workload) == std::end(kWorkloads))
        usage("--workload names none of the four workloads");
    return opt;
}

/** Every CAMP_* variable reshapes the program under test (backend,
 * shards, SIMD tier, caches, threads, thresholds, serving knobs,
 * tracing, fault and fuzz seeds), so a run with any of them set would
 * not be comparable with another. */
void
refuse_program_knobs()
{
    for (char** env = environ; *env != nullptr; ++env)
        if (std::strncmp(*env, "CAMP_", 5) == 0) {
            const char* eq = std::strchr(*env, '=');
            const std::string name =
                eq ? std::string(*env, static_cast<std::size_t>(eq - *env))
                   : std::string(*env);
            std::fprintf(stderr,
                         "camp_bench: refusing to run with %s set; "
                         "unset every CAMP_* variable so the program "
                         "under test is the default build\n",
                         name.c_str());
            std::exit(2);
        }
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        Run run;
        run.opt = parse_options(argc, argv);
        refuse_program_knobs();
        std::printf("# camp_bench workload=%s seed=%llu seconds=%g "
                    "trace=%d\n# host %s\n",
                    run.opt.workload.c_str(),
                    static_cast<unsigned long long>(run.opt.seed),
                    run.opt.seconds, run.opt.trace ? 1 : 0,
                    host_json(run).c_str());

        const std::string& w = run.opt.workload;
        if (w == "serve-small" || w == "serve-large")
            run_serve_workload(run, w == "serve-large");
        else if (w == "pi-1m")
            run_pi_workload(run);
        else
            run_rsa_workload(run);

        if (run.opt.trace) {
            layer_suite(run);
            g_spans.print_self_time();
            std::filesystem::create_directories(run.opt.out_dir);
            const std::string path = run.opt.out_dir + "/trace_" + w +
                                     "_seed" +
                                     std::to_string(run.opt.seed) + ".json";
            if (!g_spans.write_chrome(path))
                throw std::runtime_error("cannot write " + path);
            std::printf("# trace: %zu spans -> %s\n", g_spans.size(),
                        path.c_str());
        } else {
            run.add("peak_rss_mb", peak_rss_mb(), "MB");
        }

        std::printf("wrong_results %llu count\nfail_frac %.10g ratio\n",
                    static_cast<unsigned long long>(run.wrong),
                    ratio(static_cast<double>(run.failed),
                          static_cast<double>(run.attempted)));
        write_results(run);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    run.correct() ? "true" : "false",
                    static_cast<unsigned long long>(run.attempted),
                    static_cast<unsigned long long>(run.failed),
                    metrics_json(run.metrics).c_str());
        std::fflush(stdout);
        return run.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "camp_bench: %s\n", e.what());
        return 1;
    }
}
