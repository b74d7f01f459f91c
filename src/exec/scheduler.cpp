#include "exec/scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <utility>

#include "exec/registry.hpp"
#include "exec/wave.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

namespace {

namespace metrics = support::metrics;

/** Registered-once scheduler-level counters. */
struct SchedulerMetrics
{
    metrics::Counter* waves;
    metrics::Counter* products;
    metrics::Counter* redistributed;
    metrics::Counter* cpu_fallbacks;
    metrics::Counter* drains;
    metrics::Gauge* inflight;
};

SchedulerMetrics&
scheduler_metrics()
{
    static SchedulerMetrics* m = [] {
        auto* sm = new SchedulerMetrics;
        sm->waves = &metrics::counter("exec.scheduler.waves");
        sm->products = &metrics::counter("exec.scheduler.products");
        sm->redistributed =
            &metrics::counter("exec.scheduler.redistributed");
        sm->cpu_fallbacks =
            &metrics::counter("exec.scheduler.cpu_fallbacks");
        sm->drains = &metrics::counter("exec.scheduler.drains");
        sm->inflight = &metrics::gauge("exec.scheduler.inflight");
        return sm;
    }();
    return *m;
}

} // namespace

struct ShardedScheduler::ShardMetrics
{
    metrics::Counter* products;
    metrics::Counter* waves;
    metrics::Counter* cycles;
    metrics::Counter* redistributed;
};

ShardedScheduler::ShardMetrics&
ShardedScheduler::metrics_for(std::size_t ordinal)
{
    static std::mutex mutex;
    static std::vector<std::unique_ptr<ShardMetrics>>* all =
        new std::vector<std::unique_ptr<ShardMetrics>>;
    std::lock_guard<std::mutex> lock(mutex);
    while (all->size() <= ordinal) {
        const std::string prefix =
            "exec.shard." + std::to_string(all->size()) + ".";
        auto sm = std::make_unique<ShardMetrics>();
        sm->products = &metrics::counter(prefix + "products");
        sm->waves = &metrics::counter(prefix + "waves");
        sm->cycles = &metrics::counter(prefix + "cycles");
        sm->redistributed =
            &metrics::counter(prefix + "redistributed");
        all->push_back(std::move(sm));
    }
    return *(*all)[ordinal];
}

ShardPolicy
shard_policy_from_env()
{
    ShardPolicy policy;
    policy.shards =
        support::env_positive_unsigned("CAMP_SHARDS", policy.shards);
    policy.max_inflight_waves = support::env_positive_unsigned(
        "CAMP_SHARD_INFLIGHT", policy.max_inflight_waves);
    if (const char* env = std::getenv("CAMP_SHARD_BACKENDS")) {
        std::string token;
        std::istringstream list(env);
        while (std::getline(list, token, ',')) {
            if (token.empty())
                throw InvalidArgument(
                    "CAMP_SHARD_BACKENDS has an empty entry: '" +
                    std::string(env) + "'");
            policy.backends.push_back(token);
        }
    }
    return policy;
}

ShardedScheduler::ShardedScheduler(const sim::SimConfig& config,
                                   ShardPolicy policy)
    : policy_(std::move(policy))
{
    if (policy_.shards == 0)
        throw InvalidArgument("shard count must be >= 1");
    if (policy_.backends.empty())
        policy_.backends = {"sim"};
    for (const std::string& backend : policy_.backends)
        if (backend == "sharded")
            throw InvalidArgument(
                "shard backends cannot include 'sharded' "
                "(recursive scheduling)");
    // Armed fault injection without per-shard checking would let a
    // drained shard's peers serve corrupted recovery products; default
    // to full-coverage checking, exactly like mpapca::Runtime.
    if (config.faults.enabled() && !policy_.check.enabled) {
        policy_.check.enabled = true;
        policy_.check.sample_rate = 1.0;
    }
    std::vector<std::unique_ptr<Device>> devices;
    devices.reserve(policy_.shards);
    for (unsigned i = 0; i < policy_.shards; ++i)
        devices.push_back(make_device(
            policy_.backends[i % policy_.backends.size()], config));
    init(std::move(devices));
}

ShardedScheduler::ShardedScheduler(
    std::vector<std::unique_ptr<Device>> devices, ShardPolicy policy)
    : policy_(std::move(policy))
{
    policy_.shards = static_cast<unsigned>(devices.size());
    init(std::move(devices));
}

void
ShardedScheduler::init(std::vector<std::unique_ptr<Device>> devices)
{
    if (devices.empty())
        throw InvalidArgument(
            "sharded scheduler needs at least one shard");
    if (policy_.max_inflight_waves == 0)
        throw InvalidArgument("max_inflight_waves must be >= 1");
    shards_.reserve(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
        CAMP_ASSERT(devices[i] != nullptr);
        auto shard = std::make_unique<Shard>();
        shard->device = std::make_unique<CheckedDevice>(
            std::move(devices[i]), policy_.check);
        shard->metrics = &metrics_for(i);
        shards_.push_back(std::move(shard));
    }
    for (const auto& shard : shards_) {
        const std::uint64_t cap = shard->device->base_cap_bits();
        if (cap != 0)
            cap_bits_ =
                cap_bits_ == 0 ? cap : std::min(cap_bits_, cap);
    }
    tuning_ = apply_device_env_tuning(
        "sharded", cap_bits_ != 0 ? retuned_for_cap(cap_bits_)
                                  : mpn::mul_tuning());
    // Wave slots: descending ids so the first wave claims slot 0 and a
    // steady single-submitter workload ping-pongs between slots 0/1
    // (warm staging capacity on both).
    staging_.resize(policy_.max_inflight_waves);
    free_slots_.reserve(policy_.max_inflight_waves);
    for (unsigned i = policy_.max_inflight_waves; i > 0; --i)
        free_slots_.push_back(i - 1);
}

unsigned
ShardedScheduler::acquire_wave_slot()
{
    std::unique_lock<std::mutex> lock(wave_mutex_);
    wave_cv_.wait(lock, [this] { return !free_slots_.empty(); });
    const unsigned slot = free_slots_.back();
    free_slots_.pop_back();
    scheduler_metrics().inflight->update_max(static_cast<std::int64_t>(
        policy_.max_inflight_waves - free_slots_.size()));
    return slot;
}

void
ShardedScheduler::release_wave_slot(unsigned slot)
{
    {
        std::lock_guard<std::mutex> lock(wave_mutex_);
        free_slots_.push_back(slot);
    }
    wave_cv_.notify_one();
}

DeviceKind
ShardedScheduler::kind() const
{
    bool model = false;
    for (const auto& shard : shards_) {
        if (shard->device->kind() == DeviceKind::Accelerator)
            return DeviceKind::Accelerator;
        model = model || shard->device->kind() == DeviceKind::Model;
    }
    return model ? DeviceKind::Model : DeviceKind::Host;
}

std::size_t
ShardedScheduler::alive_count() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::size_t alive = 0;
    for (const auto& shard : shards_)
        alive += shard->alive ? 1 : 0;
    return alive;
}

bool
ShardedScheduler::shard_alive(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return shards_[i]->alive;
}

ShardStats
ShardedScheduler::shard_stats(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return shards_[i]->stats;
}

SchedulerStats
ShardedScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return stats_;
}

CheckStats
ShardedScheduler::check_stats() const
{
    CheckStats total;
    for (const auto& shard : shards_) {
        const CheckStats& s = shard->device->stats();
        total.checks += s.checks;
        total.detected += s.detected;
        total.retried += s.retried;
        total.fallbacks += s.fallbacks;
    }
    return total;
}

void
ShardedScheduler::set_diagnostic_sink(CheckedDevice::DiagnosticSink sink)
{
    for (auto& shard : shards_)
        shard->device->set_diagnostic_sink(sink);
}

std::vector<std::size_t>
ShardedScheduler::alive_shards() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::vector<std::size_t> alive;
    alive.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i)
        if (shards_[i]->alive)
            alive.push_back(i);
    return alive;
}

void
ShardedScheduler::drain_shard(std::size_t i, const char* why)
{
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        std::size_t alive = 0;
        for (const auto& shard : shards_)
            alive += shard->alive ? 1 : 0;
        // Never drain the last survivor: per-product recovery and the
        // CPU fallback keep results exact even on one sick shard.
        if (!shards_[i]->alive || alive <= 1)
            return;
        shards_[i]->alive = false;
        shards_[i]->stats.drained = true;
        ++stats_.drains;
    }
    scheduler_metrics().drains->add();
    support::trace::Span span("exec.scheduler.drain", "exec");
    span.arg("shard", static_cast<double>(i));
    (void)why;
}

void
ShardedScheduler::check_operand_bits(std::uint64_t bits) const
{
    if (cap_bits_ == 0 || bits <= cap_bits_)
        return;
    std::ostringstream message;
    message << "operand of " << bits
            << " bits exceeds the scheduler base capability of "
            << cap_bits_ << " bits";
    throw InvalidArgument(message.str());
}

std::vector<std::vector<std::size_t>>
ShardedScheduler::lpt_assign(
    const std::vector<std::vector<double>>& weights)
{
    const std::size_t shards = weights.size();
    CAMP_ASSERT(shards > 0);
    const std::size_t items = weights[0].size();
    for (const auto& row : weights)
        CAMP_ASSERT(row.size() == items);

    // Longest processing time first: place items in descending order
    // of their heaviest-shard weight (stable sort, so equal weights
    // keep index order) onto the shard finishing them earliest.
    std::vector<std::size_t> order(items);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<double> key(items);
    for (std::size_t i = 0; i < items; ++i) {
        double heaviest = weights[0][i];
        for (std::size_t s = 1; s < shards; ++s)
            heaviest = std::max(heaviest, weights[s][i]);
        key[i] = heaviest;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&key](std::size_t a, std::size_t b) {
                         return key[a] > key[b];
                     });

    std::vector<double> load(shards, 0.0);
    std::vector<std::vector<std::size_t>> assign(shards);
    for (const std::size_t item : order) {
        std::size_t best = 0;
        double best_finish = load[0] + weights[0][item];
        for (std::size_t s = 1; s < shards; ++s) {
            const double finish = load[s] + weights[s][item];
            if (finish < best_finish) {
                best = s;
                best_finish = finish;
            }
        }
        load[best] = best_finish;
        assign[best].push_back(item);
    }
    // Ascending order inside each shard: sub-batches execute in wave
    // order, which keeps per-product accounting easy to line up.
    for (auto& mine : assign)
        std::sort(mine.begin(), mine.end());
    return assign;
}

Natural
ShardedScheduler::recover_product(std::size_t from, const Natural& a,
                                  const Natural& b,
                                  std::uint64_t& injected)
{
    const std::size_t count = shards_.size();
    for (std::size_t offset = 1; offset < count; ++offset) {
        const std::size_t i = (from + offset) % count;
        Shard& shard = *shards_[i];
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            if (!shard.alive)
                continue;
        }
        // Exact-capable peers only: the host path is golden by
        // construction; an accelerator qualifies when its checker
        // covers every product (PR-1 recovery makes the result exact).
        const CheckPolicy& check = shard.device->policy();
        const bool exact =
            shard.device->kind() == DeviceKind::Host ||
            (check.enabled && check.sample_rate >= 1.0);
        if (!exact)
            continue;
        MulOutcome outcome;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            outcome = shard.device->mul(a, b);
        }
        injected += outcome.injected;
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++shard.stats.products;
        }
        shard.metrics->products->add();
        return std::move(outcome.product);
    }
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.cpu_fallbacks;
    }
    scheduler_metrics().cpu_fallbacks->add();
    return a * b;
}

MulOutcome
ShardedScheduler::mul(const Natural& a, const Natural& b)
{
    check_operand_bits(std::max(a.bits(), b.bits()));
    // Cheapest-first placement over the alive shards.
    std::vector<std::size_t> candidates = alive_shards();
    std::vector<double> seconds(shards_.size(), 0.0);
    for (const std::size_t i : candidates)
        seconds[i] =
            shards_[i]
                ->device
                ->cost(std::max<std::uint64_t>(1, a.bits()),
                       std::max<std::uint64_t>(1, b.bits()))
                .seconds;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&seconds](std::size_t x, std::size_t y) {
                         return seconds[x] < seconds[y];
                     });
    for (const std::size_t i : candidates) {
        Shard& shard = *shards_[i];
        MulOutcome outcome;
        try {
            std::lock_guard<std::mutex> lock(shard.mutex);
            outcome = shard.device->mul(a, b);
        } catch (const std::exception&) {
            drain_shard(i, "mul threw");
            // The product moves to the next candidate — same
            // redistribution accounting as the batch drain path.
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                ++shard.stats.redistributed;
                ++stats_.redistributed;
            }
            shard.metrics->redistributed->add();
            scheduler_metrics().redistributed->add();
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++shard.stats.products;
            ++stats_.products;
        }
        shard.metrics->products->add();
        scheduler_metrics().products->add();
        return outcome;
    }
    // Every shard refused: serve the exact host product.
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.cpu_fallbacks;
        ++stats_.products;
    }
    scheduler_metrics().cpu_fallbacks->add();
    scheduler_metrics().products->add();
    return MulOutcome{a * b, 0};
}

sim::BatchResult
ShardedScheduler::mul_batch_wave(WaveBuffer& wave,
                                const std::vector<std::size_t>& items,
                                const std::vector<std::uint64_t>& indices,
                                unsigned parallelism)
{
    CAMP_ASSERT(indices.size() == items.size());
    if (cap_bits_ != 0)
        for (const std::size_t item : items)
            check_operand_bits(std::max(wave.operand_a(item).bits(),
                                        wave.operand_b(item).bits()));
    sim::BatchResult result;
    const std::size_t count = items.size();
    if (count == 0)
        return result;

    struct WaveSlot
    {
        ShardedScheduler* scheduler;
        unsigned slot;
        ~WaveSlot() { scheduler->release_wave_slot(slot); }
    } slot{this, acquire_wave_slot()};

    const std::vector<std::size_t> alive = alive_shards();
    CAMP_ASSERT(!alive.empty());
    support::trace::Span span("exec.scheduler.wave", "exec");
    span.arg("count", static_cast<double>(count));
    span.arg("shards", static_cast<double>(alive.size()));

    // LPT over the wave's operand views (positions 0..count-1 index
    // into @p items).
    std::vector<std::vector<std::size_t>> assign;
    if (alive.size() == 1) {
        assign.resize(1);
        assign[0].resize(count);
        std::iota(assign[0].begin(), assign[0].end(), std::size_t{0});
    } else {
        std::vector<std::vector<double>> weights(
            alive.size(), std::vector<double>(count));
        for (std::size_t s = 0; s < alive.size(); ++s) {
            const CheckedDevice& device = *shards_[alive[s]]->device;
            for (std::size_t i = 0; i < count; ++i)
                weights[s][i] =
                    device
                        .cost(std::max<std::uint64_t>(
                                  1, wave.operand_a(items[i]).bits()),
                              std::max<std::uint64_t>(
                                  1, wave.operand_b(items[i]).bits()))
                        .seconds;
        }
        assign = lpt_assign(weights);
    }

    // Per-shard staging out of this slot's recycled storage: only the
    // *item numbers* move between hops now — operands and results stay
    // in the wave.
    WaveStaging& staging = staging_[slot.slot];
    staging.items.resize(
        std::max(staging.items.size(), alive.size()));
    staging.indices.resize(
        std::max(staging.indices.size(), alive.size()));
    for (std::size_t s = 0; s < alive.size(); ++s) {
        staging.items[s].clear();
        staging.indices[s].clear();
        for (const std::size_t pos : assign[s]) {
            staging.items[s].push_back(items[pos]);
            staging.indices[s].push_back(indices[pos]);
        }
    }

    // Concurrent shard execution over disjoint item sets of the one
    // shared wave; each shard writes only its own items' result slots
    // (the Device::mul_batch_wave concurrency contract).
    struct SubResult
    {
        sim::BatchResult batch;
        bool failed = false;
    };
    std::vector<SubResult> subs(alive.size());
    {
        support::TaskGroup group;
        for (std::size_t s = 0; s < alive.size(); ++s) {
            if (assign[s].empty())
                continue;
            group.run([this, &wave, &staging, &subs, &alive,
                       parallelism, s] {
                support::trace::Span shard_span("exec.shard.wave",
                                                "exec");
                shard_span.arg("shard",
                               static_cast<double>(alive[s]));
                shard_span.arg(
                    "count",
                    static_cast<double>(staging.items[s].size()));
                try {
                    subs[s].batch =
                        shards_[alive[s]]->device->mul_batch_wave(
                            wave, staging.items[s], staging.indices[s],
                            parallelism);
                } catch (const std::exception&) {
                    subs[s].failed = true;
                }
            });
        }
        group.wait();
    }

    // Publish one recovered (exact) product into the wave.
    const auto recover_into_wave = [this, &wave](std::size_t from,
                                                 std::size_t item,
                                                 std::uint64_t&
                                                     injected) {
        const auto [a, b] = wave.operand_pair(item);
        wave.set_result(item, recover_product(from, a, b, injected));
    };

    // Reassemble per-product accounting in wave order; products live
    // in the wave already.
    result.per_product.resize(count);
    unsigned shards_used = 0;
    for (std::size_t s = 0; s < alive.size(); ++s) {
        if (assign[s].empty())
            continue;
        ++shards_used;
        Shard& shard = *shards_[alive[s]];
        if (subs[s].failed) {
            drain_shard(alive[s], "wave execution threw");
            for (const std::size_t pos : assign[s]) {
                std::uint64_t injected = 0;
                recover_into_wave(alive[s], items[pos], injected);
                result.injected += injected;
            }
            const std::uint64_t moved = assign[s].size();
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                shard.stats.redistributed += moved;
                stats_.redistributed += moved;
            }
            shard.metrics->redistributed->add(moved);
            scheduler_metrics().redistributed->add(moved);
            continue;
        }
        sim::BatchResult& sub = subs[s].batch;
        CAMP_ASSERT(sub.per_product.size() == assign[s].size());
        for (std::size_t k = 0; k < assign[s].size(); ++k)
            result.per_product[assign[s][k]] = sub.per_product[k];
        result.tasks += sub.tasks;
        result.bytes += sub.bytes;
        result.injected += sub.injected;
        result.faulty += sub.faulty;
        result.cycles = std::max(result.cycles, sub.cycles);
        result.waves = std::max(result.waves, sub.waves);
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            shard.stats.products += assign[s].size();
            ++shard.stats.waves;
        }
        shard.metrics->products->add(assign[s].size());
        shard.metrics->waves->add();
        shard.metrics->cycles->add(sub.cycles);
    }
    result.parallelism = shards_used;

    // Redistribute detected-faulty products: recompute exactly on a
    // surviving peer, CPU as last resort; the exact recovery
    // overwrites the wave slot. The per_product faulty flag stays set
    // — it records *detection*, and is deterministic under resharding
    // thanks to wave-global seeds.
    for (std::size_t s = 0; s < alive.size(); ++s) {
        if (assign[s].empty() || subs[s].failed ||
            subs[s].batch.faulty == 0)
            continue;
        Shard& shard = *shards_[alive[s]];
        std::uint64_t moved = 0;
        for (const std::size_t pos : assign[s]) {
            if (!result.per_product[pos].faulty)
                continue;
            std::uint64_t injected = 0;
            recover_into_wave(alive[s], items[pos], injected);
            result.injected += injected;
            ++moved;
        }
        if (moved != 0) {
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                shard.stats.redistributed += moved;
                stats_.redistributed += moved;
            }
            shard.metrics->redistributed->add(moved);
            scheduler_metrics().redistributed->add(moved);
        }
        if (policy_.drain_fault_threshold != 0 &&
            subs[s].batch.faulty >= policy_.drain_fault_threshold)
            drain_shard(alive[s], "faulty products in wave");
    }

    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.waves;
        stats_.products += count;
    }
    scheduler_metrics().waves->add();
    scheduler_metrics().products->add(count);
    return result;
}

CostEstimate
ShardedScheduler::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    // The scheduler places a single product on its cheapest shard.
    bool first = true;
    CostEstimate best;
    for (const std::size_t i : alive_shards()) {
        const CostEstimate estimate =
            shards_[i]->device->cost(bits_a, bits_b);
        if (first || estimate.seconds < best.seconds) {
            best = estimate;
            first = false;
        }
    }
    return best;
}

} // namespace camp::exec
