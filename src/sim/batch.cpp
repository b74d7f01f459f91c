#include "sim/batch.hpp"

#include <memory>

#include "mpn/basic.hpp"
#include "mpn/ophook.hpp"
#include "sim/gather_unit.hpp"
#include "sim/memory_agent.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::sim {

using mpn::Natural;

BatchEngine::BatchEngine(const SimConfig& config, bool validate)
    : config_(config), validate_(validate)
{
}

BatchEngine::ProductOutcome
BatchEngine::multiply_one(std::uint64_t seed_index, const Natural& a,
                          const Natural& b) const
{
    // Sim-internal arithmetic (gathering, golden checks) must not be
    // announced to op hooks: it is not application kernel work, and
    // this body runs on pool threads.
    mpn::OpHookSuspend suspend;
    support::trace::Span span("sim.batch.product", "sim");
    span.arg("index", static_cast<double>(seed_index));
    span.arg("bits_a", static_cast<double>(a.bits()));
    ProductOutcome out;
    if (a.is_zero() || b.is_zero())
        return out;
    CAMP_ASSERT(a.bits() <= config_.monolithic_cap_bits &&
                b.bits() <= config_.monolithic_cap_bits);

    // Per-product fault stream: seeded by product index so the
    // injected sequence replays identically at any parallelism.
    std::unique_ptr<FaultEngine> faults;
    if (config_.faults.enabled()) {
        FaultConfig fc = config_.faults;
        fc.seed += seed_index;
        faults = std::make_unique<FaultEngine>(fc);
    }

    CoreMemoryAgent cma(config_, faults.get());
    auto x = to_hw_limbs(a, config_.limb_bits);
    auto y = to_hw_limbs(b, config_.limb_bits);
    cma.stream_in_limbs(x, a.bits());
    cma.stream_in_limbs(y, b.bits());

    // Per-product convolution, exactly the monolithic dataflow but
    // bounded to this product's PE group; the fault surface per IPU
    // task mirrors Core::run_work's fast-fidelity path.
    std::vector<u128> sums(x.size() + y.size() - 1, 0);
    for (std::size_t t = 0; t < sums.size(); ++t) {
        const std::size_t lo = t >= x.size() ? t - x.size() + 1 : 0;
        const std::size_t hi = std::min(y.size() - 1, t);
        for (std::size_t j = lo; j <= hi; ++j)
            sums[t] += static_cast<u128>(x[t - j]) * y[j];
        const std::uint64_t position_tasks = (hi - lo) / config_.q + 1;
        out.tasks += position_tasks;
        if (faults) {
            for (std::uint64_t w = 0; w < position_tasks; ++w) {
                if (faults->fire(FaultSite::IpuAccumulator))
                    sums[t] ^= static_cast<u128>(1)
                               << faults->below(2 * config_.limb_bits +
                                                config_.q);
                if (faults->fire(FaultSite::ConverterPattern))
                    sums[t] += static_cast<u128>(1 + faults->below(15))
                               << faults->below(config_.limb_bits);
            }
        }
    }

    GatherUnit gather_unit(config_);
    if (faults)
        gather_unit.set_fault_engine(faults.get());
    out.product = gather_unit.gather(sums);
    cma.stream_out(a.bits() + b.bits());
    out.bytes = cma.total_bytes();
    out.stall_cycles = cma.stall_cycles();
    if (faults)
        out.injected = faults->total_injected();

    if (validate_) {
        if (config_.faults.enabled()) {
            // Corruption is the injected, expected outcome: count it.
            out.faulty = out.product != a * b;
        } else {
            CAMP_ASSERT(out.product == a * b);
        }
    }
    return out;
}

unsigned
BatchEngine::run_slices(
    std::size_t count, unsigned parallelism,
    const std::function<void(std::size_t, std::size_t)>& run_slice)
    const
{
    support::ThreadPool& pool = support::ThreadPool::global();
    const bool fork = parallelism != 1 && count > 1 && pool.parallel() &&
                      support::parallel_allowed();
    // Products are chunked per pool task: one task per product drowned
    // small widths in spawn/steal overhead (the 0.47x batch_mul_pooled
    // regression). Outcomes depend only on the seed index, so placement
    // and chunking never change the results.
    if (fork) {
        const std::size_t chunks =
            std::min(count,
                     static_cast<std::size_t>(pool.executors()) * 4);
        const std::size_t step = (count + chunks - 1) / chunks;
        support::TaskGroup group(pool);
        for (std::size_t lo = step; lo < count; lo += step) {
            const std::size_t hi = std::min(count, lo + step);
            group.run([&run_slice, lo, hi] { run_slice(lo, hi); });
        }
        run_slice(0, std::min(count, step));
        group.wait();
        return pool.executors();
    }
    run_slice(0, count);
    return 1;
}

void
BatchEngine::fold_outcomes(std::vector<ProductOutcome>& outcomes,
                           BatchResult& result) const
{
    namespace metrics = support::metrics;
    // Fold in product order: aggregates are independent of placement.
    const std::size_t count = outcomes.size();
    std::uint64_t stall_cycles = 0;
    result.products.reserve(count);
    result.per_product.reserve(count);
    for (ProductOutcome& out : outcomes) {
        result.products.push_back(std::move(out.product));
        result.per_product.push_back({out.tasks, out.bytes,
                                      out.stall_cycles, out.injected,
                                      out.faulty});
        result.tasks += out.tasks;
        result.bytes += out.bytes;
        stall_cycles += out.stall_cycles;
        result.injected += out.injected;
        result.faulty += out.faulty ? 1 : 0;
    }
    static metrics::Counter& products =
        metrics::counter("sim.batch.products");
    static metrics::Counter& faulty = metrics::counter("sim.batch.faulty");
    static metrics::Counter& injected =
        metrics::counter("sim.batch.injected");
    static metrics::Gauge& size_max = metrics::gauge("sim.batch.size_max");
    products.add(count);
    faulty.add(result.faulty);
    injected.add(result.injected);
    size_max.update_max(static_cast<std::int64_t>(count));

    // Batch scheduling: tasks from independent products pack the whole
    // fabric (no inter-product dependencies), so waves are simply the
    // pooled-capacity quotient; memory time is the pooled traffic at
    // the duty-limited LLC bandwidth plus injected stalls (identical
    // to accumulating one CMA across the whole batch).
    result.waves =
        (result.tasks + config_.total_ipus() - 1) / config_.total_ipus();
    const std::uint64_t compute = result.waves * config_.limb_bits;
    const double bpc = config_.llc_bytes_per_cycle();
    const std::uint64_t memory_cycles =
        static_cast<std::uint64_t>(
            static_cast<double>(result.bytes) / bpc + 0.999999) +
        stall_cycles;
    result.cycles = std::max<std::uint64_t>(compute, memory_cycles);
}

BatchResult
BatchEngine::multiply_batch(
    const std::vector<std::pair<Natural, Natural>>& pairs,
    unsigned parallelism, const std::vector<std::uint64_t>* seed_indices)
{
    support::trace::Span span("sim.batch.multiply_batch", "sim");
    span.arg("count", static_cast<double>(pairs.size()));
    BatchResult result;
    const std::size_t count = pairs.size();
    CAMP_ASSERT(seed_indices == nullptr ||
                seed_indices->size() == count);
    std::vector<ProductOutcome> outcomes(count);
    const auto seed_of = [seed_indices](std::size_t i) {
        return seed_indices == nullptr
                   ? static_cast<std::uint64_t>(i)
                   : (*seed_indices)[i];
    };
    const auto run_slice = [this, &outcomes, &pairs,
                            &seed_of](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            outcomes[i] = multiply_one(seed_of(i), pairs[i].first,
                                       pairs[i].second);
    };
    result.parallelism = run_slices(count, parallelism, run_slice);
    fold_outcomes(outcomes, result);
    return result;
}

BatchResult
BatchEngine::multiply_batch_views(
    const std::pair<mpn::LimbView, mpn::LimbView>* views,
    std::size_t count, unsigned parallelism,
    const std::vector<std::uint64_t>* seed_indices)
{
    support::trace::Span span("sim.batch.multiply_batch", "sim");
    span.arg("count", static_cast<double>(count));
    BatchResult result;
    CAMP_ASSERT(seed_indices == nullptr ||
                seed_indices->size() == count);
    std::vector<ProductOutcome> outcomes(count);
    const auto seed_of = [seed_indices](std::size_t i) {
        return seed_indices == nullptr
                   ? static_cast<std::uint64_t>(i)
                   : (*seed_indices)[i];
    };
    // Each product materializes its operands from the wave-owned views
    // on the executing pool thread: that copy *is* the simulated
    // stream-in (the core reads operands into its SRAM regardless), so
    // the host-side hop SubmitQueue used to pay is gone while the sim
    // dataflow is unchanged.
    const auto run_slice = [this, &outcomes, views,
                            &seed_of](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            outcomes[i] = multiply_one(seed_of(i),
                                       views[i].first.to_natural(),
                                       views[i].second.to_natural());
    };
    result.parallelism = run_slices(count, parallelism, run_slice);
    fold_outcomes(outcomes, result);
    return result;
}

} // namespace camp::sim
