#include "exec/analytic_device.hpp"

#include <algorithm>

#include "exec/wave.hpp"
#include "mpn/ophook.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

AnalyticDevice::AnalyticDevice(const sim::SimConfig& config)
    : config_(sim::validated(config)),
      analytic_(config_),
      energy_(sim::cambricon_p_energy(config_))
{
    tuning_ = apply_device_env_tuning(
        "analytic", retuned_for_cap(config_.monolithic_cap_bits));
}

MulOutcome
AnalyticDevice::mul(const Natural& a, const Natural& b)
{
    // Device-internal arithmetic, not application kernel work.
    mpn::OpHookSuspend suspend;
    return MulOutcome{a * b, 0};
}

sim::BatchResult
AnalyticDevice::mul_batch_wave(WaveBuffer& wave,
                               const std::vector<std::size_t>& items,
                               const std::vector<std::uint64_t>& indices,
                               unsigned parallelism)
{
    support::trace::Span span("exec.analytic.mul_batch_wave", "exec");
    span.arg("count", static_cast<double>(items.size()));
    sim::BatchResult result =
        host_.mul_batch_wave(wave, items, indices, parallelism);
    result.tasks = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
        const std::uint64_t bits_a = wave.operand_a(items[k]).bits();
        const std::uint64_t bits_b = wave.operand_b(items[k]).bits();
        if (bits_a == 0 || bits_b == 0)
            continue; // zero product, zero accounting (BatchEngine rule)
        CAMP_ASSERT(bits_a <= config_.monolithic_cap_bits &&
                    bits_b <= config_.monolithic_cap_bits);
        const sim::CoreStats per = analytic_.multiply_stats(bits_a, bits_b);
        result.per_product[k].tasks = per.tasks;
        result.per_product[k].bytes = per.bytes;
        result.tasks += per.tasks;
        result.bytes += per.bytes;
    }
    // Same wave pooling as sim::BatchEngine: independent products pack
    // the whole fabric, memory time is pooled traffic at the
    // duty-limited LLC bandwidth (no injected stalls: the model is
    // fault-free by construction).
    result.waves = (result.tasks + config_.total_ipus() - 1) /
                   config_.total_ipus();
    const std::uint64_t compute = result.waves * config_.limb_bits;
    const double bpc = config_.llc_bytes_per_cycle();
    const std::uint64_t memory_cycles = static_cast<std::uint64_t>(
        static_cast<double>(result.bytes) / bpc + 0.999999);
    result.cycles = std::max<std::uint64_t>(compute, memory_cycles);
    return result;
}

CostEstimate
AnalyticDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    return analytic_cost(config_, analytic_, energy_, bits_a, bits_b);
}

CostEstimate
analytic_cost(const sim::SimConfig& config,
              const sim::AnalyticModel& model,
              const sim::EnergyModel& energy, std::uint64_t bits_a,
              std::uint64_t bits_b)
{
    const sim::CoreStats stats = model.multiply_stats(bits_a, bits_b);
    CostEstimate estimate;
    estimate.cycles = static_cast<double>(stats.cycles);
    estimate.seconds = stats.seconds(config);
    estimate.energy_j = energy.energy(stats, config);
    return estimate;
}

} // namespace camp::exec
