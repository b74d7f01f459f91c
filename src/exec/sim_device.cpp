#include "exec/sim_device.hpp"

#include <utility>

#include "exec/analytic_device.hpp"
#include "exec/wave.hpp"
#include "support/assert.hpp"

namespace camp::exec {

using mpn::Natural;

SimDevice::SimDevice(const sim::SimConfig& config)
    : config_(sim::validated(config)),
      core_(config_, sim::Fidelity::Fast, /*validate=*/false),
      analytic_(config_),
      energy_(sim::cambricon_p_energy(config_))
{
    tuning_ = apply_device_env_tuning(
        "sim", retuned_for_cap(config_.monolithic_cap_bits));
}

MulOutcome
SimDevice::mul(const Natural& a, const Natural& b)
{
    MulOutcome outcome;
    outcome.product = core_.multiply(a, b).product;
    if (const FaultEngine* engine = core_.fault_engine()) {
        const std::uint64_t now = engine->total_injected();
        outcome.injected = now - injected_seen_;
        injected_seen_ = now;
    }
    return outcome;
}

sim::BatchResult
SimDevice::mul_batch_wave(WaveBuffer& wave,
                          const std::vector<std::size_t>& items,
                          const std::vector<std::uint64_t>& indices,
                          unsigned parallelism)
{
    CAMP_ASSERT(indices.size() == items.size());
    std::vector<std::pair<mpn::LimbView, mpn::LimbView>> views;
    views.reserve(items.size());
    for (const std::size_t item : items)
        views.emplace_back(wave.operand_a(item), wave.operand_b(item));
    sim::BatchEngine engine(config_, /*validate=*/true);
    sim::BatchResult result = engine.multiply_batch_views(
        views.data(), views.size(), parallelism, &indices);
    CAMP_ASSERT(result.products.size() == items.size());
    // The gathered products come out of the simulated core's SRAM;
    // publish them into the wave's result slots (stream-out).
    for (std::size_t k = 0; k < items.size(); ++k)
        wave.set_result(items[k], result.products[k],
                        result.per_product[k].faulty);
    result.products.clear();
    return result;
}

CostEstimate
SimDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    return analytic_cost(config_, analytic_, energy_, bits_a, bits_b);
}

} // namespace camp::exec
