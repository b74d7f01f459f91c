/**
 * @file
 * SimDevice: the functionally simulated Cambricon-P backend. Base
 * products execute on sim::Core exactly as the hardware would
 * (inner-product transformation, bit-indexed IPUs, carry parallel
 * gathering); waves run on sim::BatchEngine over the shared
 * PE/IPU fabric. Fault injection armed in the SimConfig flows
 * through unchanged, and the injected-fault count of every operation
 * is reported in its outcome so callers (CheckedDevice, Runtime) can
 * account for recovery.
 */
#ifndef CAMP_EXEC_SIM_DEVICE_HPP
#define CAMP_EXEC_SIM_DEVICE_HPP

#include "exec/device.hpp"
#include "sim/analytic_model.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/tech_model.hpp"

namespace camp::exec {

class SimDevice : public Device
{
  public:
    /** @p config must already be validated (the registry and Runtime
     * funnel through sim::validated). */
    explicit SimDevice(const sim::SimConfig& config =
                           sim::default_config());

    const char* name() const override { return "sim"; }
    DeviceKind kind() const override
    {
        return DeviceKind::Accelerator;
    }
    std::uint64_t base_cap_bits() const override
    {
        return config_.monolithic_cap_bits;
    }

    MulOutcome mul(const mpn::Natural& a,
                   const mpn::Natural& b) override;

    /** Wave execution through BatchEngine::multiply_batch_views: the
     * engine streams operands straight from the wave's limb runs (no
     * host-side pair materialization; the simulated stream-in copy is
     * intrinsic to the model), each product on the fault stream of its
     * wave-global seed index. Validation is always on: without faults
     * it asserts exactness, with faults armed mismatching products are
     * the expected detection path, counted in BatchResult::faulty. */
    sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    CostEstimate cost(std::uint64_t bits_a,
                      std::uint64_t bits_b) const override;

    const sim::SimConfig& config() const { return config_; }

    sim::Core& core() { return core_; }

  private:
    sim::SimConfig config_;
    sim::Core core_;
    sim::AnalyticModel analytic_;
    sim::EnergyModel energy_;
    std::uint64_t injected_seen_ = 0;
};

} // namespace camp::exec

#endif // CAMP_EXEC_SIM_DEVICE_HPP
