/**
 * @file
 * AnalyticDevice: the modelled Cambricon-P backend. Products are
 * computed exactly through the mpn kernels (so results stay
 * bit-identical with every other backend) while cycle/energy
 * accounting comes from the calibrated analytic model — the right
 * tool for large design-space sweeps where functional simulation of
 * every base product would be pointlessly slow (the same trade the
 * MPApca cost model makes, paper §V-C).
 */
#ifndef CAMP_EXEC_ANALYTIC_DEVICE_HPP
#define CAMP_EXEC_ANALYTIC_DEVICE_HPP

#include "exec/cpu_device.hpp"
#include "exec/device.hpp"
#include "sim/analytic_model.hpp"
#include "sim/config.hpp"
#include "sim/tech_model.hpp"

namespace camp::exec {

/** One base product's modelled cost on @p config: cycles from the
 * analytic schedule, energy from the technology model. The cost
 * answer of both Cambricon-P backends (sim and analytic). */
CostEstimate analytic_cost(const sim::SimConfig& config,
                           const sim::AnalyticModel& model,
                           const sim::EnergyModel& energy,
                           std::uint64_t bits_a, std::uint64_t bits_b);

class AnalyticDevice : public Device
{
  public:
    explicit AnalyticDevice(const sim::SimConfig& config =
                                sim::default_config());

    const char* name() const override { return "analytic"; }
    DeviceKind kind() const override { return DeviceKind::Model; }
    std::uint64_t base_cap_bits() const override
    {
        return config_.monolithic_cap_bits;
    }

    MulOutcome mul(const mpn::Natural& a,
                   const mpn::Natural& b) override;

    /** Products come from the host wave routine (CpuDevice's); batch
     * accounting mirrors sim::BatchEngine's wave pooling — tasks from
     * independent products pack the whole fabric — with per-product
     * task/byte counts from the analytic schedule. */
    sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    CostEstimate cost(std::uint64_t bits_a,
                      std::uint64_t bits_b) const override;

    const sim::SimConfig& config() const { return config_; }

  private:
    sim::SimConfig config_;
    sim::AnalyticModel analytic_;
    sim::EnergyModel energy_;
    CpuDevice host_; ///< computes the exact products of a wave
};

} // namespace camp::exec

#endif // CAMP_EXEC_ANALYTIC_DEVICE_HPP
