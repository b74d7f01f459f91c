/**
 * @file
 * CpuDevice: the host backend — base products execute through the mpn
 * kernels (the same code path the applications use directly), waves
 * whose work repays a fork fan out across the global thread pool
 * (the host fork rule, fork_slices in exec/wave.hpp). This is the
 * reference machine every other backend is checked against, so its
 * products are golden by construction.
 */
#ifndef CAMP_EXEC_CPU_DEVICE_HPP
#define CAMP_EXEC_CPU_DEVICE_HPP

#include "exec/device.hpp"
#include "sim/config.hpp"

namespace camp::exec {

class CpuDevice : public Device
{
  public:
    explicit CpuDevice(const sim::SimConfig& config =
                           sim::default_config());

    const char* name() const override { return "cpu"; }
    DeviceKind kind() const override { return DeviceKind::Host; }
    std::uint64_t base_cap_bits() const override { return 0; }

    MulOutcome mul(const mpn::Natural& a,
                   const mpn::Natural& b) override;

    /** Zero-copy wave execution: mpn::mul runs on each item's
     * operand views and writes its product straight into the item's
     * result slot — no Natural materialization, no product-buffer
     * allocation. Forks into fork_slices(wave, items,
     * min(count, 4·executors)) slices when that is at least two;
     * otherwise runs on the caller. */
    sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    /**
     * Rough host-time model: c * n^1.585 limb operations (the
     * Karatsuba exponent) at a fixed per-op constant, energy at the
     * Table III SkyLake busy power. Good enough for placement
     * decisions; the Fig. 13 methodology always *measures* the CPU.
     */
    CostEstimate cost(std::uint64_t bits_a,
                      std::uint64_t bits_b) const override;
};

} // namespace camp::exec

#endif // CAMP_EXEC_CPU_DEVICE_HPP
