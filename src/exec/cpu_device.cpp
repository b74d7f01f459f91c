#include "exec/cpu_device.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "exec/wave.hpp"
#include "mpn/mul.hpp"
#include "mpn/ophook.hpp"
#include "sim/comparators.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::exec {

using mpn::Natural;

CpuDevice::CpuDevice(const sim::SimConfig&)
{
    tuning_ =
        apply_device_env_tuning("cpu", mpn::mul_tuning());
}

MulOutcome
CpuDevice::mul(const Natural& a, const Natural& b)
{
    return MulOutcome{a * b, 0};
}

sim::BatchResult
CpuDevice::mul_batch_wave(WaveBuffer& wave,
                          const std::vector<std::size_t>& items,
                          const std::vector<std::uint64_t>& indices,
                          unsigned parallelism)
{
    support::trace::Span span("exec.cpu.mul_batch_wave", "exec");
    span.arg("count", static_cast<double>(items.size()));
    CAMP_ASSERT(indices.size() == items.size());
    sim::BatchResult result;
    const std::size_t count = items.size();
    result.per_product.resize(count);
    result.tasks = count;

    // A pool round trip costs more than a small wave's whole multiply,
    // so the wave forks only when fork_slices (the host fork rule)
    // leaves at least two slices.
    support::ThreadPool& pool = support::ThreadPool::global();
    std::size_t chunks = 1;
    if (parallelism != 1 && count > 1 && pool.parallel() &&
        support::parallel_allowed())
        chunks = fork_slices(
            wave, items,
            std::min(count, static_cast<std::size_t>(pool.executors()) * 4));
    const bool fork = chunks >= 2;
    result.parallelism = fork ? pool.executors() : 1;
    // Contiguous slices (not one pool task per product), each
    // multiplying wave-owned operand views straight into the wave's
    // result slots: steady state, a whole wave multiplies without one
    // product-buffer allocation (this is what bench/perf_smoke's
    // alloc_per_wave row gates on).
    const auto slice = [&wave, &items](std::size_t lo, std::size_t hi) {
        mpn::OpHookSuspend suspend;
        for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t item = items[k];
            mpn::LimbView a = wave.operand_a(item);
            mpn::LimbView b = wave.operand_b(item);
            if (a.is_zero() || b.is_zero()) {
                wave.set_result_size(item, 0);
                continue;
            }
            if (a.len < b.len)
                std::swap(a, b);
            mpn::mul(wave.result_ptr(item), a.ptr, a.len, b.ptr, b.len);
            wave.set_result_size(item, a.len + b.len);
        }
    };
    if (fork) {
        const std::size_t step = (count + chunks - 1) / chunks;
        support::TaskGroup group(pool);
        for (std::size_t lo = step; lo < count; lo += step) {
            const std::size_t hi = std::min(count, lo + step);
            group.run([&slice, lo, hi] { slice(lo, hi); });
        }
        slice(0, std::min(count, step));
        group.wait();
    } else {
        slice(0, count);
    }
    return result;
}

CostEstimate
CpuDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    // Calibration constant: ~2 ns per Karatsuba-exponent limb op puts
    // a 1-Mbit balanced product near 10 ms, the right order for the
    // mpn kernels on a contemporary core.
    constexpr double kSecondsPerLimbOp = 2e-9;
    const double la =
        std::max<double>(1.0, static_cast<double>(bits_a) / 64.0);
    const double lb =
        std::max<double>(1.0, static_cast<double>(bits_b) / 64.0);
    CostEstimate estimate;
    estimate.seconds =
        kSecondsPerLimbOp * std::pow(std::sqrt(la * lb), 1.585);
    estimate.energy_j = estimate.seconds * sim::skylake_cpu().power_w;
    return estimate;
}

} // namespace camp::exec
