#include "exec/device.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <string>

#include "exec/wave.hpp"
#include "support/trace.hpp"

namespace camp::exec {

sim::BatchResult
Device::mul_batch(
    const std::vector<std::pair<mpn::Natural, mpn::Natural>>& pairs,
    unsigned parallelism)
{
    WaveBuffer wave;
    std::vector<std::size_t> items(pairs.size());
    std::vector<std::uint64_t> indices(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        items[i] = wave.add(pairs[i].first, pairs[i].second);
        indices[i] = i;
    }
    sim::BatchResult result =
        mul_batch_wave(wave, items, indices, parallelism);
    result.products.reserve(items.size());
    for (const std::size_t item : items)
        result.products.push_back(wave.take_result(item));
    return result;
}

WaveRun
run_wave(Device& device, WaveBuffer& wave, std::vector<std::size_t>& items,
         std::vector<std::uint64_t>& indices, unsigned parallelism,
         const char* span_name)
{
    items.resize(wave.size());
    indices.resize(wave.size());
    std::iota(items.begin(), items.end(), std::size_t{0});
    std::iota(indices.begin(), indices.end(), std::uint64_t{0});
    WaveRun run;
    support::trace::Span span(span_name, "exec");
    span.arg("count", static_cast<double>(wave.size()));
    try {
        run.result =
            device.mul_batch_wave(wave, items, indices, parallelism);
    } catch (const std::exception& e) {
        run.error = error_code_of(e);
        run.message = e.what();
    }
    return run;
}

const char*
device_kind_name(DeviceKind kind)
{
    switch (kind) {
    case DeviceKind::Host: return "host";
    case DeviceKind::Accelerator: return "accelerator";
    case DeviceKind::Model: return "model";
    }
    return "?";
}

mpn::MulTuning
retuned_for_cap(std::uint64_t cap_bits)
{
    mpn::MulTuning t;
    // The hardware executes everything up to the base case
    // monolithically, so the first software algorithm (Karatsuba)
    // engages only above it and Toom-3 above six base cases — the
    // same "fast algorithms delayed accordingly" policy the cost
    // model uses (paper §VII-B, 35904-bit base case).
    const std::uint64_t cap_limbs =
        std::max<std::uint64_t>(2, cap_bits / mpn::kLimbBits);
    t.karatsuba = static_cast<std::size_t>(cap_limbs);
    t.toom3 = static_cast<std::size_t>(6 * cap_limbs);
    t.toom4 = 4 * t.toom3;
    t.toom6 = 4 * t.toom4;
    t.ssa = 4 * t.toom6;
    return t;
}

mpn::MulTuning
apply_device_env_tuning(const char* device_name, mpn::MulTuning tuning)
{
    std::string prefix = "CAMP_";
    for (const char* p = device_name; *p != '\0'; ++p)
        prefix += static_cast<char>(
            std::toupper(static_cast<unsigned char>(*p)));
    return mpn::env_tuning(prefix + "_MUL_THRESH_", tuning);
}

} // namespace camp::exec
